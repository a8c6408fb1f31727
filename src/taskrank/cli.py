"""Command-line front end.

Subcommands: index-stats, run, eval, classify, select-terms, priors, sweep.

``run`` and ``sweep`` build their PipelineConfig from one flat settings dict:
flags over a --config JSON file over the dataclass defaults. Each line of a
sweep grid is a flat dict of ExpansionConfig settings over that class's
defaults. ``SETTINGS`` lists the accepted keys. Topics run one after another
in a single thread, so output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from enum import Enum

from .corpus import load_collection
from .errors import TaskRankError
from .evaluation import evaluate_run, parse_qrels, parse_run, residual_filter, sweep, write_run
from .fusion import FusionConfig
from .indexing import Bm25Params, IndexVariant, InvertedIndex, TokenizedCollection, build_index
from .pipeline import Pipeline, PipelineConfig, RunVariant
from .querygen import ConfidenceMode, ExpansionConfig, LexiconExtractor, default_lexicon, select_task_terms
from .rerank import RerankConfig, build_journal_priors, build_per_task_priors, export_priors
from .tasks import (
    AssignmentSource,
    TaskAssignment,
    TaskClassifier,
    agreement,
    default_framework,
    json_objects,
    load_manual_map,
    load_tasks,
    load_topics,
)

# Flat setting key -> (dataclass that holds the setting, field name). The keys
# are the --config file keys and the flag names with "_" for "-"; the
# ExpansionConfig keys are also the sweep grid keys.
SETTINGS: dict[str, tuple[type, str]] = {
    "corpus": (PipelineConfig, "corpus_path"),
    "topics": (PipelineConfig, "topics_path"),
    "variant": (PipelineConfig, "variant"),
    "tasks": (PipelineConfig, "tasks_path"),
    "manual_map": (PipelineConfig, "manual_map_path"),
    "lexicon": (PipelineConfig, "lexicon_path"),
    "qrels": (PipelineConfig, "qrels_path"),
    "vectors": (PipelineConfig, "vectors_path"),
    "run_tag": (PipelineConfig, "run_tag"),
    "top_k": (PipelineConfig, "top_k"),
    "k1": (Bm25Params, "k1"),
    "b": (Bm25Params, "b"),
    "rrf_k": (FusionConfig, "rrf_k"),
    "alpha": (RerankConfig, "alpha"),
    "n_task_terms": (ExpansionConfig, "n_task_terms"),
    "dup_query": (ExpansionConfig, "dup_query"),
    "dup_question": (ExpansionConfig, "dup_question"),
    "dup_task": (ExpansionConfig, "dup_task"),
    "confidence_mode": (ExpansionConfig, "confidence_mode"),
    "gate_threshold": (ExpansionConfig, "gate_threshold"),
    "route_task_terms": (ExpansionConfig, "route_task_terms_fulltext_only"),
}
# The PipelineConfig field that holds each part.
_PARTS = {Bm25Params: "bm25", FusionConfig: "fusion", RerankConfig: "rerank",
          ExpansionConfig: "expansion"}
_SWEEP_VARIANT = RunVariant.QUERY_TASK


def _convert(owner: type, name: str, value):
    """Convert a JSON or flag value to the type the dataclass field declares."""
    kind = typing.get_type_hints(owner)[name]
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    if kind in (int, float) or isinstance(kind, type) and issubclass(kind, Enum):
        return kind(value)
    return value


def build_config(cls: type, settings: dict, source: str):
    """Build PipelineConfig, or one of its parts, from a flat settings dict.

    Fields absent from ``settings`` keep their dataclass defaults. A key that
    is not a setting of ``cls``, a value that does not convert to the field's
    type, or a value the dataclass rejects raises TaskRankError naming
    ``source``.
    """
    fields: dict[type, dict] = {}
    for key, value in settings.items():
        owner, name = SETTINGS.get(key, (None, None))
        if owner is None or cls not in (owner, PipelineConfig):
            raise TaskRankError(f"{source}: unknown {cls.__name__} setting {key!r}")
        try:
            fields.setdefault(owner, {})[name] = _convert(owner, name, value)
        except (TypeError, ValueError) as exc:
            raise TaskRankError(f"{source}: {key}: {exc}") from exc
    try:
        if cls is not PipelineConfig:
            return cls(**fields.get(cls, {}))
        top = fields.pop(PipelineConfig, {})
        top.update((_PARTS[owner], owner(**part)) for owner, part in fields.items())
        return PipelineConfig(**top)
    except ValueError as exc:
        raise TaskRankError(f"{source}: {exc}") from exc


def _pipeline_config(args, variant: RunVariant = PipelineConfig.variant) -> PipelineConfig:
    """Settings from flags over the --config file, then build_config."""
    settings = {"variant": variant.value}
    source = "command line"
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_settings = json.load(fh)
        if not isinstance(file_settings, dict):
            raise TaskRankError(f"{args.config}: config file must contain a JSON object")
        settings.update(file_settings)
        source = args.config
    settings.update(
        (key, value) for key, value in vars(args).items()
        if key in SETTINGS and value is not None
    )
    if not settings.get("corpus") or not settings.get("topics"):
        raise TaskRankError(f"{args.command} requires --corpus and --topics")
    return build_config(PipelineConfig, settings, source)


def cmd_index_stats(args) -> int:
    collection = load_collection(args.corpus)
    variants = list(IndexVariant) if args.variant == "all" else [IndexVariant(args.variant)]
    tokens = TokenizedCollection(collection)
    print(f"{'variant':<16} {'docs':>8} {'units':>8} {'avg_len':>10} {'vocab':>8} "
          f"{'bytes':>12}")
    for variant in variants:
        index = InvertedIndex(tokens, variant)
        print(
            f"{variant.value:<16} {index.doc_count:>8} {index.unit_count:>8} "
            f"{index.avg_unit_length:>10.2f} {index.vocab_size:>8} {index.nbytes:>12}"
        )
    return 0


def cmd_run(args) -> int:
    run = Pipeline(_pipeline_config(args)).run()
    try:
        write_run(run, args.output)
    except BaseException:
        if os.path.exists(args.output):
            os.unlink(args.output)
        raise
    retrieved = sum(len(r) for r in run.rankings.values())
    print(f"wrote {args.output}: {len(run.rankings)} topics, {retrieved} results")
    return 0


def cmd_eval(args) -> int:
    run = parse_run(args.run)
    qrels = parse_qrels(args.qrels)
    if args.residual_qrels:
        run = residual_filter(run, parse_qrels(args.residual_qrels))
    judged = qrels.topic_ids()
    unjudged = [t for t in run.topic_ids() if t not in judged]
    if unjudged:
        print(f"warning: no judgments for topics {unjudged}; scored 0", file=sys.stderr)
    absent = sorted(judged.difference(run.rankings))
    if absent:
        print(f"warning: judged topics {absent} not in the run; not scored", file=sys.stderr)
    report = evaluate_run(run, qrels, k=args.k)
    if args.json:
        print(
            json.dumps(
                {
                    "k": report.k,
                    "topics": {
                        str(t): {"ndcg": report.ndcg[t], "ap": report.ap[t]}
                        for t in sorted(report.ndcg)
                    },
                    "mean_ndcg": report.mean_ndcg,
                    "mean_map": report.mean_ap,
                    "topic_count": report.topic_count,
                }
            )
        )
        return 0
    print(f"{'topic':<8} {'ndcg@' + str(report.k):<10} {'ap':<10}")
    for topic_id in sorted(report.ndcg):
        print(f"{topic_id:<8} {report.ndcg[topic_id]:<10.4f} {report.ap[topic_id]:<10.4f}")
    print(f"{'all':<8} {report.mean_ndcg:<10.4f} {report.mean_ap:<10.4f}")
    return 0


def cmd_classify(args) -> int:
    topics = load_topics(args.topics)
    framework = load_tasks(args.tasks) if args.tasks else default_framework()
    classifier = TaskClassifier(framework)
    predictions = {t.topic_id: classifier.classify(t.query) for t in topics}
    print(f"{'topic':<8} {'task':<28} {'low_confidence'}")
    for topic in topics:
        pred = predictions[topic.topic_id]
        print(f"{topic.topic_id:<8} {pred.task_id:<28} {'yes' if pred.low_confidence else 'no'}")
    if args.manual_map:
        manual = load_manual_map(args.manual_map, framework)
        automatic = [
            TaskAssignment(topic_id=t, task_id=p.task_id, source=AssignmentSource.AUTOMATIC)
            for t, p in predictions.items()
        ]
        print(f"agreement {agreement(manual, automatic):.4f}")
    return 0


def cmd_select_terms(args) -> int:
    collection = load_collection(args.corpus)
    framework = load_tasks(args.tasks) if args.tasks else default_framework()
    extractor = (
        LexiconExtractor.from_file(args.lexicon) if args.lexicon else default_lexicon()
    )
    abstracts_index = build_index(collection, IndexVariant.TITLE_ABSTRACT)
    for task in framework:
        terms = select_task_terms(task, abstracts_index, extractor, args.n)
        print(f"{task.task_id}\t{', '.join(terms)}")
    return 0


def cmd_priors(args) -> int:
    qrels = parse_qrels(args.qrels)
    collection = load_collection(args.corpus)
    if args.per_task:
        if not args.manual_map:
            raise TaskRankError("--per-task requires --manual-map")
        framework = load_tasks(args.tasks) if args.tasks else default_framework()
        manual = load_manual_map(args.manual_map, framework)
        tables = build_per_task_priors(qrels, collection, manual)
        text = "".join(
            f"{task_id}\t{line}\n"
            for task_id, table in tables.items()
            for line in export_priors(table).splitlines()
        )
    else:
        text = export_priors(build_journal_priors(qrels, collection))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    grid = [
        build_config(ExpansionConfig, record, f"{args.grid} line {line_no}")
        for line_no, _line, record in json_objects(args.grid)
    ]
    base = _pipeline_config(args, _SWEEP_VARIANT)
    if not base.qrels_path:
        raise TaskRankError("sweep requires --qrels")
    qrels = parse_qrels(base.qrels_path)
    pipeline = Pipeline(base)
    rows = sweep(grid, lambda e: pipeline.with_expansion(e).run(), qrels, k=args.k)
    header = f"{'ndcg@' + str(args.k):<10} {'map':<10} config"
    print(header)
    for row in rows:
        if row.error is not None:
            print(f"{'-':<10} {'-':<10} {_expansion_label(row.config)}  FAILED: {row.error}")
        else:
            print(
                f"{row.mean_ndcg:<10.4f} {row.mean_ap:<10.4f} {_expansion_label(row.config)}"
            )
    return 0 if any(row.error is None for row in rows) else 1


def _expansion_label(config: ExpansionConfig) -> str:
    return (
        f"{config.dup_query} query : {config.dup_question} question : "
        f"{config.dup_task} task, n={config.n_task_terms}"
    )


def _add_pipeline_options(p: argparse.ArgumentParser, variant: RunVariant) -> None:
    p.add_argument("--corpus", help="corpus file (JSON lines)")
    p.add_argument("--topics", help="topics file (JSON lines)")
    p.add_argument("--variant", choices=[v.value for v in RunVariant],
                   help=f"run variant (default {variant.value})")
    p.add_argument("--tasks", help="task framework file; default: shipped tasks")
    p.add_argument("--manual-map", help="manual topic-task map")
    p.add_argument("--lexicon", help="term lexicon file; default: shipped lexicon")
    p.add_argument("--qrels", help="qrels file (journal prior variants)")
    p.add_argument("--vectors", help="vectors file (vector variant)")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--run-tag", help="run tag; default: variant name")
    p.add_argument("--k1", type=float, help=f"BM25 k1 (default {Bm25Params.k1})")
    p.add_argument("--b", type=float, help=f"BM25 b (default {Bm25Params.b})")
    p.add_argument("--rrf-k", type=float, help=f"RRF constant (default {FusionConfig.rrf_k})")
    p.add_argument("--top-k", type=int,
                   help=f"results per topic (default {PipelineConfig.top_k})")
    p.add_argument("--n-task-terms", type=int)
    p.add_argument("--dup-query", type=int)
    p.add_argument("--dup-question", type=int)
    p.add_argument("--dup-task", type=int)
    p.add_argument("--confidence-mode", choices=[m.value for m in ConfidenceMode])
    p.add_argument("--gate-threshold", type=int)
    p.add_argument(
        "--route-task-terms",
        action=argparse.BooleanOptionalAction,
        help="restrict task terms to the full-text index "
             f"(default {ExpansionConfig.route_task_terms_fulltext_only})",
    )
    p.add_argument("--alpha", type=float, help="re-rank retrieval weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskrank", description="Task-aware BM25 ranking and evaluation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index-stats", help="print index statistics per variant")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--variant", default="all", choices=["all"] + [v.value for v in IndexVariant]
    )
    p.set_defaults(func=cmd_index_stats)

    p = sub.add_parser("run", help="produce a TREC-format run file")
    _add_pipeline_options(p, PipelineConfig.variant)
    p.add_argument("--output", required=True, help="run file to write")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--residual-qrels", dest="residual_qrels", help="filter judged docs first")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="assign topics to tasks automatically")
    p.add_argument("--topics", required=True)
    p.add_argument("--tasks")
    p.add_argument("--manual-map", dest="manual_map")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("select-terms", help="show top task terms by TF-IDF")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tasks")
    p.add_argument("--lexicon")
    p.add_argument("--n", type=int, default=ExpansionConfig.n_task_terms)
    p.set_defaults(func=cmd_select_terms)

    p = sub.add_parser("priors", help="build journal prior tables from qrels")
    p.add_argument("--qrels", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--per-task", dest="per_task", action="store_true")
    p.add_argument("--manual-map", dest="manual_map")
    p.add_argument("--tasks")
    p.add_argument("--output")
    p.set_defaults(func=cmd_priors)

    p = sub.add_parser("sweep", help="grid-sweep expansion configs")
    _add_pipeline_options(p, _SWEEP_VARIANT)
    p.add_argument("--grid", required=True, help="JSON-lines grid of expansion configs")
    p.add_argument("--k", type=int, default=20)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TaskRankError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
