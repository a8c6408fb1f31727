"""Command-line front end.

Subcommands: index-stats, run, eval, classify, select-terms, priors, sweep.

``run`` and ``sweep`` build their PipelineConfig from flags over a --config
JSON file over the dataclass defaults. ``SETTINGS`` lists the keys and makes
the flags, whose string values ``build_config`` converts like the file's. A
sweep grid line sets ExpansionConfig keys over the flags and --config. Topics
run one after another in a single thread, so output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import typing
from dataclasses import replace
from enum import Enum

from .corpus import load_collection
from .errors import TaskRankError, integer, json_object, number, read_rows
from .evaluation import evaluate_run, parse_qrels, parse_run, residual_filter, sweep, write_run
from .fusion import FusionConfig
from .indexing import Bm25Params, IndexVariant
from .pipeline import TASK_EXPANDED, Pipeline, PipelineConfig, RunVariant, load_corpus
from .querygen import ExpansionConfig, LexiconExtractor, default_lexicon, select_task_terms
from .rerank import (VECTOR_ALPHA, RerankConfig, build_journal_priors, build_per_task_priors,
                     export_priors)
from .tasks import (
    TaskAssignment,
    TaskClassifier,
    agreement,
    default_framework,
    load_manual_map,
    load_tasks,
    load_topics,
)

# Flat setting key -> (dataclass that holds the setting, field name, help).
# The keys are the --config file keys and the flag names with "_" for "-";
# the ExpansionConfig keys are also the sweep grid keys. The help of a
# setting without a dataclass default says what leaving it unset means.
SETTINGS: dict[str, tuple[type, str, str]] = {
    "corpus": (PipelineConfig, "corpus_path", "corpus file (JSON lines); required"),
    "topics": (PipelineConfig, "topics_path", "topics file (JSON lines); required"),
    "variant": (PipelineConfig, "variant", "run variant"),
    "tasks": (PipelineConfig, "tasks_path", "task framework file; unset: the shipped tasks"),
    "manual_map": (PipelineConfig, "manual_map_path", "manual topic-task map; unset: classify"),
    "lexicon": (PipelineConfig, "lexicon_path", "term lexicon file; unset: the shipped lexicon"),
    "qrels": (PipelineConfig, "qrels_path", "qrels file (journal priors, sweep); unset: none"),
    "vectors": (PipelineConfig, "vectors_path", "vectors file (vector variant); unset: none"),
    "run_tag": (PipelineConfig, "run_tag", "run tag, no whitespace; unset: the variant name"),
    "top_k": (PipelineConfig, "top_k", "results per topic"),
    "k1": (Bm25Params, "k1", "BM25 k1"),
    "b": (Bm25Params, "b", "BM25 b"),
    "rrf_k": (FusionConfig, "rrf_k", "RRF constant"),
    "alpha": (RerankConfig, "alpha",
              f"re-rank retrieval weight; vector variant: {VECTOR_ALPHA} unless set"),
    "n_task_terms": (ExpansionConfig, "n_task_terms", "task terms per topic"),
    "dup_query": (ExpansionConfig, "dup_query", "occurrences of each query token"),
    "dup_question": (ExpansionConfig, "dup_question", "occurrences of each question token"),
    "dup_task": (ExpansionConfig, "dup_task", "occurrences of each task term"),
    "confidence_mode": (ExpansionConfig, "confidence_mode", "how task confidence scales dup_task"),
    "gate_threshold": (ExpansionConfig, "gate_threshold", "least confidence (1-3) in gate mode"),
    "route_task_terms": (ExpansionConfig, "route_task_terms_fulltext_only",
                         "restrict task terms to the full-text index"),
}
# The PipelineConfig field that holds each part.
_PARTS = {Bm25Params: "bm25", FusionConfig: "fusion", RerankConfig: "rerank",
          ExpansionConfig: "expansion"}
_SWEEP_VARIANT = RunVariant.QUERY_TASK
_field_types = functools.cache(typing.get_type_hints)


def _convert(owner: type, name: str, value):
    """Convert a JSON or flag value to the type the dataclass field declares.

    Flag values arrive as strings. A string is read by ``errors.integer`` or
    ``errors.number``, the rules of the input files. A bool is not a number, a
    float with a fractional part is not an int, and a path or run tag must be
    a string.
    """
    kind = _field_types(owner)[name]
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    if kind in (int, float):
        if isinstance(value, str):
            return integer(value, "value") if kind is int else number(value, "value")
        if isinstance(value, bool):
            raise ValueError(f"expected a number, got {value!r}")
        converted = kind(value)
        if kind is int and isinstance(value, float) and converted != value:
            raise ValueError(f"expected an integer, got {value!r}")
        return converted
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(value)
    if not isinstance(value, (str, type(None))):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def build_config(cls: type, *layers: tuple[str, dict]):
    """Build PipelineConfig, or one of its parts, from (source, settings) layers.

    A later layer's value for a key wins; unset fields keep their dataclass
    defaults. An unknown key or a value that does not convert raises
    TaskRankError naming its layer's source; a value the dataclass rejects
    names the sources of that dataclass's settings.
    """
    fields: dict[type, dict] = {}
    sources: dict[type, dict] = {}
    for source, settings in layers:
        for key, value in settings.items():
            owner, name, _help = SETTINGS.get(key, (None, None, None))
            if owner is None or cls not in (owner, PipelineConfig):
                raise TaskRankError(f"{source}: unknown {cls.__name__} setting {key!r}")
            try:
                fields.setdefault(owner, {})[name] = _convert(owner, name, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TaskRankError(f"{source}: {key}: {exc}") from exc
            sources.setdefault(owner, {})[name] = source
    top = fields.pop(PipelineConfig, {})
    for owner, part in fields.items():
        try:
            top[_PARTS[owner]] = owner(**part)
        except ValueError as exc:
            named = ", ".join(dict.fromkeys(sources[owner].values()))
            raise TaskRankError(f"{named}: {exc}") from exc
    return PipelineConfig(**top) if cls is PipelineConfig else top.get(_PARTS[cls], cls())


def _pipeline_config(args, variant: RunVariant = PipelineConfig.variant) -> PipelineConfig:
    """Settings from flags over the --config file, then build_config; the
    PipelineConfig checks itself as it is built, before any input is read."""
    layers = [("command line", {"variant": variant.value})]
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_settings = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise TaskRankError(f"{args.config}: {exc}") from exc
        if not isinstance(file_settings, dict):
            raise TaskRankError(f"{args.config}: config file must contain a JSON object")
        layers.append((args.config, file_settings))
    layers.append(("command line", {key: value for key, value in vars(args).items()
                                    if key in SETTINGS and value is not None}))
    given = {key: value for _source, settings in layers for key, value in settings.items()}
    if not given.get("corpus") or not given.get("topics"):
        raise TaskRankError(f"{args.command} requires --corpus and --topics")
    return build_config(PipelineConfig, *layers)


def _count_flag(args, name: str, least: int) -> int:
    """The value of ``--<name>``, read by ``errors.integer`` like a setting's
    string; one less than ``least`` is an error."""
    value = integer(getattr(args, name), f"--{name}")
    if value < least:
        raise TaskRankError(f"--{name} must be >= {least}")
    return value


def cmd_index_stats(args) -> int:
    variants = IndexVariant if args.variant == "all" else [IndexVariant(args.variant)]
    _journal_of, indices = load_corpus(args.corpus, variants)
    print(f"{'variant':<16} {'docs':>8} {'units':>8} {'avg_len':>10} {'vocab':>8} "
          f"{'bytes':>12}")
    for variant, index in indices.items():
        print(
            f"{variant.value:<16} {index.doc_count:>8} {index.unit_count:>8} "
            f"{index.avg_unit_length:>10.2f} {index.vocab_size:>8} {index.nbytes:>12}"
        )
    return 0


def cmd_run(args) -> int:
    run = Pipeline(_pipeline_config(args)).run()
    write_run(run, args.output)
    retrieved = sum(len(r) for r in run.rankings.values())
    print(f"wrote {args.output}: {len(run.rankings)} topics, {retrieved} results")
    return 0


def cmd_eval(args) -> int:
    k = _count_flag(args, "k", 1)
    run = parse_run(args.run)
    qrels = parse_qrels(args.qrels)
    if args.residual_qrels:
        run = residual_filter(run, parse_qrels(args.residual_qrels))
    judged = qrels.grades.keys()
    unjudged = [t for t in run.topic_ids() if t not in judged]
    if unjudged:
        print(f"warning: no judgments for topics {unjudged}; scored 0", file=sys.stderr)
    absent = sorted(judged - run.rankings.keys())
    if absent:
        print(f"warning: judged topics {absent} not in the run; not scored", file=sys.stderr)
    report = evaluate_run(run, qrels, k=k)
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
        automatic = {t: TaskAssignment(t, p.task_id) for t, p in predictions.items()}
        print(f"agreement {agreement(manual, automatic):.4f}")
    return 0


def cmd_select_terms(args) -> int:
    n = _count_flag(args, "n", 0)
    framework = load_tasks(args.tasks) if args.tasks else default_framework()
    extractor = (
        LexiconExtractor.from_file(args.lexicon) if args.lexicon else default_lexicon()
    )
    _journal_of, indices = load_corpus(args.corpus, [IndexVariant.TITLE_ABSTRACT])
    for task in framework:
        terms = select_task_terms(task, indices[IndexVariant.TITLE_ABSTRACT], extractor, n)
        print(f"{task.task_id}\t{', '.join(terms)}")
    return 0


def cmd_priors(args) -> int:
    qrels = parse_qrels(args.qrels)
    journal_of = {doc.doc_id: doc.journal for doc in load_collection(args.corpus)}
    if args.per_task:
        if not args.manual_map:
            raise TaskRankError("--per-task requires --manual-map")
        framework = load_tasks(args.tasks) if args.tasks else default_framework()
        manual = load_manual_map(args.manual_map, framework)
        tables = build_per_task_priors(qrels, journal_of, manual)
        text = "".join(
            f"{task_id}\t{line}\n"
            for task_id, table in tables.items()
            for line in export_priors(table).splitlines()
        )
    else:
        text = export_priors(build_journal_priors(qrels, journal_of))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    k = _count_flag(args, "k", 1)
    base = _pipeline_config(args, _SWEEP_VARIANT)
    if base.variant not in TASK_EXPANDED:
        raise TaskRankError(f"sweep varies task-term expansion, which variant "
                            f"{base.variant.value} does not read; use "
                            f"{' or '.join(sorted(v.value for v in TASK_EXPANDED))}")
    if not base.qrels_path:
        raise TaskRankError("sweep requires --qrels")
    # Grid lines go over the expansion that flags and --config set.
    expansion = {key: getattr(base.expansion, name)
                 for key, (owner, name, _help) in SETTINGS.items() if owner is ExpansionConfig}
    grid = []
    for line_no, _line, record in read_rows(args.grid, json_object):
        source = f"{args.grid} line {line_no}"
        cell = build_config(ExpansionConfig, (source, {**expansion, **record}))
        try:
            replace(base, expansion=cell)
        except TaskRankError as exc:
            raise TaskRankError(f"{source}: {exc}") from exc
        grid.append(cell)
    if not grid:
        raise TaskRankError(f"{args.grid}: sweep grid is empty")
    qrels = parse_qrels(base.qrels_path)
    pipeline = Pipeline(base)
    rows = sweep(grid, lambda e: pipeline.with_config(expansion=e).run(), qrels, k=k)
    print(f"{'ndcg@' + str(k):<10} {'map':<10} config")
    for row in rows:
        print(f"{row.mean_ndcg:<10.4f} {row.mean_ap:<10.4f} {_expansion_label(row.config)}")
    return 0


def _expansion_label(config: ExpansionConfig) -> str:
    return (
        f"{config.dup_query} query : {config.dup_question} question : "
        f"{config.dup_task} task, n={config.n_task_terms}"
    )


def _add_pipeline_options(p: argparse.ArgumentParser, variant: RunVariant) -> None:
    """One flag per SETTINGS key; its value goes through build_config."""
    p.add_argument("--config", help="JSON config file; flags take precedence")
    for key, (owner, name, text) in SETTINGS.items():
        default = variant if key == "variant" else getattr(owner, name, None)
        action = argparse.BooleanOptionalAction if isinstance(default, bool) else None
        if isinstance(default, Enum):
            text = f"{text}: {', '.join(member.value for member in type(default))}"
            default = default.value
        p.add_argument("--" + key.replace("_", "-"), action=action,
                       help=text if default is None else f"{text} (default {default})")


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
    p.add_argument("--k", default=20)
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
    p.add_argument("--n", default=ExpansionConfig.n_task_terms)
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
    p.add_argument("--k", default=20)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TaskRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
