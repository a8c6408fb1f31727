"""The measured process of one benchmark run; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S \\
        --trace 0|1 --out RESULT.json [--spans SPANS.jsonl]

It imports taskrank from the checkout's ``src/`` and runs rounds in a
closed loop with one client. A cycle is what one user invocation does:
``Pipeline(config)``, ``Pipeline.run()`` and the evaluation (write the run,
parse both qrels rounds, filter by round 1, score against round 2). A round
is one cycle, or on the sweep workload four cycles and one ``taskrank
sweep`` through ``taskrank.cli.main``. Rounds repeat while the next one is
expected to end within S seconds, and in any case until three rounds ran
and at least 200 topics were timed.

With ``--trace 1`` the rounds run first with the wrappers from ``spans.py``
installed and then without, each for S/2 seconds; the per-layer metrics
come from the traced rounds and ``trace.overhead`` compares the two.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    MIN_ROUNDS, MIN_TOPIC_SAMPLES, ROOT, WORKLOADS, percentile, sha256_file,
)

SRC = os.path.join(ROOT, "src")


def _inputs(directory: str) -> dict[str, str]:
    names = ("corpus.jsonl", "tasks.jsonl", "lexicon.txt", "manual_map.txt",
             "qrels1.txt", "qrels2.txt", "grid.jsonl")
    return {name.split(".")[0]: os.path.join(directory, name) for name in names}


class Workbench:
    """Runs one workload's rounds and keeps their raw observations.

    A round is ``cycles_per_round`` cycles, then one sweep on the sweep
    workload. A cycle is ``Pipeline(config)``, ``Pipeline.run()`` and the
    evaluation of the run.
    """

    def __init__(self, workload: str, inputs: str, scratch: str):
        from taskrank import PipelineConfig, RunVariant

        self.wl = WORKLOADS[workload]
        self.files = _inputs(inputs)
        self.run_path = os.path.join(scratch, "cycle.run")
        f = self.files
        self.config = PipelineConfig(
            corpus_path=f["corpus"],
            topics_path=os.path.join(inputs, self.wl.topic_file),
            variant=RunVariant(self.wl.variant),
            tasks_path=f["tasks"],
            lexicon_path=f["lexicon"],
            qrels_path=f["qrels1"],
            manual_map_path=f["manual_map"] if self.wl.manual_map else None,
        )
        self.sweep_argv = [
            "sweep", "--corpus", f["corpus"], "--topics", self.config.topics_path,
            "--tasks", f["tasks"], "--lexicon", f["lexicon"], "--manual-map", f["manual_map"],
            "--qrels", f["qrels2"], "--grid", f["grid"], "--variant", self.wl.variant,
        ]
        with open(f["grid"], encoding="utf-8") as fh:
            self.cells = sum(1 for line in fh if line.strip())

    def _evaluate(self, run):
        from taskrank import evaluation as ev

        start = time.perf_counter()
        ev.write_run(run, self.run_path)
        round1 = ev.parse_qrels(self.files["qrels1"])
        round2 = ev.parse_qrels(self.files["qrels2"])
        filtered = ev.residual_filter(run, round1)
        report = ev.evaluate_run(filtered, round2, k=20)
        return time.perf_counter() - start, filtered, round2, report

    def cycle(self, tracer=None) -> dict:
        from taskrank import Pipeline

        topic_ms: list[float] = []
        t0 = time.perf_counter()
        pipe = Pipeline(self.config)
        t1 = time.perf_counter()
        inner = pipe.run_topic

        def timed(topic):
            start = time.perf_counter()
            try:
                return inner(topic)
            finally:
                topic_ms.append((time.perf_counter() - start) * 1e3)

        pipe.run_topic = timed
        run = pipe.run()
        t2 = time.perf_counter()
        skipped = getattr(getattr(pipe, "collection", None), "skipped_records", 0)
        # Evaluation stands for its own command (taskrank eval), which does not
        # hold the indices: free them, so that a full garbage collection over
        # them cannot land inside the timed evaluation.
        del pipe, inner, timed
        gc.collect()
        eval_s, filtered, round2, report = self._evaluate(run)
        out = {
            "setup_s": t1 - t0, "run_s": t2 - t1, "wall_s": t2 - t0 + eval_s,
            "topic_ms": topic_ms,
            "run_sha256": sha256_file(self.run_path),
            "ndcg20_mean": report.mean_ndcg, "map_mean": report.mean_ap,
            "skipped": skipped,
        }
        if tracer is not None:
            try:
                judged = sum(d in round2.judged(t)
                             for t, ranking in filtered.rankings.items() for d, _ in ranking[:20])
                out["judged_at_20"] = judged / (len(filtered.rankings) * 20)
            except AttributeError as exc:
                tracer.count(f"unmeasured:evaluation.judged_at_20:{exc}")
        return out

    def sweep(self, tracer=None) -> dict:
        from taskrank import cli

        buffer = io.StringIO()
        span = tracer.open("cli.main") if tracer is not None else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.sweep_argv)
        wall = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        text = buffer.getvalue()
        rows = [line for line in text.splitlines()[1:] if line.strip()]
        failed = sum("FAILED:" in line for line in rows)
        if code != 0 or len(rows) != self.cells:
            failed = self.cells
        return {
            "wall_s": wall,
            "sweep_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "cells": self.cells, "cells_failed": failed,
        }

    def loop(self, seconds: float, tracer=None) -> list[dict]:
        rounds = []
        start = time.perf_counter()
        while True:
            cycles = []
            for _ in range(self.wl.cycles_per_round):
                gc.collect()
                cycles.append(self.cycle(tracer))
            sweep = self.sweep(tracer) if self.wl.sweep else None
            rounds.append({"cycles": cycles, "sweep": sweep})
            if tracer is not None:
                rounds[-1]["spans"], rounds[-1]["counters"] = tracer.take()
            timed = sum(len(c["topic_ms"]) for r in rounds for c in r["cycles"])
            elapsed = time.perf_counter() - start
            # Stop before a round that would end past the run length.
            if (len(rounds) >= MIN_ROUNDS and timed >= MIN_TOPIC_SAMPLES
                    and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                return rounds


def _walls(rounds: list[dict]) -> list[float]:
    """Wall time of each user command: a sweep if the workload sweeps, else a cycle."""
    if rounds[0]["sweep"] is not None:
        return [r["sweep"]["wall_s"] for r in rounds]
    return [c["wall_s"] for r in rounds for c in r["cycles"]]


def end_to_end(rounds: list[dict]) -> dict[str, dict]:
    cycles = [c for r in rounds for c in r["cycles"]]
    topic_ms = [ms for c in cycles for ms in c["topic_ms"]]
    walls = _walls(rounds)
    n = len(cycles)
    metric = lambda value, count: {"value": value, "n": count}  # noqa: E731
    return {
        "setup_s": metric(median([c["setup_s"] for c in cycles]), n),
        "run_s": metric(median([c["run_s"] for c in cycles]), n),
        "topics_per_s": metric(len(topic_ms) / sum(c["run_s"] for c in cycles), len(topic_ms)),
        "topic_ms_p50": metric(percentile(topic_ms, 0.50), len(topic_ms)),
        "topic_ms_p95": metric(percentile(topic_ms, 0.95), len(topic_ms)),
        "wall_s": metric(median(walls), len(walls)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "ndcg20_mean": metric(cycles[0]["ndcg20_mean"], 1),
        "map_mean": metric(cycles[0]["map_mean"], 1),
    }


VARIANTS = ("fulltext", "title-abstract", "paragraph")


def per_layer(rounds: list[dict], untraced: list[dict], sweep: bool):
    """Per-layer metrics from the traced rounds, plus notes on gaps.

    A ``..._s`` metric is the median over rounds of the seconds spent in the
    layer per round.
    """
    from spans import self_times

    totals: list[dict[str, float]] = []   # per round: span name -> summed seconds
    calls: dict[str, list[float]] = defaultdict(list)  # span name -> durations
    topic_self: list[float] = []
    setup_self: list[float] = []
    builds: list[int] = []
    counters: dict[str, float] = defaultdict(float)
    for rnd in rounds:
        spans = rnd["spans"]
        own = self_times(spans)
        by_id = {s[0]: s for s in spans}
        total: dict[str, float] = defaultdict(float)
        setup = 0.0
        round_builds = 0
        for span in spans:
            duration = span[3] - span[2]
            total[span[1]] += duration
            calls[span[1]].append(duration)
            if span[1] == "pipeline.topic":
                topic_self.append(own[span[0]])
            elif span[1] == "pipeline.setup":
                setup += own[span[0]]
            elif span[1].startswith("indexing.build."):
                parent, under_cli = span[4], False
                while parent is not None:
                    under_cli |= by_id[parent][1] == "cli.main"
                    parent = by_id[parent][4]
                round_builds += under_cli or not sweep
        totals.append(total)
        setup_self.append(setup)
        builds.append(round_builds)
        for name, value in rnd["counters"].items():
            if name.startswith("indexing.units.") or name.startswith("indexing.vocab.") \
                    or name.startswith("indexing.rss_mb.") or name.startswith("corpus."):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value

    metrics: dict[str, dict] = {}
    notes: dict[str, str] = {}
    n = len(rounds)

    def per_round(name: str, span_prefix: str) -> None:
        values = [sum(v for k, v in t.items() if k.startswith(span_prefix)) for t in totals]
        metrics[name] = {"value": median(values), "n": n}
        if not any(values):
            notes[name] = "not exercised by this workload"

    def pct(name: str, samples: list[float], q: float, scale: float = 1e3) -> None:
        try:
            metrics[name] = {"value": percentile(samples, q) * scale, "n": len(samples)}
        except ValueError as exc:
            metrics[name] = {"value": 0, "n": len(samples)}
            notes[name] = "not exercised by this workload" if not samples else str(exc)

    def ratio(name: str, num: float, den: float) -> None:
        metrics[name] = {"value": num / den if den else 0, "n": n}
        if not den:
            notes[name] = "not exercised by this workload"

    def count(name: str) -> None:
        metrics[name] = {"value": counters.get(name, 0), "n": n}

    per_round("corpus.load_s", "corpus.load")
    for key in ("corpus.docs", "corpus.bytes", "corpus.skipped"):
        count(key)
    for v in VARIANTS:
        per_round(f"indexing.build_s.{v}", f"indexing.build.{v}")
        count(f"indexing.rss_mb.{v}")
        count(f"indexing.units.{v}")
        count(f"indexing.vocab.{v}")
        searches = calls.get(f"indexing.search.{v}", [])
        pct(f"indexing.search_ms_p50.{v}", searches, 0.50)
        pct(f"indexing.search_ms_p95.{v}", searches, 0.95)
        ratio(f"indexing.postings_scanned.{v}",
              counters.get(f"indexing.postings_scanned.{v}", 0), len(searches))
    for key in ("tokenize_calls", "tokens", "tokenize_s"):
        metrics[f"indexing.{key}"] = {"value": counters.get(f"indexing.{key}", 0) / n, "n": n}
    metrics["indexing.builds"] = {"value": median(builds), "n": n}
    per_round("querygen.select_task_terms_s", "querygen.select_task_terms")
    pct("querygen.generate_ms_p50", calls.get("querygen.generate", []), 0.50)
    queries = counters.get("querygen.queries", 0)
    for v in VARIANTS:
        ratio(f"querygen.query_tokens.{v}", counters.get(f"querygen.query_tokens.{v}", 0), queries)
    metrics["querygen.fallbacks"] = {"value": counters.get("querygen.fallbacks", 0) / n, "n": n}
    per_round("tasks.classify_s", "tasks.classify")
    pct("fusion.rrf_ms_p50", calls.get("fusion.rrf", []), 0.50)
    ratio("fusion.input_docs", counters.get("fusion.input_docs", 0), counters.get("fusion.calls", 0))
    pct("rerank.ms_p50", calls.get("rerank.rerank", []), 0.50)
    per_round("rerank.build_priors_s", "rerank.build_priors")
    ratio("rerank.prior_coverage", counters.get("rerank.docs_with_prior", 0),
          counters.get("rerank.docs", 0))
    for key in ("parse_qrels", "residual_filter", "evaluate", "write_run"):
        per_round(f"evaluation.{key}_s", f"evaluation.{key}")
    judged = [c["judged_at_20"] for r in rounds for c in r["cycles"] if "judged_at_20" in c]
    if judged:
        metrics["evaluation.judged_at_20"] = {"value": judged[0], "n": 1}
    metrics["pipeline.setup_self_s"] = {"value": median(setup_self), "n": n}
    pct("pipeline.topic_self_ms_p50", topic_self, 0.50)
    ratio("share.build_of_setup",
          sum(v for t in totals for k, v in t.items() if k.startswith("indexing.build.")),
          sum(t.get("pipeline.setup", 0.0) for t in totals))
    ratio("share.search_of_run",
          sum(v for t in totals for k, v in t.items() if k.startswith("indexing.search.")),
          sum(t.get("pipeline.run", 0.0) for t in totals))
    metrics["trace.overhead"] = {"value": median(_walls(rounds)) / median(_walls(untraced)),
                                 "n": n}
    for name in counters:
        if name.startswith("unmeasured:"):
            notes[name.split(":", 2)[1]] = name.split(":", 2)[2]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "taskrank", "__init__.py")):
        print(f"error: no taskrank source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import taskrank

    if not os.path.abspath(taskrank.__file__).startswith(SRC + os.sep):
        print(f"error: imported taskrank from {taskrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("TASKRANK_THREADS") != "1":
        print("error: TASKRANK_THREADS must be 1 (one closed-loop client)", file=sys.stderr)
        return 2

    bench = Workbench(args.workload, args.inputs, os.path.dirname(os.path.abspath(args.out)))
    import numpy

    result = {"numpy": numpy.__version__}
    if args.trace:
        # Traced rounds go first, so the first index builds start from a
        # fresh heap and indexing.rss_mb.* sees their real growth.
        from spans import Patches, Tracer, write_spans

        tracer = Tracer()
        patches = Patches(tracer)
        patches.install()
        try:
            traced = bench.loop(args.seconds / 2, tracer)
        finally:
            patches.uninstall()
        untraced = bench.loop(args.seconds / 2)
        metrics, notes = per_layer(traced, untraced, bench.wl.sweep)
        for prefix, reason in patches.unmeasured.items():
            for name in [m for m in metrics if m.startswith(prefix)]:
                del metrics[name]
                notes[name] = f"unmeasured: {reason}"
        result.update(per_layer=metrics, notes=notes)
        if args.spans:
            write_spans(args.spans, [r.pop("spans") for r in traced])
    else:
        traced = []
        untraced = bench.loop(args.seconds)
    result["end_to_end"] = end_to_end(untraced)
    rounds = traced + untraced
    cycles = [c for r in rounds for c in r["cycles"]]
    sweeps = [r["sweep"] for r in rounds if r["sweep"] is not None]
    result["cycles"] = len(cycles)
    result["attempted"] = sum(len(c["topic_ms"]) for c in cycles) + sum(s["cells"] for s in sweeps)
    result["failed"] = sum(s["cells_failed"] for s in sweeps)
    observed = {key: [c[key] for c in cycles] for key in ("run_sha256", "ndcg20_mean", "map_mean")}
    if sweeps:
        observed["sweep_sha256"] = [s["sweep_sha256"] for s in sweeps]
    observed["failed"] = result["failed"]
    observed["skipped"] = sum(c["skipped"] for c in cycles)
    result["observed"] = observed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
