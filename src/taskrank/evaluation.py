"""Qrels and run handling, TREC-style metrics and parameter sweeps.

Metrics follow the trec_eval conventions: linear-gain DCG with a log2(i+1)
discount, unjudged documents counted as non-relevant, topics without relevant
judged documents scored 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import read_rows


@dataclass
class Qrels:
    """Graded judgments keyed by (topic_id, doc_id)."""

    judgments: dict[tuple[int, str], int] = field(default_factory=dict)
    duplicate_rows: int = 0

    def grade(self, topic_id: int, doc_id: str) -> int:
        return self.judgments.get((topic_id, doc_id), 0)

    def judged(self, topic_id: int) -> set[str]:
        return {doc for (topic, doc) in self.judgments if topic == topic_id}

    def topic_ids(self) -> set[int]:
        return {topic for (topic, _) in self.judgments}

    def __len__(self) -> int:
        return len(self.judgments)


def parse_qrels(path) -> Qrels:
    """Parse ``topic_id iteration doc_id grade`` rows.

    Duplicate (topic, doc) rows keep the last grade; the duplicate count is
    reported on the result.
    """
    def parse(line: str) -> tuple[tuple[int, str], int]:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{len(parts)} columns, expected 4")
        grade = int(parts[3])
        if grade < 0:
            raise ValueError("negative grade")
        return (int(parts[0]), parts[2]), grade

    qrels = Qrels()
    for _, _, (key, grade) in read_rows(path, parse):
        if key in qrels.judgments:
            qrels.duplicate_rows += 1
        qrels.judgments[key] = grade
    return qrels


@dataclass
class Run:
    """Ranked result lists per topic, with a run tag."""

    run_tag: str
    rankings: dict[int, list[tuple[str, float]]] = field(default_factory=dict)

    def topic_ids(self) -> list[int]:
        return sorted(self.rankings)


def write_run(run: Run, path) -> None:
    """Write TREC submission format: ``topic Q0 doc rank score tag``.

    Single spaces, ranks from 1, scores with six decimal places. Topics are
    emitted in ascending id order.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in run.topic_ids():
            for rank, (doc_id, score) in enumerate(run.rankings[topic_id], start=1):
                fh.write(f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {run.run_tag}\n")


def parse_run(path) -> Run:
    """Parse a TREC run file; per-topic order follows the rank column.

    A doc_id listed twice for one topic raises MalformedRow at the repeat.
    """
    seen: set[tuple[int, str]] = set()

    def parse(line: str) -> tuple[int, int, str, float, str]:
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{len(parts)} columns, expected 6")
        topic_id, doc_id = int(parts[0]), parts[2]
        row = (topic_id, int(parts[3]), doc_id, float(parts[4]), parts[5])
        if (topic_id, doc_id) in seen:
            raise ValueError(f"topic {topic_id} repeats doc_id {doc_id!r}")
        seen.add((topic_id, doc_id))
        return row

    rows: dict[int, list[tuple[int, str, float]]] = {}
    run_tag = ""
    for _, _, (topic_id, rank, doc_id, score, run_tag) in read_rows(path, parse):
        rows.setdefault(topic_id, []).append((rank, doc_id, score))
    run = Run(run_tag=run_tag)
    for topic_id, entries in rows.items():
        entries.sort(key=lambda item: item[0])
        run.rankings[topic_id] = [(doc, score) for _, doc, score in entries]
    return run


def _grades_by_topic(qrels: Qrels) -> dict[int, dict[str, int]]:
    """One pass over the judgments: topic -> {doc_id: grade}, in file order."""
    by_topic: dict[int, dict[str, int]] = {}
    for (topic_id, doc_id), grade in qrels.judgments.items():
        by_topic.setdefault(topic_id, {})[doc_id] = grade
    return by_topic


def residual_filter(run: Run, prior_qrels: Qrels) -> Run:
    """Drop documents already judged in prior rounds; ranks close up."""
    by_topic = _grades_by_topic(prior_qrels)
    filtered = Run(run_tag=run.run_tag)
    for topic_id, ranking in run.rankings.items():
        judged = by_topic.get(topic_id, {})
        filtered.rankings[topic_id] = [
            (doc, score) for doc, score in ranking if doc not in judged
        ]
    return filtered


def ndcg_at_k(run: Run, qrels: Qrels, k: int) -> dict[int, float]:
    """Per-topic NDCG@k. Topics with no relevant judged documents score 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    by_topic = _grades_by_topic(qrels)
    out: dict[int, float] = {}
    for topic_id in run.topic_ids():
        grades = by_topic.get(topic_id, {})
        dcg = 0.0
        for i, (doc_id, _) in enumerate(run.rankings[topic_id][:k], start=1):
            dcg += grades.get(doc_id, 0) / math.log2(i + 1)
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
        out[topic_id] = dcg / idcg if idcg > 0 else 0.0
    return out


def map_metric(run: Run, qrels: Qrels) -> dict[int, float]:
    """Per-topic average precision over the full ranking depth."""
    by_topic = _grades_by_topic(qrels)
    out: dict[int, float] = {}
    for topic_id in run.topic_ids():
        grades = by_topic.get(topic_id, {})
        total_relevant = sum(1 for g in grades.values() if g >= 1)
        if total_relevant == 0:
            out[topic_id] = 0.0
            continue
        hits = 0
        precision_sum = 0.0
        for rank, (doc_id, _) in enumerate(run.rankings[topic_id], start=1):
            if grades.get(doc_id, 0) >= 1:
                hits += 1
                precision_sum += hits / rank
        out[topic_id] = precision_sum / total_relevant
    return out


@dataclass(frozen=True)
class MetricReport:
    k: int
    ndcg: dict[int, float]
    ap: dict[int, float]
    mean_ndcg: float
    mean_ap: float
    topic_count: int


def evaluate_run(run: Run, qrels: Qrels, k: int = 20) -> MetricReport:
    """NDCG@k and MAP over the run's topics; the means divide by their count.

    Judged topics absent from the run are not scored; ``trec_eval -c`` would
    score them 0 and divide by the number of judged topics."""
    ndcg = ndcg_at_k(run, qrels, k)
    ap = map_metric(run, qrels)
    n = len(ndcg)
    return MetricReport(
        k=k,
        ndcg=ndcg,
        ap=ap,
        mean_ndcg=sum(ndcg.values()) / n if n else 0.0,
        mean_ap=sum(ap.values()) / n if n else 0.0,
        topic_count=n,
    )


@dataclass
class SweepRow:
    config: object
    mean_ndcg: float | None
    mean_ap: float | None
    error: str | None = None


def sweep(grid: list, pipeline: Callable[[object], Run], qrels: Qrels,
          k: int = 20) -> list[SweepRow]:
    """Run the pipeline once per grid config and score each resulting run.

    Failed cells are kept in the output with their error message and sort
    last; successful rows sort by mean NDCG@k descending.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    rows: list[SweepRow] = []
    for config in grid:
        try:
            report = evaluate_run(pipeline(config), qrels, k)
            rows.append(SweepRow(config, report.mean_ndcg, report.mean_ap))
        except Exception as exc:  # noqa: BLE001 - per-cell isolation
            rows.append(SweepRow(config, None, None, error=str(exc)))
    rows.sort(key=lambda r: (r.error is not None, -(r.mean_ndcg or 0.0)))
    return rows
