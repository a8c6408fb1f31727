"""Qrels and run handling, TREC-style metrics and parameter sweeps.

Metrics follow the trec_eval conventions: linear-gain DCG with a log2(i+1)
discount, unjudged documents counted as non-relevant, topics without relevant
judged documents scored 0.

``Qrels`` holds the judgments in one layout, ``grades[topic_id][doc_id]``,
built once by ``parse_qrels``; residual filtering, the metrics and the journal
priors read each topic's grades from it as stored.

A run holds one ``Ranking`` per topic: positions into a doc-id table that the
topics of one pipeline run (or one parsed run file) share, and their float64
scores. Writing, residual filtering and the metrics work on those arrays and
look doc ids up once per judged document, not once per ranked row; a list of
(doc_id, score) pairs is converted when it enters a ``Run``.

``write_run`` assembles the file's bytes from arrays, a block of rows at a
time, and prints each score from its integer count of micro-units; only a
score whose product ``|s| * 1e6`` lies within an ulp of a half-integer,
reaches 2**52 or is not finite is printed by ``'%.6f'`` itself.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, KeysView, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import integer, number, read_rows


@dataclass
class Qrels:
    """Graded judgments by topic: ``grades[topic_id][doc_id]`` is a grade.

    Topics, and each topic's documents, are in order of first appearance.
    """

    grades: dict[int, dict[str, int]] = field(default_factory=dict)

    def judged(self, topic_id: int) -> KeysView[str]:
        return self.grades.get(topic_id, {}).keys()

    def __len__(self) -> int:
        return sum(map(len, self.grades.values()))


def parse_qrels(path) -> Qrels:
    """Parse ``topic_id iteration doc_id grade`` rows.

    A repeated (topic, doc) row keeps its first position and its last grade.
    """
    def parse(line: str) -> tuple[int, str, int]:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{len(parts)} columns, expected 4")
        grade = integer(parts[3], "grade")
        if grade < 0:
            raise ValueError("negative grade")
        return integer(parts[0], "topic_id"), parts[2], grade

    qrels = Qrels()
    for _, _, (topic_id, doc_id, grade) in read_rows(path, parse):
        qrels.grades.setdefault(topic_id, {})[doc_id] = grade
    return qrels


class Ranking(Sequence):
    """One topic's ranking: row i is ``(doc_ids[positions[i]], scores[i])``.

    ``doc_ids`` is a table shared by reference, typically by every topic of a
    run; ``positions`` and ``scores`` are read-only arrays. A position
    outside ``[0, len(doc_ids))`` raises ValueError. As a sequence a
    ranking yields (doc_id, float) pairs, and a slice is a ranking again.
    """

    __slots__ = ("doc_ids", "positions", "scores")

    def __init__(self, doc_ids: Sequence[str], positions, scores):
        positions = np.asarray(positions, np.int64).view()
        scores = np.asarray(scores, np.float64).view()
        if positions.shape != scores.shape or positions.ndim != 1:
            raise ValueError("positions and scores must be 1-d arrays of one length")
        # Seen as unsigned, a negative position is 2**63 or more.
        if len(positions) and positions.view(np.uint64).max() >= len(doc_ids):
            raise ValueError(f"positions must lie in [0, {len(doc_ids)})")
        positions.flags.writeable = scores.flags.writeable = False
        self.doc_ids, self.positions, self.scores = doc_ids, positions, scores

    @classmethod
    def of(cls, rows: Ranking | Iterable[tuple[str, float]]) -> Ranking:
        """``rows`` itself if it is a Ranking, else its (doc_id, score) pairs
        over a table of their distinct doc ids."""
        if isinstance(rows, Ranking):
            return rows
        table: dict[str, int] = {}
        positions, scores = [], []
        for doc_id, score in rows:
            positions.append(table.setdefault(doc_id, len(table)))
            scores.append(score)
        return cls(list(table), np.array(positions, np.int64), np.array(scores, np.float64))

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.doc_ids, self.positions[i], self.scores[i])
        return self.doc_ids[self.positions[i]], float(self.scores[i])

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(map(self.doc_ids.__getitem__, self.positions.tolist()), self.scores.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Ranking, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"


@dataclass(frozen=True)
class Run:
    """Ranked result lists per topic, with a run tag.

    ``rankings`` is a read-only mapping whose every value is a Ranking; one
    given as a list of (doc_id, score) pairs is converted here.
    """

    run_tag: str
    rankings: Mapping[int, Ranking] = field(default_factory=dict)

    def __post_init__(self):
        rankings = {topic_id: Ranking.of(rows) for topic_id, rows in self.rankings.items()}
        object.__setattr__(self, "rankings", MappingProxyType(rankings))

    def topic_ids(self) -> list[int]:
        return sorted(self.rankings)


_PAD = 0xFF  # a byte that UTF-8 never uses
_BLOCK_ROWS = 8192


def _right_aligned(texts: list[bytes]) -> np.ndarray:
    """The byte strings as the rows of one uint8 matrix, right-aligned and
    padded on the left with ``_PAD``."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    ends = np.cumsum(lengths)
    matrix = np.full((len(texts), int(lengths.max(initial=0))), _PAD, np.uint8)
    # Byte k of row r goes to column width - (ends[r] - k) of that row.
    shift = np.repeat(np.arange(1, len(texts) + 1) * matrix.shape[1] - ends, lengths)
    matrix.ravel()[np.arange(len(shift)) + shift] = np.frombuffer(b"".join(texts), np.uint8)
    return matrix


def _score_text(scores: np.ndarray) -> np.ndarray:
    """Each score as ``'%.6f'`` prints it, as a right-aligned ``_PAD``-padded
    uint8 matrix.

    ``rint`` of the float product ``|s| * 1e6`` rounds half to even, as
    ``'%.6f'`` rounds the exact product, unless the float product lies within
    one ulp of a half-integer, reaches 2**52 or is not finite. The test
    takes ``|s| * 1e6 * 2**-52`` as the distance, which is at least one ulp
    and at least 1 from 2**52 up, and a product that is not finite compares
    as NaN, so it flags all three; those rows are printed by ``'%.6f'``. The
    sign comes from ``signbit``, so ``-0.0`` and a tiny negative print
    ``-0.000000``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        micro = np.abs(scores) * 1e6
        exact = np.abs(micro - np.floor(micro) - 0.5) > micro * 2.0**-52
    micro = np.rint(np.where(exact, micro, 0.0)).astype(np.int64)
    digits = max(7, len(str(int(micro.max(initial=0)))))
    # Built transposed, one row per column: the sign, the integer digits,
    # the point and six decimals.
    text = np.empty((digits + 2, len(scores)), np.uint8)
    text[0] = np.where(np.signbit(scores), ord("-"), _PAD)
    text[-7] = ord(".")
    shifted = micro  # micro // 10**j
    for j in range(digits):  # the digit worth 10**j micro-units
        row = digits - j + (j < 6)  # the point sits between 10**6 and 10**5
        higher = shifted // 10
        text[row] = shifted - 10 * higher + ord("0")
        if j > 6:
            text[row][shifted == 0] = _PAD  # a leading zero
        shifted = higher
    if not exact.all():
        fallback = np.flatnonzero(~exact)
        text[:, fallback] = _PAD
        printed = _right_aligned([b"%.6f" % s for s in scores[fallback].tolist()])
        wide = np.full((printed.shape[1], len(scores)), _PAD, np.uint8)
        wide[:, fallback] = printed.T
        text = np.concatenate([wide, text])
    return text.T


def write_run(run: Run, path) -> None:
    """Write TREC submission format: ``topic Q0 doc rank score tag``.

    Single spaces, ranks from 1, scores exactly as ``'%.6f'`` prints them
    (``nan``, ``inf`` and ``-0.000000`` included). Topics are emitted in
    ascending id order.

    Each field is a uint8 matrix, right-aligned and padded with ``_PAD``:
    ``"{topic} Q0 "`` by topic, ``"{doc_id} "`` by doc id ranked (each
    distinct doc-id table of the run gives its ranked ids once, stacked),
    ``"{rank} "`` by rank, the score text by row and ``" {tag}\n"``. A
    block of up to ``_BLOCK_ROWS`` rows gathers each field by row,
    concatenates them along columns, drops the padding with one boolean
    compress and is written with one call. A score is
    printed from its integer micro-units unless ``|s| * 1e6`` lies within an
    ulp of a half-integer, reaches 2**52 or is not finite; those rows take
    ``'%.6f' % s``. The ranked ids and the tag are encoded before the file
    is opened, so an id or tag that UTF-8 cannot encode raises
    UnicodeEncodeError and leaves the file as it was. A failure after the
    file is opened removes it, so a failed write leaves no partial file.
    """
    topic_ids = run.topic_ids()
    rankings = [run.rankings[topic_id] for topic_id in topic_ids]
    used: dict[int, tuple[Sequence[str], np.ndarray]] = {}  # by id() of a live table
    for ranking in rankings:
        if id(ranking.doc_ids) not in used:
            used[id(ranking.doc_ids)] = ranking.doc_ids, np.zeros(len(ranking.doc_ids), bool)
        used[id(ranking.doc_ids)][1][ranking.positions] = True
    row_of: dict[int, np.ndarray] = {}  # by id() of a table: each used position's row in doc_texts
    doc_texts: list[bytes] = []
    for key, (doc_ids, ranked) in used.items():
        at = np.flatnonzero(ranked)
        row_of[key] = np.zeros(len(doc_ids), np.int64)
        row_of[key][at] = np.arange(len(doc_texts), len(doc_texts) + len(at))
        doc_texts += [f"{doc_ids[p]} ".encode() for p in at.tolist()]
    lengths = [len(ranking) for ranking in rankings]
    starts = np.cumsum([0] + lengths[:-1])
    topic_of = np.repeat(np.arange(len(rankings)), lengths)
    docs = np.concatenate([np.zeros(0, np.int64)]
                          + [row_of[id(r.doc_ids)][r.positions] for r in rankings])
    scores = np.concatenate([np.zeros(0)] + [r.scores for r in rankings])
    # Gathered as one void item per row, then seen as bytes again.
    fields = [_right_aligned(texts) for texts in (
        [b"%d Q0 " % topic_id for topic_id in topic_ids],
        doc_texts,
        [b"%d " % rank for rank in range(1, max(lengths, default=0) + 1)],
    )]
    topic, doc, rank = (f.view(f"V{f.shape[1]}") for f in fields)
    tag = np.frombuffer(f" {run.run_tag}\n".encode(), np.uint8)
    fh = open(path, "wb")
    try:
        with fh:
            for first in range(0, len(scores), _BLOCK_ROWS):
                block = slice(first, first + _BLOCK_ROWS)
                topics = topic_of[block]
                n = len(topics)
                ranks = np.arange(first, first + n) - starts[topics]
                text = np.concatenate([
                    topic[topics].view(np.uint8),
                    doc[docs[block]].view(np.uint8),
                    rank[ranks].view(np.uint8),
                    _score_text(scores[block]),
                    np.broadcast_to(tag, (n, len(tag))),
                ], axis=1).ravel()
                fh.write(text[text != _PAD])
    except BaseException:
        os.unlink(path)
        raise


def parse_run(path) -> Run:
    """Parse a TREC run file; per-topic order follows the rank column.

    The topics' rankings share one table of the file's doc ids. A doc_id
    listed twice for one topic raises MalformedRow at the repeat.
    """
    seen: set[tuple[int, str]] = set()

    def parse(line: str) -> tuple[int, int, str, float, str]:
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{len(parts)} columns, expected 6")
        topic_id, doc_id = integer(parts[0], "topic_id"), parts[2]
        row = (topic_id, integer(parts[3], "rank"), doc_id, number(parts[4], "score"), parts[5])
        if (topic_id, doc_id) in seen:
            raise ValueError(f"topic {topic_id} repeats doc_id {doc_id!r}")
        seen.add((topic_id, doc_id))
        return row

    table: dict[str, int] = {}
    rows: dict[int, list[tuple[int, int, float]]] = {}
    run_tag = ""
    for _, _, (topic_id, rank, doc_id, score, run_tag) in read_rows(path, parse):
        rows.setdefault(topic_id, []).append((rank, table.setdefault(doc_id, len(table)), score))
    doc_ids = list(table)
    rankings = {}
    for topic_id, entries in rows.items():
        entries.sort(key=lambda item: item[0])
        positions = np.array([position for _, position, _ in entries], np.int64)
        rankings[topic_id] = Ranking(doc_ids, positions, [score for *_, score in entries])
    return Run(run_tag, rankings)


def _rows_judged(run: Run, qrels: Qrels, dtype=np.int64
                 ) -> Iterator[tuple[int, Ranking, np.ndarray]]:
    """Each topic of the run in id order, with an array by row: the row's
    grade (0 if unjudged), or with ``dtype=bool`` whether it is judged.

    Per doc-id table, a zeroed array by position takes one topic's values,
    is read at the ranking's positions and is cleared again.
    """
    tables: dict[int, tuple[dict[str, int], np.ndarray]] = {}  # by id() of a live table
    for topic_id in run.topic_ids():
        ranking = run.rankings[topic_id]
        doc_ids = ranking.doc_ids
        if id(doc_ids) not in tables:
            tables[id(doc_ids)] = ({d: i for i, d in enumerate(doc_ids)},
                                   np.zeros(len(doc_ids), dtype))
        position, by_position = tables[id(doc_ids)]
        grades = qrels.grades.get(topic_id, {})
        judged = [(position[d], g) for d, g in grades.items() if d in position]
        at = [p for p, _ in judged]
        by_position[at] = True if dtype is bool else [g for _, g in judged]
        yield topic_id, ranking, by_position[ranking.positions]
        by_position[at] = 0


def residual_filter(run: Run, prior_qrels: Qrels) -> Run:
    """Drop documents already judged in prior rounds; ranks close up."""
    rankings = {}
    for topic_id, ranking, judged in _rows_judged(run, prior_qrels, bool):
        if judged.any():
            keep = ~judged
            ranking = Ranking(ranking.doc_ids, ranking.positions[keep], ranking.scores[keep])
        rankings[topic_id] = ranking
    return Run(run.run_tag, rankings)


def _ndcg(row_grades: np.ndarray, grades: dict[str, int], k: int) -> float:
    """One topic's NDCG@k from its rows' grades and its judgments."""
    top = row_grades[:k]
    gains = top.tolist()
    dcg = 0.0
    # An unjudged row would add +0.0, which leaves the sum's bits as they are.
    for i in np.flatnonzero(top).tolist():
        dcg += gains[i] / math.log2(i + 2)
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def _ap(row_grades: np.ndarray, grades: dict[str, int]) -> float:
    """One topic's average precision from its rows' grades and its judgments."""
    total_relevant = sum(1 for g in grades.values() if g >= 1)
    if total_relevant == 0:
        return 0.0
    precision_sum = 0.0
    ranks = (np.flatnonzero(row_grades >= 1) + 1).tolist()
    for hits, rank in enumerate(ranks, start=1):
        precision_sum += hits / rank
    return precision_sum / total_relevant


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
    if k < 1:
        raise ValueError("k must be >= 1")
    ndcg, ap = {}, {}
    for topic_id, _, row_grades in _rows_judged(run, qrels):
        grades = qrels.grades.get(topic_id, {})
        ndcg[topic_id] = _ndcg(row_grades, grades, k)
        ap[topic_id] = _ap(row_grades, grades)
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
    mean_ndcg: float
    mean_ap: float


def sweep(grid: list, pipeline: Callable[[object], Run], qrels: Qrels,
          k: int = 20) -> list[SweepRow]:
    """Run the pipeline once per grid config and score each resulting run;
    rows sort by mean NDCG@k descending, ties in grid order.

    An error in any cell propagates, so a sweep fails as a run does.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    rows: list[SweepRow] = []
    for config in grid:
        report = evaluate_run(pipeline(config), qrels, k)
        rows.append(SweepRow(config, report.mean_ndcg, report.mean_ap))
    rows.sort(key=lambda r: -r.mean_ndcg)
    return rows
