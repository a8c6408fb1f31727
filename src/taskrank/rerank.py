"""Post-hoc re-ranking of a fused ranking by journal priors or by vector
proximity to a task description.

One re-ranker, ``rerank``, min-max normalizes the retrieval scores within the
ranking and combines them linearly with an auxiliary score in [-1, 1] (journal
prior) or [0, 1] (mapped cosine proximity), ties by position (doc_id order).
Rankings are (document position, score) arrays, and the auxiliary score is an
array indexed by document position, built once per prior table
(``JournalPriorTable.by_position``) or per task
(``InMemoryVectorProvider.proximities``) before any topic runs. Journal priors
count the judgments of ``Qrels.grades`` for all topics, or per task for the
topics the manual map assigns to it, with each judged document's journal
from a ``{doc_id: journal}`` mapping. Vectors are held in memory; a bad row of
a vectors file is an error naming the file and the line.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyQrels, MissingTaskVector, number, read_rows
from .indexing import top_ranked
from .tasks import TaskAssignment

_PUNCT = re.compile(r"[^0-9a-z\s]+")
_SPACE = re.compile(r"\s+")


@lru_cache(maxsize=1 << 16)
def normalize_journal(name: str) -> str:
    """Lowercase, strip punctuation and collapse whitespace.

    Journal names come in many spellings; this keeps prior lookups from
    fragmenting across them. Idempotent. Memoized per raw string, because
    ``JournalPriorTable.by_position`` looks up each document's journal once
    at set-up, and a collection repeats the same few journals.
    """
    return _SPACE.sub(" ", _PUNCT.sub(" ", name.lower())).strip()


@dataclass(frozen=True)
class RerankConfig:
    """``alpha`` weights the normalized retrieval score; 1-alpha the auxiliary."""

    alpha: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


# The vector variant's alpha when none is set.
VECTOR_ALPHA = 0.5


@dataclass(frozen=True)
class JournalPriorTable:
    """Per-journal relevance priors in [-1, 1], keyed by normalized name.

    Journals never judged in the covered scope are absent, as is the empty
    name; lookups for them return 0.
    """

    scores: dict[str, float]

    def score(self, journal: str) -> float:
        return self.scores.get(normalize_journal(journal), 0.0)

    def by_position(self, journals: Iterable[str]) -> np.ndarray:
        """The prior of each of ``journals``, in their order: indexed by
        document position when given the journals of ``InvertedIndex.doc_ids``."""
        return np.array([self.score(journal) for journal in journals], dtype=np.float64)


def build_journal_priors(qrels, journal_of: Mapping[str, str],
                         topics: Iterable[int] | None = None) -> JournalPriorTable:
    """Compute per-journal priors from graded judgments.

    For a journal with r relevant (grade >= 1) and i non-relevant judged
    papers the prior is 2*r/(r+i) - 1: -1 when only irrelevant papers were
    judged, +1 when only relevant ones. With ``topics`` given, only those
    topics' judgments count.
    """
    relevant: dict[str, int] = {}
    judged: dict[str, int] = {}
    n_used = 0
    for topic_id in qrels.grades if topics is None else topics:
        for doc_id, grade in qrels.grades.get(topic_id, {}).items():
            journal = normalize_journal(journal_of.get(doc_id, ""))
            if not journal:
                continue
            judged[journal] = judged.get(journal, 0) + 1
            if grade >= 1:
                relevant[journal] = relevant.get(journal, 0) + 1
            n_used += 1
    if n_used == 0:
        raise EmptyQrels("no usable judgments in the requested scope")
    scores = {
        journal: 2.0 * relevant.get(journal, 0) / total - 1.0
        for journal, total in judged.items()
    }
    return JournalPriorTable(scores=scores)


def build_per_task_priors(qrels, journal_of: Mapping[str, str],
                          manual_map: Mapping[int, TaskAssignment]
                          ) -> dict[str, JournalPriorTable]:
    """One prior table per task appearing in the manual map, from the
    judgments of the topics mapped to it.

    Tasks whose topics carry no usable judgments get an empty table (all
    lookups 0) rather than an error.
    """
    topics_by_task: dict[str, set[int]] = {}
    for assignment in manual_map.values():
        topics_by_task.setdefault(assignment.task_id, set()).add(assignment.topic_id)
    tables: dict[str, JournalPriorTable] = {}
    for task_id in sorted(topics_by_task):
        try:
            tables[task_id] = build_journal_priors(qrels, journal_of, topics_by_task[task_id])
        except EmptyQrels:
            tables[task_id] = JournalPriorTable(scores={})
    return tables


def rerank(ranking: tuple[np.ndarray, np.ndarray], aux: np.ndarray, config: RerankConfig,
           top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """``alpha * minmax(score) + (1 - alpha) * aux[doc]``, best ``top_k`` first,
    ties by position; ``aux`` is indexed by position. Equal scores normalize to
    1. Each combined score is the elementwise IEEE result of that formula, as a
    scalar loop gives it."""
    docs, scores = ranking
    if len(docs):
        lo, hi = scores.min(), scores.max()
        normalized = np.ones(len(scores)) if hi == lo else (scores - lo) / (hi - lo)
        scores = config.alpha * normalized + (1.0 - config.alpha) * aux[docs]
    return top_ranked(docs, scores, top_k)


# perfbench/spans.py times re-ranking by patching these names in taskrank.pipeline.
rerank_by_journal = rerank_by_task_vector = rerank


class InMemoryVectorProvider:
    """Fixed-dimension dense vectors by key (doc_id or task_id). Each vector's
    scaled form and norm (``_scaled``) are computed once, when it is loaded."""

    def __init__(self, vectors: dict[str, "np.ndarray | list[float]"]):
        self._vectors = {key: np.asarray(value, dtype=float) for key, value in vectors.items()}
        shapes = sorted({arr.shape for arr in self._vectors.values()})
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(f"vectors must be one-dimensional and of one length: {shapes}")
        self._scaled = {key: _scaled(value) for key, value in self._vectors.items()}

    @classmethod
    def from_file(cls, path) -> "InMemoryVectorProvider":
        """Parse ``key v1 v2 ... vd`` lines. A value that is not a finite number,
        a key without values, a dimension other than the first row's or a
        repeated key raises MalformedRow naming file and line."""
        vectors: dict[str, list[float]] = {}

        def parse(line: str) -> tuple[str, list[float]]:
            key, *values = line.split()
            vector = [number(x, "value") for x in values]
            dim = len(next(iter(vectors.values()), vector))
            if not vector:
                raise ValueError("no values")
            if len(vector) != dim:
                raise ValueError(f"{len(vector)} values, expected {dim}")
            if key in vectors:
                raise ValueError(f"repeats key {key!r}")
            return key, vector

        for _, _, (key, vector) in read_rows(path, parse):
            vectors[key] = vector
        return cls(vectors)

    def vector(self, key: str) -> np.ndarray | None:
        return self._vectors.get(key)

    def proximities(self, task_id: str, doc_ids) -> np.ndarray:
        """``cosine_proximity`` of each of ``doc_ids`` to the task's vector, in
        their order; a document without a vector gets the neutral 0.5."""
        task = self._scaled.get(task_id)
        if task is None:
            raise MissingTaskVector(task_id)
        return np.array([0.5 if doc is None else _proximity(doc, task)
                         for doc in map(self._scaled.get, doc_ids)], dtype=np.float64)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` scaled exactly, by a power of two, to a largest |component| in
    [0.5, 1), so nothing overflows or underflows; and the scaled form's norm."""
    v = np.ldexp(v, -np.frexp(np.abs(v).max(initial=0.0))[1])
    return v, float(np.linalg.norm(v))


def _proximity(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """``cosine_proximity`` of two ``_scaled`` vectors."""
    denom = a[1] * b[1]
    if denom == 0.0:
        return 0.5
    cos = min(max(float(np.dot(a[0], b[0])) / denom, -1.0), 1.0)
    return (cos + 1.0) / 2.0


def cosine_proximity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity mapped to [0, 1] via (cos+1)/2; zero vectors map to 0.5.
    Each vector is ``_scaled`` first, and cos is clamped to [-1, 1]."""
    return _proximity(_scaled(a), _scaled(b))


def export_priors(table: JournalPriorTable) -> str:
    """Render a prior table as ``journal<TAB>score`` lines for inspection."""
    lines = [f"{journal}\t{score:.6f}" for journal, score in sorted(table.scores.items())]
    return "\n".join(lines) + ("\n" if lines else "")
