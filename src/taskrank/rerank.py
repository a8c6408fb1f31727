"""Post-hoc re-ranking of a fused ranking by journal priors or by vector
proximity to a task description.

Both re-rankers min-max normalize the retrieval scores within the ranking and
combine them linearly with an auxiliary score in [-1, 1] (journal prior) or
[0, 1] (mapped cosine proximity). Vectors are held in memory; a bad row of a
vectors file is an error naming the file and the line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import Collection
from .errors import EmptyQrels, MalformedRow, MissingTaskVector, UnknownTask
from .tasks import Task, TaskAssignment

_PUNCT = re.compile(r"[^0-9a-z\s]+")
_SPACE = re.compile(r"\s+")


@lru_cache(maxsize=1 << 16)
def normalize_journal(name: str) -> str:
    """Lowercase, strip punctuation and collapse whitespace.

    Journal names come in many spellings; this keeps prior lookups from
    fragmenting across them. Idempotent. Memoized per raw string, because
    re-ranking looks up the same few journals for every fused document.
    """
    return _SPACE.sub(" ", _PUNCT.sub(" ", name.lower())).strip()


@dataclass(frozen=True)
class RerankConfig:
    """``alpha`` weights the normalized retrieval score; 1-alpha the auxiliary."""

    alpha: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class JournalPriorTable:
    """Per-journal relevance priors in [-1, 1], keyed by normalized name.

    ``task_id`` is None for the global table. Journals never judged in the
    covered scope are absent; lookups for them return 0.
    """

    scores: dict[str, float]
    task_id: str | None = None

    def score(self, journal: str) -> float:
        return self.scores.get(normalize_journal(journal), 0.0)


def build_journal_priors(qrels, collection: Collection, task_id: str | None = None,
                         manual_map: list[TaskAssignment] | None = None) -> JournalPriorTable:
    """Compute per-journal priors from graded judgments.

    For a journal with r relevant (grade >= 1) and i non-relevant judged
    papers the prior is 2*r/(r+i) - 1: -1 when only irrelevant papers were
    judged, +1 when only relevant ones. With ``task_id`` set, judgments are
    restricted to topics manually assigned to that task.
    """
    topics = None
    if task_id is not None:
        if manual_map is None:
            raise ValueError("per-task priors require a manual map")
        topics = {a.topic_id for a in manual_map if a.task_id == task_id}
        if not topics:
            raise UnknownTask(task_id)
    relevant: dict[str, int] = {}
    judged: dict[str, int] = {}
    n_used = 0
    for (topic_id, doc_id), grade in qrels.judgments.items():
        if topics is not None and topic_id not in topics:
            continue
        doc = collection.get(doc_id)
        if doc is None or not doc.journal:
            continue
        journal = normalize_journal(doc.journal)
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
    return JournalPriorTable(scores=scores, task_id=task_id)


def build_per_task_priors(qrels, collection: Collection,
                          manual_map: list[TaskAssignment]) -> dict[str, JournalPriorTable]:
    """One prior table per task appearing in the manual map.

    Tasks whose topics carry no usable judgments get an empty table (all
    lookups 0) rather than an error.
    """
    tables: dict[str, JournalPriorTable] = {}
    for task_id in sorted({a.task_id for a in manual_map}):
        try:
            tables[task_id] = build_journal_priors(qrels, collection, task_id, manual_map)
        except EmptyQrels:
            tables[task_id] = JournalPriorTable(scores={}, task_id=task_id)
    return tables


def _minmax(scores: list[float]) -> list[float]:
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def _combine_and_sort(ranking, normalized, auxiliary, alpha, top_k):
    combined = [
        (doc_id, alpha * norm + (1.0 - alpha) * aux)
        for (doc_id, _), norm, aux in zip(ranking, normalized, auxiliary)
    ]
    combined.sort(key=lambda item: (-item[1], item[0]))
    return combined[:top_k]


def rerank_by_journal(ranking: list[tuple[str, float]], table: JournalPriorTable,
                      collection: Collection, config: RerankConfig,
                      top_k: int) -> list[tuple[str, float]]:
    """Linear combination of min-max normalized retrieval score and journal prior."""
    if not ranking:
        return []
    normalized = _minmax([score for _, score in ranking])
    priors = []
    for doc_id, _ in ranking:
        doc = collection.get(doc_id)
        priors.append(table.score(doc.journal) if doc is not None else 0.0)
    return _combine_and_sort(ranking, normalized, priors, config.alpha, top_k)


class InMemoryVectorProvider:
    """Fixed-dimension dense vectors by key (doc_id or task_id)."""

    def __init__(self, vectors: dict[str, "np.ndarray | list[float]"]):
        self._vectors = {key: np.asarray(value, dtype=float) for key, value in vectors.items()}
        shapes = sorted({arr.shape for arr in self._vectors.values()})
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(f"vectors must be one-dimensional and of one length: {shapes}")

    @classmethod
    def from_file(cls, path) -> "InMemoryVectorProvider":
        """Parse ``key v1 v2 ... vd`` lines, skipping blank ones. A value that is
        not a finite number, a key without values, a dimension other than the
        first row's or a repeated key raises MalformedRow naming file and line.
        """
        vectors: dict[str, list[float]] = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                key = parts[0]
                try:
                    vector = [float(x) for x in parts[1:]]
                except ValueError as exc:
                    raise MalformedRow(line_no, line.rstrip("\n"), path, str(exc)) from exc
                if not vector:
                    reason = "no values"
                elif not all(map(math.isfinite, vector)):
                    reason = "values must be finite"
                elif dim is not None and len(vector) != dim:
                    reason = f"{len(vector)} values, expected {dim}"
                elif key in vectors:
                    reason = f"repeats key {key!r}"
                else:
                    vectors[key] = vector
                    dim = len(vector)
                    continue
                raise MalformedRow(line_no, line.rstrip("\n"), path, reason)
        return cls(vectors)

    def vector(self, key: str) -> np.ndarray | None:
        return self._vectors.get(key)


def cosine_proximity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity mapped to [0, 1] via (cos+1)/2; zero vectors map to 0.5."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.5
    cos = float(np.dot(a, b)) / denom
    return (cos + 1.0) / 2.0


def rerank_by_task_vector(ranking: list[tuple[str, float]],
                          provider: InMemoryVectorProvider, task: Task, config: RerankConfig,
                          top_k: int) -> list[tuple[str, float]]:
    """Combine retrieval score with proximity to the task description vector.

    Documents without a vector get the neutral proximity 0.5.
    """
    task_vector = provider.vector(task.task_id)
    if task_vector is None:
        raise MissingTaskVector(task.task_id)
    if not ranking:
        return []
    normalized = _minmax([score for _, score in ranking])
    proximities = []
    for doc_id, _ in ranking:
        doc_vector = provider.vector(doc_id)
        proximities.append(
            cosine_proximity(doc_vector, task_vector) if doc_vector is not None else 0.5
        )
    return _combine_and_sort(ranking, normalized, proximities, config.alpha, top_k)


def export_priors(table: JournalPriorTable) -> str:
    """Render a prior table as ``journal<TAB>score`` lines for inspection."""
    lines = [f"{journal}\t{score:.6f}" for journal, score in sorted(table.scores.items())]
    return "\n".join(lines) + ("\n" if lines else "")
