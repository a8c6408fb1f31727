"""Search task framework, topic loading and query-to-task classification.

Tasks are indexed as a miniature search engine (one unit per task
description) and a query is classified into the top-ranked task. A manual
topic-to-task map can be loaded instead or for comparison. Both give
assignments in one layout, ``{topic_id: TaskAssignment}`` in file or topic
order, and ``agreement`` measures the fraction of topics on which two such
mappings coincide. A ``TaskAssignment`` from the manual map carries the
annotator's confidence (1-3, 3 when the row gives none); the classifier's
carries None.

Task, topic and manual-map files are read through ``errors.read_rows``: a
line that does not parse, a text field that is not a string, a topic id that
is not an integer, a repeated task or topic id, or a manual-map task id the
framework lacks raises MalformedRow naming the file and the line.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources

from .corpus import Document
from .errors import TaskRankError, integer, json_object, read_rows
from .indexing import Bm25Params, IndexVariant, Tokenizer, build_index, search


def _require_strings(record, *fields: str) -> None:
    """Raise TypeError naming the first of ``fields`` that is not a str."""
    for name in fields:
        value = getattr(record, name)
        if not isinstance(value, str):
            raise TypeError(f"{name} must be a string, not {type(value).__name__}")


@dataclass(frozen=True)
class Task:
    task_id: str
    title: str
    description: str

    def __post_init__(self):
        _require_strings(self, "task_id", "title", "description")
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.description:
            raise ValueError(f"task {self.task_id!r} has an empty description")


@dataclass(frozen=True)
class TaskFramework:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        if not self.tasks:
            raise TaskRankError("a task framework needs at least one task")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")

    def __iter__(self):
        return iter(self.tasks)

    def get(self, task_id: str) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise TaskRankError(f"unknown task_id {task_id!r}")


@dataclass(frozen=True)
class Topic:
    topic_id: int
    query: str
    question: str = ""
    narrative: str = ""

    def __post_init__(self):
        _require_strings(self, "query", "question", "narrative")
        if not self.query:
            raise ValueError(f"topic {self.topic_id} has an empty query")


@dataclass(frozen=True)
class TaskAssignment:
    """A topic's task. ``confidence`` is the annotator's 1-3 for a manual
    assignment and None for a classifier's."""

    topic_id: int
    task_id: str
    confidence: int | None = None

    def __post_init__(self):
        if self.confidence is not None and (type(self.confidence) is not int
                                            or self.confidence not in (1, 2, 3)):
            raise ValueError(f"confidence must be 1, 2 or 3, not {self.confidence!r}")


@dataclass(frozen=True)
class TaskPrediction:
    """Classifier output: chosen task plus a fallback flag.

    ``low_confidence`` is set when no task description shared a term with the
    query, in which case the first task in framework order is returned.
    """

    task_id: str
    score: float
    low_confidence: bool


class TaskClassifier:
    """Ranks task descriptions by BM25 for a query; top task wins."""

    def __init__(self, framework: TaskFramework, params: Bm25Params | None = None,
                 tokenizer: Tokenizer | None = None):
        self.framework = framework
        self.params = params or Bm25Params()
        self.tokenizer = tokenizer or Tokenizer()
        docs = [Document(doc_id=t.task_id, abstract=t.description) for t in framework]
        self._index = build_index(docs, IndexVariant.TITLE_ABSTRACT, self.tokenizer)

    def classify(self, query: str) -> TaskPrediction:
        tokens = self.tokenizer.tokenize(query)
        if not tokens:
            raise TaskRankError(f"query {query!r} produced no tokens")
        docs, scores = search(self._index, self.params, tokens, top_k=1)
        if len(docs) == 0:
            return TaskPrediction(
                task_id=self.framework.tasks[0].task_id, score=0.0, low_confidence=True
            )
        return TaskPrediction(task_id=self._index.doc_ids[docs[0]], score=float(scores[0]),
                              low_confidence=False)


def classify_topics(framework: TaskFramework, topics: list[Topic],
                    params: Bm25Params | None = None,
                    tokenizer: Tokenizer | None = None) -> dict[int, TaskAssignment]:
    """Each topic's classified task, keyed by topic id in topic order."""
    classifier = TaskClassifier(framework, params, tokenizer)
    return {t.topic_id: TaskAssignment(t.topic_id, classifier.classify(t.query).task_id)
            for t in topics}


def agreement(a: Mapping[int, TaskAssignment], b: Mapping[int, TaskAssignment]) -> float:
    """Fraction of topics assigned the same task by both mappings."""
    if a.keys() != b.keys():
        only_one = sorted(a.keys() ^ b.keys())
        raise TaskRankError(f"topics assigned by only one of the two: {only_one}")
    if not a:
        raise TaskRankError("assignments are empty")
    return sum(a[topic_id].task_id == b[topic_id].task_id for topic_id in a) / len(a)


def load_tasks(path=None) -> TaskFramework:
    """Load a task file: one JSON record per line with task_id/title/description.
    Unset (any falsy path): the ten research-goal tasks shipped with the package."""
    if not path:
        with resources.as_file(resources.files("taskrank.data") / "tasks.jsonl") as shipped:
            return load_tasks(shipped)
    seen: set[str] = set()

    def parse(line: str) -> Task:
        record = json_object(line)
        task = Task(task_id=record["task_id"], title=record.get("title", ""),
                    description=record["description"])
        if task.task_id in seen:
            raise ValueError(f"duplicate task_id {task.task_id!r}")
        seen.add(task.task_id)
        return task

    tasks = tuple(task for _, _, task in read_rows(path, parse))
    if not tasks:
        raise TaskRankError(f"{path}: no tasks")
    return TaskFramework(tasks=tasks)


def load_topics(path) -> list[Topic]:
    """Load a topic file: one JSON record per line with topic_id/query/question/narrative."""
    seen: set[int] = set()

    def parse(line: str) -> Topic:
        record = json_object(line)
        topic = Topic(topic_id=integer(record["topic_id"], "topic_id"), query=record["query"],
                      question=record.get("question", ""), narrative=record.get("narrative", ""))
        if topic.topic_id in seen:
            raise ValueError(f"duplicate topic_id {topic.topic_id}")
        seen.add(topic.topic_id)
        return topic

    return [topic for _, _, topic in read_rows(path, parse)]


def load_manual_map(path=None, framework: TaskFramework | None = None
                    ) -> dict[int, TaskAssignment]:
    """Load manual topic-to-task rows, ``topic_id task_id [confidence]``, as
    ``{topic_id: TaskAssignment}`` in file order. Unset (any falsy path): the
    map shipped with the package over the 50 search topics; unset framework:
    ``load_tasks()``.

    ``#`` starts a comment line; confidence defaults to 3. A row is malformed
    if it has not two or three columns, does not parse, repeats a topic or
    names a task the framework lacks."""
    if not path:
        with resources.as_file(resources.files("taskrank.data") / "manual_map.txt") as shipped:
            return load_manual_map(shipped, framework)
    valid_ids = {task.task_id for task in framework or load_tasks()}
    assignments: dict[int, TaskAssignment] = {}

    def parse(line: str) -> TaskAssignment | None:
        if line.lstrip().startswith("#"):
            return None
        parts = line.split()
        if not 2 <= len(parts) <= 3:
            raise ValueError(f"{len(parts)} columns, expected 2 or 3")
        topic_id, task_id, *rest = parts
        assignment = TaskAssignment(integer(topic_id, "topic_id"), task_id,
                                    integer(rest[0], "confidence") if rest else 3)
        if task_id not in valid_ids:
            raise ValueError(f"unknown task_id {task_id!r}")
        if assignment.topic_id in assignments:
            raise ValueError(f"duplicate topic_id {assignment.topic_id}")
        return assignment

    for _, _, assignment in read_rows(path, parse):
        if assignment is not None:
            assignments[assignment.topic_id] = assignment
    return assignments
