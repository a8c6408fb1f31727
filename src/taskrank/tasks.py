"""Search task framework, topic loading and query-to-task classification.

Tasks are indexed as a miniature search engine (one unit per task
description) and a query is classified into the top-ranked task. A manual
topic-to-task map can be loaded for comparison; ``agreement`` measures the
fraction of topics on which two assignment sources coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .corpus import Collection, Document
from .errors import (
    DuplicateTopic,
    EmptyFramework,
    EmptyQuery,
    MalformedRow,
    TopicSetMismatch,
    UnknownTaskId,
)
from .indexing import Bm25Params, IndexVariant, InvertedIndex, Tokenizer, search


@dataclass(frozen=True)
class Task:
    task_id: str
    title: str
    description: str

    def __post_init__(self):
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.description:
            raise ValueError(f"task {self.task_id!r} has an empty description")


@dataclass(frozen=True)
class TaskFramework:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        if not self.tasks:
            raise EmptyFramework("a task framework needs at least one task")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def task_ids(self) -> list[str]:
        return [t.task_id for t in self.tasks]

    def get(self, task_id: str) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise UnknownTaskId(task_id)


@dataclass(frozen=True)
class Topic:
    topic_id: int
    query: str
    question: str = ""
    narrative: str = ""

    def __post_init__(self):
        if not self.query:
            raise ValueError(f"topic {self.topic_id} has an empty query")


class AssignmentSource(Enum):
    MANUAL = "manual"
    AUTOMATIC = "automatic"


@dataclass(frozen=True)
class TaskAssignment:
    topic_id: int
    task_id: str
    source: AssignmentSource
    confidence: int = 3  # annotator confidence, 1..3; meaningful for manual only

    def __post_init__(self):
        if self.confidence not in (1, 2, 3):
            raise ValueError("confidence must be 1, 2 or 3")


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
        self._index = InvertedIndex(
            Collection.from_documents(docs), IndexVariant.TITLE_ABSTRACT, self.tokenizer
        )

    def classify(self, query: str) -> TaskPrediction:
        tokens = self.tokenizer.tokenize(query)
        if not tokens:
            raise EmptyQuery(f"query {query!r} produced no tokens")
        ranked = search(self._index, self.params, tokens, top_k=len(self.framework))
        if not ranked:
            return TaskPrediction(
                task_id=self.framework.tasks[0].task_id, score=0.0, low_confidence=True
            )
        task_id, score = ranked[0]
        return TaskPrediction(task_id=task_id, score=score, low_confidence=False)


def classify_query(framework: TaskFramework, query: str,
                   params: Bm25Params | None = None) -> TaskPrediction:
    """One-off classification; build a TaskClassifier to reuse the index."""
    return TaskClassifier(framework, params).classify(query)


def classify_topics(framework: TaskFramework, topics: list[Topic],
                    params: Bm25Params | None = None) -> list[TaskAssignment]:
    classifier = TaskClassifier(framework, params)
    return [
        TaskAssignment(
            topic_id=t.topic_id,
            task_id=classifier.classify(t.query).task_id,
            source=AssignmentSource.AUTOMATIC,
        )
        for t in topics
    ]


def _assignment_map(assignments: list[TaskAssignment]) -> dict[int, str]:
    mapping: dict[int, str] = {}
    for a in assignments:
        if a.topic_id in mapping:
            raise DuplicateTopic(a.topic_id)
        mapping[a.topic_id] = a.task_id
    return mapping


def agreement(a: list[TaskAssignment], b: list[TaskAssignment]) -> float:
    """Fraction of topics assigned the same task by both lists."""
    map_a, map_b = _assignment_map(a), _assignment_map(b)
    if set(map_a) != set(map_b):
        raise TopicSetMismatch("assignment lists cover different topic sets")
    if not map_a:
        raise TopicSetMismatch("assignment lists are empty")
    matches = sum(1 for topic_id, task_id in map_a.items() if map_b[topic_id] == task_id)
    return matches / len(map_a)


def json_objects(path):
    """Yield ``(line_no, line, record)`` per non-blank line of a JSON-lines file.

    A line that is not a JSON object raises MalformedRow.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            line = line.rstrip("\n")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRow(line_no, line, path) from exc
            if not isinstance(record, dict):
                raise MalformedRow(line_no, line, path)
            yield line_no, line, record


def load_tasks(path) -> TaskFramework:
    """Load a task file: one JSON record per line with task_id/title/description."""
    tasks = []
    for line_no, line, record in json_objects(path):
        try:
            tasks.append(
                Task(
                    task_id=record["task_id"],
                    title=record.get("title", ""),
                    description=record["description"],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRow(line_no, line, path) from exc
    return TaskFramework(tasks=tuple(tasks))


def load_topics(path) -> list[Topic]:
    """Load a topic file: one JSON record per line with topic_id/query/question/narrative."""
    topics = []
    seen: set[int] = set()
    for line_no, line, record in json_objects(path):
        try:
            topic = Topic(
                topic_id=int(record["topic_id"]),
                query=record["query"],
                question=record.get("question", ""),
                narrative=record.get("narrative", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRow(line_no, line, path) from exc
        if topic.topic_id in seen:
            raise DuplicateTopic(topic.topic_id)
        seen.add(topic.topic_id)
        topics.append(topic)
    return topics


def load_manual_map(path, framework: TaskFramework) -> list[TaskAssignment]:
    """Load manual topic-to-task rows: ``topic_id task_id [confidence]``.

    Task ids are validated against the framework; confidence defaults to 3.
    A row that does not parse raises MalformedRow.
    """
    assignments: list[TaskAssignment] = []
    valid_ids = set(framework.task_ids())
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                topic_id, task_id, *rest = line.split()
                assignment = TaskAssignment(
                    topic_id=int(topic_id),
                    task_id=task_id,
                    source=AssignmentSource.MANUAL,
                    confidence=int(rest[0]) if rest else 3,
                )
            except ValueError as exc:
                raise MalformedRow(line_no, line, path) from exc
            if task_id not in valid_ids:
                raise UnknownTaskId(task_id)
            if assignment.topic_id in seen:
                raise DuplicateTopic(assignment.topic_id)
            seen.add(assignment.topic_id)
            assignments.append(assignment)
    return assignments


def default_framework() -> TaskFramework:
    """The ten research-goal tasks shipped with the package."""
    with resources.as_file(resources.files("taskrank.data").joinpath("tasks.jsonl")) as p:
        return load_tasks(p)


def default_manual_map(framework: TaskFramework | None = None) -> list[TaskAssignment]:
    """The shipped manual topic-to-task map over the 50 search topics."""
    framework = framework or default_framework()
    with resources.as_file(resources.files("taskrank.data").joinpath("manual_map.txt")) as p:
        return load_manual_map(p, framework)
