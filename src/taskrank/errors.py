"""Exception types shared across the package."""


class TaskRankError(Exception):
    """Base class for all taskrank-specific errors."""


class MalformedRecord(TaskRankError):
    """A corpus line could not be parsed into a document record."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateDocId(TaskRankError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate doc_id {doc_id!r}")
        self.doc_id = doc_id


class EmptyCollection(TaskRankError):
    """An index build was attempted over a collection with no documents."""


class UnknownUnit(TaskRankError):
    def __init__(self, unit_id):
        super().__init__(f"unknown index unit {unit_id!r}")
        self.unit_id = unit_id


class EmptyInput(TaskRankError):
    """Fusion was called with zero input rankings."""


class EmptyQuery(TaskRankError):
    """A query produced no tokens after analysis."""


class EmptyFramework(TaskRankError):
    """A task framework with no tasks was supplied."""


class TopicSetMismatch(TaskRankError):
    """Two assignment lists do not cover the same topics."""


class UnknownTaskId(TaskRankError):
    def __init__(self, task_id: str):
        super().__init__(f"unknown task_id {task_id!r}")
        self.task_id = task_id


class DuplicateTopic(TaskRankError):
    def __init__(self, topic_id):
        super().__init__(f"duplicate topic_id {topic_id!r}")
        self.topic_id = topic_id


class EmptyQrels(TaskRankError):
    """No judgments available in the requested scope."""


class UnknownTask(TaskRankError):
    def __init__(self, task_id: str):
        super().__init__(f"task {task_id!r} absent from the manual map")
        self.task_id = task_id


class MissingTaskVector(TaskRankError):
    def __init__(self, task_id: str):
        super().__init__(f"no vector available for task {task_id!r}")
        self.task_id = task_id


class MalformedRow(TaskRankError):
    def __init__(self, line_no: int, line: str, path=None, reason: str | None = None):
        where = f"{path} line {line_no}" if path is not None else f"line {line_no}"
        because = f" ({reason})" if reason else ""
        super().__init__(f"{where}: cannot parse {line!r}{because}")
        self.line_no = line_no
        self.line = line
        self.path = path
