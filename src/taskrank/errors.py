"""Exception types shared across the package, ``read_rows``, the one reader
of line-based input files, and ``integer`` and ``number``, the rules by which
those files and the settings' strings read an integer and any other number.
A bad line in any of the files, a repeated or unknown id included, raises
MalformedRow naming the file and the line; the in-memory APIs raise
TaskRankError itself instead, its message saying what is wrong, such as a
repeated doc_id or an unknown task_id.
"""

import json
import math
import re

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
_INTEGER = re.compile("-?[0-9]+")
_NUMBER = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")


class TaskRankError(Exception):
    """A bad input or setting; the message says what is wrong. Its one
    subclass, MalformedRow, is a bad line of an input file."""


class MalformedRow(TaskRankError):
    """A line of an input file that does not parse. The message quotes at most
    80 characters each of the line and of the reason; ``line`` keeps it all."""

    def __init__(self, line_no: int, line: str, path, reason: str = ""):
        because = f" ({reason[:80]})" if reason else ""
        super().__init__(f"{path} line {line_no}: cannot parse {line[:80]!r}{because}")
        self.line_no = line_no
        self.line = line
        self.path = path


def read_rows(path, parse):
    """Yield ``(line_no, line, parse(line))`` for each non-blank line of a file.

    The file is UTF-8 with any line ending; ``line`` comes without it. A line
    that is not UTF-8, or that ``parse`` rejects with ValueError, KeyError,
    TypeError, OverflowError or RecursionError, raises MalformedRow. ``parse``
    may check the line against the rows before it.
    """
    # surrogateescape decodes a byte that is not UTF-8 to a lone surrogate.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            line = line.rstrip("\n")
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                raise MalformedRow(line_no, line, path, "not valid UTF-8")
            try:
                value = parse(line)
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
                raise MalformedRow(line_no, line, path, reason) from exc
            yield line_no, line, value


def integer(value, name: str) -> int:
    """``value`` as an int: a JSON integer (not a bool) or a string of an
    optional ``-`` and ASCII digits. Anything else (``"+3"``, ``"1_0"``,
    non-ASCII digits, a float) raises ValueError naming ``name``."""
    if type(value) is int or isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"{name} must be an integer, not {value!r}")


def number(value, name: str) -> float:
    """``value`` as a float: a string of an optional ``-``, ASCII digits, an
    optional fraction and exponent, whose value is finite. Anything else
    (``"nan"``, ``"1e999"``, ``"+2"``, ``"1_0"``, non-ASCII digits, a
    non-string) raises ValueError naming ``name``."""
    if isinstance(value, str) and _NUMBER.fullmatch(value) and math.isfinite(float(value)):
        return float(value)
    raise ValueError(f"{name} must be a finite number, not {value!r}")


def json_object(line: str) -> dict:
    """Parse one line as a JSON object; anything else raises ValueError."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return record
