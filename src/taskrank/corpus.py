"""Document collection ingestion.

The corpus file is UTF-8, line-delimited JSON: one record per line with the
fields ``doc_id``, ``title``, ``abstract``, ``body``, ``journal`` and ``date``.
Absent and ``null`` fields are treated as empty. ``body`` may be a single
string (split into paragraphs on blank lines) or a pre-split list of
paragraph strings. The file is read through ``errors.read_rows``: a line that
is not a record with a non-empty string ``doc_id`` free of whitespace and
encodable as UTF-8 (a JSON escape of a lone surrogate is not), that repeats
an earlier ``doc_id``, or whose other fields are not strings, raises
MalformedRow naming the file and the line. ``load_collection`` returns the
documents as a tuple in file order; callers take what they need from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import json_object, read_rows

_BLANK_RUN = re.compile(r"\n\s*\n")


def segment_paragraphs(raw_body: str) -> list[str]:
    """Split body text into paragraphs on blank-line boundaries.

    Each paragraph is stripped of surrounding whitespace; empty segments are
    dropped. ``""`` yields ``[]``.
    """
    if not raw_body or not raw_body.strip():
        return []
    parts = _BLANK_RUN.split(raw_body)
    return [p.strip() for p in parts if p.strip()]


@dataclass(frozen=True)
class Document:
    """One scientific paper with optional metadata and body paragraphs."""

    doc_id: str
    title: str = ""
    abstract: str = ""
    body: tuple[str, ...] = ()
    journal: str = ""


def _text(value, name: str) -> str:
    """A string field's value; ``None`` (absent or ``null``) is empty."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, not {type(value).__name__}")
    return value


def _record_to_document(record: dict) -> Document:
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty doc_id")
    if doc_id.split() != [doc_id]:
        raise ValueError(f"doc_id {doc_id!r} contains whitespace")
    if not doc_id.isascii():
        try:
            doc_id.encode()
        except UnicodeEncodeError:
            raise ValueError(f"doc_id {doc_id!r} cannot be encoded as UTF-8") from None
    body = record.get("body")
    if isinstance(body, list):
        if not all(isinstance(p, str) for p in body):
            raise TypeError("body must be a string or a list of strings")
        paragraphs = [p.strip() for p in body if p.strip()]
    else:
        paragraphs = segment_paragraphs(_text(body, "body"))
    document = Document(
        doc_id=doc_id,
        title=_text(record.get("title"), "title"),
        abstract=_text(record.get("abstract"), "abstract"),
        body=tuple(paragraphs),
        journal=_text(record.get("journal"), "journal"),
    )
    _text(record.get("date"), "date")  # kept by no field, but it must be a string
    return document


def load_collection(path) -> tuple[Document, ...]:
    """Load a corpus file; every line must be a valid record with a new doc_id."""
    seen: set[str] = set()

    def parse(line: str) -> Document:
        doc = _record_to_document(json_object(line))
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        return doc

    return tuple(doc for _, _, doc in read_rows(path, parse))
