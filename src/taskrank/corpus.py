"""Document collection ingestion.

The corpus file is UTF-8, line-delimited JSON: one record per line with the
fields ``doc_id``, ``title``, ``abstract``, ``body``, ``journal`` and ``date``.
Absent fields are treated as empty. ``body`` may be a single string (split
into paragraphs on blank lines) or a pre-split list of paragraph strings.
The file is read through ``errors.read_rows``: a line that is not a record
with a non-empty string ``doc_id`` free of whitespace, or that repeats an
earlier ``doc_id``, raises MalformedRow naming the file and the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DuplicateDocId, json_object, read_rows

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
    publish_date: str = ""


@dataclass(frozen=True)
class Collection:
    """Immutable, ordered set of documents with O(1) id lookup."""

    docs: tuple[Document, ...]
    by_id: dict[str, int] = field(compare=False)

    @classmethod
    def from_documents(cls, docs) -> "Collection":
        docs = tuple(docs)
        by_id: dict[str, int] = {}
        for i, doc in enumerate(docs):
            if doc.doc_id in by_id:
                raise DuplicateDocId(doc.doc_id)
            by_id[doc.doc_id] = i
        return cls(docs=docs, by_id=by_id)

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.by_id

    def get(self, doc_id: str) -> Document | None:
        idx = self.by_id.get(doc_id)
        return self.docs[idx] if idx is not None else None


def _record_to_document(record: dict) -> Document:
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty doc_id")
    if doc_id.split() != [doc_id]:
        raise ValueError(f"doc_id {doc_id!r} contains whitespace")
    body = record.get("body", "")
    if isinstance(body, str):
        paragraphs = segment_paragraphs(body)
    elif isinstance(body, list):
        paragraphs = [str(p).strip() for p in body if str(p).strip()]
    else:
        raise ValueError("body must be a string or a list of strings")
    return Document(
        doc_id=doc_id,
        title=str(record.get("title", "") or ""),
        abstract=str(record.get("abstract", "") or ""),
        body=tuple(paragraphs),
        journal=str(record.get("journal", "") or ""),
        publish_date=str(record.get("date", "") or ""),
    )


def load_collection(path) -> Collection:
    """Load a corpus file; every line must be a valid record with a new doc_id."""
    seen: set[str] = set()

    def parse(line: str) -> Document:
        doc = _record_to_document(json_object(line))
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        return doc

    return Collection.from_documents([doc for _, _, doc in read_rows(path, parse)])
