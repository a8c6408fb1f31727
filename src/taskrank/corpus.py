"""Document collection ingestion.

The corpus file is UTF-8, line-delimited JSON: one record per line with the
fields ``doc_id``, ``title``, ``abstract``, ``body``, ``journal`` and ``date``.
Absent fields are treated as empty. ``body`` may be a single string (split
into paragraphs on blank lines) or a pre-split list of paragraph strings.
A malformed line raises MalformedRecord and a repeated ``doc_id`` raises
DuplicateDocId, each naming the file and the line; blank lines are skipped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import DuplicateDocId, MalformedRecord

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
    """Load a corpus file; every line must be a valid, new record."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                doc = _record_to_document(record)
            except (ValueError, RecursionError) as exc:
                raise MalformedRecord(line_no, str(exc), path) from exc
            if doc.doc_id in seen:
                raise DuplicateDocId(doc.doc_id, path, line_no)
            seen.add(doc.doc_id)
            docs.append(doc)
    return Collection.from_documents(docs)
