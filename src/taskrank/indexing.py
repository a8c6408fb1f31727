"""Tokenization, an immutable array-backed inverted index and BM25 search.

Three index variants are supported: full text (title+abstract+body as one
unit per document), title+abstract, and title+abstract+paragraph where every
body paragraph becomes its own index unit mapped back to the parent document.

A ``TokenizedCollection`` tokenizes each document's title+abstract ("head")
once and each body paragraph once, into token ids over one vocabulary. Every
variant is assembled from those arrays: full text = head + all paragraphs,
title+abstract = head, paragraph = head + paragraph_i (the head alone for a
document without a body). An ``InvertedIndex`` stores its postings in CSR
form: per term, a contiguous run of ascending ``int32`` unit ids and their
term frequencies, located by ``offsets``. ``search`` is the one BM25 scorer:
it scores the units a query touches and ranks documents by their best unit.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from itertools import count, filterfalse

import numpy as np

from .corpus import Collection
from .errors import EmptyCollection

_TOKEN_RUN = re.compile(r"[0-9a-z]+")
# Maximal runs of two or more characters: a one-character run never matches,
# so a match cannot start inside a longer run.
_LONG_TOKEN_RUN = re.compile(r"[0-9a-z]{2,}")

_NO_POSTINGS = (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint8))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Stopword list shipped with the package (standard English analyzer set)."""
    text = resources.files("taskrank.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


@dataclass(frozen=True)
class Tokenizer:
    """Lowercasing alphanumeric tokenizer with stopword removal.

    Tokens are maximal ``[0-9a-z]+`` runs of the lowercased input; stopwords
    and tokens shorter than two characters are dropped.
    """

    stopwords: frozenset[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.stopwords is None:
            object.__setattr__(self, "stopwords", default_stopwords())

    def tokenize(self, text: str) -> list[str]:
        return list(filterfalse(self.stopwords.__contains__,
                                _LONG_TOKEN_RUN.findall(text.lower())))


class IndexVariant(Enum):
    FULL_TEXT = "fulltext"
    TITLE_ABSTRACT = "title-abstract"
    TITLE_ABSTRACT_PARAGRAPH = "paragraph"


@dataclass(frozen=True)
class Bm25Params:
    """Okapi BM25 parameters; defaults follow common fusion-baseline settings."""

    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class TokenizedCollection:
    """Token ids of a collection, one tokenizer call per head and paragraph.

    Segments are laid out per document in collection order: the head
    (``f"{title} {abstract}"``) and then each body paragraph. Segment ``s``
    is ``tokens[seg_offsets[s]:seg_offsets[s + 1]]``. Tokenizing the joined
    texts a variant indexes gives the concatenation of these segments, because
    the joining space never belongs to a token. With ``bodies=False`` only
    heads are tokenized, which suffices for the title+abstract variant.
    """

    def __init__(self, collection: Collection, tokenizer: Tokenizer | None = None,
                 bodies: bool = True):
        if len(collection) == 0:
            raise EmptyCollection("cannot index an empty collection")
        self.tokenizer = tokenizer or Tokenizer()
        self.bodies = bodies
        self.doc_ids = tuple(doc.doc_id for doc in collection)
        split = self.tokenizer.tokenize
        # Each token is stored as the position of its term's first occurrence,
        # so no token strings outlive their text; the positions are renumbered
        # to dense term ids below.
        first_position: dict[str, int] = {}
        intern = first_position.setdefault
        position = count()
        raw = array("q")
        seg_lengths: list[int] = []
        paragraphs: list[int] = []
        for doc in collection:
            head = f"{doc.title} {doc.abstract}"
            texts = [head, *doc.body] if bodies else [head]
            paragraphs.append(len(texts) - 1)
            for text in texts:
                tokens = split(text)
                seg_lengths.append(len(tokens))
                raw.extend(map(intern, tokens, position))
        dense = np.empty(len(raw), dtype=np.int32)
        dense[np.fromiter(first_position.values(), dtype=np.int64)] = np.arange(
            len(first_position), dtype=np.int32)
        self.tokens = dense[np.frombuffer(raw, dtype=np.int64)]
        self.vocab = dict(zip(first_position, range(len(first_position))))
        self.seg_offsets = np.zeros(len(seg_lengths) + 1, dtype=np.int64)
        np.cumsum(seg_lengths, out=self.seg_offsets[1:])
        self.paragraphs = np.array(paragraphs, dtype=np.int64)
        # Segment index of each document's head; its paragraphs follow it.
        self.head_segment = np.cumsum(self.paragraphs + 1) - (self.paragraphs + 1)
        order = sorted(range(len(self.doc_ids)), key=self.doc_ids.__getitem__)
        self.doc_rank = np.empty(len(order), dtype=np.int32)
        self.doc_rank[order] = np.arange(len(order), dtype=np.int32)


def _gather(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], ends[i])`` over i."""
    lengths = ends - starts
    before = np.cumsum(lengths) - lengths
    return np.repeat(starts - before, lengths) + np.arange(int(lengths.sum()))


class InvertedIndex:
    """Immutable inverted index over one variant of a tokenized collection.

    Statistics are unit-level: for the paragraph variant a "unit" is one
    title+abstract+paragraph block, otherwise one document. Units are
    numbered in collection order and ``parent[u]`` is the position of unit
    ``u``'s document; ``first_unit[d]`` is document ``d``'s first unit.
    The postings of term id ``t`` are ``post_units[offsets[t]:offsets[t+1]]``
    (ascending) with frequencies ``post_tfs`` at the same positions.
    """

    def __init__(self, tokens: TokenizedCollection, variant: IndexVariant):
        if variant is not IndexVariant.TITLE_ABSTRACT and not tokens.bodies:
            raise ValueError(f"the {variant.value} variant needs tokenized bodies")
        self.variant = variant
        self.tokenizer = tokens.tokenizer
        self.vocab = tokens.vocab
        self.doc_ids = tokens.doc_ids
        self.doc_rank = tokens.doc_rank
        offsets, head, paragraphs = tokens.seg_offsets, tokens.head_segment, tokens.paragraphs
        if variant is IndexVariant.TITLE_ABSTRACT_PARAGRAPH:
            units_per_doc = np.maximum(paragraphs, 1)
        else:
            units_per_doc = np.ones(len(head), dtype=np.int64)
        self.doc_count = len(head)
        self.unit_count = int(units_per_doc.sum())
        first_unit = np.cumsum(units_per_doc) - units_per_doc
        self.first_unit = first_unit.astype(np.int32)
        self.parent = np.repeat(np.arange(self.doc_count, dtype=np.int32), units_per_doc)
        if variant is IndexVariant.FULL_TEXT:
            parts = [(offsets[head], offsets[head + 1 + paragraphs])]
        elif variant is IndexVariant.TITLE_ABSTRACT:
            parts = [(offsets[head], offsets[head + 1])]
        else:
            # Unit u is its document's head plus paragraph local[u], if any.
            parent = self.parent
            local = np.arange(self.unit_count) - first_unit[parent]
            with_body = paragraphs[parent] > 0
            segment = (head[parent] + 1 + local)[with_body]
            para_starts = np.zeros(self.unit_count, dtype=np.int64)
            para_ends = np.zeros(self.unit_count, dtype=np.int64)
            para_starts[with_body] = offsets[segment]
            para_ends[with_body] = offsets[segment + 1]
            parts = [(offsets[head[parent]], offsets[head[parent] + 1]),
                     (para_starts, para_ends)]
        self.unit_lengths = sum(ends - starts for starts, ends in parts).astype(np.int32)
        keys = np.concatenate([self._pair_keys(tokens.tokens, s, e) for s, e in parts])
        # Sorted (term, unit) keys; each run of equal keys is one posting.
        keys.sort()
        new = np.empty(len(keys), dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        tfs = np.diff(starts, append=len(keys))
        keys = keys[starts]
        self.post_units = (keys % self.unit_count).astype(np.int32)
        self.post_tfs = tfs.astype(np.min_scalar_type(int(tfs.max(initial=1))))
        df = np.bincount(keys // self.unit_count, minlength=len(self.vocab))
        self.offsets = np.zeros(len(self.vocab) + 1, dtype=np.int64)
        np.cumsum(df, out=self.offsets[1:])
        self.vocab_size = int(np.count_nonzero(df))
        # Lengths are ints, so the mean is exact and independent of unit order.
        self.avg_unit_length = int(self.unit_lengths.sum()) / self.unit_count

    def _pair_keys(self, token_ids: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
        """``term * unit_count + unit`` for every token of the given ranges."""
        keys = token_ids[_gather(starts, ends)].astype(np.int64)
        keys *= self.unit_count
        keys += np.repeat(np.arange(self.unit_count, dtype=np.int64), ends - starts)
        return keys

    @property
    def nbytes(self) -> int:
        """Bytes held in this index's arrays (the shared vocabulary excluded)."""
        return sum(a.nbytes for a in (self.offsets, self.post_units, self.post_tfs,
                                      self.parent, self.first_unit,
                                      self.unit_lengths, self.doc_rank))

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Ascending unit ids containing ``term`` and their term frequencies."""
        t = self.vocab.get(term)
        if t is None:
            return _NO_POSTINGS
        lo, hi = self.offsets[t], self.offsets[t + 1]
        return self.post_units[lo:hi], self.post_tfs[lo:hi]

    def doc_freq(self, term: str) -> int:
        t = self.vocab.get(term)
        return 0 if t is None else int(self.offsets[t + 1] - self.offsets[t])

    def idf(self, term: str) -> float:
        # Lucene-style formulation: non-negative for every df <= N.
        df = self.doc_freq(term)
        return math.log(1.0 + (self.unit_count - df + 0.5) / (df + 0.5))


def build_index(collection: Collection, variant: IndexVariant,
                tokenizer: Tokenizer | None = None) -> InvertedIndex:
    """Tokenize ``collection`` and index one variant of it.

    To build several variants of one collection, make one
    TokenizedCollection and pass it to InvertedIndex per variant.
    """
    bodies = variant is not IndexVariant.TITLE_ABSTRACT
    return InvertedIndex(TokenizedCollection(collection, tokenizer, bodies), variant)


def search(index: InvertedIndex, params: Bm25Params,
           query_tokens: list[str], top_k: int) -> list[tuple[str, float]]:
    """Rank documents by BM25 over index units.

    Units are scored, aggregated to their parent document by maximum unit
    score, then sorted by score descending with ties broken by ascending
    doc_id. Zero-score documents are excluded.

    Each query-token occurrence adds its contribution to the unit scores in
    query order, so every unit's score is the same float sum a per-unit loop
    computes.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    unit_scores = np.zeros(index.unit_count)
    length_norm = None
    contributions: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for token in query_tokens:
        if token not in contributions:
            units, tfs = index.term_postings(token)
            if len(units) == 0:
                contributions[token] = (units, np.zeros(0))
                continue
            if length_norm is None:
                length_norm = params.k1 * (
                    1.0 - params.b + params.b * index.unit_lengths / index.avg_unit_length
                )
            contributions[token] = (
                units,
                index.idf(token) * tfs * (params.k1 + 1.0) / (tfs + length_norm[units]),
            )
        units, contrib = contributions[token]
        unit_scores[units] += contrib
    if index.unit_count == index.doc_count:
        doc_scores = unit_scores
    else:
        doc_scores = np.maximum.reduceat(unit_scores, index.first_unit)
    hits = np.flatnonzero(doc_scores > 0.0)
    scores = doc_scores[hits]
    if len(hits) > top_k:
        cut = len(hits) - top_k
        keep = scores >= np.partition(scores, cut)[cut]
        hits, scores = hits[keep], scores[keep]
    order = np.lexsort((index.doc_rank[hits], -scores))[:top_k]
    doc_ids = index.doc_ids
    return list(zip([doc_ids[d] for d in hits[order].tolist()], scores[order].tolist()))
