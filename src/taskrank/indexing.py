"""Tokenization, an immutable array-backed inverted index and BM25 search.

Three index variants are supported: full text (title+abstract+body as one
unit per document), title+abstract, and title+abstract+paragraph where every
body paragraph becomes its own index unit mapped back to the parent document.

A ``TokenizedCollection`` reads the documents in one pass and splits each
one's title+abstract ("head") once and each body paragraph once into runs,
which one vocabulary lookup per run and a numpy mask turn into token ids
over one vocabulary; of the documents it keeps only their ids, in doc_id
order. Every variant is assembled from those arrays by one rule: a unit is a
document's head followed by a run of its paragraphs, which is all of them
(full text), none (title+abstract) or one (paragraph: a unit per paragraph,
or the head alone for a document without a body). An ``InvertedIndex``
stores its postings in CSR form: per term, a contiguous run of ascending
``int32`` unit ids and their term frequencies, located by ``offsets``.
``search`` is the one BM25 scorer: it scores the units a query touches and
ranks documents by their best unit. An index never changes once built; per
``Bm25Params`` it memoizes derived data, the unit length norm and each
term's BM25 contributions, at first use, so all topics, sweep cells and
classifiers sharing an index score each term once. A ranking is a pair of
arrays, document positions and their float64 scores; ``top_ranked`` orders
one for search, fusion and re-ranking alike, ties by ascending position,
which is doc_id order. A run keeps them (``evaluation.Ranking``) and looks
doc_ids up only to write a run file.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from itertools import count, filterfalse, islice, pairwise, product

import numpy as np

from .corpus import Document
from .errors import TaskRankError

_TOKEN_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_TABLE = bytes(b if chr(b) in _TOKEN_CHARS else 0x20 for b in range(256))
_ONE_CHARACTER_RUNS = frozenset(_TOKEN_CHARS)

_BLOCK_TOKENS = 1 << 16  # runs per block of set-up's run ids, tokens per block of an index's keys
_INT32_KEY_SPACE = 2**31  # the largest vocabulary size * unit count for int32 keys

_NO_POSTINGS = (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint8))
_NO_CONTRIBUTIONS = (np.zeros(0, dtype=np.int32), np.zeros(0))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Stopword list shipped with the package (standard English analyzer set)."""
    text = resources.files("taskrank.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def token_runs(text: str) -> list[str]:
    """The maximal ``[0-9a-z]+`` runs of ``text.lower()``, in order: each ASCII
    character keeps its byte, any other code point (a lone surrogate too)
    becomes one ``?``, and ``_TABLE`` turns every byte but ``[0-9a-z]`` into
    a space to split on."""
    return text.lower().encode("ascii", "replace").translate(_TABLE).decode("ascii").split()


@dataclass(frozen=True)
class Tokenizer:
    """Lowercasing alphanumeric tokenizer with stopword removal.

    ``runs`` gives the maximal ``[0-9a-z]+`` runs of the lowercased input, by
    ``token_runs`` with one ``bytes.translate`` and ``split``; ``dropped``
    holds the stopwords and every one-character run. A token is a run that is
    not dropped. Queries go through ``tokenize``; ``TokenizedCollection``
    calls ``runs`` and reads ``dropped`` but never calls ``tokenize``. So a
    subclass that overrides ``runs`` or passes other ``stopwords`` changes
    documents and queries alike, while an override of ``tokenize`` reaches
    queries only.
    """

    stopwords: frozenset[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.stopwords is None:
            object.__setattr__(self, "stopwords", default_stopwords())
        # Derived data, not a field, so equality and hashing see only stopwords.
        object.__setattr__(self, "dropped", _ONE_CHARACTER_RUNS.union(self.stopwords))

    def runs(self, text: str) -> list[str]:
        return token_runs(text)

    def tokenize(self, text: str) -> list[str]:
        return list(filterfalse(self.dropped.__contains__, self.runs(text)))


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
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError("k1 must be a finite number > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


def _add_block(token_blocks: list[np.ndarray], end_blocks: list[np.ndarray],
               ids: list[int], ends: list[int]) -> None:
    """Append the non-negative run ``ids`` to ``token_blocks`` and one token
    offset per run offset in ``ends`` to ``end_blocks``. A block starts at a
    segment boundary, so the tokens before its first run are the last offset
    so far; a segment ends where its runs end, less the dropped runs before."""
    block = np.array(ids, dtype=np.int32)
    kept_ends = np.array(ends, dtype=np.int64)
    kept_ends += end_blocks[-1][-1] - np.searchsorted(np.flatnonzero(block < 0), kept_ends)
    token_blocks.append(block[block >= 0])
    end_blocks.append(kept_ends)


class TokenizedCollection:
    """Token ids of a collection, one ``Tokenizer.runs`` call per head and
    paragraph.

    Every run maps to an id through one vocabulary that starts with the
    tokenizer's ``dropped`` words at negative ids; other terms get dense ids
    from 0 in order of first occurrence. A mask over the run ids keeps the
    non-negative ones, so ``tokens`` and ``vocab`` are exactly what
    ``Tokenizer.tokenize`` of each text would give. The run ids are masked
    about 65k runs at a time, so no list holds more than one block of them.

    Segments are laid out per document in file order: the head
    (``f"{title} {abstract}"``) and then each body paragraph. Segment ``s``
    is ``tokens[seg_offsets[s]:seg_offsets[s + 1]]``. Document positions
    follow doc_id order: ``doc_ids[d]``'s head is segment ``head_segment[d]``,
    followed by its ``paragraphs[d]`` paragraphs. Tokenizing the joined texts
    a variant indexes gives the concatenation of these segments, because the
    joining space never belongs to a token. With ``bodies=False`` only
    heads are tokenized, which suffices for the title+abstract variant.
    ``documents`` is read once; no documents or a repeated doc_id is an error.
    """

    def __init__(self, documents: Iterable[Document], tokenizer: Tokenizer | None = None,
                 bodies: bool = True):
        self.tokenizer = tokenizer or Tokenizer()
        self.bodies = bodies
        doc_ids: list[str] = []
        runs, dropped = self.tokenizer.runs, self.tokenizer.dropped
        # A term's id is the number of distinct terms seen before its first
        # occurrence, so no run strings outlive their text.
        vocab: defaultdict[str, int] = defaultdict(count().__next__,
                                                   zip(dropped, count(-1, -1)))
        token_blocks = [np.zeros(0, dtype=np.int32)]
        end_blocks = [np.zeros(1, dtype=np.int64)]  # tokens before each segment's end
        raw: list[int] = []  # run ids since the last block
        seg_ends: list[int] = []  # runs in raw before each of its segments' ends
        paragraphs: list[int] = []
        for doc in documents:
            doc_ids.append(doc.doc_id)
            head = f"{doc.title} {doc.abstract}"
            texts = [head, *doc.body] if bodies else [head]
            paragraphs.append(len(texts) - 1)
            for text in texts:
                raw += map(vocab.__getitem__, runs(text))
                seg_ends.append(len(raw))
                if len(raw) >= _BLOCK_TOKENS:
                    _add_block(token_blocks, end_blocks, raw, seg_ends)
                    raw, seg_ends = [], []
        if not doc_ids:
            raise TaskRankError("cannot index an empty collection")
        _add_block(token_blocks, end_blocks, raw, seg_ends)
        self.tokens = np.concatenate(token_blocks)
        self.seg_offsets = np.concatenate(end_blocks)
        del token_blocks, end_blocks
        # A plain dict of the terms after the dropped words, so looking up an
        # unknown query term adds nothing. It holds only str and int and the
        # collector skips it.
        self.vocab = dict(islice(vocab.items(), len(dropped), None))
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        for a, b in pairwise(order):
            if doc_ids[a] == doc_ids[b]:
                raise TaskRankError(f"duplicate doc_id {doc_ids[a]!r}")
        self.doc_ids = tuple(map(doc_ids.__getitem__, order))
        segments = np.array(paragraphs, dtype=np.int64) + 1  # per document, in file order
        # Segment index of each document's head; its paragraphs follow it.
        self.head_segment = (np.cumsum(segments) - segments)[order]
        self.paragraphs = segments[order] - 1


class InvertedIndex:
    """Immutable inverted index over one variant of a tokenized collection.

    Statistics are unit-level. A unit is a document's head followed by a run
    of its paragraphs: all of them (full text) or none (title+abstract), one
    unit per document; or one (paragraph), one unit per paragraph and the
    head alone for a document without a body. Units are numbered in document
    position (doc_id) order, a document's paragraphs in their order, and
    ``parent[u]`` is the position of unit ``u``'s document.
    The postings of term id ``t`` are ``post_units[offsets[t]:offsets[t+1]]``
    (ascending) with frequencies ``post_tfs`` at the same positions.

    These arrays never change. ``contributions`` memoizes derived data per
    ``Bm25Params``: the length norm and at most one unit id and one float64
    BM25 contribution per posting.
    """

    def __init__(self, tokens: TokenizedCollection, variant: IndexVariant):
        if variant is not IndexVariant.TITLE_ABSTRACT and not tokens.bodies:
            raise ValueError(f"the {variant.value} variant needs tokenized bodies")
        self.variant = variant
        self.tokenizer = tokens.tokenizer
        self.vocab = tokens.vocab
        self.doc_ids = tokens.doc_ids
        offsets, head, paragraphs = tokens.seg_offsets, tokens.head_segment, tokens.paragraphs
        # Per document: its units, and the paragraphs in each unit's run.
        units_per_doc, run = {
            IndexVariant.FULL_TEXT: (np.ones_like(paragraphs), paragraphs),
            IndexVariant.TITLE_ABSTRACT: (np.ones_like(paragraphs), np.zeros_like(paragraphs)),
            IndexVariant.TITLE_ABSTRACT_PARAGRAPH: (np.maximum(paragraphs, 1),
                                                    np.minimum(paragraphs, 1)),
        }[variant]
        self.doc_count = len(head)
        self.unit_count = int(units_per_doc.sum())
        self.parent = parent = np.repeat(np.arange(self.doc_count, dtype=np.int32), units_per_doc)
        # A unit is its document's head segment followed by a run of paragraph
        # segments from first, the unit's rank within its document past the
        # head. An empty run starts where its head ends, which is at most the
        # last entry of offsets, so a bodyless last document reads no further.
        heads = head[parent]
        rank = np.arange(self.unit_count) - (np.cumsum(units_per_doc) - units_per_doc)[parent]
        first = heads + 1 + rank
        parts = [(offsets[heads], offsets[heads + 1]),
                 (offsets[first], offsets[first + run[parent]])]
        self.unit_lengths = sum(ends - starts for starts, ends in parts).astype(np.int32)
        # Sorted (term, unit) keys; each run of equal keys is one posting. Keys
        # are int32 when every term * unit_count + unit fits, and are written a
        # block of units at a time, so that no temporary spans every token.
        key_type = np.int32 if len(self.vocab) * self.unit_count <= _INT32_KEY_SPACE else np.int64
        keys = np.empty(int(self.unit_lengths.sum()), dtype=key_type)
        step, filled = max(1, _BLOCK_TOKENS * self.unit_count // max(len(keys), 1)), 0
        for (starts, ends), unit in product(parts, range(0, self.unit_count, step)):
            starts, lengths = starts[unit:unit + step], (ends - starts)[unit:unit + step]
            lo, filled = filled, filled + int(lengths.sum())
            # Token positions: arange(starts[i], starts[i] + lengths[i]) over i.
            pos = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(filled - lo)
            np.multiply(tokens.tokens[pos], self.unit_count, out=keys[lo:filled], dtype=key_type)
            keys[lo:filled] += np.repeat(np.arange(unit, unit + len(lengths)), lengths)
        keys.sort()
        # A run starts at the first key and wherever a key differs from the one before.
        starts = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1])))
        # A posting's tf is the length of its run, at most a unit's length.
        tfs = np.empty(len(starts), dtype=np.int32)
        np.subtract(starts[1:], starts[:-1], out=tfs[:-1])
        tfs[-1:] = len(keys) - starts[-1:]
        self.post_tfs = tfs.astype(np.min_scalar_type(int(tfs.max(initial=1))))
        del tfs
        keys = keys[starts]
        del starts
        self.post_units = (keys % self.unit_count).astype(np.int32, copy=False)
        keys //= self.unit_count  # now each posting's term, ascending
        self.offsets = np.searchsorted(keys, np.arange(len(self.vocab) + 1, dtype=key_type))
        self.vocab_size = int(np.count_nonzero(np.diff(self.offsets)))
        # Lengths are ints, so the mean is exact and independent of unit order.
        self.avg_unit_length = int(self.unit_lengths.sum()) / self.unit_count
        self._length_norms: dict[Bm25Params, np.ndarray] = {}
        self._memo: dict[Bm25Params, dict[str, tuple[np.ndarray, np.ndarray]]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held in this index's arrays (the shared vocabulary excluded)."""
        return sum(a.nbytes for a in (self.offsets, self.post_units, self.post_tfs,
                                      self.parent, self.unit_lengths))

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

    def contributions(self, params: Bm25Params,
                      terms: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per entry of ``terms``: the ascending units containing it and its
        BM25 contribution to each under ``params`` (none for an unknown term).
        Each term is scored once per index and ``params``, into the memo whose
        arrays every later call returns; callers must not modify them.
        """
        memo = self._memo.setdefault(params, {})
        for term in terms:
            if term in memo:
                continue
            units, tfs = self.term_postings(term)
            if len(units) == 0:
                memo[term] = _NO_CONTRIBUTIONS
                continue
            length_norm = self._length_norms.get(params)
            if length_norm is None:  # a term has postings, so avg_unit_length > 0
                length_norm = self._length_norms[params] = params.k1 * (
                    1.0 - params.b + params.b * self.unit_lengths / self.avg_unit_length)
            # Lucene-style idf: non-negative for every df <= N.
            df = len(units)
            idf = math.log(1.0 + (self.unit_count - df + 0.5) / (df + 0.5))
            memo[term] = (units, idf * tfs * (params.k1 + 1.0) / (tfs + length_norm[units]))
        return [memo[term] for term in terms]


def build_index(documents: Iterable[Document], variant: IndexVariant,
                tokenizer: Tokenizer | None = None) -> InvertedIndex:
    """Tokenize ``documents`` and index one variant of them.

    To build several variants of one collection, make one
    TokenizedCollection and pass it to InvertedIndex per variant.
    """
    bodies = variant is not IndexVariant.TITLE_ABSTRACT
    return InvertedIndex(TokenizedCollection(documents, tokenizer, bodies), variant)


def top_ranked(docs: np.ndarray, scores: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top_k`` best of the distinct positions ``docs`` with their
    ``scores``, by score descending, ties by ascending position (doc_id
    order). A ``top_k`` below 1 raises ValueError, whatever ``docs`` holds."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if len(docs) > top_k:
        cut = len(docs) - top_k
        keep = scores >= np.partition(scores, cut)[cut]
        docs, scores = docs[keep], scores[keep]
    order = np.argsort(-scores)
    ranked = scores[order]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        # Sort again by (run of equal scores, position), one int64 key per
        # document: a run's number counts the score changes before it, so the
        # keys are distinct.
        key = np.zeros(len(order), dtype=np.int64)
        np.cumsum(~tied, out=key[1:])
        key *= int(docs.max()) + 1
        key += docs[order]
        order = order[np.argsort(key)]
    order = order[:top_k]
    return docs[order], scores[order]


def search(index: InvertedIndex, params: Bm25Params,
           query_tokens: list[str], top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank documents by BM25 over index units.

    Units are scored, aggregated to their parent document by maximum unit
    score, then sorted by score descending with ties broken by ascending
    doc_id. Zero-score documents are excluded. Returns the documents'
    positions (``index.doc_ids[p]`` is the id) and their scores.

    One ``np.bincount`` adds the memoized contributions of every query-token
    occurrence (a repeated token once per occurrence), one after another in
    query order, so each unit's score is the float sum a per-unit loop computes.
    For the paragraph variant ``np.maximum.at`` scatters each unit's score
    onto its document, from +0.0: every score is >= +0.0, and a maximum is
    exact in any order.
    """
    pairs = [_NO_CONTRIBUTIONS, *index.contributions(params, query_tokens)]
    unit_scores = np.bincount(np.concatenate([units for units, _ in pairs]),
                              np.concatenate([contrib for _, contrib in pairs]),
                              minlength=index.unit_count)
    if index.unit_count == index.doc_count:
        doc_scores = unit_scores
    else:
        doc_scores = np.zeros(index.doc_count)
        np.maximum.at(doc_scores, index.parent, unit_scores)
    hits = np.flatnonzero(doc_scores > 0.0)
    return top_ranked(hits, doc_scores[hits], top_k)
