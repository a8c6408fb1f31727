"""Query token generation: plain, entity-filtered (udel-style) and
task-expanded variants.

Term weighting is done purely by duplication: a token repeated n times in the
query list is counted n times by BM25. Task terms can be routed to the
full-text index only, leaving the other index variants' queries untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from importlib import resources

import numpy as np

from .errors import EmptyQuery
from .indexing import _TOKEN_RUN, InvertedIndex, IndexVariant, Tokenizer
from .tasks import Task, TaskAssignment, Topic


def _raw_tokens(text: str) -> list[str]:
    # Matching stream for the lexicon: lowercase alphanumeric runs with
    # nothing dropped, so multi-token lexicon entries can match in place.
    return _TOKEN_RUN.findall(text.lower())


class LexiconExtractor:
    """Extracts candidate terms by matching a fixed term lexicon against text.

    Stand-in for a biomedical named-entity recognizer. Scanning is greedy
    longest-match (up to 4 tokens) over the normalized token stream; matched
    terms are returned in normalized form, one entry per occurrence, so
    repeated terms stay repeated.
    """

    def __init__(self, terms):
        self._terms: set[tuple[str, ...]] = set()
        for term in terms:
            tokens = tuple(_raw_tokens(term))
            if tokens and len(tokens) <= 4:
                self._terms.add(tokens)
        self._max_len = max((len(t) for t in self._terms), default=1)

    @classmethod
    def from_file(cls, path) -> "LexiconExtractor":
        with open(path, encoding="utf-8") as fh:
            return cls(line.strip() for line in fh if line.strip())

    def __len__(self) -> int:
        return len(self._terms)

    def extract(self, text: str) -> list[str]:
        tokens = _raw_tokens(text)
        found: list[str] = []
        i = 0
        while i < len(tokens):
            matched = 0
            for width in range(min(self._max_len, len(tokens) - i), 0, -1):
                candidate = tuple(tokens[i:i + width])
                if candidate in self._terms:
                    found.append(" ".join(candidate))
                    matched = width
                    break
            i += matched or 1
        return found


def default_lexicon() -> LexiconExtractor:
    """Extractor over the term lexicon shipped with the package."""
    text = resources.files("taskrank.data").joinpath("lexicon.txt").read_text("utf-8")
    return LexiconExtractor(line.strip() for line in text.splitlines() if line.strip())


class ConfidenceMode(Enum):
    IGNORE = "ignore"
    GATE = "gate"
    PROPORTIONAL = "proportional"


@dataclass(frozen=True)
class ExpansionConfig:
    """Task-term expansion knobs.

    Duplication counts are total occurrences per source token; the defaults
    are the best grid setting (3 query : 3 question : 1 task, three terms).
    """

    n_task_terms: int = 3
    dup_query: int = 3
    dup_question: int = 3
    dup_task: int = 1
    confidence_mode: ConfidenceMode = ConfidenceMode.IGNORE
    gate_threshold: int = 3
    route_task_terms_fulltext_only: bool = True

    def __post_init__(self):
        if self.n_task_terms < 0:
            raise ValueError("n_task_terms must be >= 0")
        if self.dup_query < 1:
            raise ValueError("dup_query must be >= 1")
        if self.dup_question < 0:
            raise ValueError("dup_question must be >= 0")
        if self.dup_task < 1:
            raise ValueError("dup_task must be >= 1")
        if self.gate_threshold not in (1, 2, 3):
            raise ValueError("gate_threshold must be 1, 2 or 3")


class QueryBase(Enum):
    PLAIN = "plain"
    UDEL = "udel"


@dataclass(frozen=True)
class GeneratedQuery:
    """Per-index-variant query token lists (with intentional repetition)."""

    per_variant: dict[IndexVariant, tuple[str, ...]] = field(compare=False)
    fallback: bool = False

    def tokens(self, variant: IndexVariant) -> list[str]:
        return list(self.per_variant[variant])


@dataclass(frozen=True)
class _BaseTokens:
    query_tokens: tuple[str, ...]
    question_tokens: tuple[str, ...]
    fallback: bool = False


def _uniform(tokens, fallback: bool = False) -> GeneratedQuery:
    tokens = tuple(tokens)
    return GeneratedQuery(
        per_variant={variant: tokens for variant in IndexVariant}, fallback=fallback
    )


def _base_plain(topic: Topic, tokenizer: Tokenizer) -> _BaseTokens:
    tokens = tokenizer.tokenize(topic.query)
    if not tokens:
        raise EmptyQuery(f"topic {topic.topic_id}: query has no indexable tokens")
    return _BaseTokens(query_tokens=tuple(tokens), question_tokens=())


def _base_udel(topic: Topic, extractor: LexiconExtractor, tokenizer: Tokenizer) -> _BaseTokens:
    """Entity-filtered query+question terms, kept separated by source.

    The two fields are extracted independently so that query- and
    question-sourced tokens can later be weighted differently; duplicates
    across the fields are intentional and kept.
    """
    query_tokens: list[str] = []
    for term in extractor.extract(topic.query):
        query_tokens.extend(tokenizer.tokenize(term))
    question_tokens: list[str] = []
    for term in extractor.extract(topic.question):
        question_tokens.extend(tokenizer.tokenize(term))
    if not query_tokens and not question_tokens:
        plain = _base_plain(topic, tokenizer)
        return _BaseTokens(
            query_tokens=plain.query_tokens, question_tokens=(), fallback=True
        )
    return _BaseTokens(
        query_tokens=tuple(query_tokens), question_tokens=tuple(question_tokens)
    )


def generate_plain(topic: Topic, tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Topic query terms only, identical across index variants."""
    base = _base_plain(topic, tokenizer or Tokenizer())
    return _uniform(base.query_tokens)


def generate_udel(topic: Topic, extractor: LexiconExtractor,
                  tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Query+question concatenation filtered down to lexicon terms.

    Falls back to the plain query (flagged) when extraction finds nothing.
    """
    base = _base_udel(topic, extractor, tokenizer or Tokenizer())
    return _uniform(base.query_tokens + base.question_tokens, fallback=base.fallback)


def select_task_terms(task: Task, abstracts_index: InvertedIndex,
                      extractor: LexiconExtractor, n: int | None) -> list[str]:
    """Pick the top-n extracted task-description terms by TF-IDF.

    TF is the term's occurrence count in the task description; IDF is
    ln(N/(1+df)) over the abstracts index, where a multi-token term's df is
    the number of units containing all of its tokens. Ties break
    lexicographically, so the order is total and the top n is a prefix of
    the full ranking that ``n=None`` returns.
    """
    if n is not None and n <= 0:
        return []
    candidates = extractor.extract(task.description)
    if not candidates:
        return []
    counts: dict[str, int] = {}
    for term in candidates:
        counts[term] = counts.get(term, 0) + 1
    total_units = abstracts_index.unit_count
    scored: list[tuple[float, str]] = []
    for term, tf in counts.items():
        # df is computed over the term's indexable tokens: those are the only
        # tokens the term contributes to a query.
        tokens = abstracts_index.tokenizer.tokenize(term)
        if not tokens:
            continue
        unit_lists = [abstracts_index.term_postings(t)[0] for t in tokens]
        df = len(reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), unit_lists))
        scored.append((tf * math.log(total_units / (1 + df)), term))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [term for _score, term in scored[:n]]


def _effective_dup_task(config: ExpansionConfig,
                        assignment: TaskAssignment | None) -> int:
    if config.confidence_mode is ConfidenceMode.IGNORE:
        return config.dup_task
    if assignment is None:
        raise ValueError(f"{config.confidence_mode.value} mode needs a task assignment")
    if config.confidence_mode is ConfidenceMode.GATE:
        return config.dup_task if assignment.confidence >= config.gate_threshold else 0
    return config.dup_task * assignment.confidence


def generate_task_expanded(topic: Topic, base: QueryBase, task_terms: list[str],
                           config: ExpansionConfig,
                           assignment: TaskAssignment | None = None,
                           extractor: LexiconExtractor | None = None,
                           tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Base query with task terms appended under duplication weighting.

    Base tokens are repeated per their source's duplication count; task-term
    tokens are appended ``dup_task`` times each (scaled or gated by annotator
    confidence when configured). With routing on, task tokens appear only in
    the full-text variant's list.
    """
    if len(task_terms) > config.n_task_terms:
        raise ValueError(
            f"{len(task_terms)} task terms exceed configured n_task_terms="
            f"{config.n_task_terms}"
        )
    tokenizer = tokenizer or Tokenizer()
    if base is QueryBase.PLAIN:
        base_tokens = _base_plain(topic, tokenizer)
    else:
        if extractor is None:
            raise ValueError("udel base requires a term extractor")
        base_tokens = _base_udel(topic, extractor, tokenizer)

    core: list[str] = []
    for token in base_tokens.query_tokens:
        core.extend([token] * config.dup_query)
    for token in base_tokens.question_tokens:
        core.extend([token] * config.dup_question)

    dup_task = _effective_dup_task(config, assignment)
    expansion: list[str] = []
    if dup_task > 0:
        for term in task_terms:
            for token in tokenizer.tokenize(term):
                expansion.extend([token] * dup_task)

    expanded = tuple(core + expansion)
    core_only = tuple(core)
    per_variant: dict[IndexVariant, tuple[str, ...]] = {}
    for variant in IndexVariant:
        if variant is IndexVariant.FULL_TEXT or not config.route_task_terms_fulltext_only:
            per_variant[variant] = expanded
        else:
            per_variant[variant] = core_only
    return GeneratedQuery(per_variant=per_variant, fallback=base_tokens.fallback)
