"""Query token generation: plain, entity-filtered (udel-style) and
task-expanded variants.

Term weighting is done purely by duplication: a token repeated n times in the
query list is counted n times by BM25. A ``GeneratedQuery`` is a value: the
``core`` tokens, which every index gets, and the task-term ``expansion``,
which with routing on only the full-text index gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from importlib import resources

import numpy as np

from .errors import TaskRankError, read_rows
from .indexing import InvertedIndex, IndexVariant, Tokenizer, token_runs
from .tasks import Task, TaskAssignment, Topic


class LexiconExtractor:
    """Extracts candidate terms by matching a fixed term lexicon against text.

    Stand-in for a biomedical named-entity recognizer. A term is its
    ``token_runs``, of any number; a term with none is left out. Scanning is
    greedy longest-match (up to the longest term) over the text's
    ``token_runs``, nothing dropped, so multi-token entries match in place;
    matched terms are returned in normalized form, one entry per occurrence,
    so repeated terms stay repeated.
    """

    def __init__(self, terms):
        self._terms: set[tuple[str, ...]] = {tuple(token_runs(term)) for term in terms} - {()}
        self._max_len = max((len(t) for t in self._terms), default=1)

    @classmethod
    def from_file(cls, path=None) -> "LexiconExtractor":
        """One term per non-blank line; a line without a ``[0-9a-z]`` run
        raises MalformedRow. Unset (any falsy path): the lexicon shipped with
        the package."""
        if not path:
            with resources.as_file(resources.files("taskrank.data") / "lexicon.txt") as shipped:
                return cls.from_file(shipped)
        def parse(line: str) -> str:
            if not token_runs(line):
                raise ValueError("term has no [0-9a-z] run")
            return line
        return cls(term for _, _, term in read_rows(path, parse))

    def __len__(self) -> int:
        return len(self._terms)

    def extract(self, text: str) -> list[str]:
        tokens = token_runs(text)
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


@dataclass(frozen=True)
class GeneratedQuery:
    """A topic's query tokens, with intentional repetition.

    ``core`` goes to every index; ``expansion`` (the task-term tokens) goes
    to the full-text index only when ``routed``, else to every index, after
    the core. ``fallback`` flags a udel query whose fields held no lexicon
    term, so that it is the plain query.
    """

    core: tuple[str, ...]
    expansion: tuple[str, ...] = ()
    routed: bool = True
    fallback: bool = False

    def tokens(self, variant: IndexVariant) -> list[str]:
        if self.routed and variant is not IndexVariant.FULL_TEXT:
            return list(self.core)
        return [*self.core, *self.expansion]


def _base_tokens(topic: Topic, tokenizer: Tokenizer, extractor: LexiconExtractor | None
                 ) -> tuple[list[str], list[str], bool]:
    """The query's and the question's tokens, and the fallback flag.

    Without an extractor, the query's tokens alone. With one (udel), each
    field's lexicon terms, extracted separately so that the two can be
    weighted differently; duplicates across the fields are kept. When neither
    field holds a term, the plain query is used and flagged.
    """
    if extractor is not None:
        query, question = (
            [token for term in extractor.extract(text) for token in tokenizer.tokenize(term)]
            for text in (topic.query, topic.question)
        )
        if query or question:
            return query, question, False
    tokens = tokenizer.tokenize(topic.query)
    if not tokens:
        raise TaskRankError(f"topic {topic.topic_id}: query has no indexable tokens")
    return tokens, [], extractor is not None


def _repeat(tokens, dup: int) -> list[str]:
    """Each token ``dup`` times in place, so BM25 counts it ``dup`` times."""
    return [token for token in tokens for _ in range(dup)]


def generate_plain(topic: Topic, tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Topic query terms only, identical across index variants."""
    query, _question, _fallback = _base_tokens(topic, tokenizer or Tokenizer(), None)
    return GeneratedQuery(core=tuple(query))


def generate_udel(topic: Topic, extractor: LexiconExtractor,
                  tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Query+question concatenation filtered down to lexicon terms.

    Falls back to the plain query (flagged) when extraction finds nothing.
    """
    query, question, fallback = _base_tokens(topic, tokenizer or Tokenizer(), extractor)
    return GeneratedQuery(core=(*query, *question), fallback=fallback)


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
    """``dup_task``, gated or scaled by the annotator's confidence when
    configured; a classifier's assignment carries none."""
    if config.confidence_mode is ConfidenceMode.IGNORE:
        return config.dup_task
    if assignment is None or assignment.confidence is None:
        raise ValueError(f"{config.confidence_mode.value} mode needs an annotator's confidence")
    if config.confidence_mode is ConfidenceMode.GATE:
        return config.dup_task if assignment.confidence >= config.gate_threshold else 0
    return config.dup_task * assignment.confidence


def generate_task_expanded(topic: Topic, task_terms: list[str], config: ExpansionConfig,
                           assignment: TaskAssignment | None = None,
                           extractor: LexiconExtractor | None = None,
                           tokenizer: Tokenizer | None = None) -> GeneratedQuery:
    """Base query with task terms appended under duplication weighting.

    The base is the udel query when an ``extractor`` is given and the plain
    query otherwise. The core repeats each query token ``dup_query`` times
    and then each question token ``dup_question`` times; the expansion
    repeats each task-term token ``dup_task`` times (gated or scaled by
    annotator confidence when configured). With routing on, the expansion
    reaches only the full-text variant's list.
    """
    if len(task_terms) > config.n_task_terms:
        raise ValueError(
            f"{len(task_terms)} task terms exceed configured n_task_terms="
            f"{config.n_task_terms}"
        )
    tokenizer = tokenizer or Tokenizer()
    query, question, fallback = _base_tokens(topic, tokenizer, extractor)
    dup_task = _effective_dup_task(config, assignment)
    task_tokens = ([token for term in task_terms for token in tokenizer.tokenize(term)]
                   if dup_task else [])
    return GeneratedQuery(
        core=(*_repeat(query, config.dup_query), *_repeat(question, config.dup_question)),
        expansion=tuple(_repeat(task_tokens, dup_task)),
        routed=config.route_task_terms_fulltext_only,
        fallback=fallback,
    )
