"""End-to-end run construction: query generation, three-index search,
reciprocal rank fusion and optional re-ranking, per topic.

A Pipeline is built once per invocation. Its corpus set-up, ``load_corpus``,
is the CLI's too: every title+abstract and body paragraph is tokenized once,
only each document's journal outlives that, and the index variants are
assembled from those token ids. ``with_config`` makes a copy that runs
another config over the same set-up. Building and copying share one
resolver, which loads, classifies and scores each input once per pipeline,
so a sweep cell or another run variant pays only for what it adds. Each
task's terms are ranked once; a run takes the first ``n_task_terms``.
The copies share a memo of each search's ranked positions, keyed by index
variant and query tokens: routing sends task terms to the full-text index
only, so a topic's title-abstract and paragraph queries repeat in every cell
and a sweep searches each (index, query) once. A pipeline that never made a
copy keeps no memo, and its ``run`` calls ``search`` for every query.
Topics run one after another in a single thread. Per-topic work is pure and
rankings are emitted in topic-id order, so output is deterministic.

Within a topic, rankings stay (document position, score) arrays through
search, fusion and re-ranking; ``run_topic`` returns them as an
``evaluation.Ranking`` over the collection's doc-id table, which every topic
of a run shares. A config that sets an expansion or re-ranking setting its
variant never reads is rejected, and so is a gate or proportional confidence
mode without the manual map whose annotator confidences it reads.
"""

from __future__ import annotations

import copy
from collections.abc import Collection
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .corpus import load_collection
from .errors import TaskRankError
from .evaluation import Ranking, Run, parse_qrels
from .fusion import FusionConfig, rrf_fuse
from .indexing import Bm25Params, IndexVariant, InvertedIndex, TokenizedCollection, Tokenizer, search
from .querygen import (
    ConfidenceMode,
    ExpansionConfig,
    GeneratedQuery,
    LexiconExtractor,
    generate_plain,
    generate_udel,
    generate_task_expanded,
    select_task_terms,
)
from .rerank import (
    VECTOR_ALPHA,
    InMemoryVectorProvider,
    RerankConfig,
    build_journal_priors,
    build_per_task_priors,
    rerank_by_journal,
    rerank_by_task_vector,
)
from .tasks import (
    TaskAssignment,
    Topic,
    classify_topics,
    load_manual_map,
    load_tasks,
    load_topics,
)

class RunVariant(Enum):
    QUERY = "query"
    QUERY_UDEL = "query+udel"
    QUERY_TASK = "query+task"
    QUERY_UDEL_TASK = "query+udel+task"
    JOURNAL_PRIOR = "journal.prior"
    JOURNAL_TASK = "journal.task"
    VECTOR = "vector"


TASK_EXPANDED = {RunVariant.QUERY_TASK, RunVariant.QUERY_UDEL_TASK}
_NEEDS_ASSIGNMENT = TASK_EXPANDED | {RunVariant.JOURNAL_TASK, RunVariant.VECTOR}
_RERANKED = {RunVariant.JOURNAL_PRIOR, RunVariant.JOURNAL_TASK, RunVariant.VECTOR}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; an unset tasks or lexicon path reads the shipped
    file. Building it, ``replace`` included, raises TaskRankError for a bad setting."""

    corpus_path: str
    topics_path: str
    variant: RunVariant = RunVariant.QUERY
    tasks_path: str | None = None
    manual_map_path: str | None = None
    lexicon_path: str | None = None
    qrels_path: str | None = None
    vectors_path: str | None = None
    run_tag: str | None = None
    bm25: Bm25Params = field(default_factory=Bm25Params)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    rerank: RerankConfig | None = None
    top_k: int = 1000

    def __post_init__(self):
        if self.top_k < 1:
            raise TaskRankError("top_k must be >= 1")
        if self.run_tag and self.run_tag.split() != [self.run_tag]:
            raise TaskRankError(f"run_tag {self.run_tag!r} contains whitespace")
        try:
            (self.run_tag or "").encode()
        except UnicodeEncodeError:
            raise TaskRankError(f"run_tag {self.run_tag!r} cannot be encoded as UTF-8") from None
        missing = []
        if self.variant in (RunVariant.JOURNAL_PRIOR, RunVariant.JOURNAL_TASK):
            if not self.qrels_path:
                missing.append("qrels_path")
        if self.variant is RunVariant.JOURNAL_TASK and not self.manual_map_path:
            missing.append("manual_map_path")
        if self.variant is RunVariant.VECTOR and not self.vectors_path:
            missing.append("vectors_path")
        if missing:
            raise TaskRankError(
                f"variant {self.variant.value} requires: {', '.join(missing)}"
            )
        mode = self.expansion.confidence_mode
        if (self.variant in TASK_EXPANDED and mode is not ConfidenceMode.IGNORE
                and not self.manual_map_path):
            raise TaskRankError(f"confidence_mode {mode.value} reads the annotator "
                                f"confidences of a manual map: requires manual_map_path")
        unread = []
        if self.variant not in TASK_EXPANDED:
            default = ExpansionConfig()
            unread += [f.name for f in fields(ExpansionConfig)
                       if getattr(self.expansion, f.name) != getattr(default, f.name)]
        if self.variant not in _RERANKED and self.rerank is not None:
            unread += [f.name for f in fields(RerankConfig)]
        if unread:
            raise TaskRankError(
                f"variant {self.variant.value} does not read: {', '.join(unread)}"
            )


def load_corpus(path, variants: Collection[IndexVariant], tokenizer: Tokenizer | None = None
                ) -> tuple[dict[str, str], dict[IndexVariant, InvertedIndex]]:
    """``{doc_id: journal}`` and an index per variant (documents in doc_id
    order) of the corpus file at ``path``; with no variant, the journals and
    ``{}``, and nothing is tokenized. Bodies are tokenized only for a variant
    other than title+abstract (as in ``build_index``), and the documents are
    dropped before the builds."""
    documents = load_collection(path)
    journal_of = {doc.doc_id: doc.journal for doc in documents}
    if not variants:
        return journal_of, {}
    bodies = any(variant is not IndexVariant.TITLE_ABSTRACT for variant in variants)
    tokens = TokenizedCollection(documents, tokenizer, bodies)
    del documents  # the index builds need only the token ids
    return journal_of, {variant: InvertedIndex(tokens, variant) for variant in variants}


class Pipeline:
    """Loads inputs, builds the three indices and executes runs."""

    def __init__(self, config: PipelineConfig, tokenizer: Tokenizer | None = None):
        self.config = config
        self.tokenizer = tokenizer or Tokenizer()
        self._inputs: dict = {}  # shared with every copy; see _resolve
        # (variant, Bm25Params, top_k, *tokens) -> read-only ranked positions;
        # made by with_config and shared with its copies.
        self._searched: dict[tuple, np.ndarray] | None = None
        self._resolve()

    def with_config(self, **changes) -> "Pipeline":
        """A copy that runs ``replace(self.config, **changes)``, checked as
        building a config is, over this pipeline's set-up: its topics, indices,
        search memo and every input read so far. What the new config adds is
        read now, so a bad file fails here. The corpus and topics cannot change.
        A query that repeats across copies is searched once; its ranked
        positions are kept read-only for the life of the pipeline."""
        if changes.keys() & {"corpus_path", "topics_path"}:
            raise TaskRankError("a copy shares its pipeline's corpus and topics: "
                                "corpus_path and topics_path cannot change")
        other = copy.copy(self)
        other.config = replace(self.config, **changes)
        other._resolve()
        if self._searched is None:
            self._searched = other._searched = {}
        return other

    def _input(self, key, make):
        if key not in self._inputs:
            self._inputs[key] = make()
        return self._inputs[key]

    def _resolve(self) -> None:
        """Set up what the config reads. Each input is read or computed once for
        a pipeline and its copies, keyed by the settings it depends on."""
        config, variant, get = self.config, self.config.variant, self._input
        tasks, lexicon, manual_path = config.tasks_path, config.lexicon_path, config.manual_map_path
        self.topics = get("topics", lambda: load_topics(config.topics_path))
        framework = get(("framework", tasks), lambda: load_tasks(tasks))
        self.extractor = get(("extractor", lexicon), lambda: LexiconExtractor.from_file(lexicon))
        journal_of, self.indices = get("corpus", lambda: load_corpus(
            config.corpus_path, IndexVariant, self.tokenizer))
        self._doc_ids = doc_ids = self.indices[IndexVariant.FULL_TEXT].doc_ids
        self._assignments: dict[int, TaskAssignment] = {}
        if variant in _NEEDS_ASSIGNMENT and manual_path:
            self._assignments = get(("manual map", tasks, manual_path),
                                    lambda: load_manual_map(manual_path, framework))
            unmapped = [t.topic_id for t in self.topics if t.topic_id not in self._assignments]
            if unmapped:
                raise TaskRankError(f"topics missing from the manual map: {unmapped}")
        elif variant in _NEEDS_ASSIGNMENT:
            self._assignments = get(("classified", tasks, config.bm25), lambda: classify_topics(
                framework, self.topics, config.bm25, self.tokenizer))
        abstracts = self.indices[IndexVariant.TITLE_ABSTRACT]
        self._task_terms = {} if variant not in TASK_EXPANDED else get(  # every term, best first
            ("task terms", tasks, lexicon), lambda: {task.task_id: select_task_terms(
                task, abstracts, self.extractor, None) for task in framework})
        # Re-ranking's score by position, per topic: the one prior table's
        # (journal.prior), or the topic's task's priors or proximities.
        self._rerank_config = config.rerank or RerankConfig(
            alpha=VECTOR_ALPHA if variant is RunVariant.VECTOR else RerankConfig.alpha)
        self._rerank_scores: dict[int, np.ndarray] = {}
        qrels = lambda: get(("qrels", config.qrels_path), lambda: parse_qrels(config.qrels_path))
        by_task: dict[str, np.ndarray] = {}
        if variant is RunVariant.JOURNAL_PRIOR:
            prior = get(("journal prior", config.qrels_path), lambda: build_journal_priors(
                qrels(), journal_of).by_position(map(journal_of.__getitem__, doc_ids)))
            self._rerank_scores = {topic.topic_id: prior for topic in self.topics}
        elif variant is RunVariant.JOURNAL_TASK:
            by_task = get(("per-task priors", config.qrels_path, tasks, manual_path), lambda: {
                task_id: table.by_position(map(journal_of.__getitem__, doc_ids))
                for task_id, table in build_per_task_priors(
                    qrels(), journal_of, self._assignments).items()})
        elif variant is RunVariant.VECTOR:
            path = config.vectors_path
            vectors = get(("vectors", path), lambda: InMemoryVectorProvider.from_file(path))
            by_task = {t: get(("proximities", path, t), lambda: vectors.proximities(t, doc_ids))
                       for t in sorted({a.task_id for a in self._assignments.values()})}
        if by_task:
            self._rerank_scores = {t: by_task[a.task_id] for t, a in self._assignments.items()}

    def _generate(self, topic: Topic) -> GeneratedQuery:
        variant = self.config.variant
        if variant is RunVariant.QUERY_UDEL:
            return generate_udel(topic, self.extractor, self.tokenizer)
        if variant not in TASK_EXPANDED:
            return generate_plain(topic, self.tokenizer)
        assignment = self._assignments[topic.topic_id]
        expansion = self.config.expansion
        return generate_task_expanded(
            topic, self._task_terms[assignment.task_id][:expansion.n_task_terms], expansion,
            assignment=assignment,
            extractor=self.extractor if variant is RunVariant.QUERY_UDEL_TASK else None,
            tokenizer=self.tokenizer)

    def run_topic(self, topic: Topic) -> Ranking:
        """Generate, search all three indices, fuse and optionally re-rank."""
        generated = self._generate(topic)
        config = self.config
        memo = self._searched
        if memo is None:
            rankings = [search(self.indices[v], config.bm25, generated.tokens(v), config.top_k)[0]
                        for v in IndexVariant]
        else:
            rankings = []
            for v in IndexVariant:
                tokens = generated.tokens(v)
                key = (v, config.bm25, config.top_k, *tokens)
                positions = memo.get(key)
                if positions is None:
                    positions = search(self.indices[v], config.bm25, tokens, config.top_k)[0]
                    positions.flags.writeable = False
                    memo[key] = positions
                rankings.append(positions)
        ranked = rrf_fuse(rankings, config.fusion, config.top_k)
        if config.variant in _RERANKED:
            rerank = (rerank_by_task_vector if config.variant is RunVariant.VECTOR
                      else rerank_by_journal)
            scores = self._rerank_scores[topic.topic_id]
            ranked = rerank(ranked, scores, self._rerank_config, config.top_k)
        return Ranking(self._doc_ids, *ranked)

    def run(self) -> Run:
        """Run every topic in file order; emit rankings in topic-id order."""
        by_topic = {topic.topic_id: self.run_topic(topic) for topic in self.topics}
        return Run(
            run_tag=self.config.run_tag or self.config.variant.value,
            rankings={topic_id: by_topic[topic_id] for topic_id in sorted(by_topic)},
        )
