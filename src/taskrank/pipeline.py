"""End-to-end run construction: query generation, three-index search,
reciprocal rank fusion and optional re-ranking, per topic.

A Pipeline is built once per invocation: every title+abstract and every
body paragraph is tokenized once, and the three index variants are assembled
from those token ids. Set-up does not read the expansion settings (each
task's terms are ranked once; a run takes the first ``n_task_terms``), so a
sweep builds one pipeline and runs each grid cell through ``with_expansion``.
Topics run one after another in a single thread. Per-topic work is pure and
rankings are emitted in topic-id order, so output is deterministic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from enum import Enum

from .corpus import load_collection
from .errors import TaskRankError
from .evaluation import Run, parse_qrels
from .fusion import FusionConfig, rrf_fuse
from .indexing import Bm25Params, IndexVariant, InvertedIndex, TokenizedCollection, Tokenizer, search
from .querygen import (
    ExpansionConfig,
    GeneratedQuery,
    LexiconExtractor,
    QueryBase,
    default_lexicon,
    generate_plain,
    generate_udel,
    generate_task_expanded,
    select_task_terms,
)
from .rerank import (
    InMemoryVectorProvider,
    RerankConfig,
    build_journal_priors,
    build_per_task_priors,
    rerank_by_journal,
    rerank_by_task_vector,
)
from .tasks import (
    TaskAssignment,
    TaskFramework,
    Topic,
    classify_topics,
    default_framework,
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


_TASK_EXPANDED = {RunVariant.QUERY_TASK, RunVariant.QUERY_UDEL_TASK}
_NEEDS_ASSIGNMENT = _TASK_EXPANDED | {RunVariant.JOURNAL_TASK, RunVariant.VECTOR}


@dataclass
class PipelineConfig:
    """Everything a run needs; paths default to the shipped data files."""

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

    def resolved_tag(self) -> str:
        return self.run_tag or self.variant.value

    def validate(self) -> None:
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

    def default_rerank(self) -> RerankConfig:
        if self.rerank is not None:
            return self.rerank
        alpha = 0.5 if self.variant is RunVariant.VECTOR else 0.7
        return RerankConfig(alpha=alpha)


class Pipeline:
    """Loads inputs, builds the three indices and executes runs."""

    def __init__(self, config: PipelineConfig, tokenizer: Tokenizer | None = None):
        config.validate()
        self.config = config
        self.tokenizer = tokenizer or Tokenizer()
        self.collection = load_collection(config.corpus_path)
        self.topics = load_topics(config.topics_path)
        self.framework = (
            load_tasks(config.tasks_path) if config.tasks_path else default_framework()
        )
        self.extractor = (
            LexiconExtractor.from_file(config.lexicon_path)
            if config.lexicon_path
            else default_lexicon()
        )
        tokens = TokenizedCollection(self.collection, self.tokenizer)
        self.indices = {variant: InvertedIndex(tokens, variant) for variant in IndexVariant}
        manual = None
        if config.variant in _NEEDS_ASSIGNMENT and config.manual_map_path:
            manual = load_manual_map(config.manual_map_path, self.framework)
        self._assignments = self._resolve_assignments(manual)
        self._task_terms = self._select_all_task_terms()
        self._priors = None
        self._per_task_priors = None
        self._vectors = None
        if config.variant in (RunVariant.JOURNAL_PRIOR, RunVariant.JOURNAL_TASK):
            qrels = parse_qrels(config.qrels_path)
            if config.variant is RunVariant.JOURNAL_PRIOR:
                self._priors = build_journal_priors(qrels, self.collection)
            else:
                self._per_task_priors = build_per_task_priors(
                    qrels, self.collection, manual
                )
        if config.variant is RunVariant.VECTOR:
            self._vectors = InMemoryVectorProvider.from_file(config.vectors_path)

    def with_expansion(self, expansion: ExpansionConfig) -> "Pipeline":
        """A copy that shares this pipeline's collection, indices, task
        assignments and priors and runs under other expansion settings."""
        other = copy.copy(self)
        other.config = replace(self.config, expansion=expansion)
        return other

    def _resolve_assignments(
        self, manual: list[TaskAssignment] | None
    ) -> dict[int, TaskAssignment]:
        if self.config.variant not in _NEEDS_ASSIGNMENT:
            return {}
        if manual is not None:
            by_topic = {a.topic_id: a for a in manual}
            unmapped = [t.topic_id for t in self.topics if t.topic_id not in by_topic]
            if unmapped:
                raise TaskRankError(
                    f"topics missing from the manual map: {unmapped}"
                )
            return by_topic
        automatic = classify_topics(self.framework, self.topics, self.config.bm25)
        return {a.topic_id: a for a in automatic}

    def _select_all_task_terms(self) -> dict[str, list[str]]:
        """Every candidate term of each task, best first."""
        if self.config.variant not in _TASK_EXPANDED:
            return {}
        abstracts_index = self.indices[IndexVariant.TITLE_ABSTRACT]
        return {
            task.task_id: select_task_terms(task, abstracts_index, self.extractor, None)
            for task in self.framework
        }

    def _generate(self, topic: Topic) -> GeneratedQuery:
        variant = self.config.variant
        if variant is RunVariant.QUERY_UDEL:
            return generate_udel(topic, self.extractor, self.tokenizer)
        if variant in _TASK_EXPANDED:
            assignment = self._assignments[topic.topic_id]
            base = (
                QueryBase.UDEL
                if variant is RunVariant.QUERY_UDEL_TASK
                else QueryBase.PLAIN
            )
            return generate_task_expanded(
                topic,
                base,
                self._task_terms[assignment.task_id][:self.config.expansion.n_task_terms],
                self.config.expansion,
                assignment=assignment,
                extractor=self.extractor,
                tokenizer=self.tokenizer,
            )
        return generate_plain(topic, self.tokenizer)

    def run_topic(self, topic: Topic) -> list[tuple[str, float]]:
        """Generate, search all three indices, fuse and optionally re-rank."""
        generated = self._generate(topic)
        rankings = [
            search(
                self.indices[variant],
                self.config.bm25,
                generated.tokens(variant),
                self.config.top_k,
            )
            for variant in IndexVariant
        ]
        fused = rrf_fuse(rankings, self.config.fusion, self.config.top_k)
        variant = self.config.variant
        if variant is RunVariant.JOURNAL_PRIOR:
            return rerank_by_journal(
                fused, self._priors, self.collection,
                self.config.default_rerank(), self.config.top_k,
            )
        if variant is RunVariant.JOURNAL_TASK:
            assignment = self._assignments[topic.topic_id]
            table = self._per_task_priors[assignment.task_id]
            return rerank_by_journal(
                fused, table, self.collection,
                self.config.default_rerank(), self.config.top_k,
            )
        if variant is RunVariant.VECTOR:
            assignment = self._assignments[topic.topic_id]
            task = self.framework.get(assignment.task_id)
            return rerank_by_task_vector(
                fused, self._vectors, task,
                self.config.default_rerank(), self.config.top_k,
            )
        return fused

    def run(self) -> Run:
        """Run every topic in file order; emit rankings in topic-id order."""
        by_topic = {topic.topic_id: self.run_topic(topic) for topic in self.topics}
        return Run(
            run_tag=self.config.resolved_tag(),
            rankings={topic_id: by_topic[topic_id] for topic_id in sorted(by_topic)},
        )
