"""taskrank: task-aware BM25 search ranking and offline evaluation harness.

The library covers the whole experiment loop: corpus ingestion, inverted
indexing in three field variants, BM25 search, reciprocal rank fusion,
query-to-task classification, task-term query expansion with duplication
weighting, journal-prior and task-vector re-ranking, and TREC-style
evaluation with residual filtering and parameter sweeps.
"""

from .corpus import Document, load_collection, segment_paragraphs
from .errors import TaskRankError
from .evaluation import (
    MetricReport,
    Qrels,
    Ranking,
    Run,
    evaluate_run,
    parse_qrels,
    parse_run,
    residual_filter,
    sweep,
    write_run,
)
from .fusion import FusionConfig, rrf_fuse
from .indexing import (
    Bm25Params,
    IndexVariant,
    InvertedIndex,
    TokenizedCollection,
    Tokenizer,
    build_index,
    search,
)
from .pipeline import Pipeline, PipelineConfig, RunVariant
from .querygen import (
    ConfidenceMode,
    ExpansionConfig,
    GeneratedQuery,
    LexiconExtractor,
    generate_plain,
    generate_task_expanded,
    generate_udel,
    select_task_terms,
)
from .rerank import (
    InMemoryVectorProvider,
    JournalPriorTable,
    RerankConfig,
    build_journal_priors,
    build_per_task_priors,
    cosine_proximity,
    normalize_journal,
    rerank_by_journal,
    rerank_by_task_vector,
)
from .tasks import (
    Task,
    TaskAssignment,
    TaskClassifier,
    TaskFramework,
    TaskPrediction,
    Topic,
    agreement,
    classify_topics,
    load_manual_map,
    load_tasks,
    load_topics,
)

__version__ = "0.1.0"
