"""Run the position-based search, fusion and re-ranking APIs on rankings of
doc_id strings, the form in which the tests' oracles state their results.

Rankings go in as ``[(doc_id, score), ...]`` and come out the same way.
Positions number the doc_ids in sorted order, as an index numbers its
documents, so the library's tie-break by position is one by doc_id.
"""

import numpy as np

from taskrank.fusion import rrf_fuse
from taskrank.indexing import search
from taskrank.rerank import rerank_by_journal, rerank_by_task_vector


def as_ids(doc_ids, ranking):
    docs, scores = ranking
    return [(doc_ids[d], s) for d, s in zip(docs.tolist(), scores.tolist())]


def as_positions(positions, ranking):
    docs = np.array([positions[d] for d, _ in ranking], dtype=np.int64)
    return docs, np.array([s for _, s in ranking], dtype=np.float64)


def search_ids(index, params, query_tokens, top_k):
    return as_ids(index.doc_ids, search(index, params, query_tokens, top_k))


def fuse_ids(rankings, config, top_k):
    doc_ids = sorted({doc_id for ranking in rankings for doc_id, _ in ranking})
    positions = {d: i for i, d in enumerate(doc_ids)}
    lists = [as_positions(positions, ranking)[0] for ranking in rankings]
    return as_ids(doc_ids, rrf_fuse(lists, config, top_k))


def rerank_journal_ids(ranking, table, journal_of, config, top_k):
    doc_ids = sorted(journal_of)
    fused = as_positions({d: i for i, d in enumerate(doc_ids)}, ranking)
    out = rerank_by_journal(fused, table.by_position(map(journal_of.__getitem__, doc_ids)),
                            config, top_k)
    return as_ids(doc_ids, out)


def rerank_vector_ids(ranking, provider, task, config, top_k):
    doc_ids = sorted(doc_id for doc_id, _ in ranking)
    fused = as_positions({d: i for i, d in enumerate(doc_ids)}, ranking)
    proximity = provider.proximities(task.task_id, doc_ids)
    out = rerank_by_task_vector(fused, proximity, config, top_k)
    return as_ids(doc_ids, out)
