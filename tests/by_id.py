"""Run the position-based search, fusion and re-ranking APIs on rankings of
doc_id strings, the form in which the tests' oracles state their results.

Rankings go in as ``[(doc_id, score), ...]`` and come out the same way.
"""

import numpy as np

from taskrank.fusion import rrf_fuse
from taskrank.indexing import search
from taskrank.rerank import rerank_by_journal, rerank_by_task_vector


def doc_rank_of(doc_ids):
    """Each position's rank in doc_id order, the library's tie-break."""
    order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    rank = np.empty(len(doc_ids), dtype=np.int32)
    rank[order] = np.arange(len(doc_ids), dtype=np.int32)
    return rank


def as_ids(doc_ids, ranking):
    docs, scores = ranking
    return [(doc_ids[d], s) for d, s in zip(docs.tolist(), scores.tolist())]


def as_positions(positions, ranking):
    docs = np.array([positions[d] for d, _ in ranking], dtype=np.int64)
    return docs, np.array([s for _, s in ranking], dtype=np.float64)


def search_ids(index, params, query_tokens, top_k):
    return as_ids(index.doc_ids, search(index, params, query_tokens, top_k))


def fuse_ids(rankings, config, top_k):
    """``rrf_fuse`` over doc ids numbered in order of first appearance, so
    positions and doc_id order differ."""
    positions = {}
    for ranking in rankings:
        for doc_id, _ in ranking:
            positions.setdefault(doc_id, len(positions))
    doc_ids = list(positions)
    lists = [as_positions(positions, ranking)[0] for ranking in rankings]
    return as_ids(doc_ids, rrf_fuse(lists, doc_rank_of(doc_ids), config, top_k))


def rerank_journal_ids(ranking, table, journal_of, config, top_k):
    doc_ids = list(journal_of)
    fused = as_positions({d: i for i, d in enumerate(doc_ids)}, ranking)
    out = rerank_by_journal(fused, table.by_position(journal_of.values()),
                            doc_rank_of(doc_ids), config, top_k)
    return as_ids(doc_ids, out)


def rerank_vector_ids(ranking, provider, task, config, top_k):
    doc_ids = [doc_id for doc_id, _ in ranking]
    fused = as_positions({d: i for i, d in enumerate(doc_ids)}, ranking)
    proximity = provider.proximities(task.task_id, doc_ids)
    out = rerank_by_task_vector(fused, proximity, doc_rank_of(doc_ids), config, top_k)
    return as_ids(doc_ids, out)
