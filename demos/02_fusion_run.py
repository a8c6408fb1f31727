"""Fuse the three per-index rankings with reciprocal rank fusion.

RRF only looks at ranks: fused(d) = sum over lists of 1/(k + rank(d)).
A document that is merely decent in every index can beat one that tops a
single index. Rankings are arrays of document positions; each fused score
is the exact sum of its reciprocal ranks, correctly rounded.
"""

import random

from taskrank import (
    Bm25Params,
    Document,
    FusionConfig,
    IndexVariant,
    build_index,
    rrf_fuse,
    search,
)

rng = random.Random(7)
topics_of_interest = ["transmission", "vaccine", "surveillance"]
filler = ["study", "report", "analysis", "cohort", "model"]

docs = []
for i in range(12):
    theme = topics_of_interest[i % 3]
    docs.append(
        Document(
            doc_id=f"doc{i:02d}",
            title=f"{theme} {rng.choice(filler)}",
            abstract=" ".join(rng.choices([theme] + filler, k=8)),
            body=(" ".join(rng.choices([theme] + filler, k=12)),),
        )
    )
params = Bm25Params()

query = ["transmission", "model"]
rankings = []
for variant in IndexVariant:
    index = build_index(docs, variant)
    positions, _scores = search(index, params, query, top_k=10)
    rankings.append(positions)
    top = ", ".join(index.doc_ids[p] for p in positions[:3].tolist())
    print(f"{variant.value:<16} top 3: {top}")

# Every index numbers the documents in doc_id order, so the smaller position
# wins a tie between equal fused scores.
fused, scores = rrf_fuse(rankings, FusionConfig(rrf_k=60.0), top_k=10)
print("\nfused ranking (RRF, k=60):")
for rank, (position, score) in enumerate(zip(fused.tolist(), scores.tolist()), start=1):
    print(f"  {rank:2d}. {index.doc_ids[position]}  {score:.6f}")

# With a single input list, fusion is a monotone transform of rank and the
# order is unchanged; a document at rank 1 in one of three lists scores 1/61.
single, _ = rrf_fuse([rankings[0]], FusionConfig(), top_k=10)
assert single.tolist() == rankings[0].tolist()
