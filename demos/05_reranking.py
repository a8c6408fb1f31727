"""Re-rank a fused ranking by journal priors and by task-vector proximity.

Journal priors come from past judgments: a journal whose judged papers were
all relevant scores +1, all irrelevant -1, an even split 0, and unknown
journals 0. The final score is a linear mix of the min-max normalized
retrieval score and the prior. Vector re-ranking replaces the prior with
cosine proximity between a document vector and the task description vector,
mapped to [0, 1]. Both look their auxiliary score up by document position,
in an array built once: ``JournalPriorTable.by_position`` for the priors and
``InMemoryVectorProvider.proximities`` for a task.
"""

import numpy as np

from taskrank import (
    Document,
    InMemoryVectorProvider,
    Qrels,
    RerankConfig,
    Task,
    build_journal_priors,
    rerank_by_journal,
    rerank_by_task_vector,
)

docs = [
    Document(doc_id="d1", title="risk factors in diabetes", journal="Diabetes Care"),
    Document(doc_id="d2", title="cardiovascular outcomes", journal="Heart Journal"),
    Document(doc_id="d3", title="unrelated metabolomics", journal="Omics Letters"),
    Document(doc_id="d4", title="hypertension cohort", journal="Heart Journal"),
]
# The priors read only each document's journal.
journal_of = {doc.doc_id: doc.journal for doc in docs}

# Past judgments: Diabetes Care and Heart Journal papers were mostly
# relevant to risk-factor topics, Omics Letters never was.
qrels = Qrels(grades={1: {"d1": 2, "d2": 1, "d3": 0}, 2: {"d4": 1, "d3": 0}})
priors = build_journal_priors(qrels, journal_of)
print("journal priors:")
for journal, score in sorted(priors.scores.items()):
    print(f"  {journal:<16} {score:+.2f}")

# A fused ranking: document positions and their scores. Positions number
# the documents in doc_id order, as an index does, so ties go by doc_id.
doc_ids = sorted(journal_of)
fused = (np.array([doc_ids.index(d) for d in ["d3", "d1", "d4", "d2"]]),
         np.array([0.95, 0.90, 0.60, 0.40]))


def show(ranking):
    for position, score in zip(*(a.tolist() for a in ranking)):
        print(f"  {score:.4f}  {doc_ids[position]}")


journals = [journal_of[doc_id] for doc_id in doc_ids]  # by position
reranked = rerank_by_journal(fused, priors.by_position(journals), RerankConfig(alpha=0.7), 10)
print("\njournal re-rank (alpha=0.7):")
show(reranked)
# d3 led on retrieval score alone but its journal history drags it down.

task = Task(task_id="risk-factors", title="Risk factors",
            description="risk factors for severe disease")
provider = InMemoryVectorProvider({
    "risk-factors": np.array([1.0, 0.0, 0.0]),
    "d1": np.array([0.9, 0.1, 0.0]),
    "d2": np.array([0.8, 0.0, 0.2]),
    "d3": np.array([0.0, 1.0, 0.0]),
    # d4 has no vector: neutral proximity 0.5
})
vector_reranked = rerank_by_task_vector(
    fused, provider.proximities(task.task_id, doc_ids), RerankConfig(alpha=0.5), 10
)
print("\ntask-vector re-rank (alpha=0.5):")
show(vector_reranked)
