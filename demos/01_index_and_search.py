"""Build the three index variants over a tiny corpus and search them.

Shows how the same BM25 query behaves on the full-text, title+abstract and
title+abstract+paragraph indices, and how paragraph units aggregate back to
documents. The corpus is tokenized once; all three indices are assembled
from the same token ids.
"""

from taskrank import (
    Bm25Params,
    Document,
    IndexVariant,
    InvertedIndex,
    TokenizedCollection,
    Tokenizer,
    search,
)

docs = [
    Document(
        doc_id="aerosol-study",
        title="Aerosol transmission of the coronavirus",
        abstract="Evidence for airborne spread in indoor settings.",
        body=(
            "Aerosol particles remain suspended in poorly ventilated rooms.",
            "Masks and ventilation both reduce transmission substantially.",
        ),
    ),
    Document(
        doc_id="vaccine-trial",
        title="A coronavirus vaccine candidate",
        abstract="The candidate elicited a strong antibody response.",
        body=("Neutralizing antibody titers rose after the second dose.",),
    ),
    Document(
        doc_id="incubation-report",
        title="Incubation period estimates",
        abstract="Median incubation of five days from early case reports.",
    ),
]

tokenizer = Tokenizer()
params = Bm25Params()  # k1=0.9, b=0.4

query = tokenizer.tokenize("coronavirus transmission masks")
print(f"query tokens: {query}\n")

tokens = TokenizedCollection(docs, tokenizer)
for variant in IndexVariant:
    index = InvertedIndex(tokens, variant)
    print(f"{variant.value}: {index.unit_count} units over {index.doc_count} docs, "
          f"avg unit length {index.avg_unit_length:.1f}, {index.vocab_size} terms, "
          f"{index.nbytes} array bytes")
    # search returns document positions and their scores, best first.
    positions, scores = search(index, params, query, top_k=5)
    for position, score in zip(positions.tolist(), scores.tolist()):
        print(f"  {score:8.4f}  {index.doc_ids[position]}")
    print()

# The paragraph variant scores each title+abstract+paragraph unit separately
# and keeps a document's best unit, so a single on-topic paragraph is enough
# to rank the whole document highly.
