"""Select task terms by TF-IDF and build duplication-weighted queries.

Task terms come from the assigned task's description: candidates are
extracted with the lexicon extractor, scored by term frequency in the
description times ln(N/(1+df)) over the abstracts index, and the top n are
appended to the query. Query terms are weighted above task terms simply by
repeating them, and task terms are routed to the full-text index only.
"""

from taskrank import (
    Document,
    ExpansionConfig,
    IndexVariant,
    LexiconExtractor,
    Topic,
    build_index,
    generate_task_expanded,
    load_tasks,
    select_task_terms,
)
from taskrank.tasks import TaskAssignment

# A small abstracts corpus: df statistics for the TF-IDF selection.
abstracts = [
    "aerosol transmission in indoor settings",
    "vaccine candidate antibody response in trials",
    "incubation period and viral shedding estimates",
    "monoclonal antibodies as therapeutics",
    "surface stability under humidity and temperature",
    "contact tracing of transmission chains in hospitals",
    "antiviral efficacy in hospitalized patients",
    "immune response after vaccination",
]
abstracts_index = build_index(
    [Document(doc_id=f"a{i}", abstract=text) for i, text in enumerate(abstracts)],
    IndexVariant.TITLE_ABSTRACT,
)

framework = load_tasks()
extractor = LexiconExtractor.from_file()
for task_id in ("transmission", "vaccines", "diagnostics"):
    task = framework.get(task_id)
    terms = select_task_terms(task, abstracts_index, extractor, n=3)
    print(f"{task_id:<15} -> {terms}")

# Compose the expanded query for one topic under the default weighting
# (3 query : 3 question : 1 task, three task terms, routing on).
topic = Topic(
    topic_id=0,
    query="coronavirus transmission",
    question="how does the coronavirus spread indoors",
)
assignment = TaskAssignment(topic_id=0, task_id="transmission", confidence=3)
task_terms = select_task_terms(framework.get("transmission"), abstracts_index,
                               extractor, n=3)
generated = generate_task_expanded(topic, task_terms, ExpansionConfig(), assignment=assignment)
print("\nexpanded query per index variant:")
for variant in IndexVariant:
    print(f"  {variant.value:<16} {generated.tokens(variant)}")
# Only the full-text list carries the task tokens; the other two variants
# see the plain (duplicated) query, so fusion mixes task-aware and
# task-neutral evidence.
