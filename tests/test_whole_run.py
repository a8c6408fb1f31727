"""Whole runs of the variants, against a reference run.

The reference is composed of the tests' component oracles only: each
topic's tokens from the documented rules (``oracle_tokens``), an exhaustive
search of every unit (``oracle_search``), fusion by ``math.fsum``
(``fsum_oracle``) and one f-string per row (``per_line_write_run``). The
re-ranked variants mix the min-max normalized fused score with a journal
prior, counted by brute force over hand-normalized journal names, or with a
task-vector proximity from per-document ``cosine_proximity``, in the order of
IEEE operations the formula states, ties by doc_id. The reference's bytes must
equal ``write_run(Pipeline(config).run())`` for ``query+udel``,
``query+task`` and ``query+udel+task`` (with a manual map and classified),
``journal.prior``, ``journal.task`` and ``vector``, on generated corpora
(their lines shuffled), topics over the mini fixture's tasks and lexicon,
qrels and vectors. Task terms and the classifier's choice are ranked by brute
force; only the lexicon terms of the two fixed task descriptions come from
``LexiconExtractor``. The task-expanded variants also run two more expansion
cells, as a sweep does: each a ``with_config`` copy of the one pipeline,
sharing its search memo, with a ``dup_query`` of its own, so each cell's
query core differs, and each cell's bytes must equal its own reference run.
"""

import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from taskrank.corpus import Document
from taskrank.errors import TaskRankError
from taskrank.evaluation import write_run
from taskrank.fusion import FusionConfig
from taskrank.indexing import Bm25Params, IndexVariant, Tokenizer, default_stopwords
from taskrank.pipeline import Pipeline, PipelineConfig, RunVariant
from taskrank.querygen import ConfidenceMode, ExpansionConfig, LexiconExtractor
from taskrank.rerank import RerankConfig, cosine_proximity
from taskrank.tasks import load_tasks

from test_evaluation import per_line_write_run
from test_fusion import fsum_oracle
from test_indexing import character_scanner_tokens, oracle_search, oracle_unit_tokens
from test_querygen import oracle_tokens

MINI = Path(__file__).parent / "fixtures" / "mini"
TASKS = load_tasks(MINI / "tasks.jsonl")
LEXICON_TERMS = (MINI / "lexicon.txt").read_text(encoding="utf-8").split("\n")
LEXICON = LexiconExtractor(LEXICON_TERMS)
STOPWORDS = default_stopwords()
# The lexicon's one-word terms. Every multi-word term holds a word that is
# not one of them, so topics drawn without those words match only one-word
# terms, and the udel rule is a membership filter, as ``oracle_tokens`` has it.
TERM_WORDS = [term for term in LEXICON_TERMS if term and " " not in term]
IN_MULTI_WORD_TERMS = {word for term in LEXICON_TERMS if " " in term for word in term.split()}
TASK_WORDS = sorted({word for task in TASKS for word in character_scanner_tokens(
    task.description, STOPWORDS)})
STOP = ["the", "of", "and", "a", "x"]
OTHER = ["alpha", "beta", "gamma", "people", "rooms"]
TOPIC_WORDS = sorted(set(TERM_WORDS + TASK_WORDS + OTHER) - IN_MULTI_WORD_TERMS) + STOP
OFF_TASK_WORDS = sorted(set(TOPIC_WORDS) - set(TASK_WORDS))  # the classifier's fallback
CORPUS_WORDS = sorted(set(TOPIC_WORDS) | IN_MULTI_WORD_TERMS)

# Each journal spelling with its normalized name, written out by hand.
JOURNALS = {"": "", "--": "", "The Lancet": "the lancet", "the  LANCET.": "the lancet",
            "BMJ": "bmj", "B.M.J.": "b m j"}
vector_values = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
corpus_words = st.lists(st.sampled_from(CORPUS_WORDS), max_size=6).map(" ".join)
topic_words = st.lists(st.sampled_from(TOPIC_WORDS), max_size=5).map(" ".join)
off_task_words = st.lists(st.sampled_from(OFF_TASK_WORDS), max_size=5).map(" ".join)


@st.composite
def corpora(draw):
    """1-8 documents, each doc_id ``d<n>`` (so doc_id order is not numeric),
    and the order in which the file lists them."""
    numbers = draw(st.lists(st.integers(0, 99), min_size=1, max_size=8, unique=True))
    documents = [Document(doc_id=f"d{n}", title=draw(corpus_words),
                          abstract=draw(corpus_words),
                          body=tuple(draw(st.lists(corpus_words.filter(str.strip), max_size=3))),
                          journal=draw(st.sampled_from(list(JOURNALS))))
                 for n in numbers]
    return documents, draw(st.permutations(range(len(documents))))


@st.composite
def topic_sets(draw):
    """1-4 topics, each query keeping at least one token."""
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True))
    query = st.one_of(topic_words, off_task_words).filter(
        lambda text: character_scanner_tokens(text, STOPWORDS))
    return [{"topic_id": topic_id, "query": draw(query), "question": draw(topic_words)}
            for topic_id in ids]


def reference_task_terms(task, documents, tokenizer):
    """Every lexicon term of the task's description, best first: tf times
    ln(N/(1+df)) over the title-abstract units, df counting the units that
    hold all of a term's tokens; ties by term."""
    units = [set(tokens) for tokens in oracle_unit_tokens(
        documents, IndexVariant.TITLE_ABSTRACT, tokenizer).values()]
    scored = [(tf * math.log(len(units) / (1 + sum(set(term.split()) <= unit for unit in units))),
               term) for term, tf in Counter(LEXICON.extract(task.description)).items()]
    return [term for _score, term in sorted(scored, key=lambda item: (-item[0], item[1]))]


def reference_task(query_tokens, params, tokenizer):
    """The classifier's rule: the task whose description, as a title-abstract
    unit, scores best for the query; the first task when none matches."""
    descriptions = [Document(doc_id=task.task_id, abstract=task.description) for task in TASKS]
    best = oracle_search(descriptions, IndexVariant.TITLE_ABSTRACT, tokenizer, params,
                         query_tokens, 1)
    return best[0][0] if best else TASKS.tasks[0].task_id


def reference_prior(qrels, journal_of, topics):
    """``{normalized journal: 2r/(r+i) - 1}`` over the judgments of ``topics``
    whose document has a journal: r graded 1 or more, i graded 0."""
    counts = {}
    for (topic_id, doc_id), grade in qrels.items():
        journal = JOURNALS[journal_of.get(doc_id, "")]
        if topic_id in topics and journal:
            relevant, irrelevant = counts.get(journal, (0, 0))
            counts[journal] = (relevant + (grade >= 1), irrelevant + (grade == 0))
    return {journal: 2 * r / (r + i) - 1 for journal, (r, i) in counts.items()}


def reference_rerank(fused, aux, alpha):
    """``alpha * minmax(score) + (1 - alpha) * aux(doc_id)``, operation by
    operation; equal scores normalize to 1. Best first, ties by doc_id."""
    if not fused:
        return []
    lo, hi = min(score for _, score in fused), max(score for _, score in fused)
    mixed = [(doc_id, alpha * (1.0 if hi == lo else (score - lo) / (hi - lo))
              + (1.0 - alpha) * aux(doc_id)) for doc_id, score in fused]
    return sorted(mixed, key=lambda item: (-item[1], item[0]))


def reference_run(variant, documents, topics, assignments, params, rrf_k, expansion, top_k,
                  aux=None, alpha=None):
    """``{topic_id: [(doc_id, score), ...]}`` composed from the oracles;
    ``aux(task_id, doc_id)`` is a re-ranked variant's auxiliary score."""
    tokenizer = Tokenizer()
    udel = variant in ("query+udel", "query+udel+task")
    expanded = variant in ("query+task", "query+udel+task")
    task_terms = {task.task_id: reference_task_terms(task, documents, tokenizer)
                  for task in TASKS}
    rankings = {}
    for topic in topics:
        query, question = (character_scanner_tokens(topic[field], STOPWORDS)
                           for field in ("query", "question"))
        task_id, confidence = None, None
        if expanded or variant in ("journal.task", "vector"):
            task_id, confidence = assignments.get(topic["topic_id"]) or (
                reference_task(query, params, tokenizer), None)
        if expanded:
            terms, config = task_terms[task_id][:expansion.n_task_terms], expansion
        else:  # the udel query, or else the plain query alone
            terms, config = [], ExpansionConfig(dup_query=1, dup_question=1)
        lists = []
        for index_variant in IndexVariant:
            tokens = oracle_tokens(query, question, terms, udel, config, confidence,
                                   index_variant, TERM_WORDS)
            ranked = oracle_search(documents, index_variant, tokenizer, params, tokens, top_k)
            lists.append([doc_id for doc_id, _score in ranked])
        fused = fsum_oracle(lists, rrf_k, top_k)
        if aux is not None:
            fused = reference_rerank(fused, lambda doc_id: aux(task_id, doc_id), alpha)
        rankings[topic["topic_id"]] = fused
    return rankings


CASES = ["query+udel", "query+task manual", "query+task classified", "query+udel+task",
         "journal.prior", "journal.task", "vector"]
RERANKED = ("journal.prior", "journal.task", "vector")


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=80, deadline=None)
@given(corpus=corpora(), topics=topic_sets(), data=st.data(),
       params=st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.75),
                               Bm25Params(k1=0.5, b=0.0)]),
       rrf_k=st.sampled_from([60.0, 1.0, 2.5]), top_k=st.integers(1, 12))
def test_whole_run_equals_the_reference_run(case, corpus, topics, data, params, rrf_k, top_k):
    documents, line_order = corpus
    variant = case.split()[0]
    if variant in ("query+udel+task", "vector"):
        manual = data.draw(st.booleans())
    else:
        manual = case.endswith("manual") or variant == "journal.task"
    assignments = {topic["topic_id"]: (data.draw(st.sampled_from([t.task_id for t in TASKS])),
                                       data.draw(st.integers(1, 3)))
                   for topic in topics} if manual else {}
    expansion, cells = ExpansionConfig(), []
    if variant in ("query+task", "query+udel+task"):
        # The config's cell and two sweep cells, each with its own dup_query.
        expansion, *cells = [ExpansionConfig(
            n_task_terms=data.draw(st.integers(0, 4)), dup_query=dup_query,
            dup_task=data.draw(st.integers(1, 2)),
            confidence_mode=data.draw(st.sampled_from(ConfidenceMode) if manual
                                      else st.just(ConfidenceMode.IGNORE)),
            gate_threshold=data.draw(st.integers(1, 3)),
            route_task_terms_fulltext_only=data.draw(st.booleans()))
            for dup_query in data.draw(st.permutations([1, 2, 3]))]
    # Judgments of the run's topics and one other, of its documents and one other.
    qrels = data.draw(st.dictionaries(
        st.tuples(st.sampled_from([topic["topic_id"] for topic in topics] + [61]),
                  st.sampled_from([doc.doc_id for doc in documents] + ["d100"])),
        st.integers(0, 2), max_size=12)) if variant.startswith("journal") else {}
    vectors = {}
    if variant == "vector":
        dim = data.draw(st.integers(1, 3))
        vector = st.lists(vector_values, min_size=dim, max_size=dim)
        vectors = {task.task_id: data.draw(vector) for task in TASKS}
        vectors.update(data.draw(st.dictionaries(
            st.sampled_from([doc.doc_id for doc in documents]), vector)))
    alpha = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0])) if variant in RERANKED else None
    aux = None
    journal_of = {doc.doc_id: doc.journal for doc in documents}
    if variant == "journal.prior":
        prior = reference_prior(qrels, journal_of, {topic_id for topic_id, _ in qrels})
        aux = lambda _task_id, doc_id: prior.get(JOURNALS[journal_of[doc_id]], 0.0)
    elif variant == "journal.task":
        # A task whose topics count no judgment has an empty table: every prior 0.
        topics_of = {task.task_id: {topic_id for topic_id, (task_id, _) in assignments.items()
                                    if task_id == task.task_id} for task in TASKS}
        priors = {task_id: reference_prior(qrels, journal_of, mapped)
                  for task_id, mapped in topics_of.items()}
        aux = lambda task_id, doc_id: priors[task_id].get(JOURNALS[journal_of[doc_id]], 0.0)
    elif variant == "vector":
        aux = lambda task_id, doc_id: (cosine_proximity(
            np.array(vectors[doc_id]), np.array(vectors[task_id])) if doc_id in vectors else 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_text("".join(json.dumps({
            "doc_id": documents[i].doc_id, "title": documents[i].title,
            "abstract": documents[i].abstract, "body": list(documents[i].body),
            "journal": documents[i].journal}) + "\n" for i in line_order), encoding="utf-8")
        (tmp / "topics.jsonl").write_text(
            "".join(json.dumps(topic) + "\n" for topic in topics), encoding="utf-8")
        (tmp / "map.txt").write_text("".join(
            f"{topic_id} {task_id} {confidence}\n"
            for topic_id, (task_id, confidence) in assignments.items()), encoding="utf-8")
        (tmp / "qrels.txt").write_text("".join(
            f"{topic_id} 0 {doc_id} {grade}\n" for (topic_id, doc_id), grade in qrels.items()),
            encoding="utf-8")
        (tmp / "vectors.txt").write_text("".join(
            f"{key} {' '.join(map(repr, values))}\n" for key, values in vectors.items()),
            encoding="utf-8")
        config = PipelineConfig(
            corpus_path=str(tmp / "corpus.jsonl"), topics_path=str(tmp / "topics.jsonl"),
            variant=RunVariant(variant), tasks_path=str(MINI / "tasks.jsonl"),
            lexicon_path=str(MINI / "lexicon.txt"),
            manual_map_path=str(tmp / "map.txt") if manual else None,
            qrels_path=str(tmp / "qrels.txt") if variant.startswith("journal") else None,
            vectors_path=str(tmp / "vectors.txt") if vectors else None,
            bm25=params, fusion=FusionConfig(rrf_k=rrf_k), expansion=expansion,
            rerank=None if alpha is None else RerankConfig(alpha=alpha), top_k=top_k)
        if variant == "journal.prior" and not prior:
            with pytest.raises(TaskRankError, match="^no usable judgments in the requested scope$"):
                Pipeline(config)
            return
        # Without a setting, alpha is 0.5 for the vector variant and 0.7 otherwise.
        if alpha is None:
            alpha = 0.5 if variant == "vector" else 0.7
        # The sweep cells run as copies of the one pipeline, sharing its search memo.
        pipeline = Pipeline(config)
        copies = [pipeline.with_config(expansion=cell) for cell in cells]
        for cell, each in zip([expansion, *cells], [pipeline, *copies]):
            write_run(each.run(), tmp / "got.run")
            per_line_write_run(config.variant.value, reference_run(
                variant, documents, topics, assignments, params, rrf_k, cell, top_k, aux,
                alpha), tmp / "want.run")
            assert (tmp / "got.run").read_bytes() == (tmp / "want.run").read_bytes()
