"""Whole runs of the variants without golden files, against a reference run.

The reference is composed of the tests' component oracles only: each
topic's tokens from the documented rules (``oracle_tokens``), an exhaustive
search of every unit (``oracle_search``), fusion by ``math.fsum``
(``fsum_oracle``) and one f-string per row (``per_line_write_run``). Its bytes
must equal ``write_run(Pipeline(config).run())`` for ``query+udel``, and for
``query+task`` with a manual map and classified, on generated corpora (their
lines shuffled) and topics over the mini fixture's tasks and lexicon. Task
terms and the classifier's choice are ranked by brute force; only the lexicon
terms of the two fixed task descriptions come from ``LexiconExtractor``.
"""

import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.corpus import Document
from taskrank.evaluation import write_run
from taskrank.fusion import FusionConfig
from taskrank.indexing import Bm25Params, IndexVariant, Tokenizer, default_stopwords
from taskrank.pipeline import Pipeline, PipelineConfig, RunVariant
from taskrank.querygen import ConfidenceMode, ExpansionConfig, LexiconExtractor
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
                          body=tuple(draw(st.lists(corpus_words.filter(str.strip), max_size=3))))
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


def reference_run(case, documents, topics, assignments, params, rrf_k, expansion, top_k):
    """``{topic_id: [(doc_id, score), ...]}`` composed from the oracles."""
    tokenizer = Tokenizer()
    task_terms = {task.task_id: reference_task_terms(task, documents, tokenizer)
                  for task in TASKS}
    rankings = {}
    for topic in topics:
        query, question = (character_scanner_tokens(topic[field], STOPWORDS)
                           for field in ("query", "question"))
        if case == "query+udel":
            terms, config, confidence = [], ExpansionConfig(dup_query=1, dup_question=1), None
        else:
            task_id, confidence = assignments.get(topic["topic_id"]) or (
                reference_task(query, params, tokenizer), None)
            terms, config = task_terms[task_id][:expansion.n_task_terms], expansion
        lists = []
        for variant in IndexVariant:
            tokens = oracle_tokens(query, question, terms, case == "query+udel", config,
                                   confidence, variant, TERM_WORDS)
            ranked = oracle_search(documents, variant, tokenizer, params, tokens, top_k)
            lists.append([doc_id for doc_id, _score in ranked])
        rankings[topic["topic_id"]] = fsum_oracle(lists, rrf_k, top_k)
    return rankings


@pytest.mark.parametrize("case", ["query+udel", "query+task manual", "query+task classified"])
@settings(max_examples=80, deadline=None)
@given(corpus=corpora(), topics=topic_sets(), data=st.data(),
       params=st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.75),
                               Bm25Params(k1=0.5, b=0.0)]),
       rrf_k=st.sampled_from([60.0, 1.0, 2.5]), top_k=st.integers(1, 12))
def test_whole_run_equals_the_reference_run(case, corpus, topics, data, params, rrf_k, top_k):
    documents, line_order = corpus
    manual = case == "query+task manual"
    assignments = {topic["topic_id"]: (data.draw(st.sampled_from([t.task_id for t in TASKS])),
                                       data.draw(st.integers(1, 3)))
                   for topic in topics} if manual else {}
    expansion = ExpansionConfig()
    if case != "query+udel":
        expansion = ExpansionConfig(
            n_task_terms=data.draw(st.integers(0, 4)), dup_query=data.draw(st.integers(1, 3)),
            dup_task=data.draw(st.integers(1, 2)),
            confidence_mode=data.draw(st.sampled_from(ConfidenceMode) if manual
                                      else st.just(ConfidenceMode.IGNORE)),
            gate_threshold=data.draw(st.integers(1, 3)),
            route_task_terms_fulltext_only=data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_text("".join(json.dumps({
            "doc_id": documents[i].doc_id, "title": documents[i].title,
            "abstract": documents[i].abstract, "body": list(documents[i].body)}) + "\n"
            for i in line_order), encoding="utf-8")
        (tmp / "topics.jsonl").write_text(
            "".join(json.dumps(topic) + "\n" for topic in topics), encoding="utf-8")
        (tmp / "map.txt").write_text("".join(
            f"{topic_id} {task_id} {confidence}\n"
            for topic_id, (task_id, confidence) in assignments.items()), encoding="utf-8")
        config = PipelineConfig(
            corpus_path=str(tmp / "corpus.jsonl"), topics_path=str(tmp / "topics.jsonl"),
            variant=RunVariant(case.split()[0]), tasks_path=str(MINI / "tasks.jsonl"),
            lexicon_path=str(MINI / "lexicon.txt"),
            manual_map_path=str(tmp / "map.txt") if manual else None,
            bm25=params, fusion=FusionConfig(rrf_k=rrf_k), expansion=expansion, top_k=top_k)
        write_run(Pipeline(config).run(), tmp / "got.run")
        per_line_write_run(config.variant.value, reference_run(
            case, documents, topics, assignments, params, rrf_k, expansion, top_k),
            tmp / "want.run")
        assert (tmp / "got.run").read_bytes() == (tmp / "want.run").read_bytes()
