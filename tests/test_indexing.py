import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.corpus import Collection, Document
from taskrank.errors import EmptyCollection
from taskrank.indexing import (
    Bm25Params,
    IndexVariant,
    Tokenizer,
    build_index,
    search,
)
from taskrank.querygen import LexiconExtractor, select_task_terms
from taskrank.tasks import Task

PARAMS = Bm25Params()


def make_collection(texts_by_id, paragraphs_by_id=None):
    paragraphs_by_id = paragraphs_by_id or {}
    docs = [
        Document(doc_id=doc_id, title=text, body=tuple(paragraphs_by_id.get(doc_id, ())))
        for doc_id, text in texts_by_id.items()
    ]
    return Collection.from_documents(docs)


def character_scanner_tokens(text, stopwords):
    """Oracle tokenizer: per-character scan accumulating alphanumeric runs."""
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isascii() and (ch.isdigit() or "a" <= ch <= "z"):
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return [t for t in tokens if len(t) >= 2 and t not in stopwords]


def test_tokenize_case_and_split():
    assert Tokenizer().tokenize("COVID-19 spreads") == ["covid", "19", "spreads"]


def test_tokenize_drops_stopwords_and_short_tokens():
    tok = Tokenizer()
    assert tok.tokenize("the of and") == []
    assert tok.tokenize("a I x viral") == ["viral"]


def test_tokenize_matches_character_scanner_oracle():
    rng = random.Random(42)
    vocab = ["Viral", "spread-rate", "the", "B2", "x", "IN", "he", "CoV-2", "a1b", "word"]
    text = " ".join(rng.choice(vocab) for _ in range(200))
    tok = Tokenizer()
    assert sorted(tok.tokenize(text)) == sorted(
        character_scanner_tokens(text, tok.stopwords)
    )


def test_paragraph_variant_units():
    coll = make_collection({"d1": "head"}, {"d1": ("para one", "para two")})
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT_PARAGRAPH)
    assert index.unit_count == 2
    assert index.parent.tolist() == [0, 0]
    assert index.first_unit.tolist() == [0]
    assert index.doc_ids == ("d1",)


def test_fulltext_variant_single_unit():
    coll = make_collection({"d1": "head"}, {"d1": ("para one", "para two")})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    assert index.unit_count == 1
    # body tokens land in the single unit
    assert index.doc_freq("para") == 1


def test_bodyless_doc_yields_one_paragraph_unit():
    coll = make_collection({"d1": "only head"})
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT_PARAGRAPH)
    assert index.unit_count == 1


def test_title_abstract_excludes_body():
    coll = make_collection({"d1": "head"}, {"d1": ("bodyword only",)})
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT)
    assert index.doc_freq("bodyword") == 0
    assert index.doc_freq("head") == 1


def test_empty_collection_rejected(tmp_path):
    with pytest.raises(EmptyCollection):
        build_index(Collection.from_documents([]), IndexVariant.FULL_TEXT)


def synthetic_corpus(n_docs, seed, with_paragraphs=True):
    rng = random.Random(seed)
    vocab = [f"term{i:02d}" for i in range(40)]
    docs = []
    for i in range(n_docs):
        title = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        abstract = " ".join(rng.choices(vocab, k=rng.randint(0, 15)))
        paragraphs = ()
        if with_paragraphs and rng.random() < 0.8:
            paragraphs = tuple(
                " ".join(rng.choices(vocab, k=rng.randint(3, 12)))
                for _ in range(rng.randint(1, 3))
            )
        docs.append(
            Document(doc_id=f"doc{i:03d}", title=title, abstract=abstract, body=paragraphs)
        )
    return Collection.from_documents(docs)


def oracle_unit_tokens(collection, variant, tokenizer):
    """Recompose each unit's token list straight from the documents."""
    units = {}
    for doc in collection:
        head = f"{doc.title} {doc.abstract}"
        if variant is IndexVariant.FULL_TEXT:
            texts = [" ".join([head, *doc.body])]
        elif variant is IndexVariant.TITLE_ABSTRACT:
            texts = [head]
        elif doc.body:
            texts = [f"{head} {p}" for p in doc.body]
        else:
            texts = [head]
        for k, text in enumerate(texts):
            units[(doc.doc_id, k)] = tokenizer.tokenize(text)
    return units


def assert_units_match_oracle(index, units, collection):
    """The index's unit arrays against an oracle's units, in collection order:
    ``parent`` maps each unit to its document, ``first_unit`` gives each
    document's first unit and ``unit_lengths`` counts each unit's tokens."""
    position = {doc.doc_id: d for d, doc in enumerate(collection)}
    parents = [position[doc_id] for doc_id, _k in units]
    assert index.doc_ids == tuple(position)
    assert index.unit_count == len(units)
    assert index.parent.tolist() == parents
    assert index.first_unit.tolist() == [parents.index(d) for d in range(len(position))]
    assert index.unit_lengths.tolist() == [len(tokens) for tokens in units.values()]


@pytest.mark.parametrize("variant", list(IndexVariant))
def test_doc_freq_matches_brute_force_containment(variant):
    coll = synthetic_corpus(100, seed=3)
    tok = Tokenizer()
    index = build_index(coll, variant, tok)
    units = oracle_unit_tokens(coll, variant, tok)
    all_terms = {t for tokens in units.values() for t in tokens}
    for term in all_terms:
        expected = sum(1 for tokens in units.values() if term in tokens)
        assert index.doc_freq(term) == expected
    assert index.doc_freq("neverseen") == 0


@pytest.mark.parametrize("variant", list(IndexVariant))
def test_index_statistics_invariants(variant):
    coll = synthetic_corpus(50, seed=9)
    tok = Tokenizer()
    index = build_index(coll, variant, tok)
    assert_units_match_oracle(index, oracle_unit_tokens(coll, variant, tok), coll)
    postings = 0
    for term in index.vocab:
        units, tfs = index.term_postings(term)
        assert index.doc_freq(term) == len(units) == len(tfs)
        assert all(0 <= u < index.unit_count for u in units.tolist())
        assert np.all(np.diff(units) > 0) and np.all(tfs >= 1)
        postings += len(units)
    assert postings == len(index.post_units)
    mean = sum(index.unit_lengths.tolist()) / index.unit_count
    assert abs(index.avg_unit_length - mean) < 1e-9
    assert len(index.unit_lengths) == len(index.parent) == index.unit_count
    assert set(index.parent.tolist()) == set(range(len(coll)))


# A full-text unit is one document, so search returns every matching unit's
# BM25 score under its doc_id.
def test_bm25_zero_match_scores_zero():
    coll = make_collection({"d1": "alpha beta", "d2": "gamma"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    assert search(index, PARAMS, ["missing"], 10) == []
    assert search(index, PARAMS, ["missing", "absent"], 10) == []
    gamma = search(index, PARAMS, ["gamma"], 10)
    assert [doc for doc, _ in gamma] == ["d2"]
    assert search(index, PARAMS, ["gamma", "missing"], 10) == gamma


def test_bm25_closed_form_single_doc():
    # One doc, one term: tf=1, len=avglen, N=df=1.
    # idf = ln(1 + 0.5/1.5); tf part reduces to 1.
    coll = make_collection({"d1": "zedword"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    expected = math.log(4.0 / 3.0)
    [(doc_id, score)] = search(index, PARAMS, ["zedword"], 10)
    assert doc_id == "d1"
    assert score == pytest.approx(expected, abs=1e-12)


def test_duplicated_query_token_doubles_score():
    coll = synthetic_corpus(30, seed=11)
    index = build_index(coll, IndexVariant.FULL_TEXT)
    single = search(index, PARAMS, ["term05"], index.doc_count)
    double = search(index, PARAMS, ["term05", "term05"], index.doc_count)
    assert len(single) >= 10
    assert [doc for doc, _ in double] == [doc for doc, _ in single]
    for (_, one), (_, two) in zip(single, double):
        assert two == pytest.approx(2.0 * one, abs=1e-12)


def test_bm25_monotone_in_tf():
    # Equal unit lengths; only tf differs.
    coll = make_collection({"d1": "rare pad1 pad2", "d2": "rare rare pad1"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    scores = dict(search(index, PARAMS, ["rare"], 10))
    assert scores["d2"] > scores["d1"] > 0.0


def test_search_empty_query():
    coll = make_collection({"d1": "alpha"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    assert search(index, PARAMS, [], 10) == []


def test_search_tf_monotonicity_equal_lengths():
    coll = make_collection({"da": "hit hit pad", "db": "hit pad pad"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search(index, PARAMS, ["hit"], 10)
    assert [doc for doc, _ in ranked] == ["da", "db"]


def test_search_excludes_zero_scores():
    coll = make_collection({"d1": "alpha", "d2": "beta"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search(index, PARAMS, ["alpha"], 10)
    assert [doc for doc, _ in ranked] == ["d1"]


def oracle_search(collection, variant, tokenizer, params, query_tokens, top_k):
    """Exhaustive oracle: score every unit from raw token lists, then
    aggregate to documents by max and sort like the contract says."""
    units = oracle_unit_tokens(collection, variant, tokenizer)
    n = len(units)
    avg = sum(len(tokens) for tokens in units.values()) / n
    df = {
        token: sum(1 for tokens in units.values() if token in tokens)
        for token in set(query_tokens)
    }
    idf = {
        token: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for token, d in df.items()
    }
    doc_scores = {}
    for (doc_id, _k), tokens in units.items():
        length_norm = params.k1 * (1.0 - params.b + params.b * len(tokens) / avg)
        score = 0.0
        for token in query_tokens:
            tf = tokens.count(token)
            if tf == 0:
                continue
            score += idf[token] * tf * (params.k1 + 1.0) / (tf + length_norm)
        if score > 0.0 and (doc_id not in doc_scores or score > doc_scores[doc_id]):
            doc_scores[doc_id] = score
    ranked = sorted(doc_scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]


@pytest.mark.parametrize("variant", list(IndexVariant))
def test_search_matches_exhaustive_oracle(variant):
    coll = synthetic_corpus(100, seed=21)
    tok = Tokenizer()
    index = build_index(coll, variant, tok)
    rng = random.Random(77)
    vocab = [f"term{i:02d}" for i in range(40)] + ["neverseen"]
    for _ in range(15):
        query = rng.choices(vocab, k=rng.randint(1, 4))
        got = search(index, PARAMS, query, 50)
        want = oracle_search(coll, variant, tok, PARAMS, query, 50)
        assert got == want


def test_paragraph_search_never_repeats_doc():
    coll = synthetic_corpus(60, seed=33)
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT_PARAGRAPH)
    ranked = search(index, PARAMS, ["term00", "term01", "term02"], 60)
    docs = [doc for doc, _ in ranked]
    assert len(docs) == len(set(docs))


def test_collection_order_does_not_change_scores():
    coll = synthetic_corpus(40, seed=55)
    shuffled_docs = list(coll.docs)
    random.Random(1).shuffle(shuffled_docs)
    permuted = Collection.from_documents(shuffled_docs)
    for variant in IndexVariant:
        a = build_index(coll, variant)
        b = build_index(permuted, variant)
        assert search(a, PARAMS, ["term03", "term17"], 40) == search(
            b, PARAMS, ["term03", "term17"], 40
        )


def test_search_total_order_under_ties():
    coll = make_collection({"dz": "same text", "da": "same text", "dm": "same text"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search(index, PARAMS, ["same"], 10)
    assert [doc for doc, _ in ranked] == ["da", "dm", "dz"]


def test_bm25_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(k1=0.0)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)


WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "the", "x", "Alpha-2", "b3"]
texts = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
# Doc ids in arbitrary string order, so ties exercise the doc_id tie-break.
documents = st.lists(
    st.tuples(st.text("aAb1", min_size=1, max_size=3), texts, texts,
              st.lists(texts, max_size=3)),
    min_size=1, max_size=12, unique_by=lambda doc: doc[0],
)


def oracle_unit_scores(units, params, query_tokens):
    """BM25 of every unit from raw token lists, in the library's float order."""
    n = len(units)
    avg = sum(len(tokens) for tokens in units.values()) / n
    scores = {}
    for unit_id, tokens in units.items():
        length_norm = params.k1 * (1.0 - params.b + params.b * len(tokens) / avg)
        score = 0.0
        for token in query_tokens:
            tf = tokens.count(token)
            if tf:
                df = sum(1 for other in units.values() if token in other)
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                score += idf * tf * (params.k1 + 1.0) / (tf + length_norm)
        scores[unit_id] = score
    return scores


@settings(max_examples=150, deadline=None)
@given(
    docs=documents,
    query=st.lists(st.sampled_from(WORDS + ["unknown", "beta"]), max_size=8),
    k1=st.floats(0.1, 3.0),
    b=st.floats(0.0, 1.0),
    top_k=st.integers(1, 15),
)
def test_random_corpora_search_and_scores_match_oracle(docs, query, k1, b, top_k):
    coll = Collection.from_documents(
        Document(doc_id=doc_id, title=title, abstract=abstract,
                 body=tuple(p for p in body if p.strip()))
        for doc_id, title, abstract, body in docs
    )
    tok = Tokenizer()
    params = Bm25Params(k1=k1, b=b)
    query_tokens = [t for word in query for t in tok.tokenize(word)] + ["unknown"]
    for variant in IndexVariant:
        units = oracle_unit_tokens(coll, variant, tok)
        index = build_index(coll, variant, tok)
        assert_units_match_oracle(index, units, coll)
        if not any(units.values()):
            # No tokens anywhere: the mean unit length is 0 and nothing matches.
            assert search(index, params, query_tokens, top_k) == []
            continue
        assert search(index, params, query_tokens, top_k) == oracle_search(
            coll, variant, tok, params, query_tokens, top_k
        )
        if variant is IndexVariant.FULL_TEXT:
            # One unit per document: every unit's score, exactly.
            want = oracle_unit_scores(units, params, query_tokens)
            assert dict(search(index, params, query_tokens, len(coll))) == {
                doc_id: score for (doc_id, _k), score in want.items() if score > 0.0
            }


@settings(max_examples=100, deadline=None)
@given(docs=documents, description=st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
       n=st.integers(1, 6))
def test_random_corpora_select_task_terms_match_brute_force_df(docs, description, n):
    coll = Collection.from_documents(
        Document(doc_id=doc_id, title=title, abstract=abstract)
        for doc_id, title, abstract, _body in docs
    )
    tok = Tokenizer()
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT, tok)
    # Bigram terms make the df an intersection of two posting lists.
    extractor = LexiconExtractor(
        {" ".join(pair) for pair in zip(description, description[1:])} | set(description)
    )
    task = Task(task_id="t", title="", description=" ".join(description))
    unit_tokens = [set(tokens) for tokens in oracle_unit_tokens(
        coll, IndexVariant.TITLE_ABSTRACT, tok).values()]
    counts = Counter(extractor.extract(task.description))
    scored = []
    for term, tf in counts.items():
        tokens = tok.tokenize(term)
        if tokens:
            df = sum(1 for unit in unit_tokens if set(tokens) <= unit)
            scored.append((tf * math.log(len(unit_tokens) / (1 + df)), term))
    scored.sort(key=lambda item: (-item[0], item[1]))
    assert select_task_terms(task, index, extractor, n) == [t for _, t in scored[:n]]
    full = select_task_terms(task, index, extractor, None)
    assert full == [t for _, t in scored]
    for m in range(len(full) + 2):
        assert select_task_terms(task, index, extractor, m) == full[:m]
