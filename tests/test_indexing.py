import gc
import math
import random
import string
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank import indexing
from taskrank.corpus import Document, load_collection
from taskrank.errors import TaskRankError
from taskrank.indexing import (
    Bm25Params,
    IndexVariant,
    InvertedIndex,
    TokenizedCollection,
    Tokenizer,
    build_index,
    default_stopwords,
    search,
    token_runs,
    top_ranked,
)
from taskrank.fusion import FusionConfig, rrf_fuse
from taskrank.rerank import RerankConfig, rerank
from taskrank.querygen import LexiconExtractor, select_task_terms
from taskrank.tasks import Task

from by_id import search_ids

PARAMS = Bm25Params()


def make_collection(texts_by_id, paragraphs_by_id=None):
    paragraphs_by_id = paragraphs_by_id or {}
    docs = [
        Document(doc_id=doc_id, title=text, body=tuple(paragraphs_by_id.get(doc_id, ())))
        for doc_id, text in texts_by_id.items()
    ]
    return tuple(docs)


def character_scanner_runs(text):
    """Oracle run splitter: per-character scan accumulating alphanumeric runs."""
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
    return tokens


def character_scanner_tokens(text, stopwords):
    """Oracle tokenizer: the scanner's runs without short runs and stopwords."""
    return [t for t in character_scanner_runs(text) if len(t) >= 2 and t not in stopwords]


def test_tokenize_case_and_split():
    assert Tokenizer().tokenize("COVID-19 spreads") == ["covid", "19", "spreads"]


def test_tokenize_drops_stopwords_and_short_tokens():
    tok = Tokenizer()
    assert tok.tokenize("the of and") == []
    assert tok.tokenize("a I x viral") == ["viral"]


# Characters whose lowercase or encoding is not one ASCII byte: the Kelvin
# sign lowercases to "k", "\u0130" to "i" plus a combining dot, and the rest
# are separators of one kind or another (a lone surrogate among them).
TRICKY_CHARS = ["\u212a", "\u0130", "\u00df", "\ud800", "\x00", "\x1c", "\xa0", "\u2028"]
SCANNER_WORDS = ["Viral", "spread-rate", "the", "THE", "B2", "x", "IN", "he", "CoV-2",
                 "a1b", "word", "and", "of"]
scanner_texts = st.lists(
    st.one_of(st.sampled_from(SCANNER_WORDS), st.sampled_from(TRICKY_CHARS),
              st.sampled_from(string.ascii_letters + string.digits + string.punctuation + " "),
              st.characters()),
    max_size=40,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=scanner_texts,
       stopwords=st.frozensets(st.sampled_from(["viral", "word", "b2", "k", "x", "the", "zz"])))
def test_tokenize_matches_character_scanner_oracle(text, stopwords):
    assert Tokenizer().tokenize(text) == character_scanner_tokens(text, default_stopwords())
    assert Tokenizer(stopwords).tokenize(text) == character_scanner_tokens(text, stopwords)


# Stopword sets that hold runs, one-character words and words that can never
# be a run (upper case, non-ASCII, punctuation, the empty string).
STOPWORD_CHOICES = ["viral", "word", "b2", "k", "x", "the", "zz", "alpha", "delta", "b3",
                    "café", "The", "don't", "", "é"]
stopword_sets = st.frozensets(st.one_of(st.sampled_from(STOPWORD_CHOICES), st.text(max_size=3)))


@settings(max_examples=300, deadline=None)
@given(text=scanner_texts, stopwords=stopword_sets)
def test_tokenize_is_runs_without_dropped(text, stopwords):
    for tok in (Tokenizer(), Tokenizer(stopwords)):
        runs = tok.runs(text)
        assert runs == character_scanner_runs(text)
        assert tok.tokenize(text) == [r for r in runs if r not in tok.dropped]
        assert tok.tokenize(text) == character_scanner_tokens(text, tok.stopwords)
    assert Tokenizer(stopwords).dropped == stopwords | set(string.ascii_lowercase + string.digits)


@settings(max_examples=300, deadline=None)
@given(text=scanner_texts)
def test_lexicon_stream_matches_character_scanner_runs(text):
    runs = character_scanner_runs(text)
    assert token_runs(text) == runs
    # With every run a one-token lexicon entry, extraction returns the stream.
    assert LexiconExtractor(runs).extract(text) == runs


def test_paragraph_variant_units():
    coll = make_collection({"d1": "head"}, {"d1": ("para one", "para two")})
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT_PARAGRAPH)
    assert index.unit_count == 2
    assert index.parent.tolist() == [0, 0]
    assert index.doc_ids == ("d1",)


def test_fulltext_variant_single_unit():
    coll = make_collection({"d1": "head"}, {"d1": ("para one", "para two")})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    assert index.unit_count == 1
    # body tokens land in the single unit
    assert index.doc_freq("para") == 1


@pytest.mark.parametrize("bodyless_first", [True, False], ids=["first", "last"])
def test_bodyless_doc_yields_one_paragraph_unit(bodyless_first):
    # In file order the bodyless document comes first, or last, where its
    # empty paragraph run starts at the collection's final token offset.
    coll = (Document(doc_id="b", title="only head"),
            Document(doc_id="a", title="head", body=("para one", "para two words")))
    coll = coll if bodyless_first else coll[::-1]
    tok = Tokenizer()
    for variant in IndexVariant:
        index = build_index(coll, variant, tok)
        units = oracle_unit_tokens(coll, variant, tok)
        assert_units_match_oracle(index, units, coll)
        assert_postings_match_oracle(index, units)


def test_title_abstract_excludes_body():
    coll = make_collection({"d1": "head"}, {"d1": ("bodyword only",)})
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT)
    assert index.doc_freq("bodyword") == 0
    assert index.doc_freq("head") == 1


def test_empty_collection_rejected(tmp_path):
    with pytest.raises(TaskRankError, match="^cannot index an empty collection$"):
        build_index([], IndexVariant.FULL_TEXT)


@pytest.mark.parametrize("build", [TokenizedCollection,
                                   lambda docs: build_index(docs, IndexVariant.FULL_TEXT)],
                         ids=["TokenizedCollection", "build_index"])
def test_repeated_doc_id_rejected(build):
    docs = [Document(doc_id="b"), Document(doc_id="a", title="x"), Document(doc_id="b", title="y")]
    for given_docs in (docs, iter(docs)):
        with pytest.raises(TaskRankError, match="^duplicate doc_id 'b'$"):
            build(given_docs)


def assert_same_tokenization(got, want):
    for name in ("tokens", "seg_offsets", "head_segment", "paragraphs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.doc_ids == want.doc_ids


def test_tokenized_collection_reads_a_one_pass_generator(mini):
    documents = load_collection(mini["corpus"])
    for bodies in (True, False):
        assert_same_tokenization(
            TokenizedCollection((doc for doc in documents), bodies=bodies),
            TokenizedCollection(documents, bodies=bodies))


@pytest.mark.parametrize("variant", [IndexVariant.FULL_TEXT, IndexVariant.TITLE_ABSTRACT_PARAGRAPH])
def test_a_variant_that_reads_bodies_needs_tokenized_bodies(mini, variant):
    tokens = TokenizedCollection(load_collection(mini["corpus"]), bodies=False)
    with pytest.raises(ValueError, match=f"the {variant.value} variant needs tokenized bodies"):
        InvertedIndex(tokens, variant)
    assert InvertedIndex(tokens, IndexVariant.TITLE_ABSTRACT).doc_ids == tokens.doc_ids


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
    return tuple(docs)


def oracle_unit_tokens(collection, variant, tokenizer):
    """Recompose each unit's token list straight from the documents, walking
    them in doc_id order, the order in which an index numbers them."""
    units = {}
    for doc in sorted(collection, key=lambda doc: doc.doc_id):
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
    """The index's unit arrays against an oracle's units, in doc_id order:
    ``parent`` maps each unit to its document and ``unit_lengths`` counts
    each unit's tokens."""
    position = {doc_id: d for d, doc_id in enumerate(sorted(doc.doc_id for doc in collection))}
    assert index.doc_ids == tuple(position)
    assert index.unit_count == len(units)
    assert index.parent.tolist() == [position[doc_id] for doc_id, _k in units]
    assert index.unit_lengths.tolist() == [len(tokens) for tokens in units.values()]


def assert_postings_match_oracle(index, units):
    """Per term, the index's ascending units and their frequencies against
    the token counts of an oracle's units."""
    counts = [Counter(tokens) for tokens in units.values()]
    for term in index.vocab:
        postings, tfs = index.term_postings(term)
        expected = [(u, c[term]) for u, c in enumerate(counts) if term in c]
        assert list(zip(postings.tolist(), tfs.tolist())) == expected


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
    assert search_ids(index, PARAMS, ["missing"], 10) == []
    assert search_ids(index, PARAMS, ["missing", "absent"], 10) == []
    gamma = search_ids(index, PARAMS, ["gamma"], 10)
    assert [doc for doc, _ in gamma] == ["d2"]
    assert search_ids(index, PARAMS, ["gamma", "missing"], 10) == gamma


def test_bm25_closed_form_single_doc():
    # One doc, one term: tf=1, len=avglen, N=df=1.
    # idf = ln(1 + 0.5/1.5); tf part reduces to 1.
    coll = make_collection({"d1": "zedword"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    expected = math.log(4.0 / 3.0)
    [(doc_id, score)] = search_ids(index, PARAMS, ["zedword"], 10)
    assert doc_id == "d1"
    assert score == pytest.approx(expected, abs=1e-12)


def test_duplicated_query_token_doubles_score():
    coll = synthetic_corpus(30, seed=11)
    index = build_index(coll, IndexVariant.FULL_TEXT)
    single = search_ids(index, PARAMS, ["term05"], index.doc_count)
    double = search_ids(index, PARAMS, ["term05", "term05"], index.doc_count)
    assert len(single) >= 10
    assert [doc for doc, _ in double] == [doc for doc, _ in single]
    for (_, one), (_, two) in zip(single, double):
        assert two == pytest.approx(2.0 * one, abs=1e-12)


def test_bm25_monotone_in_tf():
    # Equal unit lengths; only tf differs.
    coll = make_collection({"d1": "rare pad1 pad2", "d2": "rare rare pad1"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    scores = dict(search_ids(index, PARAMS, ["rare"], 10))
    assert scores["d2"] > scores["d1"] > 0.0


def test_search_empty_query():
    coll = make_collection({"d1": "alpha"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    assert search_ids(index, PARAMS, [], 10) == []


def test_search_tf_monotonicity_equal_lengths():
    coll = make_collection({"da": "hit hit pad", "db": "hit pad pad"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search_ids(index, PARAMS, ["hit"], 10)
    assert [doc for doc, _ in ranked] == ["da", "db"]


def test_search_excludes_zero_scores():
    coll = make_collection({"d1": "alpha", "d2": "beta"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search_ids(index, PARAMS, ["alpha"], 10)
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
        if not tokens:  # scores 0; and with every unit empty, avg is 0
            continue
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
        got = search_ids(index, PARAMS, query, 50)
        want = oracle_search(coll, variant, tok, PARAMS, query, 50)
        assert got == want


def test_paragraph_search_never_repeats_doc():
    coll = synthetic_corpus(60, seed=33)
    index = build_index(coll, IndexVariant.TITLE_ABSTRACT_PARAGRAPH)
    ranked = search_ids(index, PARAMS, ["term00", "term01", "term02"], 60)
    docs = [doc for doc, _ in ranked]
    assert len(docs) == len(set(docs))


def test_collection_order_does_not_change_scores():
    coll = synthetic_corpus(40, seed=55)
    shuffled_docs = list(coll)
    random.Random(1).shuffle(shuffled_docs)
    permuted = tuple(shuffled_docs)
    for variant in IndexVariant:
        a = build_index(coll, variant)
        b = build_index(permuted, variant)
        assert search_ids(a, PARAMS, ["term03", "term17"], 40) == search_ids(
            b, PARAMS, ["term03", "term17"], 40
        )


def test_search_total_order_under_ties():
    coll = make_collection({"dz": "same text", "da": "same text", "dm": "same text"})
    index = build_index(coll, IndexVariant.FULL_TEXT)
    ranked = search_ids(index, PARAMS, ["same"], 10)
    assert [doc for doc, _ in ranked] == ["da", "dm", "dz"]


@pytest.mark.parametrize("top_k", [0, -1])
@pytest.mark.parametrize("empty", [True, False], ids=["empty", "non-empty"])
@pytest.mark.parametrize("caller", ["search", "rrf_fuse", "rerank"])
def test_every_ranker_rejects_top_k_below_one(caller, empty, top_k):
    index = build_index(make_collection({"d1": "alpha", "d2": "alpha beta"}),
                        IndexVariant.FULL_TEXT)
    docs = np.zeros(0, dtype=np.int64) if empty else np.array([1, 0])
    ranking = (docs, np.linspace(2.0, 1.0, len(docs)))
    aux = np.array([0.5, -0.5])
    calls = {
        "search": lambda: search(index, PARAMS, [] if empty else ["alpha"], top_k),
        "rrf_fuse": lambda: rrf_fuse([docs, docs[::-1]], FusionConfig(), top_k),
        "rerank": lambda: rerank(ranking, aux, RerankConfig(), top_k),
    }
    with pytest.raises(ValueError, match="top_k must be >= 1"):
        calls[caller]()


@st.composite
def tied_rankings(draw):
    """Distinct positions in any order, some of a pool left out, with scores
    from a small palette (negative, -0.0 and +0.0 included, so ties are
    dense), and a ``top_k`` that is often drawn from the cuts that fall
    inside a run of tied scores."""
    pool = draw(st.integers(1, 60))
    docs = draw(st.permutations(range(pool)))[:draw(st.integers(0, pool))]
    palette = draw(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
                            | st.floats(-1e3, 1e3), min_size=1, max_size=4))
    scores = [draw(st.sampled_from(palette)) for _ in docs]
    ranked = sorted(scores, reverse=True)
    inside = [k for k in range(1, len(ranked)) if ranked[k - 1] == ranked[k]]
    top_k = draw(st.sampled_from(inside) if inside and draw(st.booleans())
                 else st.integers(1, len(docs) + 2))
    return docs, scores, top_k


@settings(max_examples=300, deadline=None)
@given(case=tied_rankings(), position_type=st.sampled_from([np.int32, np.int64]))
def test_top_ranked_matches_sorted_oracle(case, position_type):
    docs, scores, top_k = case
    expected = sorted(zip(docs, scores), key=lambda p: (-p[1], p[0]))[:top_k]
    got_docs, got_scores = top_ranked(np.array(docs, dtype=position_type), np.array(scores),
                                      top_k)
    assert got_docs.tolist() == [doc for doc, _ in expected]
    # Each score is its document's own, so -0.0 and +0.0 keep their sign.
    assert [math.copysign(1.0, s) for s in got_scores.tolist()] == [
        math.copysign(1.0, s) for _, s in expected]


def test_bm25_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(k1=0.0)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)
    for k1 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="k1 must be a finite number"):
            Bm25Params(k1=k1)


WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "the", "x", "Alpha-2", "b3"]
texts = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)


def documents_of(texts):
    """Drawn ``(doc_id, title, abstract, paragraphs)`` tuples of ``texts``."""
    # Doc ids in arbitrary string order, so ties exercise the doc_id tie-break.
    return st.lists(
        st.tuples(st.text("aAb1", min_size=1, max_size=3), texts, texts,
                  st.lists(texts, max_size=3)),
        min_size=1, max_size=12, unique_by=lambda doc: doc[0],
    )


documents = documents_of(texts)


def random_collection(docs):
    """A collection from drawn ``(doc_id, title, abstract, paragraphs)`` tuples."""
    return tuple(
        Document(doc_id=doc_id, title=title, abstract=abstract,
                 body=tuple(p for p in body if p.strip()))
        for doc_id, title, abstract, body in docs
    )


@settings(max_examples=150, deadline=None)
@given(docs=documents_of(st.one_of(texts, scanner_texts)),
       stopwords=st.one_of(st.none(), stopword_sets), bodies=st.booleans(),
       block_runs=st.sampled_from([1, 3, 1 << 16]))
def test_tokenized_collection_matches_per_text_oracle(docs, stopwords, bodies, block_runs):
    coll = tuple(
        Document(doc_id=doc_id, title=title, abstract=abstract, body=tuple(body))
        for doc_id, title, abstract, body in docs
    )
    tok = Tokenizer(stopwords)
    vocab, tokens, seg_offsets, segments_of = {}, [], [0], {}
    for doc in coll:
        head = f"{doc.title} {doc.abstract}"
        texts = [head, *doc.body] if bodies else [head]
        segments_of[doc.doc_id] = (len(seg_offsets) - 1, len(texts) - 1)
        for text in texts:
            tokens += [vocab.setdefault(t, len(vocab)) for t in tok.tokenize(text)]
            seg_offsets.append(len(tokens))
    # Run ids masked in blocks of any size give the same arrays.
    with mock.patch.object(indexing, "_BLOCK_TOKENS", block_runs):
        tc = TokenizedCollection(coll, tok, bodies=bodies)
    assert_same_tokenization(TokenizedCollection((doc for doc in coll), tok, bodies), tc)
    assert tc.tokens.dtype == np.int32 and tc.tokens.tolist() == tokens
    assert tc.seg_offsets.tolist() == seg_offsets
    # Positions follow doc_id order; each names its head segment and paragraph count.
    assert tc.doc_ids == tuple(sorted(segments_of))
    assert list(zip(tc.head_segment.tolist(), tc.paragraphs.tolist())) == [
        segments_of[doc_id] for doc_id in tc.doc_ids]
    assert list(tc.vocab.items()) == list(vocab.items())
    # Only str keys and int values: no garbage collection pass need scan it.
    assert type(tc.vocab) is dict and not gc.is_tracked(tc.vocab)
    with pytest.raises(KeyError):
        tc.vocab["unknown"]
    assert InvertedIndex(tc, IndexVariant.TITLE_ABSTRACT).doc_freq("unknown") == 0
    assert list(tc.vocab.items()) == list(vocab.items())


@settings(max_examples=100, deadline=None)
@given(docs=documents, block_tokens=st.sampled_from([1, 3, 1 << 16]),
       int32_key_space=st.sampled_from([0, 2**31]))
def test_postings_match_counter_oracle_for_any_block_and_key_width(
        docs, block_tokens, int32_key_space):
    # Keys written in blocks of any size, as int32 or int64, give the same
    # postings: per term, ascending units with their token counts.
    coll = random_collection(docs)
    tok = Tokenizer()
    with mock.patch.object(indexing, "_BLOCK_TOKENS", block_tokens), \
            mock.patch.object(indexing, "_INT32_KEY_SPACE", int32_key_space):
        indices = {variant: build_index(coll, variant, tok) for variant in IndexVariant}
    for variant, index in indices.items():
        units = oracle_unit_tokens(coll, variant, tok)
        assert_units_match_oracle(index, units, coll)
        assert index.post_units.dtype == np.int32 and index.post_tfs.dtype == np.uint8
        assert_postings_match_oracle(index, units)


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
    coll = random_collection(docs)
    tok = Tokenizer()
    params = Bm25Params(k1=k1, b=b)
    query_tokens = [t for word in query for t in tok.tokenize(word)] + ["unknown"]
    for variant in IndexVariant:
        units = oracle_unit_tokens(coll, variant, tok)
        index = build_index(coll, variant, tok)
        assert_units_match_oracle(index, units, coll)
        if not any(units.values()):
            # No tokens anywhere: the mean unit length is 0 and nothing matches.
            assert search_ids(index, params, query_tokens, top_k) == []
            continue
        assert search_ids(index, params, query_tokens, top_k) == oracle_search(
            coll, variant, tok, params, query_tokens, top_k
        )
        if variant is IndexVariant.FULL_TEXT:
            # One unit per document: every unit's score, exactly.
            want = oracle_unit_scores(units, params, query_tokens)
            assert dict(search_ids(index, params, query_tokens, len(coll))) == {
                doc_id: score for (doc_id, _k), score in want.items() if score > 0.0
            }


queries = st.lists(st.sampled_from(WORDS + ["unknown", "beta"]), max_size=8)


@settings(max_examples=100, deadline=None)
@given(
    docs=documents,
    params=st.lists(st.builds(Bm25Params, k1=st.floats(0.1, 3.0), b=st.floats(0.0, 1.0)),
                    min_size=1, max_size=3),
    steps=st.lists(st.tuples(st.integers(0, 2), queries, st.integers(1, 15)),
                   min_size=1, max_size=5),
)
def test_warm_memo_searches_equal_fresh_index_and_oracle(docs, params, steps):
    # The first step comes again last, so every sequence repeats a search.
    coll = random_collection(docs)
    tok = Tokenizer()
    for variant in IndexVariant:
        warm = build_index(coll, variant, tok)
        empty = not any(oracle_unit_tokens(coll, variant, tok).values())
        for which, query, top_k in [*steps, steps[0]]:
            p = params[which % len(params)]
            query_tokens = [t for word in query for t in tok.tokenize(word)] + ["unknown"]
            got = search_ids(warm, p, query_tokens, top_k)
            assert got == search_ids(build_index(coll, variant, tok), p, query_tokens, top_k)
            if empty:
                # No tokens anywhere: the mean unit length is 0 and nothing matches.
                assert got == []
            else:
                assert got == oracle_search(coll, variant, tok, p, query_tokens, top_k)


@settings(max_examples=100, deadline=None)
@given(docs=documents, description=st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
       n=st.integers(1, 6))
def test_random_corpora_select_task_terms_match_brute_force_df(docs, description, n):
    coll = tuple(
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
