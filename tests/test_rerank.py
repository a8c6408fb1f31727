import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.errors import TaskRankError
from taskrank.evaluation import Qrels
from taskrank.rerank import (
    InMemoryVectorProvider,
    JournalPriorTable,
    RerankConfig,
    build_journal_priors,
    build_per_task_priors,
    cosine_proximity,
    export_priors,
    normalize_journal,
    rerank,
    rerank_by_journal,
    rerank_by_task_vector,
)
from taskrank.tasks import Task, TaskAssignment

from by_id import rerank_journal_ids, rerank_vector_ids


def qrels_from(rows):
    q = Qrels()
    for topic_id, doc_id, grade in rows:
        q.grades.setdefault(topic_id, {})[doc_id] = grade
    return q


def test_normalize_journal_is_idempotent():
    for raw in ["J. Virol.", "  The   LANCET ", "Nature (Medicine)", "plos one"]:
        once = normalize_journal(raw)
        assert normalize_journal(once) == once


def test_normalize_journal_merges_spellings():
    assert normalize_journal("The Lancet") == normalize_journal("the  lancet.")


def test_prior_all_relevant_is_plus_one():
    journal_of = {f"d{i}": "Good Journal" for i in range(4)}
    qrels = qrels_from([(1, f"d{i}", 1) for i in range(4)])
    table = build_journal_priors(qrels, journal_of)
    assert table.score("Good Journal") == 1.0


def test_prior_all_irrelevant_is_minus_one():
    journal_of = {f"d{i}": "Bad Journal" for i in range(5)}
    qrels = qrels_from([(1, f"d{i}", 0) for i in range(5)])
    table = build_journal_priors(qrels, journal_of)
    assert table.score("Bad Journal") == -1.0


def test_prior_three_to_one_is_half():
    journal_of = {f"d{i}": "Mixed Journal" for i in range(4)}
    qrels = qrels_from([(1, "d0", 2), (1, "d1", 1), (2, "d2", 1), (2, "d3", 0)])
    table = build_journal_priors(qrels, journal_of)
    assert table.score("Mixed Journal") == 0.5


def test_prior_balanced_is_zero_and_unknown_is_zero():
    journal_of = {"d0": "Even Journal", "d1": "Even Journal"}
    qrels = qrels_from([(1, "d0", 1), (1, "d1", 0)])
    table = build_journal_priors(qrels, journal_of)
    assert table.score("Even Journal") == 0.0
    assert table.score("Never Judged Quarterly") == 0.0
    assert "never judged quarterly" not in table.scores


def test_priors_skip_docs_without_journal_or_outside_collection():
    journal_of = {"d0": "Known", "d1": ""}
    qrels = qrels_from([(1, "d0", 1), (1, "d1", 1), (1, "ghost", 1)])
    table = build_journal_priors(qrels, journal_of)
    assert set(table.scores) == {"known"}


def test_journal_that_normalizes_to_nothing_gets_no_prior():
    # "--" normalizes to "", the same as no journal; neither is a journal.
    journal_of = {"a": "--", "b": "", "c": "J"}
    table = build_journal_priors(qrels_from([(1, "a", 0), (1, "c", 1)]), journal_of)
    assert table.scores == {"j": 1.0}
    assert table.by_position(journal_of.values()).tolist() == [0.0, 0.0, 1.0]


def test_empty_qrels_rejected():
    journal_of = {"d0": "J"}
    with pytest.raises(TaskRankError, match="^no usable judgments in the requested scope$"):
        build_journal_priors(Qrels(), journal_of)


def manual_map():
    return {
        1: TaskAssignment(topic_id=1, task_id="alpha", confidence=3),
        2: TaskAssignment(topic_id=2, task_id="alpha", confidence=3),
        3: TaskAssignment(topic_id=3, task_id="beta", confidence=3),
    }


def test_per_task_priors_restrict_topics_and_match_counting_oracle():
    rng = random.Random(41)
    journals = ["J One", "J Two", "J Three"]
    docs = {f"d{i}": rng.choice(journals) for i in range(30)}
    rows = []
    for topic in (1, 2, 3):
        for doc in rng.sample(list(docs), 12):
            rows.append((topic, doc, rng.choice([0, 0, 1, 2])))
    qrels = qrels_from(rows)

    table = build_per_task_priors(qrels, docs, manual_map())["alpha"]

    # Counting oracle over the raw rows, alpha covers topics 1 and 2 only.
    counts = {}
    for topic, doc, grade in rows:
        if topic not in (1, 2):
            continue
        journal = normalize_journal(docs[doc])
        rel, tot = counts.get(journal, (0, 0))
        counts[journal] = (rel + (1 if grade >= 1 else 0), tot + 1)
    for journal, (rel, tot) in counts.items():
        assert table.score(journal) == pytest.approx(2 * rel / tot - 1, abs=1e-12)


def test_build_per_task_priors_covers_all_mapped_tasks():
    journal_of = {"d0": "J", "d1": "K"}
    qrels = qrels_from([(1, "d0", 1), (3, "d1", 0)])
    tables = build_per_task_priors(qrels, journal_of, manual_map())
    assert set(tables) == {"alpha", "beta"}
    assert tables["alpha"].score("J") == 1.0
    assert tables["beta"].score("K") == -1.0
    # Beta's one topic judges only a document outside the collection.
    tables = build_per_task_priors(qrels_from([(1, "d0", 1), (3, "d9", 1)]), journal_of,
                                   manual_map())
    assert tables["beta"].scores == {} and tables["beta"].score("K") == 0.0


def test_rerank_alpha_one_preserves_order():
    journal_of = {"a": "Bad", "b": "Good"}
    table = JournalPriorTable(scores={"bad": -1.0, "good": 1.0})
    ranking = [("a", 5.0), ("b", 1.0)]
    out = rerank_journal_ids(ranking, table, journal_of, RerankConfig(alpha=1.0), 10)
    assert [d for d, _ in out] == ["a", "b"]


def test_rerank_alpha_zero_sorts_by_prior():
    journal_of = {"a": "Bad", "b": "Good"}
    table = JournalPriorTable(scores={"bad": -1.0, "good": 1.0})
    ranking = [("a", 5.0), ("b", 1.0)]
    out = rerank_journal_ids(ranking, table, journal_of, RerankConfig(alpha=0.0), 10)
    assert [d for d, _ in out] == ["b", "a"]


def test_rerank_matches_recompute_oracle():
    rng = random.Random(59)
    journals = ["J A", "J B", "J C", ""]
    docs = {f"d{i:02d}": rng.choice(journals) for i in range(50)}
    priors = {"j a": 0.4, "j b": -0.7, "j c": 1.0}
    table = JournalPriorTable(scores=priors)
    ranking = [(d, rng.uniform(0, 10)) for d in docs]
    ranking.sort(key=lambda item: -item[1])
    alpha = 0.7
    out = rerank_journal_ids(ranking, table, docs, RerankConfig(alpha=alpha), 50)

    scores = [s for _, s in ranking]
    lo, hi = min(scores), max(scores)
    oracle = []
    for doc, score in ranking:
        norm = (score - lo) / (hi - lo)
        prior = priors.get(normalize_journal(docs[doc]), 0.0)
        oracle.append((doc, alpha * norm + (1 - alpha) * prior))
    oracle.sort(key=lambda item: (-item[1], item[0]))
    assert out == oracle


def test_rerank_constant_scores_normalize_to_one():
    journal_of = {"a": "Good", "b": "Bad"}
    table = JournalPriorTable(scores={"good": 1.0, "bad": -1.0})
    ranking = [("a", 2.0), ("b", 2.0)]
    out = dict(rerank_journal_ids(ranking, table, journal_of, RerankConfig(alpha=0.5), 10))
    assert out["a"] == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)
    assert out["b"] == pytest.approx(0.5 * 1.0 - 0.5 * 1.0)


def test_rerank_output_is_permutation_of_input_prefix():
    rng = random.Random(61)
    journal_of = {f"d{i}": "J" for i in range(20)}
    table = JournalPriorTable(scores={"j": 0.3})
    ranking = sorted(
        [(f"d{i}", rng.uniform(0, 1)) for i in range(20)], key=lambda x: -x[1]
    )
    out = rerank_journal_ids(ranking, table, journal_of, RerankConfig(alpha=0.7), 8)
    assert len(out) == 8
    assert {d for d, _ in out} <= {d for d, _ in ranking}


def make_provider(task_vec, doc_vecs):
    vectors = {"t": task_vec}
    vectors.update(doc_vecs)
    return InMemoryVectorProvider(vectors)


TASK = Task(task_id="t", title="T", description="desc")


def test_vector_identical_gives_proximity_one():
    provider = make_provider([1.0, 2.0, 3.0], {"a": [1.0, 2.0, 3.0]})
    out = rerank_vector_ids([("a", 1.0)], provider, TASK, RerankConfig(alpha=0.0), 5)
    assert out[0][1] == pytest.approx(1.0)


def test_vector_orthogonal_gives_half():
    provider = make_provider([1.0, 0.0], {"a": [0.0, 1.0]})
    out = rerank_vector_ids([("a", 1.0)], provider, TASK, RerankConfig(alpha=0.0), 5)
    assert out[0][1] == pytest.approx(0.5)


def test_vector_missing_doc_vector_is_neutral():
    provider = make_provider([1.0, 0.0], {})
    out = rerank_vector_ids([("a", 1.0)], provider, TASK, RerankConfig(alpha=0.0), 5)
    assert out[0][1] == pytest.approx(0.5)


def test_vector_missing_task_vector_raises():
    provider = InMemoryVectorProvider({"a": [1.0, 0.0]})
    with pytest.raises(TaskRankError, match="^no vector available for task 't'$"):
        rerank_vector_ids([("a", 1.0)], provider, TASK, RerankConfig(), 5)


def test_vector_rerank_matches_dot_product_oracle():
    rng = np.random.default_rng(67)
    task_vec = rng.normal(size=16)
    doc_vecs = {f"d{i:02d}": rng.normal(size=16) for i in range(20)}
    provider = make_provider(task_vec, doc_vecs)
    ranking = sorted(
        [(d, float(rng.uniform(0, 5))) for d in doc_vecs], key=lambda x: -x[1]
    )
    alpha = 0.5
    out = rerank_vector_ids(ranking, provider, TASK, RerankConfig(alpha=alpha), 20)

    scores = [s for _, s in ranking]
    lo, hi = min(scores), max(scores)
    oracle = []
    for doc, score in ranking:
        v = doc_vecs[doc]
        cos = float(np.dot(v, task_vec) / (np.linalg.norm(v) * np.linalg.norm(task_vec)))
        combined = alpha * (score - lo) / (hi - lo) + (1 - alpha) * (cos + 1) / 2
        oracle.append((doc, combined))
    oracle.sort(key=lambda item: (-item[1], item[0]))
    assert [d for d, _ in out] == [d for d, _ in oracle]
    for (_, got), (_, want) in zip(out, oracle):
        assert got == pytest.approx(want, abs=1e-12)


def test_vector_provider_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        InMemoryVectorProvider({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})


def test_cosine_of_zero_vector_is_neutral():
    assert cosine_proximity(np.zeros(3), np.ones(3)) == 0.5


# Zero or a magnitude in [1e-3, 1e2]: scaled by 2**±900 every component stays normal.
components = st.one_of(st.just(0.0), st.floats(1e-3, 1e2), st.floats(-1e2, -1e-3))
vector_pairs = st.integers(1, 39).flatmap(
    lambda n: st.tuples(*[st.lists(components, min_size=n, max_size=n)] * 2))


@settings(max_examples=300, deadline=None)
@given(pair=vector_pairs, i=st.integers(-900, 900), j=st.integers(-900, 900),
       parallel=st.booleans())
def test_cosine_proximity_ignores_binary_scale(pair, i, j, parallel):
    a, b = (np.array(v) for v in pair)
    if parallel:
        b = 3.0 * a
    want = cosine_proximity(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cosine_proximity(np.ldexp(a, i), np.ldexp(b, j))
    assert got == want and 0.0 <= got <= 1.0


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_vectors_file_at_extreme_magnitudes(tmp_path, scale):
    path = tmp_path / "vectors.txt"
    rows = {"t": [1, 0], "a": [3, 4], "b": [-2, 0], "c": [1, 1], "d": [0, 0]}
    path.write_text("".join(f"{key} {x * scale!r} {y * scale!r}\n"
                            for key, (x, y) in rows.items()), encoding="utf-8")
    provider = InMemoryVectorProvider.from_file(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proximity = provider.proximities("t", ["a", "b", "c", "d"]).tolist()
        out = rerank_vector_ids([("a", 2.0), ("b", 1.0)], provider, TASK,
                                RerankConfig(alpha=0.5), 5)
    assert proximity == pytest.approx([0.8, 0.0, (0.5**0.5 + 1) / 2, 0.5], abs=1e-12)
    assert out == [("a", pytest.approx(0.9)), ("b", 0.0)]


def test_both_re_rank_names_are_the_one_re_ranker():
    assert rerank_by_journal is rerank_by_task_vector is rerank
    # The package exports the two names but not ``rerank``, which would
    # shadow the module: ``import taskrank.rerank as m`` would bind the function.
    import taskrank.rerank as module
    assert module.rerank is rerank


# Zero, or a magnitude anywhere from 1e-300 to 1e300, of either sign.
wide_components = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 9.99),
              st.integers(-300, 299), st.sampled_from([1.0, -1.0])))


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 8), data=st.data())
def test_proximities_equal_per_document_cosine_proximity_bit_for_bit(dim, data):
    vectors = st.one_of(st.just([0.0] * dim),
                        st.lists(wide_components, min_size=dim, max_size=dim))
    task = data.draw(vectors)
    docs = data.draw(st.dictionaries(st.text("abc", min_size=1, max_size=3), vectors,
                                     max_size=8))
    missing = data.draw(st.lists(st.text("xyz", min_size=1, max_size=2), max_size=3))
    provider = InMemoryVectorProvider({"task": task, **docs})
    doc_ids = data.draw(st.permutations([*docs, *missing]))
    want = [cosine_proximity(np.array(docs[d]), np.array(task)) if d in docs else 0.5
            for d in doc_ids]
    got = provider.proximities("task", doc_ids)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_export_priors_format():
    table = JournalPriorTable(scores={"b journal": -1.0, "a journal": 0.5})
    text = export_priors(table)
    assert text == "a journal\t0.500000\nb journal\t-1.000000\n"


def test_rerank_config_validation():
    with pytest.raises(ValueError):
        RerankConfig(alpha=1.5)
