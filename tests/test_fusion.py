import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.errors import TaskRankError
from taskrank.fusion import FusionConfig, rrf_fuse

from by_id import fuse_ids

CFG = FusionConfig()


def random_rankings(rng, n_lists=3, n_docs=50):
    pool = [f"doc{i:03d}" for i in range(n_docs * 2)]
    rankings = []
    for _ in range(n_lists):
        picked = rng.sample(pool, n_docs)
        rankings.append([(doc, float(n_docs - i)) for i, doc in enumerate(picked)])
    return rankings


def oracle_fuse(rankings, rrf_k, top_k):
    """Brute force: for every (doc, list) pair, look the doc's rank up and
    sum the reciprocals."""
    all_docs = {doc for ranking in rankings for doc, _ in ranking}
    fused = {}
    for doc in all_docs:
        parts = []
        for ranking in rankings:
            for rank, (doc_id, _) in enumerate(ranking, start=1):
                if doc_id == doc:
                    parts.append(1.0 / (rrf_k + rank))
        fused[doc] = math.fsum(parts)
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))[:top_k]


def test_single_list_preserves_order():
    ranking = [("c", 9.0), ("a", 5.0), ("b", 1.0)]
    fused = fuse_ids([ranking], CFG, 10)
    assert [doc for doc, _ in fused] == ["c", "a", "b"]


def test_rank_one_in_one_of_three_lists():
    rankings = [[("only", 3.0)], [("other", 2.0)], [("other", 2.0)]]
    fused = dict(fuse_ids(rankings, CFG, 10))
    assert fused["only"] == pytest.approx(1.0 / 61.0, abs=1e-12)


def test_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(10):
        rankings = random_rankings(rng)
        assert fuse_ids(rankings, CFG, 200) == oracle_fuse(rankings, CFG.rrf_k, 200)


def test_scores_do_not_matter():
    base = [[("a", 100.0), ("b", 50.0)], [("b", 2.0), ("c", 1.0)]]
    rescored = [[("a", 0.3), ("b", 0.2)], [("b", 9.0), ("c", 0.5)]]
    assert fuse_ids(base, CFG, 10) == fuse_ids(rescored, CFG, 10)


def test_appending_to_bottom_never_hurts_others():
    rng = random.Random(4)
    rankings = random_rankings(rng, n_lists=3, n_docs=20)
    before = dict(fuse_ids(rankings, CFG, 100))
    rankings[1] = rankings[1] + [("newcomer", 0.1)]
    after = dict(fuse_ids(rankings, CFG, 100))
    for doc, score in before.items():
        assert after[doc] >= score


def test_input_list_order_is_irrelevant():
    rng = random.Random(8)
    rankings = random_rankings(rng)
    forward = fuse_ids(rankings, CFG, 150)
    backward = fuse_ids(list(reversed(rankings)), CFG, 150)
    assert forward == backward


def test_truncates_to_top_k():
    rng = random.Random(2)
    rankings = random_rankings(rng)
    assert len(fuse_ids(rankings, CFG, 7)) == 7


def test_empty_input_rejected():
    with pytest.raises(TaskRankError, match="^rrf_fuse needs at least one ranking$"):
        rrf_fuse([], CFG, 10)


def test_duplicate_doc_within_list_rejected():
    with pytest.raises(ValueError):
        fuse_ids([[("a", 2.0), ("a", 1.0)]], CFG, 10)
    with pytest.raises(ValueError, match="position 3 repeated"):
        rrf_fuse([np.array([1, 3]), np.array([2, 3, 0, 3])], CFG, 10)


def test_empty_lists_fuse_to_nothing():
    docs, scores = rrf_fuse([np.zeros(0, dtype=np.int64)] * 3, CFG, 10)
    assert len(docs) == len(scores) == 0


def fsum_oracle(lists, rrf_k, top_k):
    """The definition: per position, math.fsum of 1/(rrf_k + rank) over the
    lists holding it; score descending, ties by ascending position."""
    parts = {}
    for positions in lists:
        for rank, doc in enumerate(positions, start=1):
            parts.setdefault(doc, []).append(1.0 / (rrf_k + rank))
    fused = [(doc, math.fsum(p)) for doc, p in parts.items()]
    fused.sort(key=lambda item: (-item[1], item[0]))
    return fused[:top_k]


@st.composite
def overlapping_lists(draw):
    """1-4 lists of 0-1,500 distinct positions drawn from one shared pool."""
    pool = draw(st.integers(1, 3000))
    n_lists = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lists = []
    for _ in range(n_lists):
        length = draw(st.integers(0, min(1500, pool)))
        lists.append(rng.sample(range(pool), length))
    return lists


@settings(max_examples=60, deadline=None)
@given(data=overlapping_lists(),
       rrf_k=st.one_of(st.sampled_from([1.0, 60.0]), st.floats(1e-6, 1e6)),
       top_k=st.integers(1, 3000))
def test_rrf_is_the_exact_fsum_of_reciprocal_ranks(data, rrf_k, top_k):
    docs, scores = rrf_fuse([np.array(p, dtype=np.int64) for p in data],
                            FusionConfig(rrf_k=rrf_k), top_k)
    assert list(zip(docs.tolist(), scores.tolist())) == fsum_oracle(data, rrf_k, top_k)


@pytest.mark.parametrize("rrf_k, fixed_point", [(60.0, True), (1.0, False)])
def test_both_sides_of_the_63_bit_check_match_fsum(monkeypatch, rrf_k, fixed_point):
    # Four lists of ranks 1..1000: at rrf_k=60 the sums fit in 60 bits; at
    # rrf_k=1 the terms span 1/2 to 1/1001 and four of them need 64 bits.
    rng = random.Random(5)
    lists = [rng.sample(range(1500), 1000) for _ in range(4)]
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda parts: calls.append(1) or fsum(parts))
    docs, scores = rrf_fuse([np.array(p) for p in lists], FusionConfig(rrf_k=rrf_k), 1500)
    monkeypatch.undo()
    assert (not calls) is fixed_point
    assert list(zip(docs.tolist(), scores.tolist())) == fsum_oracle(lists, rrf_k, 1500)



def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(rrf_k=0.0)


def test_repeats_in_several_lists_name_the_smallest_position():
    lists = [np.array([5, 2, 5]), np.array([7, 4, 7, 1]), np.array([3, 9, 3, 0])]
    with pytest.raises(ValueError, match="doc position 3 repeated within one ranking"):
        rrf_fuse(lists, CFG, 10)


@pytest.mark.parametrize("lists, smallest", [
    ([np.array([2, 0]), np.array([-2])], -2),  # fused position 1, which no list holds
    ([np.array([-3, 1])], -3),  # numpy's IndexError
    ([np.array([-1, 5]), np.array([4, -4])], -4),
])
def test_negative_positions_name_the_smallest(lists, smallest):
    with pytest.raises(ValueError, match=f"doc position {smallest} is negative"):
        rrf_fuse(lists, CFG, 10)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_read_only_inputs_are_accepted_and_left_unchanged(dtype):
    rng = random.Random(3)
    lists = [np.array(rng.sample(range(40), 25), dtype=dtype) for _ in range(3)]
    copies = [r.copy() for r in lists]
    for r in lists:
        r.flags.writeable = False
    docs, scores = rrf_fuse(lists, CFG, 40)
    assert all(np.array_equal(r, c) for r, c in zip(lists, copies))
    assert list(zip(docs.tolist(), scores.tolist())) == fsum_oracle(
        [r.tolist() for r in lists], CFG.rrf_k, 40)


def test_sparse_positions_tie_by_position():
    # Positions far apart and far above the lists' lengths; 9 and 3 tie.
    lists = [[9, 3, 5000], [3, 9]]
    docs, scores = rrf_fuse([np.array(r) for r in lists], CFG, 10)
    assert list(zip(docs.tolist(), scores.tolist())) == fsum_oracle(lists, CFG.rrf_k, 10)
    assert docs.tolist() == [3, 9, 5000]
