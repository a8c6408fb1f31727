import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank import evaluation
from taskrank.cli import main
from taskrank.errors import MalformedRow
from taskrank.evaluation import (
    Qrels,
    Ranking,
    Run,
    evaluate_run,
    parse_qrels,
    parse_run,
    residual_filter,
    sweep,
    write_run,
)
from taskrank.querygen import ExpansionConfig


def make_qrels(rows):
    q = Qrels()
    for topic, doc, grade in rows:
        q.grades.setdefault(topic, {})[doc] = grade
    return q


def make_run(rankings, tag="test"):
    return Run(run_tag=tag, rankings=dict(rankings))


def test_parse_qrels_direct_row(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 doc7 2\n", encoding="utf-8")
    qrels = parse_qrels(path)
    assert qrels.grades[1]["doc7"] == 2


def test_parse_qrels_empty_file(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("", encoding="utf-8")
    assert len(parse_qrels(path)) == 0


def test_parse_qrels_duplicate_last_wins(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 d 0\n1 0 d 2\n", encoding="utf-8")
    qrels = parse_qrels(path)
    assert qrels.grades[1]["d"] == 2
    assert list(qrels.grades[1].items()) == [("d", 2)]


def test_parse_qrels_groups_grades_by_topic_in_file_order(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("3 0 x 1\n1 0 b 0\n3 0 y 2\n1 0 a 1\n3 0 x 0\n2 0 c 2\n1 0 b 2\n",
                    encoding="utf-8")
    qrels = parse_qrels(path)
    assert list(qrels.grades) == [3, 1, 2]
    assert list(qrels.grades[3].items()) == [("x", 0), ("y", 2)]
    assert list(qrels.grades[1].items()) == [("b", 2), ("a", 1)]
    assert list(qrels.grades[2].items()) == [("c", 2)]
    assert len(qrels) == 5


def test_parse_qrels_malformed_row(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 d\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        parse_qrels(path)


def test_parse_qrels_matches_counting_oracle(tmp_path):
    rng = random.Random(101)
    rows = []
    for _ in range(500):
        rows.append((rng.randint(1, 10), f"d{rng.randint(0, 200):03d}", rng.randint(0, 2)))
    path = tmp_path / "qrels.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for topic, doc, grade in rows:
            fh.write(f"{topic} 0 {doc} {grade}\n")
    qrels = parse_qrels(path)

    # Oracle: last grade per (topic, doc) from a raw line scan.
    expected = {}
    for topic, doc, grade in rows:
        expected[(topic, doc)] = grade
    assert {(t, d): g for t, docs in qrels.grades.items() for d, g in docs.items()} == expected
    for topic in range(1, 11):
        assert qrels.judged(topic) == {d for (t, d) in expected if t == topic}


def test_residual_with_empty_prior_is_identity():
    run = make_run({1: [("a", 3.0), ("b", 2.0)]})
    filtered = residual_filter(run, Qrels())
    assert filtered.rankings == run.rankings


def test_residual_removes_all_judged():
    run = make_run({1: [("a", 3.0), ("b", 2.0)]})
    prior = make_qrels([(1, "a", 0), (1, "b", 2)])
    assert residual_filter(run, prior).rankings[1] == []


def test_residual_matches_set_difference_oracle():
    rng = random.Random(7)
    docs = [f"d{i:02d}" for i in range(40)]
    run = make_run({
        t: [(d, float(40 - i)) for i, d in enumerate(rng.sample(docs, 25))]
        for t in range(1, 6)
    })
    prior_rows = [
        (t, rng.choice(docs), rng.randint(0, 2)) for t in range(1, 6) for _ in range(10)
    ]
    prior = make_qrels(prior_rows)
    filtered = residual_filter(run, prior)
    for topic, ranking in run.rankings.items():
        judged = {d for (t, d, _) in prior_rows if t == topic}
        expected = [(d, s) for d, s in ranking if d not in judged]
        assert filtered.rankings[topic] == expected


def test_residual_is_idempotent():
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    prior = make_qrels([(1, "b", 1)])
    once = residual_filter(run, prior)
    twice = residual_filter(once, prior)
    assert once.rankings == twice.rankings


def test_ndcg_perfect_ranking_is_one():
    qrels = make_qrels([(1, "a", 2), (1, "b", 1), (1, "c", 0)])
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    assert evaluate_run(run, qrels, 3).ndcg[1] == pytest.approx(1.0)


def test_ndcg_hand_computed_case():
    # Grades at ranks 1..3 are [2, 0, 1]; judged grades {2, 1, 0}.
    # DCG = 2 + 0 + 1/2 = 2.5; IDCG = 2 + 1/log2(3).
    qrels = make_qrels([(1, "a", 2), (1, "c", 1), (1, "b", 0)])
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    value = evaluate_run(run, qrels, 3).ndcg[1]
    expected = 2.5 / (2.0 + 1.0 / math.log2(3.0))
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.95023, abs=1e-5)


def test_ndcg_no_relevant_judged_is_zero():
    qrels = make_qrels([(1, "a", 0)])
    run = make_run({1: [("a", 1.0)]})
    assert evaluate_run(run, qrels, 20).ndcg[1] == 0.0


def test_ndcg_unjudged_docs_count_zero_gain():
    qrels = make_qrels([(1, "rel", 2)])
    run = make_run({1: [("mystery", 2.0), ("rel", 1.0)]})
    value = evaluate_run(run, qrels, 2).ndcg[1]
    assert value == pytest.approx((2.0 / math.log2(3.0)) / 2.0)


def test_map_all_relevant_on_top():
    qrels = make_qrels([(1, "a", 1), (1, "b", 2)])
    run = make_run({1: [("a", 2.0), ("b", 1.0), ("x", 0.5)]})
    assert evaluate_run(run, qrels).ap[1] == pytest.approx(1.0)


def test_map_hand_computed_case():
    # Relevant at ranks 1 and 3, R=2: AP = (1 + 2/3) / 2.
    qrels = make_qrels([(1, "a", 1), (1, "c", 1)])
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    assert evaluate_run(run, qrels).ap[1] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_map_empty_ranking_is_zero():
    qrels = make_qrels([(1, "a", 1)])
    run = make_run({1: []})
    assert evaluate_run(run, qrels).ap[1] == 0.0


def test_metrics_bounded_and_promoting_relevant_never_hurts():
    rng = random.Random(301)
    docs = [f"d{i:02d}" for i in range(30)]
    for _ in range(20):
        qrels = make_qrels([(1, d, rng.randint(0, 2)) for d in rng.sample(docs, 15)])
        ranked = rng.sample(docs, 20)
        run = make_run({1: [(d, float(20 - i)) for i, d in enumerate(ranked)]})
        ndcg = evaluate_run(run, qrels, 20).ndcg[1]
        ap = evaluate_run(run, qrels).ap[1]
        assert 0.0 <= ndcg <= 1.0 and 0.0 <= ap <= 1.0

        # Swap a relevant doc one step up past a strictly lower-graded doc.
        grade = lambda d: qrels.grades[1].get(d, 0)
        rel_positions = [
            i
            for i, d in enumerate(ranked)
            if i > 0
            and grade(d) >= 1
            and grade(ranked[i - 1]) < grade(d)
        ]
        if not rel_positions:
            continue
        i = rng.choice(rel_positions)
        swapped = ranked.copy()
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        run2 = make_run({1: [(d, float(20 - j)) for j, d in enumerate(swapped)]})
        assert evaluate_run(run2, qrels, 20).ndcg[1] >= ndcg - 1e-12
        assert evaluate_run(run2, qrels).ap[1] >= ap - 1e-12


def test_report_means_are_arithmetic():
    qrels = make_qrels([(1, "a", 1), (2, "a", 1), (3, "a", 1)])
    run = make_run({
        1: [("a", 1.0)],
        2: [("x", 2.0), ("a", 1.0)],
        3: [("x", 3.0), ("y", 2.0), ("a", 1.0)],
    })
    report = evaluate_run(run, qrels, k=20)
    assert report.topic_count == 3
    assert report.mean_ndcg == pytest.approx(sum(report.ndcg.values()) / 3, abs=1e-9)
    assert report.mean_ap == pytest.approx(sum(report.ap.values()) / 3, abs=1e-9)


def test_run_file_roundtrip_is_fixed_point(tmp_path):
    run = make_run(
        {2: [("b", 0.5), ("a", 0.25)], 1: [("c", 1.0 / 3.0)]}, tag="tagx"
    )
    first = tmp_path / "first.run"
    write_run(run, first)
    reparsed = parse_run(first)
    second = tmp_path / "second.run"
    write_run(reparsed, second)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "1 Q0 c 1 0.333333 tagx"
    assert lines[1] == "2 Q0 b 1 0.500000 tagx"


def test_parse_run_rejects_duplicate_docs(tmp_path):
    path = tmp_path / "bad.run"
    path.write_text("1 Q0 a 1 0.5 t\n1 Q0 a 2 0.4 t\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        parse_run(path)


def run_for_config(config: ExpansionConfig) -> Run:
    # Deterministic stand-in pipeline: better the more task terms, via rank.
    docs = [("rel", 2.0), ("other", 1.0)]
    if config.n_task_terms == 0:
        docs = list(reversed(docs))
    return make_run({1: [(d, s) for d, s in docs]}, tag="sweep")


def test_sweep_single_config():
    qrels = make_qrels([(1, "rel", 1)])
    rows = sweep([ExpansionConfig()], run_for_config, qrels)
    assert len(rows) == 1
    assert (rows[0].mean_ndcg, rows[0].mean_ap) == (1.0, 1.0)


def test_sweep_grid_shape_three_by_two():
    qrels = make_qrels([(1, "rel", 1)])
    grid = [
        ExpansionConfig(dup_query=dup, dup_question=dup, n_task_terms=n)
        for dup in (1, 2, 3)
        for n in (3, 5)
    ]
    rows = sweep(grid, run_for_config, qrels)
    assert len(rows) == 6


def test_sweep_identical_configs_identical_metrics():
    qrels = make_qrels([(1, "rel", 1)])
    rows = sweep([ExpansionConfig(), ExpansionConfig()], run_for_config, qrels)
    assert rows[0].mean_ndcg == rows[1].mean_ndcg
    assert rows[0].mean_ap == rows[1].mean_ap


VALID_RUN = "1 Q0 a 1 0.5 t\n"
VALID_QRELS = "1 0 a 1\n"


@pytest.mark.parametrize(
    "bad_file, run_text, qrels_text, line_no",
    [
        ("qrels", VALID_RUN, "1 0 a\n", 1),
        ("qrels", VALID_RUN, "1 0 a 1\n\n1 0 b x\n", 3),
        ("qrels", VALID_RUN, "1 0 a 1\n1 0 b -1\n", 2),
        ("run", "1 Q0 a 1 0.5 t\n1 Q0 a 2 0.4 t\n", VALID_QRELS, 2),
        ("run", "1 Q0 a 1 0.5 t\n2 Q0 a 1 0.5 t\n1 Q0 b 2 0.4 t\n1 Q0 a 3 0.3 t\n",
         VALID_QRELS, 4),
        ("run", "1 Q0 a 1 0.5\n", VALID_QRELS, 1),
        ("run", "1 Q0 a 1 0.5 t\nx Q0 b 2 0.4 t\n", VALID_QRELS, 2),
    ],
    ids=["qrels-three-columns", "qrels-bad-grade", "qrels-negative-grade",
         "run-repeated-doc", "run-repeated-doc-later", "run-five-columns", "run-bad-topic"],
)
def test_eval_errors_name_file_and_line(tmp_path, capsys, bad_file, run_text, qrels_text,
                                        line_no):
    run_path, qrels_path = tmp_path / "in.run", tmp_path / "in.qrels"
    run_path.write_text(run_text, encoding="utf-8")
    qrels_path.write_text(qrels_text, encoding="utf-8")
    assert main(["eval", "--run", str(run_path), "--qrels", str(qrels_path)]) == 1
    bad_path = run_path if bad_file == "run" else qrels_path
    assert f"error: {bad_path} line {line_no}: cannot parse" in capsys.readouterr().err
    parse = parse_run if bad_file == "run" else parse_qrels
    with pytest.raises(MalformedRow) as info:
        parse(bad_path)
    assert (info.value.path, info.value.line_no) == (bad_path, line_no)


judgments = st.dictionaries(
    st.tuples(st.integers(1, 5), st.sampled_from("abcdefgh")), st.integers(0, 3),
    max_size=30,
)
rankings = st.dictionaries(
    st.integers(1, 6),
    st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=10).map(
        lambda docs: [(d, 1.0 / (i + 1)) for i, d in enumerate(docs)]
    ),
    max_size=6,
)


def over_shared_table(ranked):
    """The rankings as Rankings over one doc-id table, which also holds an id
    that no topic ranks."""
    table = sorted({d for pairs in ranked.values() for d, _ in pairs} | {"unranked"})
    return {topic_id: Ranking(table, [table.index(d) for d, _ in pairs], [s for _, s in pairs])
            for topic_id, pairs in ranked.items()}


@settings(max_examples=200, deadline=None)
@given(judged=judgments, ranked=rankings, k=st.integers(1, 12),
       form=st.sampled_from(["pairs", "shared table"]))
def test_grouped_metrics_equal_per_topic_definitions(judged, ranked, k, form):
    qrels = make_qrels((t, d, g) for (t, d), g in judged.items())
    run = make_run(ranked if form == "pairs" else over_shared_table(ranked))
    assert_metrics_equal_per_topic_definitions(run, qrels, k)


def test_grouped_metrics_equal_per_topic_definitions_on_long_rankings():
    # 1,000 rows with hundreds of relevant ones: a fold in another order (a
    # pairwise numpy sum, say) would change the last bits here.
    rng = random.Random(14)
    docs = [f"d{i:04d}" for i in range(3000)]
    qrels = make_qrels([(t, d, rng.randint(0, 3)) for t in (1, 2, 3)
                        for d in rng.sample(docs, 900)])
    ranked = {t: [(d, 1.0 / (i + 1)) for i, d in enumerate(rng.sample(docs, 1000))]
              for t in (1, 2, 3)}
    for form in (ranked, over_shared_table(ranked)):
        for k in (20, 1000):
            assert_metrics_equal_per_topic_definitions(make_run(form), qrels, k)


def assert_metrics_equal_per_topic_definitions(run, qrels, k):
    """NDCG@k, AP and the residual run of every topic, each by its per-row
    definition, equal the library's, bit for bit."""
    want_ndcg, want_ap, want_residual = {}, {}, {}
    for topic_id, ranking in run.rankings.items():
        judged = qrels.grades.get(topic_id, {})
        grades = list(judged.values())
        dcg = sum(judged.get(d, 0) / math.log2(i + 1)
                  for i, (d, _) in enumerate(ranking[:k], start=1))
        ideal = sorted(grades, reverse=True)[:k]
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
        want_ndcg[topic_id] = dcg / idcg if idcg > 0 else 0.0
        relevant = sum(1 for g in grades if g >= 1)
        hits, precision_sum = 0, 0.0
        for rank, (d, _) in enumerate(ranking, start=1):
            if judged.get(d, 0) >= 1:
                hits += 1
                precision_sum += hits / rank
        want_ap[topic_id] = precision_sum / relevant if relevant else 0.0
        want_residual[topic_id] = [
            (d, s) for d, s in ranking if d not in qrels.judged(topic_id)
        ]
    report = evaluate_run(run, qrels, k)
    assert report.ndcg == want_ndcg
    assert report.ap == want_ap
    assert residual_filter(run, qrels).rankings == want_residual


def per_line_write_run(run_tag, rankings, path):
    """The run writer as one f-string per row, kept as the oracle of write_run."""
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in sorted(rankings):
            for rank, (doc_id, score) in enumerate(rankings[topic_id], start=1):
                fh.write(f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n")


def ulps_away(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


no_space = st.text(st.sampled_from("ab%d1-_\u00e9"), min_size=1, max_size=6)
signs = st.sampled_from([1.0, -1.0])
scores = st.one_of(
    st.floats(width=64),
    st.floats(-1e3, 1e3),
    # Odd multiples of 2**-7 are exact half-way cases at six decimals (0.0078125).
    st.integers(-2**12, 2**12).map(lambda m: (2 * m + 1) * 2.0**-7),
    # (k + 0.5) micro-units and the floats one ulp either side.
    st.builds(lambda k, steps, sign: sign * ulps_away((k + 0.5) * 1e-6, steps),
              st.integers(0, 10**16), st.integers(-1, 1), signs),
    # Around 2**52 micro-units, where a float stops holding half-integers.
    st.builds(lambda steps, sign: sign * ulps_away(2**52 / 1e6, steps), st.integers(-4, 4), signs),
    st.floats(-4.6e9, -4.4e9),
    st.floats(4.4e9, 4.6e9),
    # Signed zeros, tiny negatives and subnormals.
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, -4e-7, -5e-7, -6e-7]),
    st.floats(-1e-6, 1e-6),
    st.floats(-2.3e-308, 2.3e-308),
)
pair_rankings = st.dictionaries(
    st.integers(1, 500),
    st.lists(st.tuples(no_space, scores), max_size=8, unique_by=lambda pair: pair[0]),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(run_tag=no_space, ranked=pair_rankings, form=st.sampled_from(["pairs", "shared table"]))
def test_write_run_bytes_equal_the_per_line_writer(tmp_path_factory, run_tag, ranked, form):
    directory = tmp_path_factory.mktemp("runs")
    per_line_write_run(run_tag, ranked, directory / "want.run")
    run = Run(run_tag=run_tag, rankings=ranked if form == "pairs" else over_shared_table(ranked))
    write_run(run, directory / "got.run")
    assert (directory / "got.run").read_bytes() == (directory / "want.run").read_bytes()


def test_write_run_over_several_blocks_and_tables_equals_the_per_line_writer(tmp_path):
    rng = np.random.default_rng(5)
    first = [f"doc{i:05d}" for i in range(6000)]
    second = ["x", "\u00e9t\u00e9", "a-1", "b%d", "longer_doc_id_0001"]

    def random_scores(n):
        return (rng.normal(size=n) * 10.0 ** rng.integers(-8, 11, n)).tolist()

    ranked = {
        7: Ranking(first, rng.permutation(6000)[:3000], random_scores(3000)),
        10: [(f"p{i}", s) for i, s in enumerate(random_scores(5000))],  # its own table
        123: Ranking(first, rng.permutation(6000)[:2500], random_scores(2500)),  # past row 8192
        4567: Ranking(second, [4], [0.5]),
        99999: Ranking(second, rng.integers(0, 5, 1200), random_scores(1200)),
        -3: Ranking(first, [5999, 0], [-0.0, float("nan")]),
    }
    run = Run(run_tag="long-run", rankings=ranked)
    assert sum(map(len, run.rankings.values())) > 8192 * 1.2
    pairs = {topic_id: list(ranking) for topic_id, ranking in run.rankings.items()}
    per_line_write_run("long-run", pairs, tmp_path / "want.run")
    write_run(run, tmp_path / "got.run")
    assert (tmp_path / "got.run").read_bytes() == (tmp_path / "want.run").read_bytes()


@pytest.mark.parametrize("doc_id, run_tag", [("doc01\udc80", "t"), ("doc01", "t\udc80")])
def test_write_run_encodes_before_it_opens_the_file(tmp_path, doc_id, run_tag):
    path = tmp_path / "kept.run"
    path.write_bytes(b"1 Q0 a 1 1.000000 t\n")
    run = make_run({1: [("a", 1.0)], 2: [(doc_id, 0.5)]}, run_tag)
    with pytest.raises(UnicodeEncodeError):
        write_run(run, path)
    assert path.read_bytes() == b"1 Q0 a 1 1.000000 t\n"
    # Only the ids a run ranks are encoded, not the rest of their table.
    write_run(make_run({1: Ranking(("a", doc_id), [0], [1.0])}), path)
    assert path.read_bytes() == b"1 Q0 a 1 1.000000 test\n"


def test_write_run_that_fails_after_open_leaves_no_partial_file(tmp_path, monkeypatch):
    def full_disk(scores):
        raise OSError(28, "No space left on device")

    path = tmp_path / "partial.run"
    path.write_bytes(b"1 Q0 a 1 1.000000 t\n")
    monkeypatch.setattr(evaluation, "_score_text", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        write_run(make_run({1: [("a", 1.0)]}), path)
    assert not path.exists()


def test_ranking_is_a_read_only_sequence_of_pairs():
    ranking = Ranking(("x", "a", "b", "c"), [3, 1, 2], [0.5, 0.25, -1.0])
    assert len(ranking) == 3
    assert list(ranking) == [("c", 0.5), ("a", 0.25), ("b", -1.0)]
    assert ranking[1] == ("a", 0.25) and ranking[-1] == ("b", -1.0)
    assert isinstance(ranking[:2], Ranking) and list(ranking[:2]) == [("c", 0.5), ("a", 0.25)]
    assert ranking == [("c", 0.5), ("a", 0.25), ("b", -1.0)]
    assert ranking != [("c", 0.5)]
    for values in (ranking.positions, ranking.scores):
        with pytest.raises(ValueError):
            values[0] = 0
    with pytest.raises(ValueError):
        Ranking(("a",), [0, 0], [1.0])


@pytest.mark.parametrize("position", [-1, 2, 5])
def test_ranking_rejects_a_position_outside_its_table(position):
    # Read as an index, -1 would name "b"; a table stacked after another
    # would name the other table's last id.
    with pytest.raises(ValueError, match=r"positions must lie in \[0, 2\)"):
        Ranking(("a", "b"), [0, position], [1.0, 0.5])
    assert list(Ranking(("a", "b"), [1, 0], [1.0, 0.5])) == [("b", 1.0), ("a", 0.5)]
    assert len(Ranking((), [], [])) == len(Ranking(("a",), [], [])) == 0


def test_pairs_entering_a_run_become_rankings_with_one_row_per_pair():
    run = Run(run_tag="t", rankings={1: [("a", 2.0), ("b", 1.0), ("a", 0.5)], 2: []})
    assert all(isinstance(r, Ranking) for r in run.rankings.values())
    assert list(run.rankings[1]) == [("a", 2.0), ("b", 1.0), ("a", 0.5)]
    assert len(run.rankings[2]) == 0
    qrels = make_qrels([(1, "a", 1)])
    assert evaluate_run(run, qrels).ap[1] == (1 / 1 + 2 / 3) / 1
    assert residual_filter(run, qrels).rankings[1] == [("b", 1.0)]


def test_run_rankings_take_no_assignment_after_construction():
    run = make_run({1: [("a", 1.0)]})
    with pytest.raises(TypeError):
        run.rankings[2] = [("b", 2.0)]
    assert list(run.rankings) == [1]
    assert evaluate_run(run, make_qrels([(1, "a", 1)])).ap == {1: 1.0}


def test_parse_run_shares_one_doc_id_table(tmp_path):
    path = tmp_path / "in.run"
    path.write_text("2 Q0 b 1 0.5 t\n1 Q0 a 2 0.25 t\n1 Q0 b 1 0.5 t\n", encoding="utf-8")
    run = parse_run(path)
    assert run.rankings == {1: [("b", 0.5), ("a", 0.25)], 2: [("b", 0.5)]}
    assert run.rankings[1].doc_ids is run.rankings[2].doc_ids
