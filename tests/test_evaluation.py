import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.cli import main
from taskrank.errors import MalformedRow
from taskrank.evaluation import (
    Qrels,
    Run,
    evaluate_run,
    map_metric,
    ndcg_at_k,
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
        q.judgments[(topic, doc)] = grade
    return q


def make_run(rankings, tag="test"):
    run = Run(run_tag=tag)
    for topic, docs in rankings.items():
        run.rankings[topic] = docs
    return run


def test_parse_qrels_direct_row(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 doc7 2\n", encoding="utf-8")
    qrels = parse_qrels(path)
    assert qrels.grade(1, "doc7") == 2


def test_parse_qrels_empty_file(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("", encoding="utf-8")
    assert len(parse_qrels(path)) == 0


def test_parse_qrels_duplicate_last_wins(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 d 0\n1 0 d 2\n", encoding="utf-8")
    qrels = parse_qrels(path)
    assert qrels.grade(1, "d") == 2
    assert qrels.duplicate_rows == 1


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
    assert qrels.judgments == expected
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
        judged = {d for (t, d) in prior.judgments if t == topic}
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
    assert ndcg_at_k(run, qrels, 3)[1] == pytest.approx(1.0)


def test_ndcg_hand_computed_case():
    # Grades at ranks 1..3 are [2, 0, 1]; judged grades {2, 1, 0}.
    # DCG = 2 + 0 + 1/2 = 2.5; IDCG = 2 + 1/log2(3).
    qrels = make_qrels([(1, "a", 2), (1, "c", 1), (1, "b", 0)])
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    value = ndcg_at_k(run, qrels, 3)[1]
    expected = 2.5 / (2.0 + 1.0 / math.log2(3.0))
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.95023, abs=1e-5)


def test_ndcg_no_relevant_judged_is_zero():
    qrels = make_qrels([(1, "a", 0)])
    run = make_run({1: [("a", 1.0)]})
    assert ndcg_at_k(run, qrels, 20)[1] == 0.0


def test_ndcg_unjudged_docs_count_zero_gain():
    qrels = make_qrels([(1, "rel", 2)])
    run = make_run({1: [("mystery", 2.0), ("rel", 1.0)]})
    value = ndcg_at_k(run, qrels, 2)[1]
    assert value == pytest.approx((2.0 / math.log2(3.0)) / 2.0)


def test_map_all_relevant_on_top():
    qrels = make_qrels([(1, "a", 1), (1, "b", 2)])
    run = make_run({1: [("a", 2.0), ("b", 1.0), ("x", 0.5)]})
    assert map_metric(run, qrels)[1] == pytest.approx(1.0)


def test_map_hand_computed_case():
    # Relevant at ranks 1 and 3, R=2: AP = (1 + 2/3) / 2.
    qrels = make_qrels([(1, "a", 1), (1, "c", 1)])
    run = make_run({1: [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    assert map_metric(run, qrels)[1] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_map_empty_ranking_is_zero():
    qrels = make_qrels([(1, "a", 1)])
    run = make_run({1: []})
    assert map_metric(run, qrels)[1] == 0.0


def test_metrics_bounded_and_promoting_relevant_never_hurts():
    rng = random.Random(301)
    docs = [f"d{i:02d}" for i in range(30)]
    for _ in range(20):
        qrels = make_qrels([(1, d, rng.randint(0, 2)) for d in rng.sample(docs, 15)])
        ranked = rng.sample(docs, 20)
        run = make_run({1: [(d, float(20 - i)) for i, d in enumerate(ranked)]})
        ndcg = ndcg_at_k(run, qrels, 20)[1]
        ap = map_metric(run, qrels)[1]
        assert 0.0 <= ndcg <= 1.0 and 0.0 <= ap <= 1.0

        # Swap a relevant doc one step up past a strictly lower-graded doc.
        rel_positions = [
            i
            for i, d in enumerate(ranked)
            if i > 0
            and qrels.grade(1, d) >= 1
            and qrels.grade(1, ranked[i - 1]) < qrels.grade(1, d)
        ]
        if not rel_positions:
            continue
        i = rng.choice(rel_positions)
        swapped = ranked.copy()
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        run2 = make_run({1: [(d, float(20 - j)) for j, d in enumerate(swapped)]})
        assert ndcg_at_k(run2, qrels, 20)[1] >= ndcg - 1e-12
        assert map_metric(run2, qrels)[1] >= ap - 1e-12


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
    assert rows[0].error is None


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


def test_sweep_marks_failed_cells_and_sorts_them_last():
    qrels = make_qrels([(1, "rel", 1)])

    def flaky(config):
        if config.n_task_terms == 5:
            raise RuntimeError("boom")
        return run_for_config(config)

    rows = sweep([ExpansionConfig(n_task_terms=5), ExpansionConfig()], flaky, qrels)
    assert rows[0].error is None
    assert rows[1].error == "boom"
    assert rows[1].mean_ndcg is None


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


@settings(max_examples=200, deadline=None)
@given(judged=judgments, ranked=rankings, k=st.integers(1, 12))
def test_grouped_metrics_equal_per_topic_definitions(judged, ranked, k):
    qrels = Qrels(judgments=dict(judged))
    run = make_run(ranked)
    want_ndcg, want_ap, want_residual = {}, {}, {}
    for topic_id, ranking in run.rankings.items():
        grades = [g for (t, _d), g in qrels.judgments.items() if t == topic_id]
        dcg = sum(qrels.grade(topic_id, d) / math.log2(i + 1)
                  for i, (d, _) in enumerate(ranking[:k], start=1))
        ideal = sorted(grades, reverse=True)[:k]
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
        want_ndcg[topic_id] = dcg / idcg if idcg > 0 else 0.0
        relevant = sum(1 for g in grades if g >= 1)
        hits, precision_sum = 0, 0.0
        for rank, (d, _) in enumerate(ranking, start=1):
            if qrels.grade(topic_id, d) >= 1:
                hits += 1
                precision_sum += hits / rank
        want_ap[topic_id] = precision_sum / relevant if relevant else 0.0
        want_residual[topic_id] = [
            (d, s) for d, s in ranking if d not in qrels.judged(topic_id)
        ]
    assert ndcg_at_k(run, qrels, k) == want_ndcg
    assert map_metric(run, qrels) == want_ap
    assert residual_filter(run, qrels).rankings == want_residual
