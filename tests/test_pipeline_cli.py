import json
from dataclasses import replace
from pathlib import Path

import pytest

from taskrank import cli, pipeline as pipeline_module
from taskrank.cli import main
from taskrank.corpus import load_collection
from taskrank.evaluation import Run, parse_run, write_run
from taskrank.indexing import IndexVariant, InvertedIndex, TokenizedCollection, Tokenizer
from taskrank.pipeline import Pipeline, PipelineConfig, RunVariant
from taskrank.querygen import (
    ConfidenceMode,
    ExpansionConfig,
    LexiconExtractor,
    select_task_terms,
)
from taskrank.tasks import load_manual_map, load_tasks


def mini_args(mini, *extra):
    return [
        "--corpus", mini["corpus"],
        "--topics", mini["topics"],
        "--tasks", mini["tasks"],
        "--lexicon", mini["lexicon"],
        *extra,
    ]


def test_run_hand_traced_three_doc_golden(tmp_path):
    # Three body-less docs make all three indices identical, so each fused
    # score is 3/(60+rank). With k1=0.9, b=0.4 and query "alpha":
    #   d2: tf=1, len=1 beats d1: tf=1, len=2; d3 never matches.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"doc_id": "d1", "title": "alpha beta"}\n'
        '{"doc_id": "d2", "title": "alpha"}\n'
        '{"doc_id": "d3", "title": "gamma"}\n',
        encoding="utf-8",
    )
    topics = tmp_path / "topics.jsonl"
    topics.write_text('{"topic_id": 1, "query": "alpha"}\n', encoding="utf-8")
    out = tmp_path / "out.run"
    code = main([
        "run", "--corpus", str(corpus), "--topics", str(topics),
        "--variant", "query", "--output", str(out),
    ])
    assert code == 0
    expected = (
        "1 Q0 d2 1 0.049180 query\n"
        "1 Q0 d1 2 0.048387 query\n"
    )
    assert out.read_text(encoding="utf-8") == expected


def test_run_reproduces_golden_files(mini, golden_dir, tmp_path):
    out = tmp_path / "query.run"
    code = main(["run", *mini_args(mini), "--variant", "query", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (golden_dir / "query.run").read_bytes()

    out2 = tmp_path / "qut.run"
    code = main([
        "run", *mini_args(mini, "--manual-map", mini["manual_map"]),
        "--variant", "query+udel+task", "--output", str(out2),
    ])
    assert code == 0
    assert out2.read_bytes() == (golden_dir / "query_udel_task.run").read_bytes()


def test_task_expansion_with_zero_terms_equals_plain_query(mini, tmp_path):
    plain = tmp_path / "plain.run"
    expanded = tmp_path / "expanded.run"
    assert main([
        "run", *mini_args(mini), "--variant", "query",
        "--run-tag", "same", "--output", str(plain),
    ]) == 0
    assert main([
        "run", *mini_args(mini, "--manual-map", mini["manual_map"]),
        "--variant", "query+task", "--n-task-terms", "0",
        "--run-tag", "same", "--output", str(expanded),
    ]) == 0
    assert plain.read_bytes() == expanded.read_bytes()


def test_run_missing_topics_file_fails_without_output(mini, tmp_path, capsys):
    out = tmp_path / "never.run"
    code = main([
        "run", "--corpus", mini["corpus"], "--topics", str(tmp_path / "absent.jsonl"),
        "--variant", "query", "--output", str(out),
    ])
    assert code != 0
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_run_rerank_variants_and_requirements(mini, tmp_path):
    ok = main([
        "run", *mini_args(mini, "--qrels", mini["qrels"]),
        "--variant", "journal.prior", "--output", str(tmp_path / "jp.run"),
    ])
    assert ok == 0
    missing = main([
        "run", *mini_args(mini),
        "--variant", "journal.prior", "--output", str(tmp_path / "nope.run"),
    ])
    assert missing != 0
    assert not (tmp_path / "nope.run").exists()

    ok = main([
        "run",
        *mini_args(
            mini, "--qrels", mini["qrels"], "--manual-map", mini["manual_map"]
        ),
        "--variant", "journal.task", "--output", str(tmp_path / "jt.run"),
    ])
    assert ok == 0

    ok = main([
        "run",
        *mini_args(
            mini, "--vectors", mini["vectors"], "--manual-map", mini["manual_map"]
        ),
        "--variant", "vector", "--output", str(tmp_path / "vec.run"),
    ])
    assert ok == 0


def test_run_output_roundtrips(mini, golden_dir, tmp_path):
    run = parse_run(golden_dir / "query.run")
    rewritten = tmp_path / "rewritten.run"
    write_run(run, rewritten)
    assert rewritten.read_bytes() == (golden_dir / "query.run").read_bytes()


def test_eval_perfect_fixture(tmp_path, capsys):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 a 2\n1 0 b 1\n", encoding="utf-8")
    run = tmp_path / "perfect.run"
    run.write_text("1 Q0 a 1 2.000000 t\n1 Q0 b 2 1.000000 t\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_ndcg"] == pytest.approx(1.0)
    assert payload["mean_map"] == pytest.approx(1.0)


def test_eval_hand_computed_case(tmp_path, capsys):
    # DCG = 2.5, IDCG = 2 + 1/log2(3): NDCG = 0.9502344167898356
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 a 2\n1 0 c 1\n1 0 b 0\n", encoding="utf-8")
    run = tmp_path / "hand.run"
    run.write_text(
        "1 Q0 a 1 3.000000 t\n1 Q0 b 2 2.000000 t\n1 Q0 c 3 1.000000 t\n",
        encoding="utf-8",
    )
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--k", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_ndcg"] == pytest.approx(0.9502344167898356, abs=1e-6)
    assert payload["mean_map"] == pytest.approx(5.0 / 6.0, abs=1e-6)


def test_eval_warns_on_unjudged_topics(tmp_path, capsys):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 a 1\n", encoding="utf-8")
    run = tmp_path / "r.run"
    run.write_text("1 Q0 a 1 1.000000 t\n9 Q0 a 1 1.000000 t\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--json"]) == 0
    captured = capsys.readouterr()
    assert "9" in captured.err
    payload = json.loads(captured.out)
    assert payload["topics"]["9"]["ndcg"] == 0.0


def test_eval_warns_on_judged_topics_missing_from_run(tmp_path, capsys):
    # The means divide by the run's topic count: topics 2 and 3 are judged but
    # absent from the run, so they are named and not scored.
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 a 1\n2 0 b 1\n3 0 c 0\n", encoding="utf-8")
    run = tmp_path / "r.run"
    run.write_text("1 Q0 a 1 1.000000 t\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: judged topics [2, 3] not in the run; not scored"
    ]
    payload = json.loads(captured.out)
    assert payload["topic_count"] == 1
    assert payload["mean_ndcg"] == payload["mean_map"] == 1.0


def test_eval_residual_filtering(tmp_path, capsys):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 b 1\n", encoding="utf-8")
    prior = tmp_path / "prior.txt"
    prior.write_text("1 0 a 1\n", encoding="utf-8")
    run = tmp_path / "r.run"
    run.write_text("1 Q0 a 1 2.000000 t\n1 Q0 b 2 1.000000 t\n", encoding="utf-8")
    assert main([
        "eval", "--run", str(run), "--qrels", str(qrels),
        "--residual-qrels", str(prior), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    # doc a is filtered out, so b moves to rank 1.
    assert payload["mean_ndcg"] == pytest.approx(1.0)


def test_classify_single_topic_single_task(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        '{"task_id": "only", "title": "Only", "description": "anything"}\n',
        encoding="utf-8",
    )
    topics = tmp_path / "topics.jsonl"
    topics.write_text('{"topic_id": 1, "query": "whatever"}\n', encoding="utf-8")
    assert main(["classify", "--topics", str(topics), "--tasks", str(tasks)]) == 0
    out = capsys.readouterr().out
    assert "only" in out


def test_classify_mini_fixture_agreement(mini, capsys):
    assert main([
        "classify", "--topics", mini["topics"], "--tasks", mini["tasks"],
        "--manual-map", mini["manual_map"],
    ]) == 0
    out = capsys.readouterr().out
    assert "agreement 1.0000" in out


def test_classify_disjoint_vocabulary_fixture_full_agreement(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        "".join(
            json.dumps({
                "task_id": f"syn-{t}",
                "title": f"Task {t}",
                "description": " ".join(f"task{t}word{w}" for w in range(8)),
            }) + "\n"
            for t in range(4)
        ),
        encoding="utf-8",
    )
    topics = tmp_path / "topics.jsonl"
    topics.write_text(
        "".join(
            json.dumps({"topic_id": i, "query": f"task{i % 4}word1 task{i % 4}word5"})
            + "\n"
            for i in range(12)
        ),
        encoding="utf-8",
    )
    manual = tmp_path / "map.txt"
    manual.write_text(
        "".join(f"{i} syn-{i % 4} 3\n" for i in range(12)), encoding="utf-8"
    )
    assert main([
        "classify", "--topics", str(topics), "--tasks", str(tasks),
        "--manual-map", str(manual),
    ]) == 0
    assert "agreement 1.0000" in capsys.readouterr().out


def test_classify_mismatched_manual_map_fails(mini, tmp_path, capsys):
    bad_map = tmp_path / "map.txt"
    bad_map.write_text("1 transmission 3\n", encoding="utf-8")
    code = main([
        "classify", "--topics", mini["topics"], "--tasks", mini["tasks"],
        "--manual-map", str(bad_map),
    ])
    assert code != 0


def test_sweep_cli_grid(mini, tmp_path, capsys):
    grid = tmp_path / "grid.jsonl"
    grid.write_text(
        "".join(
            json.dumps({"dup_query": dup, "dup_question": dup, "n_task_terms": n}) + "\n"
            for dup in (1, 2, 3)
            for n in (3, 5)
        ),
        encoding="utf-8",
    )
    code = main([
        "sweep", *mini_args(mini, "--manual-map", mini["manual_map"]),
        "--qrels", mini["qrels"], "--grid", str(grid),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("task, n=") == 6


def test_priors_cli_global_and_per_task(mini, tmp_path, capsys):
    assert main(["priors", "--qrels", mini["qrels"], "--corpus", mini["corpus"]]) == 0
    out = capsys.readouterr().out
    assert "the lancet\t1.000000" in out
    assert "bioinformatics\t-1.000000" in out

    target = tmp_path / "per_task.tsv"
    assert main([
        "priors", "--qrels", mini["qrels"], "--corpus", mini["corpus"],
        "--per-task", "--manual-map", mini["manual_map"], "--tasks", mini["tasks"],
        "--output", str(target),
    ]) == 0
    text = target.read_text(encoding="utf-8")
    assert "vaccines\tvaccine\t1.000000" in text
    assert "transmission\tvaccine\t-1.000000" in text


def test_index_stats_cli(mini, capsys):
    assert main(["index-stats", "--corpus", mini["corpus"]]) == 0
    out = capsys.readouterr().out
    assert "fulltext" in out and "paragraph" in out
    # 15 units: nine docs with paragraphs plus one body-less doc.
    assert " 15 " in out
    header, *rows = out.splitlines()
    assert header.split() == ["variant", "docs", "units", "avg_len", "vocab", "bytes"]
    collection = load_collection(mini["corpus"])
    tok = Tokenizer()
    heads = {t for doc in collection for t in tok.tokenize(f"{doc.title} {doc.abstract}")}
    bodies = {t for doc in collection for p in doc.body for t in tok.tokenize(p)}
    want_vocab = {"fulltext": heads | bodies, "title-abstract": heads, "paragraph": heads | bodies}
    tokens = TokenizedCollection(collection)
    for row in rows:
        name, _docs, _units, _avg, vocab, nbytes = row.split()
        assert int(vocab) == len(want_vocab[name])
        assert int(nbytes) == InvertedIndex(tokens, IndexVariant(name)).nbytes > 0


def test_pipeline_setup_tokenizes_each_head_and_paragraph_once(mini):
    texts = []

    class CountingTokenizer(Tokenizer):
        def tokenize(self, text):
            texts.append(text)
            return super().tokenize(text)

    config = PipelineConfig(corpus_path=mini["corpus"], topics_path=mini["topics"])
    pipeline = Pipeline(config, tokenizer=CountingTokenizer())
    collection = pipeline.collection
    paragraphs = sum(len(doc.body) for doc in collection)
    assert paragraphs > 0
    assert len(texts) == len(collection) + paragraphs
    assert sorted(texts) == sorted(
        text for doc in collection for text in (f"{doc.title} {doc.abstract}", *doc.body)
    )


def test_select_terms_cli(mini, capsys):
    assert main([
        "select-terms", "--corpus", mini["corpus"], "--tasks", mini["tasks"],
        "--lexicon", mini["lexicon"], "--n", "3",
    ]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    for line in lines:
        task_id, terms = line.split("\t")
        assert task_id in {"transmission", "vaccines"}
        assert len(terms.split(", ")) == 3


def test_config_file_with_flag_precedence(mini, tmp_path):
    config = {
        "corpus": mini["corpus"],
        "topics": mini["topics"],
        "tasks": mini["tasks"],
        "lexicon": mini["lexicon"],
        "variant": "query",
        "run_tag": "fromfile",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    out1 = tmp_path / "one.run"
    assert main(["run", "--config", str(config_path), "--output", str(out1)]) == 0
    assert out1.read_text().splitlines()[0].endswith("fromfile")

    out2 = tmp_path / "two.run"
    assert main([
        "run", "--config", str(config_path), "--run-tag", "fromflag",
        "--output", str(out2),
    ]) == 0
    assert out2.read_text().splitlines()[0].endswith("fromflag")


def counting(monkeypatch, name):
    """Replace ``taskrank.pipeline.<name>`` with a wrapper; return its call list."""
    calls = []
    original = getattr(pipeline_module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, name, wrapper)
    return calls


def test_sweep_builds_each_index_once(mini, monkeypatch, tmp_path, capsys):
    grid = tmp_path / "grid.jsonl"
    grid.write_text(
        "".join(json.dumps({"n_task_terms": n}) + "\n" for n in (0, 1, 3, 5)),
        encoding="utf-8",
    )
    builds = counting(monkeypatch, "InvertedIndex")
    assert main([
        "sweep", *mini_args(mini, "--manual-map", mini["manual_map"]),
        "--qrels", mini["qrels"], "--grid", str(grid),
    ]) == 0
    assert capsys.readouterr().out.count("task, n=") == 4
    assert sorted(variant.value for _tokens, variant in builds) == sorted(
        variant.value for variant in IndexVariant
    )


def test_journal_task_loads_the_manual_map_once(mini, monkeypatch):
    loads = counting(monkeypatch, "load_manual_map")
    Pipeline(PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        variant=RunVariant.JOURNAL_TASK, qrels_path=mini["qrels"],
        manual_map_path=mini["manual_map"],
    ))
    assert len(loads) == 1


@pytest.mark.parametrize("variant", [RunVariant.QUERY_TASK, RunVariant.QUERY_UDEL_TASK])
def test_with_expansion_runs_equal_fresh_pipelines(mini, monkeypatch, variant):
    base = PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        lexicon_path=mini["lexicon"], manual_map_path=mini["manual_map"], variant=variant,
    )
    extractor = LexiconExtractor.from_file(mini["lexicon"])
    framework = load_tasks(mini["tasks"])
    task_of = {a.topic_id: a.task_id for a in load_manual_map(mini["manual_map"], framework)}
    most_terms = max(len(set(extractor.extract(task.description))) for task in framework)
    pipeline = Pipeline(base)
    abstracts = pipeline.indices[IndexVariant.TITLE_ABSTRACT]
    generated = counting(monkeypatch, "generate_task_expanded")
    for n in range(most_terms + 2):
        for route in (True, False):
            for mode in ConfidenceMode:
                expansion = ExpansionConfig(n_task_terms=n, confidence_mode=mode,
                                            route_task_terms_fulltext_only=route)
                generated.clear()
                rankings = pipeline.with_expansion(expansion).run().rankings
                # Each topic gets its task's top n terms, as a direct selection picks them.
                assert len(generated) == len(pipeline.topics)
                for topic, _base, task_terms, _expansion in generated:
                    task = framework.get(task_of[topic.topic_id])
                    assert task_terms == select_task_terms(task, abstracts, extractor, n)
                fresh = Pipeline(replace(base, expansion=expansion)).run()
                assert rankings == fresh.rankings


def test_with_expansion_leaves_the_original_untouched(mini):
    config = PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        manual_map_path=mini["manual_map"], variant=RunVariant.QUERY_TASK,
    )
    before = replace(config)
    pipeline = Pipeline(config)
    expansion = ExpansionConfig(n_task_terms=1, dup_query=1)
    other = pipeline.with_expansion(expansion)
    assert pipeline.config is config and config == before
    assert other.config == replace(before, expansion=expansion)
    assert other.indices is pipeline.indices and other.collection is pipeline.collection


def test_sweep_missing_topics_file_is_one_error(mini, tmp_path, capsys):
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n{"n_task_terms": 2}\n', encoding="utf-8")
    absent = tmp_path / "absent.jsonl"
    code = main([
        "sweep", "--corpus", mini["corpus"], "--topics", str(absent),
        "--qrels", mini["qrels"], "--grid", str(grid),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAILED" not in captured.out
    errors = captured.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error:") and str(absent) in errors[0]


def test_unreadable_grid_fails(mini, tmp_path):
    code = main([
        "sweep", *mini_args(mini), "--qrels", mini["qrels"],
        "--grid", str(tmp_path / "missing.jsonl"),
    ])
    assert code != 0


class RecordingPipeline:
    """Stands in for Pipeline: records the config it is built with and each
    with_expansion config, and returns an empty run."""

    def __init__(self, configs):
        self.configs = configs

    def __call__(self, config):
        self.configs.append(config)
        self.config = config
        return self

    def with_expansion(self, expansion):
        self.configs.append(replace(self.config, expansion=expansion))
        return self

    def run(self):
        return Run(run_tag="recorded")


def test_run_without_setting_flags_uses_dataclass_defaults(monkeypatch, tmp_path):
    configs = []
    monkeypatch.setattr(cli, "Pipeline", RecordingPipeline(configs))
    assert main([
        "run", "--corpus", "c.jsonl", "--topics", "t.jsonl",
        "--output", str(tmp_path / "out.run"),
    ]) == 0
    assert configs == [PipelineConfig(corpus_path="c.jsonl", topics_path="t.jsonl")]


def test_sweep_grid_lines_map_onto_expansion_defaults(mini, monkeypatch, tmp_path):
    grid = tmp_path / "grid.jsonl"
    grid.write_text(
        '{}\n'
        '{"dup_query": "2", "confidence_mode": "gate", "route_task_terms": false}\n',
        encoding="utf-8",
    )
    configs = []
    monkeypatch.setattr(cli, "Pipeline", RecordingPipeline(configs))
    assert main([
        "sweep", "--corpus", "c.jsonl", "--topics", "t.jsonl",
        "--qrels", mini["qrels"], "--grid", str(grid),
    ]) == 0
    built, *cells = configs
    assert built.expansion == ExpansionConfig()
    assert [c.expansion for c in cells] == [
        ExpansionConfig(),
        ExpansionConfig(dup_query=2, confidence_mode=ConfidenceMode.GATE,
                        route_task_terms_fulltext_only=False),
    ]
    assert {c.variant for c in configs} == {RunVariant.QUERY_TASK}


@pytest.mark.parametrize("line, complaint", [
    ('{"dup_qeury": 5}', "'dup_qeury'"),
    ('{"k1": 1.2}', "'k1'"),
    ('{"route_task_terms": "false"}', "route_task_terms"),
    ('{"dup_query": "many"}', "dup_query"),
    ('{"dup_query": 0}', "dup_query"),
    ("[1]", "cannot parse"),
    ('{"dup_query": ', "cannot parse"),
])
def test_sweep_rejects_bad_grid_line_naming_file_and_line(
        mini, tmp_path, capsys, line, complaint):
    grid = tmp_path / "grid.jsonl"
    grid.write_text("{}\n" + line + "\n", encoding="utf-8")
    code = main([
        "sweep", *mini_args(mini), "--qrels", mini["qrels"], "--grid", str(grid),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{grid} line 2" in err and complaint in err


@pytest.mark.parametrize("settings, complaint", [
    ({"dup_qeury": 5}, "'dup_qeury'"),
    ({"route_task_terms": "false"}, "route_task_terms"),
    ({"variant": "no-such-variant"}, "variant"),
])
def test_config_file_rejects_bad_settings_naming_file(
        mini, tmp_path, capsys, settings, complaint):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"corpus": mini["corpus"], "topics": mini["topics"], **settings}),
        encoding="utf-8",
    )
    out = tmp_path / "never.run"
    code = main(["run", "--config", str(config_path), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(config_path) in err and complaint in err


@pytest.mark.parametrize("command", ["run", "index-stats"])
@pytest.mark.parametrize("bad_line, reason", [
    ("not json", "Expecting value"),
    ('{"title": "no id"}', "missing or empty doc_id"),
    ('{"doc_id": "doc02", "title": "again"}', "duplicate doc_id 'doc02'"),
])
def test_bad_corpus_line_is_one_error_naming_file_and_line(
        mini, tmp_path, capsys, command, bad_line, reason):
    text = Path(mini["corpus"]).read_text(encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(text + bad_line + "\n", encoding="utf-8")
    line_no = len(text.splitlines()) + 1
    out = tmp_path / "never.run"
    if command == "run":
        argv = ["run", *mini_args({**mini, "corpus": str(corpus)}), "--output", str(out)]
    else:
        argv = ["index-stats", "--corpus", str(corpus)]
    assert main(argv) == 1
    assert not out.exists()
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: {corpus} line {line_no}: ")
    assert reason in error


@pytest.mark.parametrize("row, reason", [
    ("doc02 0.1 abc 0.0 0.0", "could not convert string to float: 'abc'"),
    ("doc02 0.1 nan 0.0 0.0", "values must be finite"),
    ("doc02 0.1 inf 0.0 0.0", "values must be finite"),
    ("doc02", "no values"),
    ("doc02 0.1 0.2 0.3", "3 values, expected 4"),
    ("transmission 1.0 0.0 0.2 0.2", "repeats key 'transmission'"),
])
def test_vector_run_rejects_bad_vectors_row_naming_file_and_line(
        mini, tmp_path, capsys, row, reason):
    text = Path(mini["vectors"]).read_text(encoding="utf-8")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(text + row + "\n", encoding="utf-8")
    line_no = len(text.splitlines()) + 1
    out = tmp_path / "never.run"
    code = main([
        "run", *mini_args(mini, "--vectors", str(vectors), "--manual-map", mini["manual_map"]),
        "--variant", "vector", "--output", str(out),
    ])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: {vectors} line {line_no}: cannot parse {row!r} ({reason})"
    ]
