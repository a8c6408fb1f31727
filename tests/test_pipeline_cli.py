import gc
import json
import math
import random
import re
import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from taskrank import cli, evaluation, pipeline as pipeline_module
from taskrank.cli import main
from taskrank.corpus import Document, load_collection
from taskrank.errors import TaskRankError
from taskrank.evaluation import Ranking, Run, parse_run, write_run
from taskrank.indexing import (
    IndexVariant,
    InvertedIndex,
    TokenizedCollection,
    Tokenizer,
    build_index,
    default_stopwords,
)
from taskrank.pipeline import Pipeline, PipelineConfig, RunVariant, load_corpus
from taskrank.querygen import (
    ConfidenceMode,
    ExpansionConfig,
    LexiconExtractor,
    select_task_terms,
)
from taskrank.rerank import InMemoryVectorProvider, RerankConfig
from taskrank.tasks import TaskClassifier, load_manual_map, load_tasks, load_topics


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


def test_run_rejects_a_doc_id_utf8_cannot_encode_at_its_corpus_line(mini, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    lines = Path(mini["corpus"]).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    record["doc_id"] = "doc01\udc80"
    lines[3] = json.dumps(record)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "never.run"
    code = main(["run", *mini_args({**mini, "corpus": str(corpus)}), "--variant", "query",
                 "--output", str(out)])
    assert code != 0
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{corpus} line 4: " in err and "cannot be encoded as UTF-8" in err


@pytest.mark.parametrize("variant", list(RunVariant), ids=lambda v: v.value)
def test_corpus_line_order_never_changes_a_run(mini, tmp_path, variant):
    # Documents are numbered in doc_id order, whatever the corpus file's line
    # order, so every tie and every run file comes out the same.
    lines = Path(mini["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = lines.copy()
    random.Random(variant.value).shuffle(shuffled)
    assert shuffled != lines
    corpus = tmp_path / "shuffled.jsonl"
    corpus.write_text("".join(shuffled), encoding="utf-8")
    _journal_of, indices = load_corpus(corpus, IndexVariant)
    for index in indices.values():
        assert list(index.doc_ids) == sorted(index.doc_ids)
    inputs = ["--manual-map", mini["manual_map"], "--qrels", mini["qrels"],
              "--vectors", mini["vectors"], "--variant", variant.value]
    runs = []
    for path in (mini["corpus"], corpus):
        out = tmp_path / f"{len(runs)}.run"
        assert main(["run", *mini_args({**mini, "corpus": str(path)}, *inputs),
                     "--output", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1] and runs[0]


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


def test_vector_run_without_alpha_uses_the_alpha_its_help_names(mini, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    named = re.search(r"vector variant: (\S+) unless set",
                      " ".join(capsys.readouterr().out.split())).group(1)
    runs = {}
    for alpha in [None, named, str(RerankConfig.alpha)]:
        out = tmp_path / f"{alpha}.run"
        assert main([
            "run", *mini_args(mini, "--vectors", mini["vectors"],
                              "--manual-map", mini["manual_map"]),
            "--variant", "vector", "--output", str(out),
            *(["--alpha", alpha] if alpha else []),
        ]) == 0
        runs[alpha] = out.read_bytes()
    assert runs[None] == runs[named]
    # The mini fixture's vector run tells the help's alpha from the dataclass default.
    assert runs[None] != runs[str(RerankConfig.alpha)]


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


def test_eval_orders_each_topic_by_the_rank_column_not_by_score(tmp_path, capsys):
    # trec_eval would sort by score (then docno), both descending, rank b
    # first and score 1.0 on both metrics; eval reads a at rank 1.
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 b 1\n", encoding="utf-8")
    run = tmp_path / "r.run"
    run.write_text("1 Q0 a 1 0.1 t\n1 Q0 b 2 0.9 t\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["topics"]["1"] == {"ndcg": 1 / math.log2(3), "ap": 0.5}
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["all", "0.6309", "0.5000"]


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


def priors_oracle(corpus, qrels, topics=None):
    """``journal<TAB>prior`` lines counted from the raw corpus JSON and qrels
    rows: a journal is its lowercase [0-9a-z] runs joined by single spaces, a
    document without one counts for none, and a repeated row's last grade
    stands. Only ``topics``' rows count when given."""
    journal_of = {}
    for line in Path(corpus).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs = re.findall("[0-9a-z]+", record.get("journal", "").lower())
        journal_of[record["doc_id"]] = " ".join(runs)
    grades = {}
    for line in Path(qrels).read_text(encoding="utf-8").splitlines():
        topic, _, doc_id, grade = line.split()
        grades[int(topic), doc_id] = int(grade)
    counts = {}
    for (topic, doc_id), grade in grades.items():
        journal = journal_of.get(doc_id)
        if journal and (topics is None or topic in topics):
            relevant, judged = counts.get(journal, (0, 0))
            counts[journal] = (relevant + (grade >= 1), judged + 1)
    return [f"{journal}\t{2 * relevant / judged - 1:.6f}"
            for journal, (relevant, judged) in sorted(counts.items())]


def test_priors_cli_global_and_per_task(mini, tmp_path, capsys):
    assert main(["priors", "--qrels", mini["qrels"], "--corpus", mini["corpus"]]) == 0
    out = capsys.readouterr().out
    assert "the lancet\t1.000000" in out
    assert "bioinformatics\t-1.000000" in out
    assert out.splitlines() == priors_oracle(mini["corpus"], mini["qrels"])

    target = tmp_path / "per_task.tsv"
    assert main([
        "priors", "--qrels", mini["qrels"], "--corpus", mini["corpus"],
        "--per-task", "--manual-map", mini["manual_map"], "--tasks", mini["tasks"],
        "--output", str(target),
    ]) == 0
    text = target.read_text(encoding="utf-8")
    assert "vaccines\tvaccine\t1.000000" in text
    assert "transmission\tvaccine\t-1.000000" in text
    topics_of = {}
    for line in Path(mini["manual_map"]).read_text(encoding="utf-8").splitlines():
        topic, task_id, *_ = line.split()
        topics_of.setdefault(task_id, set()).add(int(topic))
    assert text.splitlines() == [
        f"{task_id}\t{line}" for task_id in sorted(topics_of)
        for line in priors_oracle(mini["corpus"], mini["qrels"], topics_of[task_id])]


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


@pytest.mark.parametrize("variant", [v.value for v in IndexVariant])
def test_index_stats_of_one_variant_is_its_row_of_a_build_that_needs_only_it(
        mini, capsys, variant):
    assert main(["index-stats", "--corpus", mini["corpus"]]) == 0
    all_rows = {row.split()[0]: row for row in capsys.readouterr().out.splitlines()[1:]}
    assert main(["index-stats", "--corpus", mini["corpus"], "--variant", variant]) == 0
    [row] = capsys.readouterr().out.splitlines()[1:]
    if variant != "title-abstract":
        assert row == all_rows[variant]
        return
    # Without bodies the vocabulary holds no body-only term, so ``offsets``
    # is shorter: only the bytes column differs from the --variant all row.
    *stats, nbytes = row.split()
    *all_stats, all_nbytes = all_rows[variant].split()
    assert stats == all_stats
    bodies_free = build_index(load_collection(mini["corpus"]), IndexVariant.TITLE_ABSTRACT)
    assert int(nbytes) == bodies_free.nbytes == 1392
    assert int(all_nbytes) == 2040


@pytest.mark.parametrize("command", ["run", "index-stats", "select-terms"])
def test_no_document_is_alive_during_an_index_build(mini, tmp_path, monkeypatch, command):
    def live_documents():
        return sum(isinstance(o, Document) for o in gc.get_objects())

    alive = []
    build = InvertedIndex.__init__

    def counting_build(self, *args, **kwargs):
        alive.append(live_documents())
        build(self, *args, **kwargs)

    monkeypatch.setattr(InvertedIndex, "__init__", counting_build)
    argv = {
        "run": ["run", *mini_args(mini), "--output", str(tmp_path / "out.run")],
        "index-stats": ["index-stats", "--corpus", mini["corpus"]],
        "select-terms": ["select-terms", "--corpus", mini["corpus"]],
    }[command]
    gc.collect()
    before = live_documents()
    assert main(argv) == 0
    assert alive == [before] * (1 if command == "select-terms" else 3)


def test_pipeline_setup_tokenizes_each_head_and_paragraph_once(mini):
    texts = []

    class CountingTokenizer(Tokenizer):
        def runs(self, text):
            texts.append(text)
            return super().runs(text)

    config = PipelineConfig(corpus_path=mini["corpus"], topics_path=mini["topics"])
    Pipeline(config, tokenizer=CountingTokenizer())
    collection = load_collection(mini["corpus"])
    paragraphs = sum(len(doc.body) for doc in collection)
    assert paragraphs > 0
    assert len(texts) == len(collection) + paragraphs
    assert sorted(texts) == sorted(
        text for doc in collection for text in (f"{doc.title} {doc.abstract}", *doc.body)
    )


def test_pipeline_classifies_topics_with_its_own_tokenizer(mini, tmp_path):
    # With "vaccine" a stopword, "vaccine transmission" is about transmission;
    # the default tokenizer keeps "vaccine" and picks the vaccines task.
    topics = tmp_path / "topics.jsonl"
    topics.write_text('{"topic_id": 1, "query": "vaccine transmission"}\n', encoding="utf-8")
    tokenizer = Tokenizer(default_stopwords() | {"vaccine"})
    config = PipelineConfig(corpus_path=mini["corpus"], topics_path=str(topics),
                            variant=RunVariant.QUERY_TASK)
    assert Pipeline(config)._assignments[1].task_id == "vaccines"
    assert Pipeline(config, tokenizer=tokenizer)._assignments[1].task_id == "transmission"


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


@pytest.mark.parametrize("n", [0, 1, 3])
def test_select_terms_prints_the_first_n_of_the_pipelines_task_terms(mini, capsys, n):
    # select-terms indexes title+abstract without bodies, the pipeline with
    # them; the terms they rank must agree all the same.
    assert main(["select-terms", "--corpus", mini["corpus"], "--tasks", mini["tasks"],
                 "--lexicon", mini["lexicon"], "--n", str(n)]) == 0
    pipeline = Pipeline(PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        lexicon_path=mini["lexicon"], variant=RunVariant.QUERY_TASK))
    assert capsys.readouterr().out.splitlines() == [
        f"{task_id}\t{', '.join(terms[:n])}" for task_id, terms in pipeline._task_terms.items()]


@pytest.mark.parametrize("command", ["run", "sweep", "sweep-k", "select-terms"])
def test_bad_count_is_one_error_before_the_corpus_is_read(mini, tmp_path, capsys, command):
    # The corpus does not exist, so an error about the count shows that
    # nothing was loaded before the count was checked.
    corpus = str(tmp_path / "absent.jsonl")
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n{"n_task_terms": 2}\n', encoding="utf-8")
    out = tmp_path / "never.run"
    argv, complaint = {
        "run": (["run", *mini_args({**mini, "corpus": corpus}), "--top-k", "0",
                 "--output", str(out)], "top_k must be >= 1"),
        "sweep": (["sweep", *mini_args({**mini, "corpus": corpus}), "--top-k", "0",
                   "--qrels", mini["qrels"], "--grid", str(grid)], "top_k must be >= 1"),
        "sweep-k": (["sweep", *mini_args({**mini, "corpus": corpus}), "--k", "0",
                     "--qrels", mini["qrels"], "--grid", str(grid)], "--k must be >= 1"),
        "select-terms": (["select-terms", "--corpus", corpus, "--n", "-2"],
                         "--n must be >= 0"),
    }[command]
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {complaint}"]


def test_eval_bad_k_is_one_error_before_any_file_is_read(tmp_path, capsys):
    absent_run, absent_qrels = tmp_path / "absent.run", tmp_path / "absent.qrels"
    assert main(["eval", "--run", str(absent_run), "--qrels", str(absent_qrels),
                 "--k", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --k must be >= 1"]


@pytest.mark.parametrize("value", ["1_0", "+3", "\u0661\u0660", "x"])
@pytest.mark.parametrize("command", ["eval", "sweep", "select-terms"])
def test_count_flags_follow_the_integer_rule_before_any_file_is_read(
        tmp_path, capsys, command, value):
    absent = str(tmp_path / "absent")
    flag, argv = {
        "eval": ("--k", ["eval", "--run", absent, "--qrels", absent]),
        "sweep": ("--k", ["sweep", "--corpus", absent, "--topics", absent,
                          "--qrels", absent, "--grid", absent]),
        "select-terms": ("--n", ["select-terms", "--corpus", absent]),
    }[command]
    assert main([*argv, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must be an integer, not {value!r}"]


@pytest.mark.parametrize("command, variant, flags, unread", [
    ("run", "query", ["--dup-query", "1", "--n-task-terms", "7", "--alpha", "0.1"],
     "n_task_terms, dup_query, alpha"),
    ("run", "query+udel", ["--no-route-task-terms", "--confidence-mode", "gate"],
     "confidence_mode, route_task_terms_fulltext_only"),
    ("run", "journal.prior", ["--qrels", "q.txt", "--dup-task", "2"], "dup_task"),
    ("run", "query+task", ["--alpha", "0.7"], "alpha"),
    ("sweep", "query+udel+task", ["--qrels", "q.txt", "--alpha", "0.5"], "alpha"),
])
def test_settings_the_variant_never_reads_are_one_error_before_the_corpus_is_read(
        mini, tmp_path, capsys, command, variant, flags, unread):
    corpus = str(tmp_path / "absent.jsonl")
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n', encoding="utf-8")
    out = tmp_path / "never.run"
    extra = ["--output", str(out)] if command == "run" else ["--grid", str(grid)]
    argv = [command, *mini_args({**mini, "corpus": corpus}), "--variant", variant, *flags, *extra]
    assert main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: variant {variant} does not read: {unread}"
    ]


def test_settings_the_variant_reads_or_leaves_at_defaults_validate():
    # Each of these builds without an error.
    PipelineConfig("c", "t", RunVariant.QUERY, expansion=ExpansionConfig())
    PipelineConfig("c", "t", RunVariant.QUERY_TASK, expansion=ExpansionConfig(dup_query=1))
    PipelineConfig("c", "t", RunVariant.JOURNAL_PRIOR, qrels_path="q")
    PipelineConfig("c", "t", RunVariant.JOURNAL_PRIOR, qrels_path="q",
                   rerank=RerankConfig(alpha=0.1))
    PipelineConfig("c", "t", RunVariant.VECTOR, vectors_path="v",
                   rerank=RerankConfig(alpha=0.1))
    with pytest.raises(TaskRankError, match="^variant vector does not read: dup_task$"):
        PipelineConfig("c", "t", RunVariant.VECTOR, vectors_path="v",
                       expansion=ExpansionConfig(dup_task=2))


_VALID = PipelineConfig("c", "t", RunVariant.QUERY_TASK)


@pytest.mark.parametrize("changes, message", [
    ({"top_k": 0}, "top_k must be >= 1"),
    ({"run_tag": "my tag"}, "run_tag 'my tag' contains whitespace"),
    ({"run_tag": "t\udcff"}, "run_tag 't\\udcff' cannot be encoded as UTF-8"),
    ({"variant": RunVariant.JOURNAL_PRIOR}, "variant journal.prior requires: qrels_path"),
    ({"variant": RunVariant.JOURNAL_TASK},
     "variant journal.task requires: qrels_path, manual_map_path"),
    ({"variant": RunVariant.VECTOR}, "variant vector requires: vectors_path"),
    ({"expansion": ExpansionConfig(confidence_mode=ConfidenceMode.GATE)},
     "confidence_mode gate reads the annotator confidences of a manual map: "
     "requires manual_map_path"),
    ({"variant": RunVariant.QUERY, "expansion": ExpansionConfig(dup_task=2)},
     "variant query does not read: dup_task"),
    ({"rerank": RerankConfig(alpha=0.7)}, "variant query+task does not read: alpha"),
], ids=["top_k", "whitespace-tag", "non-utf8-tag", "qrels", "manual_map", "vectors",
        "confidence", "unread-expansion", "unread-alpha"])
def test_a_pipeline_config_is_checked_when_built_and_when_replaced(changes, message):
    fields = {"corpus_path": "c", "topics_path": "t", "variant": RunVariant.QUERY_TASK,
              **changes}
    with pytest.raises(TaskRankError) as built:
        PipelineConfig(**fields)
    with pytest.raises(TaskRankError) as replaced:
        replace(_VALID, **changes)
    assert str(built.value) == str(replaced.value) == message
    for name, value in changes.items():
        with pytest.raises(FrozenInstanceError):
            setattr(_VALID, name, value)


@pytest.mark.parametrize("variant", ["query", "query+udel", "journal.prior"])
def test_sweep_over_a_variant_without_expansion_is_one_error_before_the_corpus_is_read(
        mini, tmp_path, capsys, variant):
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n', encoding="utf-8")
    argv = ["sweep", *mini_args({**mini, "corpus": str(tmp_path / "absent.jsonl")}),
            "--qrels", mini["qrels"], "--grid", str(grid), "--variant", variant]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: sweep varies task-term expansion, which variant {variant} does not read; "
        "use query+task or query+udel+task"
    ]


def test_run_topic_returns_rankings_over_the_pipeline_doc_id_table(mini):
    config = PipelineConfig(corpus_path=mini["corpus"], topics_path=mini["topics"],
                            tasks_path=mini["tasks"], lexicon_path=mini["lexicon"])
    run = Pipeline(config).run()
    assert all(isinstance(r, Ranking) for r in run.rankings.values())
    assert len({id(r.doc_ids) for r in run.rankings.values()}) == 1
    assert sum(len(r) for r in run.rankings.values()) > 0


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
def test_with_config_expansion_runs_equal_fresh_pipelines(mini, monkeypatch, variant):
    base = PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        lexicon_path=mini["lexicon"], manual_map_path=mini["manual_map"], variant=variant,
    )
    extractor = LexiconExtractor.from_file(mini["lexicon"])
    framework = load_tasks(mini["tasks"])
    manual = load_manual_map(mini["manual_map"], framework)
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
                rankings = pipeline.with_config(expansion=expansion).run().rankings
                # Each topic gets its task's top n terms, as a direct selection picks them.
                assert len(generated) == len(pipeline.topics)
                for topic, task_terms, _expansion in generated:
                    task = framework.get(manual[topic.topic_id].task_id)
                    assert task_terms == select_task_terms(task, abstracts, extractor, n)
                fresh = Pipeline(replace(base, expansion=expansion)).run()
                assert rankings == fresh.rankings


def test_runs_and_sweep_cells_reuse_scored_terms(mini, monkeypatch):
    # Probe: InvertedIndex.term_postings, which is read once per newly scored
    # (index, Bm25Params, term).
    scored = []
    term_postings = InvertedIndex.term_postings
    monkeypatch.setattr(InvertedIndex, "term_postings",
                        lambda index, term: scored.append(term) or term_postings(index, term))
    config = PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        lexicon_path=mini["lexicon"], manual_map_path=mini["manual_map"],
        variant=RunVariant.QUERY_UDEL_TASK,
    )
    pipeline = Pipeline(config)
    scored.clear()
    first = pipeline.run()
    assert scored
    scored.clear()
    assert pipeline.run() == first and scored == []
    # The first cell takes the most task terms; the others use a subset of its tokens.
    sweep = Pipeline(config)
    cells = [ExpansionConfig(), ExpansionConfig(n_task_terms=1, dup_query=1),
             ExpansionConfig(n_task_terms=2, dup_question=0), ExpansionConfig(dup_task=2)]
    for i, expansion in enumerate(cells):
        scored.clear()
        sweep.with_config(expansion=expansion).run()
        assert bool(scored) == (i == 0)
    classifier = TaskClassifier(load_tasks(mini["tasks"]))
    classifier.classify("coronavirus vaccine antibody")
    scored.clear()
    classifier.classify("vaccine coronavirus")
    assert scored == []


def test_with_config_expansion_leaves_the_original_untouched(mini):
    config = PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        manual_map_path=mini["manual_map"], variant=RunVariant.QUERY_TASK,
    )
    before = replace(config)
    pipeline = Pipeline(config)
    expansion = ExpansionConfig(n_task_terms=1, dup_query=1)
    other = pipeline.with_config(expansion=expansion)
    assert pipeline.config is config and config == before
    assert other.config == replace(before, expansion=expansion)
    assert other.indices is pipeline.indices


def test_with_config_rejects_an_expansion_the_variant_does_not_read(mini):
    pipeline = Pipeline(PipelineConfig(corpus_path=mini["corpus"], topics_path=mini["topics"],
                                       variant=RunVariant.QUERY))
    with pytest.raises(TaskRankError,
                       match="^variant query does not read: n_task_terms, dup_query$"):
        pipeline.with_config(expansion=ExpansionConfig(dup_query=1, n_task_terms=7))
    assert pipeline.with_config(expansion=ExpansionConfig()).run().rankings == pipeline.run().rankings


def search_calls(monkeypatch):
    """Count calls to ``taskrank.pipeline.search`` per index variant; keep
    the positions each call returns."""
    calls, positions = {v: 0 for v in IndexVariant}, []
    original = pipeline_module.search

    def wrapper(index, params, tokens, top_k):
        calls[index.variant] += 1
        result = original(index, params, tokens, top_k)
        positions.append(result[0])
        return result

    monkeypatch.setattr(pipeline_module, "search", wrapper)
    return calls, positions


def test_a_sweep_searches_each_index_and_query_once(mini, monkeypatch, tmp_path, capsys):
    # Each cell changes every topic's task-term weight, so its full-text
    # queries are new; routing keeps the other two indices' queries the same.
    cells = [{"dup_task": d} for d in (1, 2, 3, 4)]
    grid = tmp_path / "grid.jsonl"
    grid.write_text("".join(json.dumps(cell) + "\n" for cell in cells), encoding="utf-8")
    calls, positions = search_calls(monkeypatch)
    assert main(["sweep", *mini_args(mini, "--manual-map", mini["manual_map"]),
                 "--variant", "query+task", "--qrels", mini["qrels"], "--grid", str(grid)]) == 0
    assert capsys.readouterr().out.count("task, n=") == len(cells)
    topics = len(load_topics(mini["topics"]))
    assert calls == {IndexVariant.FULL_TEXT: len(cells) * topics,
                     IndexVariant.TITLE_ABSTRACT: topics,
                     IndexVariant.TITLE_ABSTRACT_PARAGRAPH: topics}
    for kept in positions:
        with pytest.raises(ValueError, match="read-only"):
            kept[:1] = 0


def test_plain_runs_search_every_query_and_keep_no_memo(mini, monkeypatch):
    pipeline = Pipeline(PipelineConfig(
        corpus_path=mini["corpus"], topics_path=mini["topics"], tasks_path=mini["tasks"],
        lexicon_path=mini["lexicon"], manual_map_path=mini["manual_map"],
        variant=RunVariant.QUERY_TASK,
    ))
    calls, positions = search_calls(monkeypatch)
    topics = len(pipeline.topics)
    first = pipeline.run()
    assert calls == {v: topics for v in IndexVariant}
    assert pipeline.run() == first
    assert calls == {v: 2 * topics for v in IndexVariant}
    assert all(kept.flags.writeable for kept in positions)


MINI = Path(__file__).parent / "fixtures" / "mini"
MINI_TERMS = max(
    len(set(LexiconExtractor.from_file(str(MINI / "lexicon.txt")).extract(task.description)))
    for task in load_tasks(str(MINI / "tasks.jsonl"))
)
expansions = st.builds(
    ExpansionConfig,
    n_task_terms=st.integers(0, MINI_TERMS + 2),
    dup_query=st.integers(1, 3),
    dup_question=st.integers(0, 2),
    dup_task=st.integers(1, 3),
    confidence_mode=st.sampled_from(ConfidenceMode),
    gate_threshold=st.integers(1, 3),
    route_task_terms_fulltext_only=st.booleans(),
)


@st.composite
def sweep_grids(draw):
    """Cells, some of them repeated, in any order."""
    cells = draw(st.lists(expansions, min_size=1, max_size=4))
    return draw(st.permutations(cells + draw(st.lists(st.sampled_from(cells), max_size=3))))


def run_bytes(run) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "cell.run"
        write_run(run, str(path))
        return path.read_bytes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(variant=st.sampled_from([RunVariant.QUERY_TASK, RunVariant.QUERY_UDEL_TASK]),
       grid=sweep_grids())
@example(variant=RunVariant.QUERY_TASK, grid=[
    ExpansionConfig(n_task_terms=MINI_TERMS + 2, route_task_terms_fulltext_only=False),
    ExpansionConfig(n_task_terms=1),
    ExpansionConfig(n_task_terms=MINI_TERMS + 2, route_task_terms_fulltext_only=False),
    ExpansionConfig(n_task_terms=MINI_TERMS + 1, route_task_terms_fulltext_only=False),
])
def test_sweep_cells_through_the_memo_equal_fresh_pipelines(variant, grid):
    base = PipelineConfig(
        corpus_path=str(MINI / "corpus.jsonl"), topics_path=str(MINI / "topics.jsonl"),
        tasks_path=str(MINI / "tasks.jsonl"), lexicon_path=str(MINI / "lexicon.txt"),
        manual_map_path=str(MINI / "manual_map.txt"), variant=variant,
    )
    pipeline = Pipeline(base)
    for expansion in grid:
        run = pipeline.with_config(expansion=expansion).run()
        fresh = Pipeline(replace(base, expansion=expansion)).run()
        assert run.rankings == fresh.rankings
        assert run_bytes(run) == run_bytes(fresh)


def confidence_complaint(mode):
    return (f"confidence_mode {mode} reads the annotator confidences of a manual map: "
            "requires manual_map_path")


@pytest.mark.parametrize("mode", ["gate", "proportional"])
@pytest.mark.parametrize("source", ["flag", "config", "grid"])
def test_a_confidence_mode_without_a_manual_map_is_one_error_before_the_corpus_is_read(
        mini, tmp_path, capsys, source, mode):
    settings = tmp_path / "settings.json"
    out = tmp_path / "never.run"
    argv = [*mini_args({**mini, "corpus": str(tmp_path / "absent.jsonl")}),
            "--variant", "query+task"]
    if source == "grid":
        settings.write_text('{}\n{"confidence_mode": "%s"}\n' % mode, encoding="utf-8")
        argv = ["sweep", *argv, "--qrels", mini["qrels"], "--grid", str(settings)]
        named = f"{settings} line 2: "
    else:
        if source == "flag":
            argv += ["--confidence-mode", mode]
        else:
            settings.write_text(json.dumps({"confidence_mode": mode}), encoding="utf-8")
            argv += ["--config", str(settings)]
        argv = ["run", *argv, "--output", str(out)]
        named = ""
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {named}{confidence_complaint(mode)}"]


def test_with_config_rejects_a_confidence_mode_without_a_manual_map(mini):
    pipeline = Pipeline(PipelineConfig(corpus_path=mini["corpus"], topics_path=mini["topics"],
                                       tasks_path=mini["tasks"], variant=RunVariant.QUERY_TASK))
    for mode in (ConfidenceMode.GATE, ConfidenceMode.PROPORTIONAL):
        with pytest.raises(TaskRankError, match=f"^{confidence_complaint(mode.value)}$"):
            pipeline.with_config(expansion=ExpansionConfig(confidence_mode=mode))
    replace(pipeline.config, manual_map_path=mini["manual_map"],
            expansion=ExpansionConfig(confidence_mode=ConfidenceMode.GATE))  # builds


@pytest.mark.parametrize("case", ["run without corpus", "sweep without topics",
                                  "sweep without qrels", "priors per task without map",
                                  "priors map without per task", "priors tasks without per task",
                                  "topics missing from the map"])
def test_a_missing_input_is_one_error(mini, tmp_path, capsys, case):
    # A flag rule is checked before any input is read, so every input path of
    # a flag-rule case names a file that does not exist.
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n', encoding="utf-8")
    partial_map = tmp_path / "map.txt"
    partial_map.write_text("2 vaccines\n", encoding="utf-8")
    absent = {name: str(tmp_path / "absent" / name) for name in [*mini, "grid"]}
    out = ["--output", str(tmp_path / "never.run")]
    priors = ["priors", "--qrels", absent["qrels"], "--corpus", absent["corpus"], *out]
    argv, complaint = {
        "run without corpus": (["run", "--topics", absent["topics"], *out],
                               "run requires --corpus and --topics"),
        "sweep without topics": (["sweep", "--corpus", absent["corpus"], "--qrels",
                                  absent["qrels"], "--grid", absent["grid"]],
                                 "sweep requires --corpus and --topics"),
        "sweep without qrels": (["sweep", *mini_args(absent), "--grid", absent["grid"]],
                                "sweep requires --qrels"),
        "priors per task without map": ([*priors, "--per-task", "--tasks", absent["tasks"]],
                                        "--per-task requires --manual-map"),
        "priors map without per task": (
            [*priors, "--manual-map", absent["manual_map"], "--tasks", absent["tasks"]],
            "priors without --per-task does not read: --manual-map, --tasks"),
        "priors tasks without per task": ([*priors, "--tasks", absent["tasks"]],
                                          "priors without --per-task does not read: --tasks"),
        "topics missing from the map": (["run", *mini_args(mini, "--manual-map", str(partial_map)),
                                         "--variant", "journal.task", "--qrels", mini["qrels"],
                                         *out], "topics missing from the manual map: [1, 3]"),
    }[case]
    assert main(argv) == 1
    assert not (tmp_path / "never.run").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {complaint}"]


def test_a_corpus_without_variants_is_its_journals_and_tokenizes_nothing(mini, monkeypatch):
    journal_of, _indices = load_corpus(mini["corpus"], IndexVariant)

    def no_tokens(*args, **kwargs):
        raise AssertionError("tokenized a corpus that no variant reads")

    monkeypatch.setattr(pipeline_module, "TokenizedCollection", no_tokens)
    journals, indices = load_corpus(mini["corpus"], ())
    assert indices == {}
    assert list(journals.items()) == list(journal_of.items())


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
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error:") and str(absent) in errors[0]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_all_stopword_topic_is_one_error_in_a_run_and_in_a_sweep(
        mini, tmp_path, capsys, command):
    topics = tmp_path / "topics.jsonl"
    topics.write_text(Path(mini["topics"]).read_text(encoding="utf-8")
                      + '{"topic_id": 99, "query": "the of and"}\n', encoding="utf-8")
    manual_map = tmp_path / "manual_map.txt"
    manual_map.write_text(Path(mini["manual_map"]).read_text(encoding="utf-8")
                          + "99 vaccines 3\n", encoding="utf-8")
    grid = tmp_path / "grid.jsonl"
    grid.write_text("".join(json.dumps({"n_task_terms": n}) + "\n" for n in (0, 1, 2)),
                    encoding="utf-8")
    out = tmp_path / "never.run"
    argv = [*mini_args({**mini, "topics": str(topics)}, "--manual-map", str(manual_map)),
            "--variant", "query+task"]
    argv = (["run", *argv, "--output", str(out)] if command == "run"
            else ["sweep", *argv, "--qrels", mini["qrels"], "--grid", str(grid)])
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: topic 99: query has no indexable tokens"]


def test_unreadable_grid_fails(mini, tmp_path):
    code = main([
        "sweep", *mini_args(mini), "--qrels", mini["qrels"],
        "--grid", str(tmp_path / "missing.jsonl"),
    ])
    assert code != 0


def test_empty_sweep_grid_is_one_error_naming_the_file(mini, tmp_path, capsys):
    # The corpus does not exist, so this error shows that it was not read first.
    grid = tmp_path / "empty.jsonl"
    grid.write_text("\n  \n", encoding="utf-8")
    assert main(["sweep", *mini_args({**mini, "corpus": str(tmp_path / "absent.jsonl")}),
                 "--qrels", mini["qrels"], "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {grid}: sweep grid is empty"]


class RecordingPipeline:
    """Stands in for Pipeline: records the config it is built with and each
    with_config config, and returns an empty run."""

    def __init__(self, configs):
        self.configs = configs

    def __call__(self, config):
        self.configs.append(config)
        self.config = config
        return self

    def with_config(self, **changes):
        self.configs.append(replace(self.config, **changes))
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
        "--qrels", mini["qrels"], "--manual-map", mini["manual_map"], "--grid", str(grid),
    ]) == 0
    built, *cells = configs
    assert built.expansion == ExpansionConfig()
    assert [c.expansion for c in cells] == [
        ExpansionConfig(),
        ExpansionConfig(dup_query=2, confidence_mode=ConfidenceMode.GATE,
                        route_task_terms_fulltext_only=False),
    ]
    assert {c.variant for c in configs} == {RunVariant.QUERY_TASK}


def test_sweep_grid_lines_go_over_expansion_flags_and_config(mini, monkeypatch, tmp_path):
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{}\n{"dup_task": 2, "n_task_terms": 4}\n', encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text('{"n_task_terms": 1, "dup_query": 2}', encoding="utf-8")
    configs = []
    monkeypatch.setattr(cli, "Pipeline", RecordingPipeline(configs))
    assert main([
        "sweep", "--corpus", "c.jsonl", "--topics", "t.jsonl", "--qrels", mini["qrels"],
        "--grid", str(grid), "--config", str(config_path),
        "--dup-query", "1", "--dup-question", "0", "--dup-task", "5",
    ]) == 0
    set_by_flags = ExpansionConfig(n_task_terms=1, dup_query=1, dup_question=0, dup_task=5)
    built, *cells = configs
    assert built.expansion == set_by_flags
    assert [c.expansion for c in cells] == [
        set_by_flags, replace(set_by_flags, dup_task=2, n_task_terms=4),
    ]


def test_sweep_rows_are_labelled_with_the_expansion_flags(mini, tmp_path, capsys):
    grid = tmp_path / "grid.jsonl"
    grid.write_text('{"n_task_terms": 1}\n{"n_task_terms": 2, "dup_task": 2}\n',
                    encoding="utf-8")
    assert main([
        "sweep", *mini_args(mini, "--manual-map", mini["manual_map"]),
        "--qrels", mini["qrels"], "--grid", str(grid),
        "--dup-query", "1", "--dup-question", "0", "--dup-task", "5",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(None, 2)[2] for row in rows] == [
        "1 query : 0 question : 5 task, n=1",
        "1 query : 0 question : 2 task, n=2",
    ]


@pytest.mark.parametrize("command, variant", [("run", "query"), ("sweep", "query+task")])
def test_setting_flags_show_every_setting_with_its_default(capsys, command, variant):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    blocks = re.split(r"\n  (?=-)", text.split("options:", 1)[1])[1:]
    helps = {block.split()[0].rstrip(","): " ".join(block.split()) for block in blocks}
    for key, (owner, name, _text) in cli.SETTINGS.items():
        shown = helps["--" + key.replace("_", "-")]
        default = getattr(owner, name, None)
        if key == "variant":
            assert f"(default {variant})" in shown
            assert ", ".join(v.value for v in RunVariant) in shown
        elif key == "confidence_mode":
            assert f"{', '.join(m.value for m in ConfidenceMode)} (default ignore)" in shown
        elif default is None:
            assert "unset:" in shown or "required" in shown, shown
        else:
            assert shown.endswith(f"(default {default})"), shown
    assert "--no-route-task-terms" in helps["--route-task-terms"]


@pytest.mark.parametrize("source, key, value", [
    (source, key, value)
    for key, value in [("top_k", 1.9), ("n_task_terms", 1.9), ("k1", True), ("dup_query", True)]
    for source in ["flag", "config", "grid"]
    if source != "grid" or cli.SETTINGS[key][0] is ExpansionConfig
])
def test_a_value_is_one_error_from_a_flag_a_config_key_or_a_grid_line(
        mini, tmp_path, capsys, source, key, value):
    out = tmp_path / "never.run"
    settings_path = tmp_path / "settings.json"
    if source == "grid":
        settings_path.write_text("{}\n" + json.dumps({key: value}) + "\n", encoding="utf-8")
        argv = ["sweep", *mini_args(mini), "--qrels", mini["qrels"],
                "--grid", str(settings_path)]
        named = f"{settings_path} line 2: {key}: "
    elif source == "config":
        settings_path.write_text(json.dumps({key: value}), encoding="utf-8")
        argv = ["run", *mini_args(mini), "--config", str(settings_path), "--output", str(out)]
        named = f"{settings_path}: {key}: "
    else:
        # A valid config file beside the flag: the error still names the flag.
        settings_path.write_text("{}", encoding="utf-8")
        argv = ["run", *mini_args(mini), "--" + key.replace("_", "-"), json.dumps(value),
                "--config", str(settings_path), "--output", str(out)]
        named = f"command line: {key}: "
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    [error] = captured.err.splitlines()
    assert error.startswith(f"error: {named}"), error


# (text, value under errors.number, value under errors.integer); None: rejected.
NUMBER_TEXTS = [
    ("2", 2.0, 2), ("007", 7.0, 7), ("-0.5", -0.5, None), ("1e-3", 0.001, None),
    ("2.5E+1", 25.0, None), (".5", 0.5, None), ("1_0", None, None),
    ("\u0661\u0660", None, None), ("\u0663", None, None), ("+2", None, None),
    ("nan", None, None), ("inf", None, None), ("1e999", None, None), ("0x10", None, None),
]
NUMBER_READERS = ("run score", "vectors value")


def read_number(source, text, mini, tmp_path, monkeypatch, capsys):
    """Read ``text`` as one number through ``source``: the value read, or the
    error raised or printed."""
    path = tmp_path / "input"
    if source == "run score":
        path.write_text(f"1 Q0 doc01 1 {text} tag\n", encoding="utf-8")
        read = lambda: float(parse_run(path).rankings[1].scores[0])
    elif source == "vectors value":
        path.write_text(f"doc01 0.5 {text}\n", encoding="utf-8")
        read = lambda: float(InMemoryVectorProvider.from_file(path).vector("doc01")[1])
    else:
        kind, key = source.split()
        configs = []
        monkeypatch.setattr(cli, "Pipeline", RecordingPipeline(configs))
        argv = ["--corpus", "c.jsonl", "--topics", "t.jsonl"]
        if kind == "grid":
            path.write_text("{}\n" + json.dumps({key: text}) + "\n", encoding="utf-8")
            argv = ["sweep", *argv, "--qrels", mini["qrels"], "--grid", str(path)]
        else:
            if kind == "flag":
                argv += ["--" + key.replace("_", "-"), text]
            else:
                path.write_text(json.dumps({key: text}), encoding="utf-8")
                argv += ["--config", str(path)]
            argv = ["run", *argv, "--output", str(tmp_path / "out.run")]

        def read():
            if main(argv) != 0:
                raise TaskRankError(capsys.readouterr().err)
            owner, name, _help = cli.SETTINGS[key]
            config = configs[-1]
            return getattr(config if owner is PipelineConfig
                           else getattr(config, cli._PARTS[owner]), name)
    try:
        return read()
    except TaskRankError as exc:
        return exc


@pytest.mark.parametrize("source", [*NUMBER_READERS, "flag k1", "config k1",
                                    "flag top_k", "config top_k", "grid dup_task"])
def test_every_number_follows_one_rule_in_every_reader_and_setting_source(
        mini, tmp_path, monkeypatch, capsys, source):
    integral = source.endswith(("top_k", "dup_task"))
    for text, as_number, as_integer in NUMBER_TEXTS:
        if text.startswith("-") and source not in NUMBER_READERS:
            continue  # no setting takes a negative value
        expected = as_integer if integral else as_number
        got = read_number(source, text, mini, tmp_path, monkeypatch, capsys)
        if expected is None:
            rule = "an integer" if integral else "a finite number"
            assert isinstance(got, TaskRankError), (text, got)
            assert f"must be {rule}, not {text!r}" in str(got), (text, str(got))
        else:
            assert got == expected and type(got) is type(expected), (text, got)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_tag_with_whitespace_is_one_error_before_the_corpus_is_read(
        mini, tmp_path, capsys, source):
    corpus = str(tmp_path / "absent.jsonl")
    out = tmp_path / "never.run"
    argv = ["run", *mini_args({**mini, "corpus": corpus}), "--output", str(out)]
    if source == "flag":
        argv += ["--run-tag", "my tag"]
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text('{"run_tag": "my tag"}', encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: run_tag 'my tag' contains whitespace"
    ]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_tag_utf8_cannot_encode_is_one_error_that_keeps_the_output_file(
        mini, tmp_path, capsys, source):
    # Python decodes an argv byte 0xff as the lone surrogate "\udcff".
    corpus = str(tmp_path / "absent.jsonl")
    out = tmp_path / "keep.run"
    out.write_bytes(b"1 Q0 a 1 1.000000 t\n")
    argv = ["run", *mini_args({**mini, "corpus": corpus}), "--output", str(out)]
    if source == "flag":
        argv += ["--run-tag", "t\udcff"]
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"run_tag": "t\udcff"}), encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert main(argv) == 1
    assert out.read_bytes() == b"1 Q0 a 1 1.000000 t\n"
    assert capsys.readouterr().err.splitlines() == [
        "error: run_tag 't\\udcff' cannot be encoded as UTF-8"
    ]


def test_run_whose_write_fails_after_open_leaves_no_partial_file(
        mini, tmp_path, capsys, monkeypatch):
    def full_disk(scores):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(evaluation, "_score_text", full_disk)
    out = tmp_path / "partial.run"
    assert main(["run", *mini_args(mini), "--output", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: [Errno 28] No space left on device"]


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
    ({"corpus": 5}, "corpus: expected a string, got 5"),
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


# A flag's string goes through errors.number; a JSON NaN reaches the dataclass.
@pytest.mark.parametrize("flags, config_text, complaint", [
    (["--k1", "nan"], None, "k1: value must be a finite number, not 'nan'"),
    (["--k1", "inf"], None, "k1: value must be a finite number, not 'inf'"),
    (["--rrf-k", "nan"], None, "rrf_k: value must be a finite number, not 'nan'"),
    (["--rrf-k", "inf"], None, "rrf_k: value must be a finite number, not 'inf'"),
    ([], '"k1": NaN', "must be a finite number > 0"),
], ids=["k1-nan", "k1-inf", "rrf_k-nan", "rrf_k-inf", "config-k1-nan"])
def test_non_finite_bm25_and_fusion_parameters_are_one_error(
        mini, tmp_path, capsys, flags, config_text, complaint):
    out = tmp_path / "never.run"
    argv = ["run", *mini_args(mini), *flags, "--output", str(out)]
    if config_text:
        config_path = tmp_path / "config.json"
        config_path.write_text("{" + config_text + "}", encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert main(argv) == 1
    assert not out.exists()
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith("error: ") and complaint in error
    if config_text:
        assert str(config_path) in error


@pytest.mark.parametrize("content, complaint", [
    (b'{"corpus": "c.jsonl",\n}', "Expecting property name"),
    (b'{"run_tag": "\xff"}', "can't decode byte 0xff"),
    (b"[" * 100_000, "maximum recursion depth"),
    (b'["corpus", "c.jsonl"]', "config file must contain a JSON object"),
], ids=["invalid-json", "byte-0xff", "deep-nesting", "not-an-object"])
def test_config_file_that_does_not_parse_is_one_error_naming_file(
        tmp_path, capsys, content, complaint):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(content)
    out = tmp_path / "never.run"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 1
    assert not out.exists()
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: {config_path}: ") and complaint in error


@pytest.mark.parametrize("command", ["run", "index-stats", "select-terms", "priors"])
@pytest.mark.parametrize("bad_line, reason", [
    ("not json", "Expecting value"),
    ('{"title": "no id"}', "missing or empty doc_id"),
    ('{"doc_id": "doc02", "title": "again"}', "duplicate doc_id 'doc02'"),
    ('{"doc_id": "a b", "title": "spaced"}', "doc_id 'a b' contains whitespace"),
    pytest.param("\udcff", "not valid UTF-8", id="byte-0xff"),
    pytest.param("[" * 100_000, "maximum recursion depth", id="deep-nesting"),
])
def test_bad_corpus_line_is_one_error_naming_file_and_line(
        mini, tmp_path, capsys, command, bad_line, reason):
    text = Path(mini["corpus"]).read_text(encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    # surrogateescape writes "\udcff" as the single byte 0xff.
    corpus.write_text(text + bad_line + "\n", encoding="utf-8", errors="surrogateescape")
    line_no = len(text.splitlines()) + 1
    out = tmp_path / "never.run"
    argv = {
        "run": ["run", *mini_args({**mini, "corpus": str(corpus)}), "--output", str(out)],
        "index-stats": ["index-stats", "--corpus", str(corpus)],
        "select-terms": ["select-terms", "--corpus", str(corpus)],
        "priors": ["priors", "--qrels", mini["qrels"], "--corpus", str(corpus)],
    }[command]
    assert main(argv) == 1
    assert not out.exists()
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: {corpus} line {line_no}: ")
    assert reason in error


@pytest.mark.parametrize("row, reason", [
    ("doc02 0.1 abc 0.0 0.0", "value must be a finite number, not 'abc'"),
    ("doc02 0.1 nan 0.0 0.0", "value must be a finite number, not 'nan'"),
    ("doc02 0.1 inf 0.0 0.0", "value must be a finite number, not 'inf'"),
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


def bad_input_argv(mini, golden_dir, tmp_path, kind, path):
    """A command that reads ``path`` as its ``kind`` input file."""
    files = {**mini, kind: str(path)}
    base = [
        "--corpus", files["corpus"], "--topics", files["topics"], "--tasks", files["tasks"],
        "--lexicon", files["lexicon"], "--manual-map", files["manual_map"],
    ]
    out = ["--output", str(tmp_path / "never.run")]
    if kind == "run":
        return ["eval", "--run", str(path), "--qrels", mini["qrels"]]
    if kind == "qrels":
        return ["eval", "--run", str(golden_dir / "query.run"), "--qrels", str(path)]
    if kind == "vectors":
        return ["run", *base, "--vectors", str(path), "--variant", "vector", *out]
    if kind == "grid":
        return ["sweep", *base, "--qrels", mini["qrels"], "--grid", str(path)]
    return ["run", *base, "--variant", "query+udel+task", *out]


DEEP = b"[" * 100_000
TOPIC_1 = b'{"topic_id": 1, "query": "again"}'
TASK_VACCINES = b'{"task_id": "vaccines", "description": "again"}'


@pytest.mark.parametrize("kind, bad_line, reason", [
    pytest.param(kind, bad_line, reason, id=f"{kind}-{case}")
    for kind, case, bad_line, reason in [
        ("topics", "0xff", b"\xff", "not valid UTF-8"),
        ("topics", "deep", DEEP, "maximum recursion depth"),
        ("topics", "repeat", TOPIC_1, "duplicate topic_id 1"),
        ("topics", "query-type", b'{"topic_id": 9, "query": 5}', "query must be a string"),
        ("topics", "float-id", b'{"topic_id": 1.9, "query": "q"}',
         "topic_id must be an integer, not 1.9"),
        ("topics", "bool-id", b'{"topic_id": true, "query": "q"}',
         "topic_id must be an integer, not True"),
        ("tasks", "0xff", b"\xff", "not valid UTF-8"),
        ("tasks", "deep", DEEP, "maximum recursion depth"),
        ("tasks", "repeat", TASK_VACCINES, "duplicate task_id 'vaccines'"),
        ("tasks", "title-type", b'{"task_id": "t9", "title": ["x"], "description": "d"}',
         "title must be a string"),
        ("manual_map", "0xff", b"\xff", "not valid UTF-8"),
        ("manual_map", "deep", DEEP, "1 columns, expected 2 or 3"),
        ("manual_map", "unknown", b"9 nosuch", "unknown task_id 'nosuch'"),
        ("manual_map", "repeat", b"1 vaccines", "duplicate topic_id 1"),
        ("lexicon", "0xff", b"\xff", "not valid UTF-8"),
        ("qrels", "0xff", b"\xff", "not valid UTF-8"),
        ("qrels", "deep", DEEP, "1 columns, expected 4"),
        ("qrels", "huge-grade", b"1 0 doc01 9223372036854775808", "grade must be below 2**63"),
        ("run", "0xff", b"\xff", "not valid UTF-8"),
        ("run", "deep", DEEP, "1 columns, expected 6"),
        ("vectors", "0xff", b"\xff", "not valid UTF-8"),
        ("vectors", "deep", DEEP, "no values"),
        ("vectors", "long", b"doc02 " + b"x" * 100_000, "value must be a finite number"),
        ("grid", "0xff", b"\xff", "not valid UTF-8"),
        ("grid", "deep", DEEP, "maximum recursion depth"),
        ("grid", "infinity", b'{"dup_query": Infinity}', "cannot convert float infinity"),
    ]
])
def test_bad_input_line_is_one_short_error_naming_file_and_line(
        mini, golden_dir, tmp_path, capsys, kind, bad_line, reason):
    if kind == "grid":
        text = b'{"dup_query": 1}\n'
    else:
        text = Path(golden_dir / "query.run" if kind == "run" else mini[kind]).read_bytes()
    path = tmp_path / f"bad_{kind}"
    path.write_bytes(text + bad_line + b"\n")
    line_no = len(text.splitlines()) + 1
    assert main(bad_input_argv(mini, golden_dir, tmp_path, kind, path)) == 1
    assert not (tmp_path / "never.run").exists()
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: {path} line {line_no}: ")
    assert reason in error
    assert len(error) <= 300


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_give_the_same_run_and_eval(mini, tmp_path, capsys, ending):
    def run_and_eval(files, name):
        out = tmp_path / f"{name}.run"
        assert main([
            "run", *mini_args(files, "--qrels", files["qrels"]),
            "--variant", "journal.prior", "--output", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", str(out), "--qrels", files["qrels"]]) == 0
        return out.read_bytes(), capsys.readouterr().out

    copies = dict(mini)
    for kind in ("corpus", "topics", "qrels"):
        text = Path(mini[kind]).read_bytes()
        assert b"\r" not in text
        copies[kind] = str(tmp_path / f"{kind}.copy")
        Path(copies[kind]).write_bytes(text.replace(b"\n", ending.encode()))
    assert run_and_eval(copies, "copy") == run_and_eval(mini, "lf")
