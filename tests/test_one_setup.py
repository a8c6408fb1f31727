"""Corpus set-up is written once: the package loads a corpus file only in
``pipeline.load_corpus`` and tokenizes a collection only there and in the
one-variant ``build_index``. Each shipped data file is the default of one
loader, which reads it when its path is unset.
Config checks are written once too: each config dataclass is frozen and
checks itself when built, with no separate ``validate`` to call. And a
pipeline resolves what a config reads in one place, ``Pipeline._resolve``,
for a new pipeline and for each ``with_config`` copy alike: every run
variant over one corpus shares one set-up, and each input is read once.
Errors have two types: TaskRankError, whose message says what is wrong, and
MalformedRow, which also carries the file and the line."""

import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from test_one_reader import call_sites

import taskrank
from taskrank import (Bm25Params, ExpansionConfig, FusionConfig, InvertedIndex, PipelineConfig,
                      RerankConfig, errors)
from taskrank import pipeline as pipeline_module
from taskrank.errors import TaskRankError
from taskrank.evaluation import write_run
from taskrank.pipeline import Pipeline, RunVariant
from taskrank.querygen import LexiconExtractor
from taskrank.rerank import InMemoryVectorProvider
from taskrank.tasks import load_manual_map, load_tasks

ALLOWED = {
    "load_collection": {("pipeline.py", "load_corpus")},
    "TokenizedCollection": {("pipeline.py", "load_corpus"), ("indexing.py", "build_index")},
}


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_corpus_setup_is_called_only_by_load_corpus(callee):
    package = Path(taskrank.__file__).parent
    sites = set().union(*(call_sites(path, callee) for path in sorted(package.glob("*.py"))))
    assert ("pipeline.py", "load_corpus") in sites
    assert sites <= ALLOWED[callee], sorted(sites - ALLOWED[callee])


def test_only_the_loaders_read_the_shipped_data_files():
    package = Path(taskrank.__file__).parent
    sites = set().union(*(call_sites(path, "files") for path in sorted(package.glob("*.py"))))
    assert sites == {("tasks.py", "load_tasks"), ("tasks.py", "load_manual_map"),
                     ("querygen.py", "from_file"), ("indexing.py", "default_stopwords")}
    assert not [name for name in ("default_framework", "default_lexicon", "default_manual_map")
                if hasattr(taskrank, name)]


SHIPPED = Path(taskrank.__file__).parent / "data"


@pytest.mark.parametrize("unset", [None, ""], ids=repr)
def test_an_unset_path_loads_the_shipped_file(unset):
    framework = load_tasks(SHIPPED / "tasks.jsonl")
    assert load_tasks(unset) == load_tasks() == framework
    assert vars(LexiconExtractor.from_file(unset)) == vars(LexiconExtractor.from_file()) == vars(
        LexiconExtractor.from_file(SHIPPED / "lexicon.txt"))
    manual = load_manual_map(SHIPPED / "manual_map.txt", framework)
    assert load_manual_map(unset) == load_manual_map(unset, framework) == manual
    assert load_manual_map(SHIPPED / "manual_map.txt") == manual


@pytest.mark.parametrize("config", [Bm25Params, FusionConfig, RerankConfig, ExpansionConfig,
                                    PipelineConfig], ids=lambda cls: cls.__name__)
def test_config_dataclasses_are_frozen_and_check_themselves_when_built(config):
    assert config.__dataclass_params__.frozen
    assert "__post_init__" in vars(config)
    assert not hasattr(config, "validate")


REMOVED_ERRORS = ["DuplicateDocId", "EmptyCollection", "EmptyInput", "EmptyQuery",
                  "EmptyFramework", "TopicSetMismatch", "UnknownTaskId", "EmptyQrels",
                  "MissingTaskVector"]


def test_two_error_types_and_no_idf_method():
    assert {name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)} == {
        "TaskRankError", "MalformedRow"}
    assert not [name for name in REMOVED_ERRORS
                if hasattr(taskrank, name) or hasattr(errors, name)]
    assert not hasattr(InvertedIndex, "idf")


FIXTURES = Path(__file__).parent / "fixtures"
MINI = FIXTURES / "mini"
# The mini fixture with every input a variant may read.
BASE = PipelineConfig(
    corpus_path=str(MINI / "corpus.jsonl"), topics_path=str(MINI / "topics.jsonl"),
    tasks_path=str(MINI / "tasks.jsonl"), lexicon_path=str(MINI / "lexicon.txt"),
    manual_map_path=str(MINI / "manual_map.txt"), qrels_path=str(MINI / "qrels.txt"),
    vectors_path=str(MINI / "vectors.txt"),
)
GOLDEN = {
    RunVariant.QUERY: "query.run",
    RunVariant.QUERY_UDEL_TASK: "query_udel_task.run",
    RunVariant.JOURNAL_PRIOR: "journal_prior.run",
    RunVariant.JOURNAL_TASK: "journal_task.run",
    RunVariant.VECTOR: "vector.run",
}
ORDERS = [list(RunVariant), list(reversed(RunVariant)),
          random.Random(27).sample(list(RunVariant), len(RunVariant))]
# Copies that change what a run reads besides its variant.
CHANGES = [
    {"variant": RunVariant.QUERY, "bm25": Bm25Params(k1=1.2, b=0.75)},
    {"variant": RunVariant.QUERY_UDEL, "top_k": 4},
    {"variant": RunVariant.QUERY_TASK, "manual_map_path": None,
     "bm25": Bm25Params(k1=0.5, b=0.9), "run_tag": "classified"},
    {"variant": RunVariant.QUERY_UDEL_TASK, "fusion": FusionConfig(rrf_k=10),
     "expansion": ExpansionConfig(n_task_terms=2, dup_task=2)},
    {"variant": RunVariant.JOURNAL_PRIOR, "rerank": RerankConfig(alpha=0.3), "top_k": 3},
    {"variant": RunVariant.JOURNAL_TASK, "rerank": RerankConfig(alpha=0.9),
     "run_tag": "per-task"},
    {"variant": RunVariant.VECTOR, "manual_map_path": None, "bm25": Bm25Params(k1=1.2),
     "fusion": FusionConfig(rrf_k=1)},
]


@pytest.fixture
def other_files(tmp_path):
    """Copies that read another tasks, lexicon, manual map or qrels file."""
    regrouped = tmp_path / "regrouped_map.txt"
    regrouped.write_text("1 transmission 3\n2 transmission 1\n3 vaccines 2\n", encoding="utf-8")
    swapped = tmp_path / "swapped_qrels.txt"  # relevant and non-relevant swapped
    swapped.write_text("".join(f"{line.rsplit(' ', 1)[0]} {int(line.split()[-1] == '0')}\n"
                               for line in Path(BASE.qrels_path).read_text().splitlines()),
                       encoding="utf-8")
    return [
        {"variant": RunVariant.QUERY_UDEL_TASK, "lexicon_path": None},
        {"variant": RunVariant.QUERY_TASK, "tasks_path": None, "manual_map_path": None},
        {"variant": RunVariant.JOURNAL_TASK, "manual_map_path": str(regrouped)},
        {"variant": RunVariant.JOURNAL_PRIOR, "qrels_path": str(swapped)},
        {"variant": RunVariant.JOURNAL_TASK, "qrels_path": str(swapped)},
    ]


def run_bytes(pipeline: Pipeline, tmp_path: Path) -> bytes:
    path = tmp_path / "copy.run"
    write_run(pipeline.run(), str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def fresh_bytes(tmp_path_factory):
    """The run file of a new Pipeline per config, built on first use."""
    directory, made = tmp_path_factory.mktemp("fresh"), {}

    def of(config: PipelineConfig) -> bytes:
        if config not in made:
            made[config] = run_bytes(Pipeline(config), directory)
        return made[config]

    return of


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: "-".join(v.value for v in order))
def test_every_variant_through_one_setup_equals_a_new_pipeline(order, other_files, fresh_bytes,
                                                                 tmp_path):
    pipeline = Pipeline(replace(BASE, variant=order[0]))
    first = run_bytes(pipeline, tmp_path)
    for variant in [*order, order[0]]:  # and back to the first
        config = replace(BASE, variant=variant)
        got = run_bytes(pipeline.with_config(variant=variant), tmp_path)
        assert got == fresh_bytes(config), variant
        if variant in GOLDEN:
            assert got == (FIXTURES / "golden" / GOLDEN[variant]).read_bytes(), variant
    for changes in CHANGES + other_files:
        copy = pipeline.with_config(**changes)
        assert run_bytes(copy, tmp_path) == fresh_bytes(replace(BASE, **changes)), changes
    assert run_bytes(pipeline, tmp_path) == first


def test_a_copy_rejects_a_change_its_variant_does_not_read_as_building_does():
    reranked = Pipeline(BASE).with_config(variant=RunVariant.JOURNAL_PRIOR,
                                          rerank=RerankConfig(alpha=0.3))
    settings = {f.name: getattr(reranked.config, f.name) for f in fields(PipelineConfig)}
    for changes, message in [
        ({"variant": RunVariant.QUERY}, "variant query does not read: alpha"),
        ({"variant": RunVariant.QUERY_TASK, "manual_map_path": None},
         "variant query+task does not read: alpha"),
    ]:
        with pytest.raises(TaskRankError) as built:
            PipelineConfig(**{**settings, **changes})
        with pytest.raises(TaskRankError) as copied:
            reranked.with_config(**changes)
        assert str(copied.value) == str(built.value) == message
    with pytest.raises(TaskRankError, match="^variant query does not read: n_task_terms$"):
        reranked.with_config(variant=RunVariant.QUERY, rerank=None,
                             expansion=ExpansionConfig(n_task_terms=1))


def counting(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; return the list of the arguments of its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
    return calls


LOADERS = ["load_collection", "load_topics", "load_tasks", "load_manual_map", "parse_qrels",
           "classify_topics", "select_task_terms"]


def test_one_setup_reads_each_input_once(monkeypatch):
    calls = {name: counting(monkeypatch, pipeline_module, name) for name in LOADERS}
    calls["from_file"] = counting(monkeypatch, InMemoryVectorProvider, "from_file")
    pipeline = Pipeline(BASE)
    copies = [pipeline.with_config(**changes) for changes in
              [{"variant": variant} for variant in RunVariant] + CHANGES]
    for copy in [pipeline, *copies, pipeline.with_config(variant=RunVariant.VECTOR)]:
        copy.run()
    tasks = [task.task_id for task in load_tasks(BASE.tasks_path)]
    assert sorted(args[0].task_id for args in calls.pop("select_task_terms")) == tasks
    # Classified assignments are computed once per Bm25Params (the manual map
    # serves the other copies that assign tasks).
    classified = [args[2] for args in calls.pop("classify_topics")]
    assert len(classified) == 2
    assert set(classified) == {Bm25Params(k1=0.5, b=0.9), Bm25Params(k1=1.2)}
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("name", ["corpus_path", "topics_path"])
def test_a_copy_cannot_change_the_corpus_or_the_topics(name):
    pipeline = Pipeline(BASE)
    with pytest.raises(TaskRankError, match="^a copy shares its pipeline's corpus and topics: "):
        pipeline.with_config(**{name: getattr(BASE, name)})


def test_a_copy_leaves_the_original_as_it_was(tmp_path):
    pipeline = Pipeline(replace(BASE, variant=RunVariant.QUERY_TASK))
    before = {name: value for name, value in vars(pipeline).items()
              if name not in ("_inputs", "_searched")}
    first = run_bytes(pipeline, tmp_path)
    for changes in [{"variant": variant} for variant in RunVariant] + CHANGES:
        pipeline.with_config(**changes).run()
    with pytest.raises(FileNotFoundError):
        pipeline.with_config(variant=RunVariant.VECTOR, vectors_path=str(tmp_path / "absent"))
    after = {name: value for name, value in vars(pipeline).items()
             if name not in ("_inputs", "_searched")}
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before), [
        name for name in before if after[name] is not before[name]]
    assert run_bytes(pipeline, tmp_path) == first


# What a config reads is resolved only by Pipeline._resolve.
RESOLVED = ["load_topics", "load_tasks", "from_file", "load_manual_map", "classify_topics",
            "select_task_terms", "parse_qrels", "build_journal_priors", "build_per_task_priors",
            "proximities"]


def test_pipeline_has_one_resolve_path():
    assert not hasattr(Pipeline, "with_expansion")
    for callee in RESOLVED:
        assert call_sites(Path(pipeline_module.__file__), callee) == {
            ("pipeline.py", "_resolve")}, callee
