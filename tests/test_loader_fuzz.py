"""Loaders fed arbitrary lines return a value or raise TaskRankError naming
the file and a line number; they never raise anything else."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.corpus import load_collection
from taskrank.errors import MalformedRow, TaskRankError
from taskrank.evaluation import parse_qrels, parse_run
from taskrank.querygen import LexiconExtractor
from taskrank.rerank import InMemoryVectorProvider
from taskrank.tasks import Task, TaskFramework, load_manual_map, load_tasks, load_topics

# Any text on one line: no line breaks, no surrogates.
free_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=20
)
record_lines = st.fixed_dictionaries(
    {"doc_id": st.sampled_from(["a", "b", "", 1, None])},
    optional={
        "title": st.one_of(st.text(max_size=5), st.integers(), st.none()),
        "body": st.one_of(st.text(max_size=8), st.lists(st.text(max_size=3)), st.integers()),
    },
).map(json.dumps)
vector_lines = st.builds(
    lambda key, values: " ".join([key, *values]),
    st.sampled_from(["a", "b", "t"]),
    st.lists(st.sampled_from(["1", "0.5", "-2e3", "nan", "inf", "1e999", "x", "1_0"]),
             max_size=3),
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def assert_names_file_and_line(exc, path, lines):
    match = re.match(rf"{re.escape(str(path))} line (\d+): ", str(exc))
    assert match, str(exc)
    assert 1 <= int(match.group(1)) <= len(lines)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(free_text, record_lines), max_size=8))
def test_corpus_lines_load_or_raise_naming_file_and_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz_corpus.jsonl"
    write_lines(path, lines)
    try:
        collection = load_collection(path)
    except TaskRankError as exc:
        assert_names_file_and_line(exc, path, lines)
    else:
        assert len(collection) == sum(1 for line in lines if line.strip())
        assert len({doc.doc_id for doc in collection}) == len(collection)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(free_text, vector_lines), max_size=8))
def test_vectors_lines_load_or_raise_naming_file_and_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz_vectors.txt"
    write_lines(path, lines)
    try:
        provider = InMemoryVectorProvider.from_file(path)
    except TaskRankError as exc:
        assert_names_file_and_line(exc, path, lines)
    else:
        for parts in (line.split() for line in lines):
            if parts:
                assert provider.vector(parts[0]).tolist() == [float(x) for x in parts[1:]]


# Any bytes on one line: no line breaks, so valid UTF-8 or not.
byte_lines = st.binary(max_size=20).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))
FRAMEWORK = TaskFramework(tasks=(Task("a", "A", "alpha words"), Task("b", "B", "beta words")))
topic_lines = st.fixed_dictionaries(
    {"topic_id": st.sampled_from([1, 2, "3", 1.5, 1e400, None, [1]]),
     "query": st.sampled_from(["alpha", "", 5])},
).map(lambda record: json.dumps(record, allow_nan=True))
task_lines = st.fixed_dictionaries(
    {"task_id": st.sampled_from(["a", "b", "", ["a"]]),
     "description": st.sampled_from(["words", ""])},
    optional={"title": st.sampled_from(["T", 1])},
).map(json.dumps)
# Each loader with lines of its own format that parse, or nearly parse.
LOADERS = {
    "corpus": (load_collection, record_lines),
    "topics": (load_topics, topic_lines),
    "tasks": (load_tasks, task_lines),
    "manual_map": (lambda path: load_manual_map(path, FRAMEWORK),
                   st.sampled_from(["1 a", "2 b 3", "1 b", "3 c", "4 a 4", "# note"])),
    "lexicon": (LexiconExtractor.from_file, free_text),
    "qrels": (parse_qrels, st.sampled_from(["1 0 d 1", "2 0 e 0", "1 0 d 2", "1 0 f -1"])),
    "run": (parse_run, st.sampled_from(["1 Q0 a 1 0.5 t", "1 Q0 b 2 0.4 t", "1 Q0 a 3 0.1 t",
                                        "2 Q0 a 1 x t"])),
    "vectors": (InMemoryVectorProvider.from_file, vector_lines),
}


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_byte_lines_load_or_raise_naming_file_and_line(tmp_path_factory, kind, data):
    loader, valid_lines = LOADERS[kind]
    lines = data.draw(st.lists(
        st.one_of(byte_lines, valid_lines.map(lambda line: line.encode("utf-8"))), max_size=8,
    ))
    path = tmp_path_factory.getbasetemp() / f"fuzz_bytes_{kind}"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    try:
        loader(path)
    except MalformedRow as exc:
        assert_names_file_and_line(exc, path, lines)
    except TaskRankError as exc:
        # A task file with no tasks names only the file.
        assert kind == "tasks" and str(exc) == f"{path}: no tasks"
        assert not any(line.decode("utf-8", "surrogateescape").strip() for line in lines)


TWO_TASKS = TaskFramework((Task("t", "", "d"), Task("u", "", "e")))
NOT_INTEGERS = ["1_0", "+3", "\u0661", "1.0"]


def topic_line(topic_id):
    return json.dumps({"topic_id": topic_id, "query": "q"})


# (loader, a valid line, the line with {} for one integer field) per reader.
INTEGER_FIELDS = {
    "qrels topic": (parse_qrels, "1 0 d 1", "{} 0 e 1"),
    "qrels grade": (parse_qrels, "1 0 d 1", "1 0 e {}"),
    "run topic": (parse_run, "1 Q0 d 1 0.5 t", "{} Q0 e 2 0.4 t"),
    "run rank": (parse_run, "1 Q0 d 1 0.5 t", "1 Q0 e {} 0.4 t"),
    "manual map topic": (lambda p: load_manual_map(p, TWO_TASKS), "1 t", "{} u"),
    "manual map confidence": (lambda p: load_manual_map(p, TWO_TASKS), "1 t", "2 u {}"),
    "topics": (load_topics, topic_line(1), topic_line("{}")),
}


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_every_reader_takes_only_ascii_digits_with_an_optional_minus(tmp_path, field, value):
    load, good, bad = INTEGER_FIELDS[field]
    path = tmp_path / "input.txt"
    write_lines(path, [good, bad.replace("{}", value)])
    with pytest.raises(MalformedRow) as excinfo:
        load(path)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value).startswith(f"{path} line 2: ")
    assert "must be an integer" in str(excinfo.value)
