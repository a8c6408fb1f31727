"""Loaders fed arbitrary lines return a value or raise TaskRankError naming
the file and a line number; they never raise anything else."""

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.corpus import load_collection
from taskrank.errors import TaskRankError
from taskrank.rerank import InMemoryVectorProvider

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
        assert sorted(collection.by_id.values()) == list(range(len(collection)))


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
