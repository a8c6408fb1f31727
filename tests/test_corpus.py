import json
import random

import pytest

from taskrank.corpus import Collection, Document, load_collection, segment_paragraphs
from taskrank.errors import DuplicateDocId, MalformedRecord


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def test_load_three_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [
        {"doc_id": "a", "title": "one"},
        {"doc_id": "b", "abstract": "two"},
        {"doc_id": "c", "body": "three\n\nfour"},
    ])
    coll = load_collection(path)
    assert len(coll) == 3
    assert coll.get("c").body == ("three", "four")


def test_duplicate_doc_id_strict_raises(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"doc_id": "a"}, {"doc_id": "b"}, {"doc_id": "a"}])
    with pytest.raises(DuplicateDocId) as excinfo:
        load_collection(path)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value) == f"{path} line 3: duplicate doc_id 'a'"


def test_malformed_line_strict_raises(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        load_collection(path)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value).startswith(f"{path} line 2: ")


def test_too_deeply_nested_line_is_malformed(tmp_path):
    # json.loads raises RecursionError, not ValueError, past its nesting limit.
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a"}\n' + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        load_collection(path)
    assert excinfo.value.line_no == 2


def test_missing_doc_id_is_malformed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"title": "no id"}])
    with pytest.raises(MalformedRecord):
        load_collection(path)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_collection("/nonexistent/corpus.jsonl")


def test_thousand_record_file_matches_line_scan_oracle(tmp_path):
    rng = random.Random(7)
    records = []
    for i in range(1000):
        records.append({
            "doc_id": f"doc{i:04d}",
            "title": f"title {i}" if rng.random() < 0.8 else "",
            "abstract": f"abstract text {i}" if rng.random() < 0.7 else "",
            "body": "para one\n\npara two" if rng.random() < 0.5 else "",
            "journal": rng.choice(["J One", "J Two", ""]),
            "date": "2020-04-10" if rng.random() < 0.9 else "",
        })
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, records)

    # Oracle: scan the raw file line by line, counting field presence.
    oracle = {"lines": 0, "titles": 0, "abstracts": 0, "journals": 0}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            raw = json.loads(line)
            oracle["lines"] += 1
            oracle["titles"] += bool(raw.get("title"))
            oracle["abstracts"] += bool(raw.get("abstract"))
            oracle["journals"] += bool(raw.get("journal"))

    coll = load_collection(path)
    assert len(coll) == oracle["lines"]
    assert sum(1 for d in coll if d.title) == oracle["titles"]
    assert sum(1 for d in coll if d.abstract) == oracle["abstracts"]
    assert sum(1 for d in coll if d.journal) == oracle["journals"]


def test_load_is_deterministic(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"doc_id": f"d{i}", "title": f"t{i}"} for i in range(20)])
    first = load_collection(path)
    second = load_collection(path)
    assert first == second
    assert [d.doc_id for d in first] == [d.doc_id for d in second]


def test_by_id_is_bijection_onto_positions(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"doc_id": f"d{i}"} for i in range(10)])
    coll = load_collection(path)
    assert sorted(coll.by_id.values()) == list(range(len(coll)))
    for doc_id, idx in coll.by_id.items():
        assert coll.docs[idx].doc_id == doc_id


def test_segment_two_blocks():
    assert segment_paragraphs("A\n\nB") == ["A", "B"]


def test_segment_empty():
    assert segment_paragraphs("") == []
    assert segment_paragraphs("   \n  \n") == []


def test_segment_matches_run_counting_oracle():
    rng = random.Random(13)
    blocks = [f"block {i} line one\nblock {i} line two" for i in range(50)]
    ragged = []
    for block in blocks:
        ragged.append(block)
        ragged.append("\n" * rng.randint(1, 4) + " " * rng.randint(0, 2) + "\n")
    text = "".join(ragged)

    # Oracle: count maximal runs of non-blank lines, no regex.
    runs = 0
    in_run = False
    for line in text.split("\n"):
        if line.strip():
            if not in_run:
                runs += 1
            in_run = True
        else:
            in_run = False

    assert len(segment_paragraphs(text)) == runs == 50


def test_segment_preserves_non_whitespace_characters():
    rng = random.Random(5)
    words = ["alpha", "beta", "gamma", "x1", "y2"]
    for _ in range(50):
        pieces = []
        for _ in range(rng.randint(0, 8)):
            pieces.append(rng.choice(words))
            pieces.append(rng.choice([" ", "\n", "\n\n", "\n \n", "  \n\n\n"]))
        text = "".join(pieces)
        joined = "".join(segment_paragraphs(text))
        assert [c for c in joined if not c.isspace()] == [
            c for c in text if not c.isspace()
        ]


def test_paragraphs_are_trimmed_and_non_empty(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"doc_id": "a", "body": "  first  \n\n\n  \n\nsecond\n"}])
    doc = load_collection(path).get("a")
    assert doc.body == ("first", "second")
    for para in doc.body:
        assert para == para.strip() and para


def test_body_as_list_is_accepted(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [{"doc_id": "a", "body": ["  one ", "", "two"]}])
    assert load_collection(path).get("a").body == ("one", "two")


def test_collection_from_documents_rejects_duplicates():
    with pytest.raises(DuplicateDocId):
        Collection.from_documents([Document(doc_id="a"), Document(doc_id="a")])
