import random
from collections import Counter

import pytest

from taskrank.errors import EmptyQuery, MalformedRow, TopicSetMismatch
from taskrank.tasks import (
    Task,
    TaskAssignment,
    TaskClassifier,
    TaskFramework,
    Topic,
    agreement,
    classify_topics,
    default_framework,
    default_manual_map,
    load_manual_map,
    load_tasks,
    load_topics,
)

# Shipped manual map, per-task counts in framework order.
EXPECTED_COUNTS = {
    "transmission": 10,
    "risk-factors": 6,
    "genetics": 6,
    "vaccines": 12,
    "medical-care": 2,
    "interventions": 5,
    "diagnostics": 1,
    "geographic-spread": 5,
    "ethics": 2,
    "information-sharing": 1,
}


def disjoint_framework(n_tasks=10, words_per_task=12):
    tasks = []
    for t in range(n_tasks):
        vocab = [f"task{t}word{w}" for w in range(words_per_task)]
        tasks.append(
            Task(
                task_id=f"synthetic-{t}",
                title=f"Synthetic task {t}",
                description=" ".join(vocab * 2),
            )
        )
    return TaskFramework(tasks=tuple(tasks))


def test_classify_unique_terms_picks_that_task():
    framework = disjoint_framework(3)
    pred = TaskClassifier(framework).classify("task1word0 task1word5")
    assert pred.task_id == "synthetic-1"
    assert not pred.low_confidence


def test_classify_no_overlap_falls_back_to_first_task():
    framework = disjoint_framework(3)
    pred = TaskClassifier(framework).classify("completely unrelated words")
    assert pred.task_id == "synthetic-0"
    assert pred.low_confidence
    assert pred.score == 0.0


def test_classify_empty_query_rejected():
    framework = disjoint_framework(2)
    with pytest.raises(EmptyQuery):
        TaskClassifier(framework).classify("the of and")


def test_disjoint_vocabularies_classify_perfectly():
    framework = disjoint_framework(10)
    rng = random.Random(17)
    classifier = TaskClassifier(framework)
    for _ in range(50):
        t = rng.randrange(10)
        query = " ".join(
            rng.sample([f"task{t}word{w}" for w in range(12)], k=rng.randint(1, 4))
        )
        assert classifier.classify(query).task_id == f"synthetic-{t}"


def test_classification_invariant_to_task_order():
    framework = disjoint_framework(5)
    reversed_framework = TaskFramework(tasks=tuple(reversed(framework.tasks)))
    for t in range(5):
        query = f"task{t}word0 task{t}word1"
        assert (
            TaskClassifier(framework).classify(query).task_id
            == TaskClassifier(reversed_framework).classify(query).task_id
        )


def make_assignments(mapping):
    return {topic: TaskAssignment(topic_id=topic, task_id=task)
            for topic, task in mapping.items()}


def test_agreement_identical_mappings():
    a = make_assignments({1: "x", 2: "y", 3: "x"})
    assert agreement(a, a) == 1.0


def test_agreement_sixty_six_percent():
    # 33 of 50 topics agree.
    manual = {i: "same" for i in range(50)}
    auto = {i: "same" if i < 33 else "other" for i in range(50)}
    value = agreement(make_assignments(manual), make_assignments(auto))
    assert value == pytest.approx(0.66, abs=1e-12)


def test_agreement_matches_counting_oracle():
    rng = random.Random(23)
    tasks = [f"t{i}" for i in range(10)]
    a_map = {i: rng.choice(tasks) for i in range(1000)}
    b_map = {i: rng.choice(tasks) for i in range(1000)}
    oracle = sum(1 for i in a_map if a_map[i] == b_map[i]) / 1000
    assert agreement(make_assignments(a_map), make_assignments(b_map)) == oracle


def test_agreement_is_symmetric():
    rng = random.Random(31)
    a = make_assignments({i: rng.choice("abc") for i in range(40)})
    b = make_assignments({i: rng.choice("abc") for i in range(40)})
    assert agreement(a, b) == agreement(b, a)


def test_agreement_topic_set_mismatch():
    a = make_assignments({1: "x", 3: "y"})
    b = make_assignments({2: "x", 3: "y"})
    with pytest.raises(TopicSetMismatch, match=r"only one of the two: \[1, 2\]$"):
        agreement(a, b)


def test_shipped_map_topic_8_is_diagnostics():
    assignments = default_manual_map()
    assert assignments[8].task_id == "diagnostics"
    assert assignments[8].confidence in (1, 2, 3)


def test_shipped_map_per_task_counts():
    counts = Counter(a.task_id for a in default_manual_map().values())
    framework = default_framework()
    assert [counts[t.task_id] for t in framework] == list(EXPECTED_COUNTS.values())
    assert sum(counts.values()) == 50


def test_shipped_map_original_thirty_topics():
    first_batch = [a for a in default_manual_map().values() if a.topic_id <= 29]
    assert len(first_batch) == 30
    counts = Counter(a.task_id for a in first_batch)
    assert [counts[t.task_id] for t in default_framework()] == [
        7, 5, 1, 5, 2, 4, 1, 5, 0, 0,
    ]


def test_empty_manual_map_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("", encoding="utf-8")
    assert load_manual_map(path, default_framework()) == {}


def test_manual_map_unknown_task(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("1 no-such-task 3\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="unknown task_id 'no-such-task'") as excinfo:
        load_manual_map(path, default_framework())
    assert excinfo.value.line_no == 1


def test_manual_map_duplicate_topic(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("1 vaccines 3\n1 genetics 3\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="duplicate topic_id 1") as excinfo:
        load_manual_map(path, default_framework())
    assert excinfo.value.line_no == 2


def test_manual_map_confidence_defaults_to_three(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("4 vaccines\n5 genetics 1\n", encoding="utf-8")
    loaded = load_manual_map(path, default_framework())
    assert loaded[4].confidence == 3
    assert loaded[5].confidence == 1


@pytest.mark.parametrize("confidence", [0, 4, True, 3.0, "3"])
def test_assignment_confidence_is_an_annotators_one_to_three_or_none(confidence):
    assert TaskAssignment(topic_id=1, task_id="t").confidence is None
    assert TaskAssignment(topic_id=1, task_id="t", confidence=2).confidence == 2
    with pytest.raises(ValueError, match="confidence must be 1, 2 or 3"):
        TaskAssignment(topic_id=1, task_id="t", confidence=confidence)


@pytest.mark.parametrize("row", ["0", "x vaccines", "1 vaccines high", "1 vaccines 5"])
def test_manual_map_malformed_row_names_line(tmp_path, row):
    path = tmp_path / "map.txt"
    path.write_text(f"# header\n4 vaccines\n{row}\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as excinfo:
        load_manual_map(path, default_framework())
    assert excinfo.value.line_no == 3
    assert excinfo.value.line == row
    assert f"{path} line 3" in str(excinfo.value)


@pytest.mark.parametrize("row, columns", [("1 transmission 2 oops extra", 5),
                                          ("1 vaccines 3 3", 4), ("7", 1)])
def test_manual_map_row_needs_two_or_three_columns(tmp_path, row, columns):
    path = tmp_path / "map.txt"
    path.write_text(f"4 vaccines\n{row}\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=f"{columns} columns, expected 2 or 3") as excinfo:
        load_manual_map(path, default_framework())
    assert excinfo.value.line_no == 2
    assert f"{path} line 2" in str(excinfo.value)


TASK_LINE = '{"task_id": "a", "title": "A", "description": "alpha words"}'
TOPIC_LINE = '{"topic_id": 1, "query": "alpha"}'


@pytest.mark.parametrize("loader, good", [(load_tasks, TASK_LINE), (load_topics, TOPIC_LINE)])
@pytest.mark.parametrize("bad", ["[1, 2]", '{"topic_id": ', '"text"', "{}"])
def test_json_lines_loaders_reject_bad_line_with_its_number(tmp_path, loader, good, bad):
    path = tmp_path / "records.jsonl"
    path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as excinfo:
        loader(path)
    assert excinfo.value.line_no == 3
    assert f"{path} line 3" in str(excinfo.value)


def test_load_tasks_and_topics_roundtrip(tmp_path):
    tasks_path = tmp_path / "tasks.jsonl"
    tasks_path.write_text(
        '{"task_id": "a", "title": "A", "description": "alpha words"}\n'
        '{"task_id": "b", "title": "B", "description": "beta words"}\n',
        encoding="utf-8",
    )
    framework = load_tasks(tasks_path)
    assert [t.task_id for t in framework] == ["a", "b"]

    topics_path = tmp_path / "topics.jsonl"
    topics_path.write_text(
        '{"topic_id": 1, "query": "alpha", "question": "which alpha?"}\n',
        encoding="utf-8",
    )
    topics = load_topics(topics_path)
    assert topics[0] == Topic(topic_id=1, query="alpha", question="which alpha?")


def test_duplicate_topic_id_rejected(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text(
        '{"topic_id": 1, "query": "alpha"}\n{"topic_id": 1, "query": "beta"}\n',
        encoding="utf-8",
    )
    with pytest.raises(MalformedRow, match="duplicate topic_id 1") as excinfo:
        load_topics(path)
    assert excinfo.value.line_no == 2


def test_classify_topics_returns_automatic_assignments():
    framework = disjoint_framework(4)
    topics = [Topic(topic_id=i, query=f"task{i}word0") for i in range(4)]
    assignments = classify_topics(framework, topics)
    assert all(a.confidence is None for a in assignments.values())
    assert [a.task_id for a in assignments.values()] == [f"synthetic-{i}" for i in range(4)]


def test_manual_map_and_classifier_give_assignments_by_topic_as_stored(tmp_path):
    framework = disjoint_framework(3)
    path = tmp_path / "map.txt"
    path.write_text("# topic task confidence\n7 synthetic-2 1\n\n3 synthetic-0\n"
                    "# the last row\n5 synthetic-2 2\n", encoding="utf-8")
    manual = load_manual_map(path, framework)
    assert manual == {
        7: TaskAssignment(7, "synthetic-2", 1),
        3: TaskAssignment(3, "synthetic-0", 3),
        5: TaskAssignment(5, "synthetic-2", 2),
    }
    assert list(manual) == [7, 3, 5]

    topics = [Topic(topic_id=t, query=f"task{t % 3}word1") for t in (5, 7, 3)]
    automatic = classify_topics(framework, topics)
    assert list(automatic) == [5, 7, 3]
    assert automatic == {t: TaskAssignment(t, f"synthetic-{t % 3}") for t in (5, 7, 3)}

    # Counting oracle over the rows: the topics whose manual task is the one
    # the classifier picks for that topic's query (topics 3 and 5).
    rows = [("7", "synthetic-2"), ("3", "synthetic-0"), ("5", "synthetic-2")]
    picked = {"5": "synthetic-2", "7": "synthetic-1", "3": "synthetic-0"}
    oracle = sum(picked[topic] == task for topic, task in rows) / len(rows)
    assert agreement(manual, automatic) == oracle == 2 / 3
