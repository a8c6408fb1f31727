"""Acceptance suite: one test per criterion, in order.

Each test prints a single "[acceptance] criterion N (...): PASS|FAIL" line.
Oracles here are written from first principles and stay independent of the
library code paths they check.
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from taskrank.cli import main
from taskrank.corpus import Collection, Document
from taskrank.evaluation import Qrels, Run, evaluate_run, map_metric, ndcg_at_k
from taskrank.fusion import FusionConfig, rrf_fuse
from taskrank.indexing import Bm25Params, IndexVariant, Tokenizer, build_index, search
from taskrank.pipeline import Pipeline, PipelineConfig, RunVariant
from taskrank.querygen import ExpansionConfig, QueryBase, generate_task_expanded
from taskrank.rerank import JournalPriorTable, build_journal_priors, normalize_journal
from taskrank.tasks import (
    AssignmentSource,
    Task,
    TaskAssignment,
    TaskClassifier,
    TaskFramework,
    Topic,
    agreement,
    default_manual_map,
)

REPO_ROOT = Path(__file__).parent.parent
PARAMS = Bm25Params()


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_full_scale_reproduction_is_documented():
    with criterion(1, "full-scale reproduction documented"):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for needle in ("CORD-19", "TREC-COVID", "ScispaCy"):
            assert needle in readme
        assert (REPO_ROOT / "scripts" / "trec_covid_integration.py").is_file()


def reference_ndcg(ranking, judged, k):
    dcg = 0.0
    for i in range(min(k, len(ranking))):
        dcg += judged.get(ranking[i], 0) / math.log2(i + 2)
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def reference_ap(ranking, judged):
    total_relevant = sum(1 for g in judged.values() if g >= 1)
    if total_relevant == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for i, doc in enumerate(ranking):
        if judged.get(doc, 0) >= 1:
            hits += 1
            acc += hits / (i + 1)
    return acc / total_relevant


def test_criterion_2_metric_oracle_equivalence():
    with criterion(2, "NDCG@20/MAP match brute-force reference"):
        rng = random.Random(2024)
        started = time.perf_counter()
        for _ in range(100):
            n_topics = rng.randint(1, 20)
            docs = [f"d{i:03d}" for i in range(rng.randint(5, 200))]
            run = Run(run_tag="acc")
            judged_by_topic = {}
            for topic in range(1, n_topics + 1):
                depth = rng.randint(0, min(50, len(docs)))
                run.rankings[topic] = [
                    (d, float(depth - i)) for i, d in enumerate(rng.sample(docs, depth))
                ]
                judged_by_topic[topic] = {
                    d: rng.choice([0, 0, 1, 2])
                    for d in rng.sample(docs, rng.randint(0, min(40, len(docs))))
                }
            qrels = Qrels()
            for topic, judged in judged_by_topic.items():
                for doc, grade in judged.items():
                    qrels.judgments[(topic, doc)] = grade

            got_ndcg = ndcg_at_k(run, qrels, 20)
            got_ap = map_metric(run, qrels)
            for topic in run.rankings:
                ranking = [d for d, _ in run.rankings[topic]]
                judged = judged_by_topic[topic]
                assert got_ndcg[topic] == pytest.approx(
                    reference_ndcg(ranking, judged, 20), abs=1e-6
                )
                assert got_ap[topic] == pytest.approx(
                    reference_ap(ranking, judged), abs=1e-6
                )
        assert time.perf_counter() - started < 10.0


def build_synthetic_collection(n_docs, rng):
    vocab = [f"term{i:02d}" for i in range(40)]
    docs = []
    for i in range(n_docs):
        docs.append(
            Document(
                doc_id=f"doc{i:03d}",
                title=" ".join(rng.choices(vocab, k=rng.randint(1, 5))),
                abstract=" ".join(rng.choices(vocab, k=rng.randint(0, 15))),
                body=tuple(
                    " ".join(rng.choices(vocab, k=rng.randint(3, 12)))
                    for _ in range(rng.randint(0, 3))
                ),
            )
        )
    return Collection.from_documents(docs), vocab


def unit_token_lists(collection, variant, tokenizer):
    units = {}
    for doc in collection:
        head = f"{doc.title} {doc.abstract}"
        if variant is IndexVariant.FULL_TEXT:
            texts = [" ".join([head, *doc.body])]
        elif variant is IndexVariant.TITLE_ABSTRACT:
            texts = [head]
        else:
            texts = [f"{head} {p}" for p in doc.body] if doc.body else [head]
        for k, text in enumerate(texts):
            units[(doc.doc_id, k)] = tokenizer.tokenize(text)
    return units


def exhaustive_search(units, params, query_tokens, top_k):
    n = len(units)
    avg = sum(len(tokens) for tokens in units.values()) / n
    df = {
        t: sum(1 for tokens in units.values() if t in tokens)
        for t in set(query_tokens)
    }
    idf = {t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()}
    doc_scores = {}
    for (doc_id, _), tokens in units.items():
        norm = params.k1 * (1.0 - params.b + params.b * len(tokens) / avg)
        score = 0.0
        for token in query_tokens:
            tf = tokens.count(token)
            if tf:
                score += idf[token] * tf * (params.k1 + 1.0) / (tf + norm)
        if score > 0.0 and score > doc_scores.get(doc_id, 0.0):
            doc_scores[doc_id] = score
    return sorted(doc_scores.items(), key=lambda item: (-item[1], item[0]))[:top_k]


def test_criterion_3_search_matches_exhaustive_oracle():
    with criterion(3, "search equals score-every-unit oracle on all variants"):
        rng = random.Random(301)
        started = time.perf_counter()
        collection, vocab = build_synthetic_collection(100, rng)
        tokenizer = Tokenizer()
        pool = vocab + ["unknownword"]
        queries = [
            rng.choices(pool, k=rng.randint(1, 4)) for _ in range(50)
        ]
        for variant in IndexVariant:
            index = build_index(collection, variant, tokenizer)
            units = unit_token_lists(collection, variant, tokenizer)
            for query in queries:
                got = search(index, PARAMS, query, 100)
                want = exhaustive_search(units, PARAMS, query, 100)
                assert got == want
        assert time.perf_counter() - started < 30.0


def test_criterion_4_rrf_correctness():
    with criterion(4, "reciprocal rank fusion"):
        rng = random.Random(404)
        config = FusionConfig(rrf_k=60.0)
        pool = [f"doc{i:03d}" for i in range(120)]
        rankings = [
            [(d, float(50 - i)) for i, d in enumerate(rng.sample(pool, 50))]
            for _ in range(3)
        ]
        fused = rrf_fuse(rankings, config, 500)
        reference = {}
        for doc in {d for r in rankings for d, _ in r}:
            parts = []
            for ranking in rankings:
                for rank, (doc_id, _) in enumerate(ranking, start=1):
                    if doc_id == doc:
                        parts.append(1.0 / (60.0 + rank))
            reference[doc] = math.fsum(parts)
        expected = sorted(reference.items(), key=lambda item: (-item[1], item[0]))
        assert fused == expected

        single = [("z", 2.0), ("a", 1.5), ("m", 1.0)]
        assert [d for d, _ in rrf_fuse([single], config, 10)] == ["z", "a", "m"]

        lone = rrf_fuse([[("only", 1.0)], [], []], config, 10)
        assert abs(lone[0][1] - 1.0 / 61.0) < 1e-12


def test_criterion_5_journal_prior_endpoints_and_per_task_oracle():
    with criterion(5, "journal prior endpoints and per-task counting"):
        rng = random.Random(505)
        journals = ["Alpha Journal", "Beta Review", "Gamma Letters", "Delta Notes"]
        docs = {f"d{i:02d}": rng.choice(journals) for i in range(40)}
        collection = Collection.from_documents(
            [Document(doc_id=d, title=d, journal=j) for d, j in docs.items()]
        )
        manual_map = [
            TaskAssignment(topic_id=t, task_id="alpha" if t <= 3 else "beta",
                           source=AssignmentSource.MANUAL)
            for t in range(1, 7)
        ]
        rows = []
        for topic in range(1, 7):
            for doc in rng.sample(list(docs), 15):
                rows.append((topic, doc, rng.choice([0, 0, 1, 2])))
        qrels = Qrels()
        for topic, doc, grade in rows:
            qrels.judgments[(topic, doc)] = grade

        # Endpoint cases, exact.
        endpoint_coll = Collection.from_documents(
            [Document(doc_id=f"e{i}", title="t", journal="Endpoint J") for i in range(4)]
        )
        all_rel = Qrels()
        for i in range(4):
            all_rel.judgments[(1, f"e{i}")] = 1
        assert build_journal_priors(all_rel, endpoint_coll).score("Endpoint J") == 1.0
        all_irr = Qrels()
        for i in range(4):
            all_irr.judgments[(1, f"e{i}")] = 0
        assert build_journal_priors(all_irr, endpoint_coll).score("Endpoint J") == -1.0
        even = Qrels()
        even.judgments[(1, "e0")] = 1
        even.judgments[(1, "e1")] = 0
        assert build_journal_priors(even, endpoint_coll).score("Endpoint J") == 0.0
        assert JournalPriorTable(scores={}).score("Unknown Journal") == 0.0

        # Per-task table against a counting oracle over the raw rows.
        table = build_journal_priors(qrels, collection, task_id="alpha",
                                     manual_map=manual_map)
        alpha_topics = {1, 2, 3}
        counts = {}
        for topic, doc, grade in rows:
            # qrels keep the last grade per (topic, doc)
            counts[(topic, doc)] = grade
        per_journal = {}
        for (topic, doc), grade in counts.items():
            if topic not in alpha_topics:
                continue
            journal = normalize_journal(docs[doc])
            rel, tot = per_journal.get(journal, (0, 0))
            per_journal[journal] = (rel + (1 if grade >= 1 else 0), tot + 1)
        for journal, (rel, tot) in per_journal.items():
            assert table.score(journal) == pytest.approx(2 * rel / tot - 1, abs=1e-12)


def test_criterion_6_expansion_weighting():
    with criterion(6, "duplication weighting and task-term routing"):
        topic = Topic(topic_id=1, query="qalpha qbeta",
                      question="qgamma qalpha qdelta")
        config = ExpansionConfig(n_task_terms=3, dup_query=3, dup_question=3, dup_task=1)
        assignment = TaskAssignment(topic_id=1, task_id="t",
                                    source=AssignmentSource.MANUAL)

        # Plain base: every query token three times, task tokens once.
        generated = generate_task_expanded(
            topic, QueryBase.PLAIN, ["tone", "ttwo", "tthree"], config,
            assignment=assignment,
        )
        full = Counter(generated.tokens(IndexVariant.FULL_TEXT))
        assert full == Counter(
            {"qalpha": 3, "qbeta": 3, "tone": 1, "ttwo": 1, "tthree": 1}
        )
        for variant in (IndexVariant.TITLE_ABSTRACT,
                        IndexVariant.TITLE_ABSTRACT_PARAGRAPH):
            other = Counter(generated.tokens(variant))
            assert other == Counter({"qalpha": 3, "qbeta": 3})
            for term in ("tone", "ttwo", "tthree"):
                assert other[term] == 0

        # Duplication linearity at the BM25 level: a full-text unit is one
        # document, so each document's score is its unit's score. The term
        # has two characters; a one-character token is never indexed.
        coll = Collection.from_documents([
            Document(doc_id="a", title="xx filler words here"),
            Document(doc_id="b", title="xx xx other words"),
        ])
        index = build_index(coll, IndexVariant.FULL_TEXT)
        once = search(index, PARAMS, ["xx"], 2)
        twice = search(index, PARAMS, ["xx", "xx"], 2)
        assert [doc for doc, _ in once] == [doc for doc, _ in twice] == ["b", "a"]
        for (_, one), (_, two) in zip(once, twice):
            assert two == pytest.approx(2.0 * one, abs=1e-12)


def test_criterion_7_classifier_benchmark_and_agreement_oracle():
    with criterion(7, "classifier accuracy and agreement counting"):
        rng = random.Random(707)
        tasks = []
        vocab_by_task = {}
        for t in range(10):
            vocab = [f"task{t}word{w}" for w in range(15)]
            vocab_by_task[t] = vocab
            tasks.append(Task(task_id=f"syn-{t}", title=f"Task {t}",
                              description=" ".join(vocab * 2)))
        framework = TaskFramework(tasks=tuple(tasks))
        classifier = TaskClassifier(framework)
        correct = 0
        for _ in range(200):
            t = rng.randrange(10)
            query = " ".join(rng.sample(vocab_by_task[t], k=rng.randint(1, 4)))
            correct += classifier.classify(query).task_id == f"syn-{t}"
        assert correct == 200

        manual = default_manual_map()
        task_ids = sorted({a.task_id for a in manual})
        synthetic_auto = [
            TaskAssignment(topic_id=a.topic_id, task_id=rng.choice(task_ids),
                           source=AssignmentSource.AUTOMATIC)
            for a in manual
        ]
        got = agreement(manual, synthetic_auto)
        manual_by_topic = {a.topic_id: a.task_id for a in manual}
        oracle = sum(
            1 for a in synthetic_auto if manual_by_topic[a.topic_id] == a.task_id
        ) / len(manual)
        assert got == oracle
        assert len(manual) == 50


def test_criterion_8_golden_files_and_thread_determinism(mini, golden_dir, tmp_path):
    with criterion(8, "byte-identical runs across invocations"):
        cases = [
            ("query", [], "query.run"),
            (
                "query+udel+task",
                ["--manual-map", mini["manual_map"]],
                "query_udel_task.run",
            ),
        ]
        for variant, extra, golden_name in cases:
            golden = (golden_dir / golden_name).read_bytes()
            for attempt in range(2):
                out = tmp_path / f"{variant}-{attempt}.run"
                code = main([
                    "run",
                    "--corpus", mini["corpus"],
                    "--topics", mini["topics"],
                    "--tasks", mini["tasks"],
                    "--lexicon", mini["lexicon"],
                    *extra,
                    "--variant", variant,
                    "--output", str(out),
                ])
                assert code == 0
                assert out.read_bytes() == golden


def write_directional_fixture(root, rng):
    """1,000-doc corpus over 5 task vocabularies.

    Titles and abstracts carry only shared (non-discriminating) words; bodies
    carry task-specific words. Queries are two shared words, so the plain
    query cannot identify the topic's task, while the task description is
    loaded with that task's specific vocabulary.
    """
    n_tasks, docs_per_task = 5, 200
    shared = [f"shared{j:02d}" for j in range(12)]
    specific = {
        t: [f"task{t}spec{j:02d}" for j in range(30)] for t in range(n_tasks)
    }

    corpus_path = root / "corpus.jsonl"
    qrels_rows = []
    with open(corpus_path, "w", encoding="utf-8") as fh:
        doc_no = 0
        for t in range(n_tasks):
            for _ in range(docs_per_task):
                doc_id = f"doc{doc_no:04d}"
                doc_no += 1
                body_words = rng.choices(specific[t], k=10) + rng.choices(shared, k=3)
                rng.shuffle(body_words)
                record = {
                    "doc_id": doc_id,
                    "title": " ".join(rng.choices(shared, k=3)),
                    "abstract": " ".join(rng.choices(shared, k=5)),
                    "body": " ".join(body_words[:7]) + "\n\n" + " ".join(body_words[7:]),
                }
                fh.write(json.dumps(record) + "\n")
                qrels_rows.append((t, doc_id))

    tasks_path = root / "tasks.jsonl"
    with open(tasks_path, "w", encoding="utf-8") as fh:
        for t in range(n_tasks):
            description = " ".join(specific[t] * 2 + shared[:2])
            fh.write(json.dumps({
                "task_id": f"syn-{t}",
                "title": f"Synthetic task {t}",
                "description": description,
            }) + "\n")

    topics_path = root / "topics.jsonl"
    map_path = root / "map.txt"
    qrels_path = root / "qrels.txt"
    with open(topics_path, "w", encoding="utf-8") as tf, \
         open(map_path, "w", encoding="utf-8") as mf, \
         open(qrels_path, "w", encoding="utf-8") as qf:
        topic_id = 0
        for t in range(n_tasks):
            for _ in range(5):
                query = " ".join(rng.sample(shared, 2))
                tf.write(json.dumps({"topic_id": topic_id, "query": query}) + "\n")
                mf.write(f"{topic_id} syn-{t} 3\n")
                for task_of_doc, doc_id in qrels_rows:
                    if task_of_doc == t:
                        qf.write(f"{topic_id} 0 {doc_id} 1\n")
                topic_id += 1

    lexicon_path = root / "lexicon.txt"
    with open(lexicon_path, "w", encoding="utf-8") as fh:
        for words in specific.values():
            fh.write("\n".join(words) + "\n")
        fh.write("\n".join(shared) + "\n")
    return corpus_path, topics_path, tasks_path, map_path, qrels_path, lexicon_path


def test_criterion_9_task_expansion_beats_plain_query(tmp_path):
    with criterion(9, "query+task beats query by >= 0.05 NDCG@20"):
        started = time.perf_counter()
        rng = random.Random(909)
        corpus, topics, tasks, manual_map, qrels_path, lexicon = \
            write_directional_fixture(tmp_path, rng)

        def run_variant(variant):
            config = PipelineConfig(
                corpus_path=str(corpus),
                topics_path=str(topics),
                variant=variant,
                tasks_path=str(tasks),
                manual_map_path=str(manual_map) if variant is not RunVariant.QUERY else None,
                lexicon_path=str(lexicon),
                top_k=1000,
            )
            return Pipeline(config).run()

        from taskrank.evaluation import parse_qrels

        qrels = parse_qrels(qrels_path)
        plain = evaluate_run(run_variant(RunVariant.QUERY), qrels, k=20)
        expanded = evaluate_run(run_variant(RunVariant.QUERY_TASK), qrels, k=20)
        gap = expanded.mean_ndcg - plain.mean_ndcg
        print(
            f"[acceptance] directional NDCG@20: query={plain.mean_ndcg:.4f} "
            f"query+task={expanded.mean_ndcg:.4f} gap={gap:.4f}"
        )
        assert gap >= 0.05
        assert time.perf_counter() - started < 120.0
