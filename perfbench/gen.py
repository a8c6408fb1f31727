"""Seeded synthetic inputs for the taskrank benchmark.

    python3 perfbench/gen.py --seed 7 --docs 2000 --topics 50 --out DIR

writes, into DIR, the same bytes for the same arguments:

- ``corpus.jsonl``: Zipf-distributed words over a fixed syllable vocabulary;
  title, abstract and 0-6 body paragraphs per document.
- ``topics_short.jsonl`` (query only) and ``topics_long.jsonl`` (query plus a
  question that names frequent lexicon terms, the udel path's long posting
  lists).
- ``tasks.jsonl``, ``lexicon.txt`` and ``manual_map.txt``: a task framework
  over the synthetic vocabulary, so classification, lexicon extraction and
  task-term selection all fire.
- ``qrels1.txt`` and ``qrels2.txt``: two judgment rounds over planted
  relevance. Query and task words are planted into each topic's relevant
  documents, and decoys carry a single query word. Round 1 judges part of the
  pool and round 2 the rest, so residual filtering by round 1 removes real
  judged documents from a run scored against round 2.
- ``grid.jsonl``: an 8-cell expansion grid around 3:3:1.
- ``manifest.json``: document, topic, paragraph-unit and byte counts.

Only numpy's PCG64 stream and integer/float arithmetic feed the output, so
it is byte-identical for a given seed on a given numpy version.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

VOCAB_SIZE = 20000
TASKS = 8
TASK_WORDS = 12
JOURNALS = 40
FREQUENT = range(0, 60)        # ranks of the words the lexicon marks as terms
MID = range(300, 3000)         # ranks of the topic query and task words
RARE = range(5000 + 2 * JOURNALS, VOCAB_SIZE)  # ranks of question filler words
SHAPE_SEED = 20101267

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def vocabulary(size: int = VOCAB_SIZE) -> list[str]:
    """Fixed three-syllable words; none is an English stopword."""
    n = len(_SYLLABLES)
    return [
        _SYLLABLES[i % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[(i // (n * n)) % n]
        for i in range(size)
    ]


class _Words:
    """Zipf (weight 1/rank) draws over a seeded permutation of the vocabulary."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        words = vocabulary()
        order = rng.permutation(len(words))
        self.by_rank = [words[i] for i in order]
        weights = 1.0 / np.arange(1, len(words) + 1)
        self.cdf = np.cumsum(weights) / weights.sum()

    def draw(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        idx = np.minimum(idx, len(self.by_rank) - 1)
        return [self.by_rank[i] for i in idx]


def _plant(words: list[str], planted: list[str], rng: np.random.Generator) -> None:
    """Overwrite random positions of ``words`` with ``planted`` (lengths stay)."""
    for word in planted:
        words[int(rng.integers(0, len(words)))] = word


def generate(out_dir: str, seed: int, docs: int, topics: int) -> None:
    # The seed picks the words, documents and texts. The workload's shape
    # (which frequency ranks the query, task and question words have, and how
    # many documents each topic plants) comes from a fixed stream, so every
    # seed asks the library for the same amount of work.
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    words = _Words(rng)
    os.makedirs(out_dir, exist_ok=True)

    def word(rank: int) -> str:
        return words.by_rank[int(rank)]

    frequent = [word(r) for r in FREQUENT]
    mid_ranks = shape.permutation(np.arange(MID.start, MID.stop))
    task_ranks = mid_ranks[:TASKS * TASK_WORDS].reshape(TASKS, TASK_WORDS)
    query_ranks = iter(mid_ranks[TASKS * TASK_WORDS:])
    task_words = [[word(r) for r in row] for row in task_ranks]
    journals = [f"Journal of {word(5000 + 2 * j).capitalize()} {word(5001 + 2 * j).capitalize()}"
                for j in range(JOURNALS)]

    # Topics: 2-4 mid-frequency query words, one of them from the task
    # cluster, and a question naming 5-9 of the twelve most frequent words.
    # The spread keeps per-topic times varied, as in a real topic set.
    topic_rows = []
    for t in range(topics):
        task = t % TASKS
        query = [task_words[task][int(shape.integers(0, TASK_WORDS))]]
        query += [word(next(query_ranks)) for _ in range(1 + t % 3)]
        question_terms = [frequent[int(r)] for r in shape.choice(12, size=5 + t % 5, replace=False)]
        question_terms.append(task_words[task][int(shape.integers(0, TASK_WORDS))])
        counts = (int(shape.integers(15, 35)), int(shape.integers(10, 25)))
        good_journals = [int(j) for j in rng.choice(JOURNALS, size=2, replace=False)]
        topic_rows.append((t, task, query, question_terms, counts, good_journals))

    # Planted relevance: grade 2 carries every query word in the head, grade 1
    # half of them in a paragraph or the abstract; relevant docs also carry
    # task words. Decoys carry one query word and are judged 0.
    plants: dict[int, list[tuple[str, list[str]]]] = {}
    judged: list[tuple[int, int, int]] = []
    for t, task, query, _, (n_rel, n_decoy), _ in topic_rows:
        chosen = rng.choice(docs, size=n_rel + n_decoy, replace=False)
        for k, d in enumerate(int(x) for x in chosen):
            extra = [task_words[task][int(rng.integers(0, TASK_WORDS))] for _ in range(2)]
            if k < n_rel // 2:
                plants.setdefault(d, []).append(("head", query * 2 + extra))
                judged.append((t, d, 2))
            elif k < n_rel:
                half = query[: max(1, len(query) // 2)]
                plants.setdefault(d, []).append(("any", half * 2 + extra))
                judged.append((t, d, 1))
            else:
                plants.setdefault(d, []).append(("any", [query[k % len(query)]]))
                judged.append((t, d, 0))
    relevant_journal: dict[int, int] = {}
    for t, d, grade in judged:
        if grade > 0 and d not in relevant_journal and rng.random() < 0.6:
            relevant_journal[d] = topic_rows[t][5][int(rng.integers(0, 2))]

    paragraph_units = 0
    with open(os.path.join(out_dir, "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for d in range(docs):
            title = words.draw(int(rng.integers(8, 13)))
            abstract = words.draw(int(rng.integers(100, 201)))
            paragraphs = [words.draw(int(rng.integers(40, 121)))
                          for _ in range(int(rng.integers(0, 7)))]
            for where, planted in plants.get(d, ()):
                if where == "head":
                    _plant(title, planted[:2], rng)
                    _plant(abstract, planted[2:], rng)
                else:
                    target = paragraphs + [abstract]
                    _plant(target[int(rng.integers(0, len(target)))], planted, rng)
            paragraph_units += max(1, len(paragraphs))
            journal = relevant_journal.get(d, int(rng.integers(0, JOURNALS)))
            record = {
                "doc_id": f"doc{d:06d}",
                "title": " ".join(title).capitalize(),
                "abstract": " ".join(abstract),
                "body": "\n\n".join(" ".join(p) for p in paragraphs),
                "journal": journals[journal],
                "date": f"2020-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}",
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    lexicon_pairs = [(c[0], c[1]) for c in task_words]
    with open(os.path.join(out_dir, "tasks.jsonl"), "w", encoding="utf-8") as fh:
        for task, cluster in enumerate(task_words):
            body = words.draw(90)
            _plant(body, cluster * 2 + [" ".join(lexicon_pairs[task])], rng)
            fh.write(json.dumps({
                "task_id": f"task{task}",
                "title": " ".join(cluster[:3]),
                "description": " ".join(body) + ".",
            }, sort_keys=True) + "\n")

    lexicon = sorted(set(frequent) | {w for c in task_words for w in c}
                     | {w for row in topic_rows for w in row[2]}
                     | {" ".join(p) for p in lexicon_pairs})
    with open(os.path.join(out_dir, "lexicon.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(term + "\n" for term in lexicon)

    with open(os.path.join(out_dir, "topics_short.jsonl"), "w", encoding="utf-8") as short, \
            open(os.path.join(out_dir, "topics_long.jsonl"), "w", encoding="utf-8") as long_:
        for t, _, query, question_terms, _, _ in topic_rows:
            short.write(json.dumps({"topic_id": t, "query": " ".join(query)}) + "\n")
            # Filler comes from ranks no lexicon term has, so the question's
            # extracted terms are exactly the planted ones.
            question = query + question_terms
            question += [word(rng.integers(RARE.start, RARE.stop)) for _ in range(8)]
            question = [question[i] for i in rng.permutation(len(question))]
            long_.write(json.dumps({
                "topic_id": t,
                "query": " ".join(query),
                "question": " ".join(question) + "?",
                "narrative": " ".join(words.draw(20)) + ".",
            }, sort_keys=True) + "\n")

    with open(os.path.join(out_dir, "manual_map.txt"), "w", encoding="utf-8") as fh:
        for t, task, *_ in topic_rows:
            fh.write(f"{t} task{task} {int(rng.integers(1, 4))}\n")

    round1 = rng.random(len(judged)) < 0.4
    with open(os.path.join(out_dir, "qrels1.txt"), "w", encoding="utf-8") as q1, \
            open(os.path.join(out_dir, "qrels2.txt"), "w", encoding="utf-8") as q2:
        for (t, d, grade), first in zip(judged, round1):
            (q1 if first else q2).write(f"{t} 0 doc{d:06d} {grade}\n")

    with open(os.path.join(out_dir, "grid.jsonl"), "w", encoding="utf-8") as fh:
        for n_task_terms in (1, 2, 3, 4):
            for dup_task in (1, 2):
                fh.write(json.dumps({"n_task_terms": n_task_terms, "dup_query": 3,
                                     "dup_question": 3, "dup_task": dup_task}) + "\n")

    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"corpus_docs": docs, "topics": topics, "paragraph_units": paragraph_units,
                   "corpus_bytes": os.path.getsize(os.path.join(out_dir, "corpus.jsonl"))},
                  fh, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--topics", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.out, args.seed, args.docs, args.topics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
