"""Score runs with NDCG@20 / MAP and sweep expansion parameters.

Builds a synthetic experiment where documents are drawn from task-specific
vocabularies and queries are deliberately under-specified, then compares the
plain query pipeline against task-term expansion across a small weighting
grid - the duplication-count grid with 3 or 5 task terms. One pipeline
serves the baseline and every grid cell: each is a copy made by
``Pipeline.with_config``, so the corpus is loaded and indexed once for all.
"""

import json
import random
import tempfile
from pathlib import Path

from taskrank import (
    ExpansionConfig,
    Pipeline,
    PipelineConfig,
    RunVariant,
    evaluate_run,
    parse_qrels,
    sweep,
)

rng = random.Random(1234)
workdir = Path(tempfile.mkdtemp(prefix="taskrank-demo-"))

# Five synthetic tasks; bodies carry task-specific words, titles and
# abstracts only shared ones, so the plain query cannot tell tasks apart.
shared = [f"shared{j}" for j in range(10)]
specific = {t: [f"task{t}word{j}" for j in range(20)] for t in range(5)}

with open(workdir / "corpus.jsonl", "w") as fh:
    doc_no = 0
    for t in range(5):
        for _ in range(80):
            fh.write(json.dumps({
                "doc_id": f"doc{doc_no:04d}",
                "title": " ".join(rng.choices(shared, k=3)),
                "abstract": " ".join(rng.choices(shared, k=4)),
                "body": " ".join(rng.choices(specific[t], k=8) + rng.choices(shared, k=2)),
            }) + "\n")
            doc_no += 1

with open(workdir / "tasks.jsonl", "w") as fh:
    for t in range(5):
        fh.write(json.dumps({
            "task_id": f"task-{t}", "title": f"Task {t}",
            "description": " ".join(specific[t] * 2),
        }) + "\n")

with open(workdir / "topics.jsonl", "w") as tf, \
     open(workdir / "map.txt", "w") as mf, \
     open(workdir / "qrels.txt", "w") as qf:
    for topic_id in range(15):
        t = topic_id % 5
        tf.write(json.dumps({
            "topic_id": topic_id, "query": " ".join(rng.sample(shared, 2)),
        }) + "\n")
        mf.write(f"{topic_id} task-{t} 3\n")
        for doc_no in range(t * 80, (t + 1) * 80):
            qf.write(f"{topic_id} 0 doc{doc_no:04d} 1\n")

with open(workdir / "lexicon.txt", "w") as fh:
    fh.write("\n".join(w for words in specific.values() for w in words))
    fh.write("\n" + "\n".join(shared) + "\n")

base = PipelineConfig(
    corpus_path=str(workdir / "corpus.jsonl"),
    topics_path=str(workdir / "topics.jsonl"),
    variant=RunVariant.QUERY_TASK,
    tasks_path=str(workdir / "tasks.jsonl"),
    manual_map_path=str(workdir / "map.txt"),
    lexicon_path=str(workdir / "lexicon.txt"),
)
qrels = parse_qrels(workdir / "qrels.txt")

pipeline = Pipeline(base)
plain_run = pipeline.with_config(variant=RunVariant.QUERY, manual_map_path=None).run()
plain = evaluate_run(plain_run, qrels, k=20)
print(f"plain query baseline: NDCG@20={plain.mean_ndcg:.4f} MAP={plain.mean_ap:.4f}\n")

grid = [
    ExpansionConfig(dup_query=dup, dup_question=dup, dup_task=1, n_task_terms=n)
    for dup in (1, 2, 3)
    for n in (3, 5)
]
rows = sweep(grid, lambda cfg: pipeline.with_config(expansion=cfg).run(), qrels, k=20)
print(f"{'ndcg@20':<9} {'map':<9} weighting")
for row in rows:
    label = (f"{row.config.dup_query} query : {row.config.dup_question} question "
             f": {row.config.dup_task} task, n={row.config.n_task_terms}")
    print(f"{row.mean_ndcg:<9.4f} {row.mean_ap:<9.4f} {label}")
