#!/usr/bin/env python3
"""Wire the pipeline to the real CORD-19 / TREC-COVID data.

This script is the optional full-scale path: the bundled fixtures are tiny
and the shipped lexicon extractor is a stand-in for a biomedical NER model,
so published-scale numbers require the real inputs:

  1. CORD-19 metadata.csv (https://www.semanticscholar.org/cord19)
  2. TREC-COVID topics XML and cumulative qrels
     (https://ir.nist.gov/trec-covid/data.html)
  3. optionally, a lexicon exported from a real entity recognizer such as
     ScispaCy (one lowercase term per line) via --lexicon
  4. for the journal.task variant, a manual topic-task map via --manual-map;
     for the vector variant, a vectors file via --vectors

It checks the settings of every requested variant first, converts the
inputs into the corpus/topic formats this package reads, and shifts the
qrels' topic ids by the same --topic-id-offset as the topics. It then loads
and indexes the corpus once, and produces and scores a fusion run per
variant, each a copy of one pipeline (``Pipeline.with_config``).

Example:
    python scripts/trec_covid_integration.py \
        --metadata /data/cord19/metadata.csv \
        --topics-xml /data/topics-rnd4.xml \
        --qrels /data/qrels-rnd4.txt \
        --variants query query+task \
        --workdir /tmp/trec-covid
"""

import argparse
import csv
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from taskrank import Pipeline, PipelineConfig, RunVariant, TaskRankError, cli, write_run
from taskrank.evaluation import DEFAULT_K


def convert_metadata(metadata_csv: Path, corpus_out: Path) -> int:
    """CORD-19 metadata.csv -> corpus JSON lines (title+abstract only).

    Full-text bodies live in the per-paper JSON parses; metadata alone is
    enough for the title+abstract indices and gives the full-text index a
    title+abstract fallback. Extend here if you have the document parses.
    """
    count = 0
    seen = set()
    with open(metadata_csv, encoding="utf-8", newline="") as fh, \
         open(corpus_out, "w", encoding="utf-8") as out:
        for row in csv.DictReader(fh):
            doc_id = (row.get("cord_uid") or "").strip()
            if not doc_id or doc_id in seen:
                continue
            seen.add(doc_id)
            record = {
                "doc_id": doc_id,
                "title": (row.get("title") or "").strip(),
                "abstract": (row.get("abstract") or "").strip(),
                "body": "",
                "journal": (row.get("journal") or "").strip(),
                "date": (row.get("publish_time") or "").strip(),
            }
            out.write(json.dumps(record) + "\n")
            count += 1
    return count


def convert_topics(topics_xml: Path, topics_out: Path, id_offset: int) -> int:
    """TREC-COVID topics XML -> topic JSON lines.

    The shipped manual map numbers topics from 0 while the official XML
    numbers them from 1, so the default offset is -1.
    """
    tree = ET.parse(topics_xml)
    count = 0
    with open(topics_out, "w", encoding="utf-8") as out:
        for topic in tree.getroot().iter("topic"):
            number = int(topic.attrib["number"]) + id_offset
            fields = {child.tag: (child.text or "").strip() for child in topic}
            out.write(json.dumps({
                "topic_id": number,
                "query": fields.get("query", ""),
                "question": fields.get("question", ""),
                "narrative": fields.get("narrative", ""),
            }) + "\n")
            count += 1
    return count


def shift_qrels(qrels_in: Path, qrels_out: Path, id_offset: int) -> int:
    """Official qrels -> a copy whose topic ids carry the topics' offset.

    A line whose first column is not an integer is copied unchanged, so that
    ``taskrank eval`` reports it with its line number.
    """
    count = 0
    with open(qrels_in, encoding="utf-8") as fh, \
         open(qrels_out, "w", encoding="utf-8") as out:
        for line in fh:
            parts = line.split()
            if parts and parts[0].lstrip("-").isdigit():
                parts[0] = str(int(parts[0]) + id_offset)
                count += 1
            out.write(" ".join(parts) + "\n")
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metadata", required=True, type=Path)
    parser.add_argument("--topics-xml", required=True, type=Path)
    parser.add_argument("--qrels", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--variants", nargs="+", default=["query", "query+task"],
                        choices=[variant.value for variant in RunVariant], metavar="VARIANT")
    parser.add_argument("--lexicon", help="richer term lexicon (optional)")
    parser.add_argument("--manual-map", help="manual topic-task map (required by journal.task)")
    parser.add_argument("--vectors", help="vectors file (required by vector)")
    parser.add_argument("--topic-id-offset", type=int, default=-1)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    args = parser.parse_args()

    corpus = args.workdir / "corpus.jsonl"
    topics = args.workdir / "topics.jsonl"
    # The runs carry the shifted topic ids, so they are scored against a
    # qrels copy with the same shift.
    qrels = args.workdir / "qrels.shifted.txt"
    configs = []
    for variant in map(RunVariant, args.variants):
        try:
            configs.append(PipelineConfig(
                corpus_path=str(corpus), topics_path=str(topics), variant=variant,
                lexicon_path=args.lexicon, manual_map_path=args.manual_map,
                vectors_path=args.vectors, qrels_path=str(qrels),
            ))
        except TaskRankError as exc:
            parser.error(str(exc))

    args.workdir.mkdir(parents=True, exist_ok=True)
    print(f"converting {args.metadata} ...")
    print(f"  {convert_metadata(args.metadata, corpus)} documents")
    print(f"converting {args.topics_xml} ...")
    print(f"  {convert_topics(args.topics_xml, topics, args.topic_id_offset)} topics")
    print(f"shifting the topic ids of {args.qrels} ...")
    print(f"  {shift_qrels(args.qrels, qrels, args.topic_id_offset)} judgments")

    print("loading and indexing the corpus ...")
    try:
        pipeline = Pipeline(configs[0])
        for config in configs:
            variant = config.variant.value
            run_path = args.workdir / f"{variant.replace('+', '_').replace('.', '_')}.run"
            print(f"+ {variant}")
            run = pipeline.with_config(variant=config.variant).run()
            write_run(run, str(run_path))
            retrieved = sum(len(r) for r in run.rankings.values())
            print(f"wrote {run_path}: {len(run.rankings)} topics, {retrieved} results")
            code = cli.main(["eval", "--run", str(run_path), "--qrels", str(qrels),
                             "--k", str(args.k)])
            if code:
                return code
    except (TaskRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
