"""Workload definitions and helpers shared by the launcher, worker and tests."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

MIN_ROUNDS = 3          # so setup_s and wall_s are medians of three or more
MIN_TOPIC_SAMPLES = 200  # p95 needs ten samples beyond it
NDCG_FLOOR = 0.5        # planted relevance puts every workload well above this


@dataclass(frozen=True)
class Workload:
    docs: int
    topics: int
    topic_file: str
    variant: str
    manual_map: bool
    sweep: bool
    cycles_per_round: int = 1


# Sizes keep a round at 7 to 9 s on 2 CPUs, so a 30-second run holds three
# or four rounds and 22 runs per workload fit in well under an hour.
WORKLOADS = {
    "build-heavy": Workload(docs=2000, topics=400, topic_file="topics_short.jsonl",
                            variant="journal.prior", manual_map=False, sweep=False),
    "search-heavy": Workload(docs=400, topics=200, topic_file="topics_long.jsonl",
                             variant="query+udel+task", manual_map=False, sweep=False),
    "sweep-rebuild": Workload(docs=300, topics=70, topic_file="topics_short.jsonl",
                              variant="query+task", manual_map=True, sweep=True,
                              cycles_per_round=4),
}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses unless ten samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (1.0 - q) < 10:
        raise ValueError(f"p{q * 100:g} needs at least {math.ceil(10 / (1.0 - q))} "
                         f"samples, got {n}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * n) - 1)]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: str, seed: int, observed: dict, pins: dict) -> list[str]:
    """Return every correctness failure of one run; empty means correct.

    ``observed`` holds per-cycle lists ``run_sha256``, ``ndcg20_mean``,
    ``map_mean`` and, for sweeps, ``sweep_sha256``, plus ``failed`` and
    ``skipped``. Every cycle of a run must agree; a seed listed in the pins
    must match them exactly.
    """
    problems = []
    for key in ("run_sha256", "ndcg20_mean", "map_mean", "sweep_sha256"):
        values = observed.get(key)
        if values is None:
            continue
        if len(set(values)) != 1:
            problems.append(f"{key} differs between cycles: {sorted(set(values))}")
    if observed.get("failed"):
        problems.append(f"{observed['failed']} operations failed")
    if observed.get("skipped"):
        problems.append(f"corpus load skipped {observed['skipped']} records")
    ndcg = observed.get("ndcg20_mean") or [0.0]
    if min(ndcg) < NDCG_FLOOR:
        problems.append(f"ndcg20_mean {min(ndcg)} below the floor {NDCG_FLOOR}")
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned:
        for key, expected in pinned.items():
            values = observed.get(key) or [None]
            if values[0] != expected:
                problems.append(f"{key} is {values[0]!r}, pinned {expected!r}")
    return problems
