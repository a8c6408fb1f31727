"""Reciprocal rank fusion of per-index rankings of document positions.

Fused scores are exact: every ``1/(rrf_k + rank)`` lies within a few binades
of the largest, so scaled by ``2**(53 - e)``, ``e`` the smallest exponent, each
is an exact int64. Each list adds its scaled terms into one zeroed int64
array indexed by document position, up to the largest given, so each
document's sum is exact in any order and needs no sort. One conversion to
float64 rounds it correctly, as ``math.fsum`` does; a sum that could need
more than 63 bits (a tiny ``rrf_k`` with long lists) falls back to it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TaskRankError
from .indexing import top_ranked


@dataclass(frozen=True)
class FusionConfig:
    rrf_k: float = 60.0

    def __post_init__(self):
        if not (math.isfinite(self.rrf_k) and self.rrf_k > 0):
            raise ValueError("rrf_k must be a finite number > 0")


def rrf_fuse(rankings: list[np.ndarray], config: FusionConfig,
             top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fuse ranked lists: fused(d) = sum over lists of 1/(rrf_k + rank(d)).

    Each ranking is an array of non-negative document positions, best first;
    ranks start at 1 and input scores play no part. Each sum is the correctly
    rounded value of its exact sum, so the result is invariant to the order
    in which the lists are given. Output is (positions, fused scores) sorted
    by score descending, ties by ascending position (doc_id order for an
    index's positions), truncated to ``top_k``. A negative position (the
    smallest is named), a position repeated within one list, or a ``top_k``
    below 1, raises ValueError.
    """
    if not rankings:
        raise TaskRankError("rrf_fuse needs at least one ranking")
    rankings = [np.asarray(r, dtype=np.int64) for r in rankings]
    longest = max(map(len, rankings))
    if longest == 0:
        return top_ranked(np.zeros(0, dtype=np.int64), np.zeros(0), top_k)
    # Seen as unsigned, a negative position is 2**63 or more.
    largest = max(int(r.view(np.uint64).max(initial=0)) for r in rankings)
    if largest >= 2**63:
        smallest = min(int(r.min(initial=0)) for r in rankings)
        raise ValueError(f"doc position {smallest} is negative")
    # How many lists hold each position. The buffered ``+=`` adds once per
    # distinct index, so a position repeated within one list falls short.
    held = np.zeros(1 + largest, dtype=np.int64)
    for r in rankings:
        held[r] += 1
    if held.sum() < sum(map(len, rankings)):
        repeated = min(p for r in rankings for p in np.flatnonzero(np.bincount(r) > 1).tolist())
        raise ValueError(f"doc position {repeated} repeated within one ranking")
    docs = np.flatnonzero(held)
    contrib = 1.0 / (config.rrf_k + np.arange(1, longest + 1))
    # Contributions fall with rank: contrib[0] is the largest, contrib[-1] the smallest.
    # A normal smallest term keeps the scaled-back sums exact (no subnormal rounding).
    shift = 53 - math.frexp(contrib[-1])[1]
    largest = int(math.ldexp(contrib[0], shift))
    if contrib[-1] >= sys.float_info.min and len(rankings) * largest < 2**63:
        scaled = np.ldexp(contrib, shift).astype(np.int64)
        exact = np.zeros(len(held), dtype=np.int64)
        for r in rankings:  # its positions are distinct, so none collide
            exact[r] += scaled[:len(r)]
        scores = np.ldexp(exact[docs].astype(np.float64), -shift)
    else:
        # Sort the contributions by position: each document's become one run.
        positions = np.concatenate(rankings)
        order = np.argsort(positions, kind="stable")
        parts = np.concatenate([contrib[:len(r)] for r in rankings])[order]
        starts = np.searchsorted(positions[order], docs)
        scores = np.array([math.fsum(run) for run in np.split(parts, starts[1:])])
    return top_ranked(docs, scores, top_k)
