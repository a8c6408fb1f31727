"""Reciprocal rank fusion of per-index rankings of document positions.

Fused scores are exact: every ``1/(rrf_k + rank)`` lies within a few binades
of the largest, so scaled by ``2**(53 - e)``, ``e`` the smallest exponent, each
is an exact int64 and so is each document's sum. One conversion to float64
rounds that sum correctly, as ``math.fsum`` does. A sum that could need more
than 63 bits (a tiny ``rrf_k`` with long lists) falls back to ``math.fsum``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .indexing import top_ranked


@dataclass(frozen=True)
class FusionConfig:
    rrf_k: float = 60.0

    def __post_init__(self):
        if not (math.isfinite(self.rrf_k) and self.rrf_k > 0):
            raise ValueError("rrf_k must be a finite number > 0")


def rrf_fuse(rankings: list[np.ndarray], doc_rank: np.ndarray, config: FusionConfig,
             top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fuse ranked lists: fused(d) = sum over lists of 1/(rrf_k + rank(d)).

    Each ranking is an array of document positions, best first; ranks start
    at 1 and input scores play no part. Each sum is the correctly rounded
    value of its exact sum, so the result is invariant to the order in which
    the lists are given. Output is (positions, fused scores) sorted by score
    descending, ties by ascending ``doc_rank[position]``, truncated to
    ``top_k``. A position repeated within one list raises ValueError.
    """
    if not rankings:
        raise EmptyInput("rrf_fuse needs at least one ranking")
    rankings = [np.asarray(r, dtype=np.int64) for r in rankings]
    longest = max(map(len, rankings))
    if longest == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    contrib = 1.0 / (config.rrf_k + np.arange(1, longest + 1))
    # Sort (position, list) keys: a document's contributions become one run,
    # and a position repeated within one list becomes two equal keys.
    n_lists = len(rankings)
    keys = np.concatenate([r * n_lists + i for i, r in enumerate(rankings)])
    order = np.argsort(keys)
    keys = keys[order]
    repeated = keys[1:][keys[1:] == keys[:-1]] // n_lists
    if len(repeated):
        raise ValueError(f"doc position {repeated[0]} repeated within one ranking")
    parts = np.concatenate([contrib[:len(r)] for r in rankings])[order]
    docs = keys // n_lists
    starts = np.flatnonzero(np.concatenate(([True], docs[1:] != docs[:-1])))
    docs = docs[starts]
    # Contributions fall with rank: contrib[0] is the largest, contrib[-1] the smallest.
    # A normal smallest term keeps the scaled-back sums exact (no subnormal rounding).
    shift = 53 - int(np.frexp(contrib[-1])[1])
    if contrib[-1] >= np.finfo(float).tiny and n_lists * int(np.ldexp(contrib[0], shift)) < 2**63:
        exact = np.add.reduceat(np.ldexp(parts, shift).astype(np.int64), starts)
        scores = np.ldexp(exact.astype(np.float64), -shift)
    else:
        scores = np.array([math.fsum(run) for run in np.split(parts, starts[1:])])
    return top_ranked(docs, scores, doc_rank, top_k)
