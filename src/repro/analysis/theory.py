"""Closed-form bounds from Theorems 1–2, as callable envelopes.

Benchmarks and tests compare measured quantities against these functions.
The margins are printed by the ``theorem1`` harness table
(``python -m repro.cli figure theorem1``) and, for the degree increase,
recorded in ``results/fig8.txt`` next to the log₂ n envelope.
"""

from __future__ import annotations

import math

__all__ = [
    "dash_degree_bound",
    "id_change_bound",
    "message_bound",
    "harmonic",
    "expected_records",
    "levelattack_forced_increase",
    "kary_depth",
]


def dash_degree_bound(n: int) -> float:
    """Theorem 1 / Lemma 6: DASH increases any degree by ≤ 2·log₂ n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * math.log2(n) if n > 1 else 0.0


def id_change_bound(n: int) -> float:
    """Lemma 8's w.h.p. cap on per-node ID changes: 2·ln n.

    (The expectation is H_n ≈ ln n by the record-breaking argument; the
    factor 2 gives the high-probability envelope used in the paper.)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * math.log(n) if n > 1 else 0.0


def message_bound(initial_degree: int, n: int) -> float:
    """Theorem 1: ≤ 2(d + 2·log n)·ln n messages for a degree-d node."""
    if n <= 1:
        return 0.0
    return 2.0 * (initial_degree + 2.0 * math.log2(n)) * math.log(n)


def harmonic(n: int) -> float:
    """H_n = Σ_{k=1..n} 1/k — exact expectation of the record count."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(1.0 / k for k in range(1, n + 1))


def expected_records(n: int) -> float:
    """Expected number of record-breaking minima among n i.i.d. draws.

    This is the exact expectation behind Lemma 8: a node's component ID
    over its lifetime is a sequence of minima of fresh random values, so
    it changes at most as often as records occur — H_n ≈ ln n times.
    """
    return harmonic(n)


def kary_depth(branching: int, n: int) -> int:
    """Depth of the largest complete ``branching``-ary tree with ≤ n nodes."""
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    depth = 0
    size = 1
    while True:
        nxt = size + branching ** (depth + 1)
        if nxt > n:
            return depth
        size = nxt
        depth += 1


def levelattack_forced_increase(max_increase: int, n: int) -> int:
    """Theorem 2: degree increase LEVELATTACK forces from an
    ``max_increase``-degree-bounded healer on an n-node (M+2)-ary tree.

    Equals the tree depth D = Θ(log_{M+2} n).
    """
    return kary_depth(max_increase + 2, n)
