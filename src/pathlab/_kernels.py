"""Exact integer kernels behind the ordering oracle, Psi and the shift optimum.

The subset DP has one implementation, whatever is installed: a loop over
Python integers for coverings of at most ``SMALL_M`` members and a layered
numpy DP above that (``benchmarks/bench_kernels.py`` times both over m and
prints where they cross).  Members of a covering are indexed ``0..m-1``, and
each component of each member carries a *conflict mask*: bit j is set when
the component shares a vertex with member j.

The shift sweep is a longest path over the m(m+1)/2 blocks (p, i] of a
shift permutation's index set, given the value of each block.
"""

from __future__ import annotations

import numpy as np

# No kernel is compiled; the benchmark harness reports this flag.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# subset DP: maximum vector-component value over all orderings of a covering
# ---------------------------------------------------------------------------


def _popcount32(a: np.ndarray) -> np.ndarray:
    v = a.astype(np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return ((v * 0x01010101) >> 24).astype(np.int64)


# Largest m run by the plain-integer loop: at m = 10 the loop and the numpy
# layers take about the same time, above it numpy wins by a growing factor
# (1.4-1.8x at m = 11, 2-3x at m = 12; ``benchmarks/bench_kernels.py`` prints
# the sweep).
SMALL_M = 10


def _max_ordering_py(conflicts_per_member: list[list[int]]) -> int:
    """Subset DP over Python integers, for small m, where numpy's per-call
    set-up costs more than the whole loop."""
    m = len(conflicts_per_member)
    members = [(1 << j, masks) for j, masks in enumerate(conflicts_per_member)]
    dp = [0] * (1 << m)
    for s in range(1, 1 << m):
        best = 0
        for bit, masks in members:
            if s & bit:
                prev = s ^ bit
                v = dp[prev]
                for c in masks:
                    if not prev & c:
                        v += 1
                if v > best:
                    best = v
        dp[s] = best
    return dp[-1]


def _max_ordering_np(conflicts_per_member: list[list[int]]) -> int:
    """Layer-by-popcount vectorized subset DP.  ``dp`` is int32: a value is
    at most the covering's component count, which any covering that fits in
    memory keeps below 2^31."""
    m = len(conflicts_per_member)
    size = 1 << m
    dp = np.zeros(size, np.int32)
    idx_all = np.arange(size, dtype=np.int64)
    pc = _popcount32(idx_all)
    for layer in range(1, m + 1):
        idx = idx_all[pc == layer]
        for j in range(m):
            sub = idx[(idx >> j) & 1 == 1]
            if sub.size == 0:
                continue
            prev = sub ^ (1 << j)
            cand = dp[prev].copy()
            for c in conflicts_per_member[j]:
                cand += (prev & c) == 0
            np.maximum.at(dp, sub, cand)
    return int(dp[size - 1])


def max_ordering_value(conflicts_per_member: list[list[int]]) -> int:
    """Max over orderings of the sum of surviving-component counts.

    ``conflicts_per_member[j]`` lists one conflict bitmask per component of
    member j (bit i set when the component shares a vertex with member i).
    """
    if len(conflicts_per_member) <= SMALL_M:
        return _max_ordering_py(conflicts_per_member)
    return _max_ordering_np(conflicts_per_member)


# ---------------------------------------------------------------------------
# shift optimum: longest path over block boundaries
# ---------------------------------------------------------------------------


def shift_sweep(block: list[list[int]]) -> tuple[int, list[int]]:
    """Best total and lex-min sorted index set over the index sets I of [m]
    containing m, where I scores the sum of ``block[p][i]`` over its blocks
    (p, i] (consecutive elements of {0} | I; 0 <= p < i <= m).

    f(m) = 0 and f(p) = max_{i > p} block[p][i] + f(i); walking from p = 0
    to the smallest optimal i at each step gives the lex-min set, because
    every index set ends in m and so none is a proper prefix of another.
    """
    m = len(block)
    best = [0] * (m + 1)
    for p in range(m - 1, -1, -1):
        row = block[p]
        best[p] = max(row[i] + best[i] for i in range(p + 1, m + 1))
    index_set = []
    p = 0
    while p < m:
        row, target = block[p], best[p]
        p = next(i for i in range(p + 1, m + 1) if row[i] + best[i] == target)
        index_set.append(p)
    return best[0], index_set
