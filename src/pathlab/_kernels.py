"""Hot integer kernels behind the ordering and shift-permutation searches.

The subset DP has one exact implementation, whatever is installed: a loop
over Python integers for coverings of at most ``SMALL_M`` members and a
layered numpy DP above that (``benchmarks/bench_kernels.py`` times both
over m and prints where they cross).  The shift sweep has a numba ``@njit``
version and a pure-python fallback; the fallback is selected when numba is
not importable or when the environment variable ``PATHLAB_NO_NUMBA`` is set
to a non-empty value other than ``0``.

Data layout shared by both kernels:

* members of a covering are indexed ``0..m-1``;
* for the subset DP, each component of each member carries a *conflict mask*
  (bit j set when the component shares a vertex with member j);
* for the shift sweep, each component carries a *vertex mask* over a window
  of at most 63 consecutive integers, plus its length.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_FALLBACK = os.environ.get("PATHLAB_NO_NUMBA", "") not in ("", "0")

try:
    if _FORCE_FALLBACK:
        raise ImportError("numba disabled by PATHLAB_NO_NUMBA")
    from numba import njit  # type: ignore

    USING_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    USING_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


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
# shift-permutation sweep
# ---------------------------------------------------------------------------

OBJ_DELTA = 0
OBJ_LAMBDA = 1
OBJ_LAMBDA_DELTA = 2


@njit(cache=True)
def _shift_sweep_nb(comp_vmask, comp_len, offsets, gmask, m, objective):  # pragma: no cover
    n_masks = 1 << (m - 1)
    out = np.zeros(n_masks, np.int32)
    order = np.zeros(m, np.int64)
    for imask in range(n_masks):
        pos = 0
        prev = 0
        for e in range(1, m + 1):
            if e == m or (imask >> (e - 1)) & 1:
                order[pos] = e
                pos += 1
                for x in range(prev + 1, e):
                    order[pos] = x
                    pos += 1
                prev = e
        u = 0
        total = 0
        for p in range(m):
            g = order[p] - 1
            d = 0
            best_len = 0
            for c in range(offsets[g], offsets[g + 1]):
                if comp_vmask[c] & u == 0:
                    d += 1
                    if comp_len[c] > best_len:
                        best_len = comp_len[c]
            if objective == 0:
                total += d
            elif objective == 1:
                total += best_len
            else:
                total += best_len * d
            u |= gmask[g]
        out[imask] = total
    return out


def _shift_order(m: int, imask: int) -> list[int]:
    """Visit order of graph indices (1-based) for the shift permutation whose
    index set is {elements of imask} | {m} (bit e-1 encodes element e)."""
    order: list[int] = []
    prev = 0
    for e in range(1, m + 1):
        if e == m or (imask >> (e - 1)) & 1:
            order.append(e)
            order.extend(range(prev + 1, e))
            prev = e
    return order


def _sweep_order_value(order, comp_vmask, comp_len, offsets, gmask, objective) -> int:
    u = 0
    total = 0
    for e in order:
        g = e - 1
        d = 0
        best_len = 0
        for c in range(offsets[g], offsets[g + 1]):
            if comp_vmask[c] & u == 0:
                d += 1
                if comp_len[c] > best_len:
                    best_len = comp_len[c]
        if objective == OBJ_DELTA:
            total += d
        elif objective == OBJ_LAMBDA:
            total += best_len
        else:
            total += best_len * d
        u |= gmask[g]
    return total


def _shift_sweep_py(comp_vmask, comp_len, offsets, gmask, m, objective):
    out = np.zeros(1 << (m - 1), np.int32)
    for imask in range(1 << (m - 1)):
        out[imask] = _sweep_order_value(
            _shift_order(m, imask), comp_vmask, comp_len, offsets, gmask, objective
        )
    return out


def shift_sweep(comp_vmask, comp_len, offsets, gmask, m: int, objective: int):
    """Objective value of every shift permutation of m graphs, indexed by the
    bitmask of the index set restricted to elements 1..m-1."""
    if USING_NUMBA:
        return _shift_sweep_nb(comp_vmask, comp_len, offsets, gmask, m, objective)
    return _shift_sweep_py(comp_vmask, comp_len, offsets, gmask, m, objective)
