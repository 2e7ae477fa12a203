"""Exact integer kernels behind the ordering oracle, Psi and the shift optimum.

The subset DP has one implementation, whatever is installed, with two
bodies chosen by the number m of members (``benchmarks/bench_kernels.py``
times both over m and prints where they cross):

* m <= ``PY_M``: a loop over Python integers, where numpy's per-call set-up
  costs more than the whole loop;
* m > ``PY_M``: the layered numpy DP, m^2 numpy steps per DP over arrays
  of 2^m entries.

Members of a covering are indexed ``0..m-1``, and each component of each
member carries a *conflict mask*: bit j is set when the component shares a
vertex with member j.  An ordering counts a component exactly when its
member comes before every member in its mask.

Above ``PY_M`` members, exact reductions run before the DP, in the style
of the branch-and-reduce rules for maximum independent set (Akiba and Iwata
2016): components with mask 0 always count, a member with none left goes
last, a member that the front rule of ``_goes_first`` admits goes first,
and what is left splits into the connected parts of the member conflict
graph.  Each part runs the DP body that suits its own size.  At or below
``PY_M`` the loop costs less than the reductions, so it runs directly.

The shift sweep is a longest path over the m(m+1)/2 blocks (p, i] of a
shift permutation's index set, given the value of each block, from every
start p at once.
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


# Largest m run by the plain-integer loop: above it the layered numpy DP
# wins or ties.  On the m single edges of a path the loop takes about 0.43
# ms at m = 9 against 0.76 ms in the layers, 0.91 against 0.93 ms at m = 10
# and 2.1 against 1.2 ms at m = 11 (``benchmarks/bench_kernels.py`` prints
# the sweep).
PY_M = 9


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
            prev = sub ^ (1 << j)
            cand = dp[prev].copy()
            for c in conflicts_per_member[j]:
                cand += (prev & c) == 0
            np.maximum.at(dp, sub, cand)
    return int(dp[size - 1])


def _goes_first(j: int, masks: list[int], live: dict[int, list[int]]) -> bool:
    """The front rule: some optimum puts member j first when each of its
    live components conflicts with one member only, and for every other
    member i, j has at least as many components blocked by i alone as i has
    components blocked by j.  Moving j to the front of an optimum then gains
    the j-components blocked by the members it overtakes (disjoint, since
    each is blocked by one member) and loses at most the components of those
    members that j blocks.  The second count is read from i's masks, not
    j's: once components are dropped, the masks are no longer symmetric."""
    if any(c & (c - 1) for c in masks):
        return False
    bit = 1 << j
    for i, other in live.items():
        if i != j:
            blocked = sum(1 for c in other if c & bit)
            if blocked and masks.count(1 << i) < blocked:
                return False
    return True


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reduce(conflicts_per_member: list[list[int]]) -> tuple[int, list[list[list[int]]]]:
    """Exact reductions, applied until nothing changes: a component with
    mask 0 always counts; a member with no live component goes last, where
    it blocks nothing; a member the front rule admits goes first, where all
    its components count and it blocks every component that touches it.
    Returns the value those settle and what is left, split into the
    connected parts of the member conflict graph, each re-indexed 0..k-1."""
    m = len(conflicts_per_member)
    full = (1 << m) - 1
    live = {j: [c & full & ~(1 << j) for c in masks] for j, masks in enumerate(conflicts_per_member)}
    total = 0
    changed = True
    while changed:
        changed = False
        for j in list(live):
            masks = [c for c in live[j] if c]
            total += len(live[j]) - len(masks)
            if not masks:
                del live[j]
                keep = ~(1 << j)
                for i, other in live.items():
                    live[i] = [c & keep for c in other]
                changed = True
            elif _goes_first(j, masks, live):
                total += len(masks)
                del live[j]
                for i, other in live.items():
                    live[i] = [c for c in other if not c >> j & 1]
                changed = True
            else:
                live[j] = masks
    # the conflict graph is undirected: i and j are adjacent when a component
    # of either one touches the other
    adj = dict.fromkeys(live, 0)
    for j, masks in live.items():
        for c in masks:
            adj[j] |= c
            for i in _bits(c):
                adj[i] |= 1 << j
    parts = []
    unseen = sum(1 << j for j in live)
    while unseen:
        part = frontier = unseen & -unseen
        while frontier:
            j = next(_bits(frontier))
            frontier ^= 1 << j
            new = adj[j] & ~part
            part |= new
            frontier |= new
        unseen &= ~part
        members = list(_bits(part))
        pos = {j: k for k, j in enumerate(members)}
        parts.append([[sum(1 << pos[i] for i in _bits(c)) for c in live[j]] for j in members])
    return total, parts


def _dp(conflicts_per_member: list[list[int]]) -> int:
    """The DP body that suits m = ``len(conflicts_per_member)``."""
    m = len(conflicts_per_member)
    if m <= PY_M:
        return _max_ordering_py(conflicts_per_member)
    return _max_ordering_np(conflicts_per_member)


def max_ordering_value(conflicts_per_member: list[list[int]]) -> int:
    """Max over orderings of the sum of surviving-component counts.

    ``conflicts_per_member[j]`` lists one conflict bitmask per component of
    member j (bit i set when the component shares a vertex with member i).
    Above ``PY_M`` members, the exact reductions of ``_reduce`` run first
    and each part they leave runs the DP body that suits its own size; at or
    below it, the loop costs less than the reductions.
    """
    if len(conflicts_per_member) <= PY_M:
        return _max_ordering_py(conflicts_per_member)
    total, parts = _reduce(conflicts_per_member)
    return total + sum(_dp(part) for part in parts)


# ---------------------------------------------------------------------------
# shift optimum: longest path over block boundaries
# ---------------------------------------------------------------------------


def shift_sweep(block: list[list[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The longest paths over the blocks (p, i] of the index sets I of [m]
    containing m, where I scores the sum of ``block[p][i]`` over its blocks
    (consecutive elements of {0} | I; 0 <= p < i <= m).

    Returns f and, for each p, the lex-min optimal path from p as the
    sorted elements of I after p: f(m) = 0 and f(p) = max_{i > p}
    block[p][i] + f(i), and stepping to the smallest optimal i gives the
    lex-min path, because every path ends in m and so none is a proper
    prefix of another.  f(0) and the path from 0 are the best total and
    the lex-min best index set.
    """
    m = len(block)
    best = [0] * (m + 1)
    path: list[tuple[int, ...]] = [()] * (m + 1)
    for p in range(m - 1, -1, -1):
        row = block[p]
        # the largest total, then the smallest i
        top, i = max((row[i] + best[i], -i) for i in range(p + 1, m + 1))
        best[p], path[p] = top, (-i,) + path[-i]
    return best, path
