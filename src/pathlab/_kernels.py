"""Exact integer kernels behind the ordering oracle, Psi and the shift optimum.

The subset DP has one implementation, whatever is installed, with three
bodies chosen by the number m of members (``benchmarks/bench_kernels.py``
times all three over m and prints where they cross):

* m <= ``PY_M``: a loop over Python integers, where numpy's per-call set-up
  costs more than the whole loop;
* ``PY_M`` < m <= ``SMALL_M``: one numpy gather per popcount layer over a
  layout of (subset, member) pairs cached per m, so a DP costs m steps of a
  few numpy calls each;
* m > ``SMALL_M``: the layered numpy DP, m^2 numpy steps per DP but no
  layout.  The gather's layout holds m 2^(m-1) index pairs, so it is
  cached only up to ``SMALL_M``; built per call above it, the gather was
  1.5x slower than the layered DP at m = 16 with 8x its peak memory, and
  3x slower at m = 18 with 9x (15 and 65 MB).

Members of a covering are indexed ``0..m-1``, and each component of each
member carries a *conflict mask*: bit j is set when the component shares a
vertex with member j.  An ordering counts a component exactly when its
member comes before every member in its mask.

Above ``SMALL_M`` members, exact reductions run before the DP, in the style
of the branch-and-reduce rules for maximum independent set (Akiba and Iwata
2016): components with mask 0 always count, a member with none left goes
last, a member that the front rule of ``_goes_first`` admits goes first,
and what is left splits into the connected parts of the member conflict
graph.  Each part runs the DP body that suits its own size.  At or below
``SMALL_M`` the DP costs less than the reductions, so it runs directly.

The shift sweep is a longest path over the m(m+1)/2 blocks (p, i] of a
shift permutation's index set, given the value of each block.
"""

from __future__ import annotations

import functools

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


# Largest m run by the plain-integer loop: above it the gather body wins.
# On the coverings of the tight trees the loop takes about 0.13 ms at m = 7
# and 0.8 ms at m = 9, the gather 0.09 and 0.2 ms.
PY_M = 6
# Largest m run by the gather body, and the m above which the reductions run
# first.  The gather beats the layered numpy DP past it too (0.2 against
# 1.8 ms at m = 10, 0.5 against 3.1 ms at m = 12), but the cap keeps its
# cached layouts to m = 7..10, about 0.2 MB in all
# (``benchmarks/bench_kernels.py`` prints the sweep).
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


@functools.cache
def _gather_layout(m: int) -> tuple[np.ndarray, tuple]:
    """The subsets 0..2^m-1 and, per popcount layer L >= 1, the layer's
    subsets S (C(m, L) of them) with two (C(m, L), L) index arrays over the
    L members j of each S: the index of S minus j in ``dp`` and the index of
    (j, S minus j) in the flat (m, 2^m) gain table.  Every pair names a
    member of its subset, so no pair needs a placeholder."""
    size = 1 << m
    by_layer: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(size):
        by_layer[s.bit_count()].append(s)
    layers = []
    for subsets in by_layer[1:]:
        members = np.array([list(_bits(s)) for s in subsets], np.intp)
        prev = np.array(subsets, np.intp)[:, None] ^ (1 << members)
        layers.append((np.array(subsets, np.intp), prev, members * size + prev))
    return np.arange(size, dtype=np.intp), tuple(layers)


def _max_ordering_gather(conflicts_per_member: list[list[int]]) -> int:
    """Subset DP as one numpy gather per popcount layer.  Row j of the gain
    table counts, for each subset P, the components of member j that no
    member of P blocks (one boolean block of j's components by subsets);
    then dp[S] = max over j in S of dp[S - j] + gain[j, S - j], one layer at
    a time.  int32 holds any value: a value is at most the covering's
    component count."""
    m = len(conflicts_per_member)
    idx, layers = _gather_layout(m)
    gain = np.zeros((m, idx.size), np.int32)
    for row, masks in zip(gain, conflicts_per_member):
        if masks:
            ((idx & np.array(masks, np.intp)[:, None]) == 0).sum(0, out=row)
    flat_gain = gain.ravel()
    dp = np.zeros(idx.size, np.int32)
    for subsets, prev, flat in layers:
        dp[subsets] = (dp[prev] + flat_gain[flat]).max(1)
    return int(dp[-1])


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
    if m <= SMALL_M:
        return _max_ordering_gather(conflicts_per_member)
    return _max_ordering_np(conflicts_per_member)


def max_ordering_value(conflicts_per_member: list[list[int]]) -> int:
    """Max over orderings of the sum of surviving-component counts.

    ``conflicts_per_member[j]`` lists one conflict bitmask per component of
    member j (bit i set when the component shares a vertex with member i).
    Above ``SMALL_M`` members, the exact reductions of ``_reduce`` run first
    and each part they leave runs the DP body that suits its own size; at or
    below it, the DP costs less than the reductions.
    """
    if len(conflicts_per_member) <= SMALL_M:
        return _dp(conflicts_per_member)
    total, parts = _reduce(conflicts_per_member)
    return total + sum(_dp(part) for part in parts)


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
