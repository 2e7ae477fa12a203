"""Shift permutations: permutations sigma of [m] with sigma(j) >= j - 1.

They are indexed by subsets I of [m] containing m, and there are exactly
2^(m-1) of them.  The vector measures of sigma_I applied to a sequence are a
sum of block values b(p, i), one per block (p, i] of I; ``_Blocks`` reads
them off per-column data built on first use from one prefix scan: the few
earlier residuals that touch G_i, and the least prefix union that touches
each interval of G_i.  ``best_shift`` maximizes one of the measures over
the whole family exactly, with a longest-path DP over the m(m+1)/2 blocks
an index set can have, and the witness constructions score each of their
candidates by its long blocks instead of re-measuring it.  The
Psi-recurrence checker decides each family of its cases by the largest,
read off block values and the same longest paths.  ``_Blocks.block`` is
the one computation of a block value: the sweep's table and the strong
shift's induced minimum read it.  ``enumerate_all`` walks the family
itself, for cross-checks.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Literal

from . import _kernels
from .errors import InvalidIndexSetError, InvalidShiftError, ResourceLimitError
from .paths import GraphSequence, PathGraph, _absorb, _right, _survivors, _terms

Objective = Literal["vec_delta", "vec_lambda", "vec_lambda_delta"]

# position of each objective in the tuple ``vec_measures`` (and ``_terms``) returns
_OBJECTIVE_INDEX = {"vec_delta": 0, "vec_lambda": 1, "vec_lambda_delta": 2}

ENUM_LIMIT = 25  # resource ceiling on m for enumerate_all


class ShiftPermutation:
    """A permutation of [m] with sigma(j) >= j - 1, carried with its index set."""

    __slots__ = ("m", "index_set", "perm")

    def __init__(self, m: int, index_set: frozenset[int], perm: tuple[int, ...]):
        self.m = m
        self.index_set = index_set
        self.perm = perm

    def __call__(self, j: int) -> int:
        return self.perm[j - 1]

    def __eq__(self, other):
        return isinstance(other, ShiftPermutation) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"ShiftPermutation(I={sorted(self.index_set)}, perm={self.perm})"

    def apply(self, seq: GraphSequence) -> list[PathGraph]:
        """Reorder seq as (G_sigma(1), ..., G_sigma(m))."""
        if len(seq) != self.m:
            raise InvalidShiftError(f"sequence length {len(seq)} != m={self.m}")
        return [seq[self.perm[p] - 1] for p in range(self.m)]

    def to_json(self) -> dict:
        return {"m": self.m, "I": sorted(self.index_set)}

    @classmethod
    def from_json(cls, data) -> "ShiftPermutation":
        if isinstance(data, str):
            data = json.loads(data)
        return from_set(data["m"], data["I"])


def from_set(m: int, index_set: Iterable[int]) -> ShiftPermutation:
    """sigma_I per the block formula: sigma(i_{h-1}+1) = i_h, else sigma(j) = j-1."""
    iset = frozenset(map(int, index_set))
    if m < 1 or m not in iset or min(iset) < 1 or max(iset) > m:
        raise InvalidIndexSetError(f"need m in I subseteq [m], got m={m}, I={sorted(iset)}")
    perm = list(range(m))  # sigma(j) = j - 1 off the block heads
    prev = 0
    for i in sorted(iset):
        perm[prev] = i
        prev = i
    return ShiftPermutation(m, iset, tuple(perm))


def to_set(perm: Iterable[int] | ShiftPermutation) -> frozenset[int]:
    """Inverse of the indexing bijection: {j : {sigma(1..j)} = {1..j}}."""
    if isinstance(perm, ShiftPermutation):
        images = perm.perm
    else:
        images = tuple(perm)
    m = len(images)
    if sorted(images) != list(range(1, m + 1)):
        raise InvalidShiftError(f"{images} is not a permutation of [{m}]")
    for j, img in enumerate(images, start=1):
        if img < j - 1:
            raise InvalidShiftError(f"sigma({j}) = {img} < {j - 1}: not a shift permutation")
    out = []
    running_max = 0
    for j, img in enumerate(images, start=1):
        running_max = max(running_max, img)
        if running_max == j:
            out.append(j)
    return frozenset(out)


def induced(sigma: ShiftPermutation, j: int) -> ShiftPermutation:
    """The induced shift permutation for position j: keep the blocks before
    j's block intact and flatten the rest up to j."""
    if not 1 <= j <= sigma.m:
        raise InvalidIndexSetError(f"j={j} out of range [1, {sigma.m}]")
    return from_set(sigma.m, _induced_set(sigma.index_set, j))


def _induced_set(index_set: frozenset[int], j: int) -> frozenset[int]:
    """Index set of the induced permutation for position j: every position
    before j's block (p, i] joins I when j = i, and every position before j
    when j is inside the block."""
    if j in index_set:
        return index_set.union(range(1, max((i for i in index_set if i < j), default=0) + 1))
    return index_set.union(range(1, j))


def enumerate_all(m: int) -> Iterator[ShiftPermutation]:
    """All 2^(m-1) shift permutations, by increasing size of the index set,
    then lex."""
    if m < 1:
        raise InvalidIndexSetError(f"m={m} must be >= 1")
    if m > ENUM_LIMIT:
        raise ResourceLimitError(f"m={m} exceeds enumeration limit {ENUM_LIMIT}")
    rest = range(1, m)
    for size in range(0, m):
        for extra in combinations(rest, size):
            yield from_set(m, extra + (m,))


class _Blocks:
    """The block values of one sequence G_1..G_m, read off per-column data
    computed on first use.

    sigma_I visits each block (p, i] between consecutive elements of
    {0} | I as i, p+1, ..., i-1, and before the block it has visited exactly
    G_1..G_p.  So each vector measure of sigma_I applied to the sequence is
    the sum over its blocks of b(p, i), the measures of
    [G_i, G_(p+1), ..., G_(i-1)] on top of U_p = G_1 | ... | G_p.  The head
    G_i {ominus} U_p keeps the intervals of G_i that no U_h with h <= p
    touches, so at p = 0 it is G_i itself.  Inside the block, G_h
    (p < h < i) comes after U_(h-1) and G_i, so its term is that of
    R_h = G_h {ominus} U_(h-1) with what touches G_i dropped, whatever p is:
    the unit block b(h-1, h), the term of R_h, unless R_h shares a vertex
    with G_i.  The residuals are pairwise vertex-disjoint, so they form one
    sorted span list with an owner for each span, and a bisect of G_i's
    intervals into it finds the few h < i whose R_h touches G_i: column i's
    touch list.

    So column i holds G_i's own terms and, for each touched h, its trimmed
    term minus its unit term; its heads, for each interval of G_i the least
    h whose U_h touches it (a bisection over the prefix unions), are only
    worked out when a block with p >= 1 first asks for them.  b(p, i) is
    the term of the intervals whose least h exceeds p (G_i's own terms at
    p = 0), plus the units p+1..i-1 read off prefix sums, plus the
    corrections of the touched h > p.  One prefix scan, a fused
    survivors-and-union step per member (``_absorb``), gives every U_p,
    R_h and unit; a column costs one touch scan per touched h, its heads a
    bisection per interval of G_i, and a block none.  Only ``block`` walks
    a column: ``table`` and ``induced_min`` read block values from it.
    """

    __slots__ = ("m", "members", "prefix", "resid", "units", "unit_sums", "spans", "_owners", "_columns", "_heads")

    def __init__(self, seq: GraphSequence):
        self.m = len(seq)
        self.members = [g.intervals for g in seq]
        acc: tuple = ()
        self.prefix: list[tuple] = [acc]  # U_0, ..., U_m
        self.resid: list[tuple] = []  # R_1, ..., R_m
        for ivs in self.members:
            keep, acc = _absorb(acc, ivs)
            self.resid.append(keep)
            self.prefix.append(acc)
        self.units = [_terms(r) for r in self.resid]  # b(i-1, i) for i = 1..m
        # unit_sums[code][i]: measure ``code`` summed over the units b(0, 1)..b(i-1, i)
        self.unit_sums = [list(accumulate(column, initial=0)) for column in zip(*self.units)]
        # every interval of every residual, sorted, and the h of the R_h it belongs to
        owned = sorted((iv, h) for h, r in enumerate(self.resid, start=1) for iv in r)
        self.spans = tuple(iv for iv, _ in owned)
        self._owners = [h for _, h in owned]
        self._columns: list[tuple | None] = [None] * (self.m + 1)
        self._heads: list[list | None] = [None] * (self.m + 1)

    def _column(self, i: int) -> tuple[tuple[int, int, int], list]:
        """Column i, stored: the terms of G_i, and its touch list, by
        decreasing h: (h, the three measures of R_h without what touches G_i
        minus those of R_h) for each h < i whose R_h shares a vertex with
        G_i."""
        gi = self.members[i - 1]
        spans, owners = self.spans, self._owners
        n = len(spans)
        touched = set()
        j = 0
        for s, t in gi:
            # spans[j:] reach s; those of them that start by t touch (s, t)
            j = bisect_left(spans, s, j, n, key=_right)
            hit = j
            while hit < n and spans[hit][0] <= t:
                touched.add(owners[hit])
                hit += 1
        touches = []
        for h in sorted(touched, reverse=True):
            if h < i:
                d, l, ld = _terms(_survivors(gi, self.resid[h - 1]))
                ud, ul, uld = self.units[h - 1]
                touches.append((h, d - ud, l - ul, ld - uld))
        got = self._columns[i] = (_terms(gi), touches)
        return got

    def _head(self, i: int) -> list[tuple[int, int]]:
        """Column i's heads, stored, by decreasing h: (h, length) for each
        interval of G_i, with h the least index whose U_h touches it (i when
        U_(i-1) does not), so it is in G_i {ominus} U_p exactly when p < h."""
        prefix = self.prefix
        heads = []
        for s, t in self.members[i - 1]:
            # the least h in 1..i-1 whose U_h touches (s, t), else i; the
            # touch test of ``_survivors``: the first interval reaching s
            # starts by t
            lo, hi = 1, i
            while lo < hi:
                mid = (lo + hi) // 2
                acc = prefix[mid]
                j = bisect_left(acc, s, key=_right)
                if j < len(acc) and acc[j][0] <= t:
                    hi = mid
                else:
                    lo = mid + 1
            heads.append((lo, t - s))
        heads.sort(reverse=True)
        self._heads[i] = heads
        return heads

    def block(self, p: int, i: int) -> tuple[int, int, int]:
        """b(p, i) as (components, longest, longest * components), 0 <= p < i <= m."""
        if p == i - 1:
            return self.units[p]
        own, touches = self._columns[i] or self._column(i)
        if p:
            d = l = 0
            for h, length in self._heads[i] or self._head(i):
                if h <= p:
                    break
                d += 1
                if length > l:
                    l = length
            ld = l * d
        else:
            d, l, ld = own
        for h, hd, hl, hld in touches:
            if h <= p:
                break
            d, l, ld = d + hd, l + hl, ld + hld
        sd, sl, sld = self.unit_sums
        return d + sd[i - 1] - sd[p], l + sl[i - 1] - sl[p], ld + sld[i - 1] - sld[p]

    def table(self, code: int) -> list[list[int]]:
        """The input of ``_kernels.shift_sweep`` for measure ``code``: rows
        p = 0..m-1 of b(p, i) for i = 0..m, with 0 where i <= p."""
        m = self.m
        return [[self.block(p, i)[code] if p < i else 0 for i in range(m + 1)] for p in range(m)]

    def induced_min(self, index_set: Iterable[int], code: int) -> int:
        """The least measure ``code`` over the induced permutations of
        sigma_I, j = 1..m.  For j in the block (p, i], the induced index set
        is 1..q, the block (q, i] and the blocks of I after i, with q = p
        when j = i and q = j - 1 otherwise; so q runs over p..max(p, i - 2),
        and the value is the units 1..q, b(q, i) and the blocks of I after
        i."""
        sums = self.unit_sums[code]
        ordered = sorted(index_set)
        low = None
        later = 0  # the value of the blocks of I after (p, i]
        for p, i in reversed(list(zip([0] + ordered, ordered))):
            values = [sums[q] + self.block(q, i)[code] for q in range(p, max(p, i - 2) + 1)]
            least = min(values)
            if low is None or later + least < low:
                low = later + least
            later += values[0] - sums[p]  # b(p, i)
        return low


def best_shift(seq: GraphSequence, objective: Objective = "vec_delta") -> tuple[ShiftPermutation, int]:
    """Maximize the chosen vector measure of (G_sigma(1), ..., G_sigma(m)) over
    all shift permutations; ties resolved by the lexicographically smallest
    index set.

    The measure of sigma_I is a sum of the block values of I (``_Blocks``),
    so ``_kernels.shift_sweep`` finds the best index set as a longest path
    over the m(m+1)/2 blocks.  Every block is needed, and each is read off
    its column: a touch scan per touched residual and a bisection per
    interval of each member, and no scan per block.
    """
    m = len(seq)
    if m < 1:
        raise InvalidIndexSetError("best_shift needs a nonempty sequence")
    best, path = _kernels.shift_sweep(_Blocks(seq).table(_OBJECTIVE_INDEX[objective]))
    return from_set(m, path[0]), best[0]
