"""Shift permutations: permutations sigma of [m] with sigma(j) >= j - 1.

They are indexed by subsets I of [m] containing m, and there are exactly
2^(m-1) of them.  The vector measures of sigma_I applied to a sequence are a
sum of block values b(p, i), one per block (p, i] of I; ``_Blocks`` computes
them for one sequence, each on first use.  ``best_shift`` maximizes one of
the measures over the whole family exactly, with a longest-path DP over the
m(m+1)/2 blocks an index set can have, and the witness constructions score
each of their candidate index sets by the sum of its block values instead of
re-measuring it.  ``enumerate_all`` walks the family itself.
"""

from __future__ import annotations

import json
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Literal

from . import _kernels
from .errors import InvalidIndexSetError, InvalidShiftError, ResourceLimitError
from .paths import GraphSequence, PathGraph, _merge, _survivors, _terms

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
    iset = frozenset(int(i) for i in index_set)
    if m < 1 or m not in iset or not iset <= set(range(1, m + 1)):
        raise InvalidIndexSetError(f"need m in I subseteq [m], got m={m}, I={sorted(iset)}")
    perm = [j - 1 for j in range(1, m + 1)]
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
    """All 2^(m-1) shift permutations; index sets by increasing size, then lex."""
    if m < 1:
        raise InvalidIndexSetError(f"m={m} must be >= 1")
    if m > ENUM_LIMIT:
        raise ResourceLimitError(f"m={m} exceeds enumeration limit {ENUM_LIMIT}")
    rest = range(1, m)
    for size in range(0, m):
        for extra in combinations(rest, size):
            yield from_set(m, frozenset(extra) | {m})


class _Blocks:
    """The block values of one sequence G_1..G_m, each computed on first use.

    sigma_I visits each block (p, i] between consecutive elements of
    {0} | I as i, p+1, ..., i-1, and before the block it has visited exactly
    G_1..G_p.  So each vector measure of sigma_I applied to the sequence is
    the sum over its blocks of b(p, i), the measures of
    [G_i, G_(p+1), ..., G_(i-1)] on top of U_p = G_1 | ... | G_p.  Inside a
    block, G_h (p < h < i) comes after U_(h-1) and G_i, so its term is that
    of R_h = G_h {ominus} U_(h-1) with what touches G_i dropped, whatever p
    is: b(p, i) is the term of G_i {ominus} U_p plus a sum over h that
    column i keeps as running totals, extended down to the least p asked
    for.  One prefix scan gives every U_p and R_h, and with them the unit
    blocks b(i-1, i), the terms of R_i; each longer block then costs one
    touch scan and each new term of a column one more.
    """

    __slots__ = ("m", "prefix", "resid", "units", "_unit_sums", "_members", "_later", "_memo")

    def __init__(self, seq: GraphSequence):
        self.m = len(seq)
        self._members = [g.intervals for g in seq]
        self.prefix: list[tuple] = [()]  # U_0, ..., U_m
        self.resid: list[tuple] = []  # R_1, ..., R_m
        for ivs in self._members:
            self.resid.append(_survivors(self.prefix[-1], ivs))
            self.prefix.append(_merge(self.prefix[-1], ivs))
        self.units = [_terms(r) for r in self.resid]  # b(i-1, i) for i = 1..m
        # _unit_sums[code][i]: measure ``code`` summed over the units b(0, 1)..b(i-1, i)
        self._unit_sums = [list(accumulate(column, initial=0)) for column in zip(*self.units)]
        # _later[i][n]: the sum over i - n <= h < i of the term of R_h
        # without what touches G_i, that is the inner part of b(i - 1 - n, i)
        self._later: list[list[tuple[int, int, int]]] = [[(0, 0, 0)] for _ in range(self.m + 1)]
        self._memo: dict[tuple[int, int], tuple[int, int, int]] = {}

    def block(self, p: int, i: int) -> tuple[int, int, int]:
        """b(p, i) as (components, longest, longest * components), 0 <= p < i <= m."""
        value = self._memo.get((p, i))
        if value is None:
            gi = self._members[i - 1]
            later = self._later[i]
            while len(later) < i - p:
                d, l, ld = later[-1]
                hd, hl, hld = _terms(_survivors(gi, self.resid[i - 1 - len(later)]))
                later.append((d + hd, l + hl, ld + hld))
            d, l, ld = later[i - 1 - p]
            hd, hl, hld = _terms(_survivors(self.prefix[p], gi))
            value = self._memo[p, i] = (d + hd, l + hl, ld + hld)
        return value

    def value(self, index_set: Iterable[int], code: int) -> int:
        """Measure ``code`` (0, 1, 2: components, longest, their product) of
        sigma_I applied to the sequence: the sum of the values of I's blocks.
        That is the sum of all m unit values, with each longer block (p, i]
        of I put in place of the units p+1..i it spans, so a run of unit
        blocks costs no lookup."""
        sums = self._unit_sums[code]
        total = sums[-1]
        p = 0
        for i in sorted(index_set):
            if i > p + 1:
                total += self.block(p, i)[code] - sums[i] + sums[p]
            p = i
        return total


def best_shift(seq: GraphSequence, objective: Objective = "vec_delta") -> tuple[ShiftPermutation, int]:
    """Maximize the chosen vector measure of (G_sigma(1), ..., G_sigma(m)) over
    all shift permutations; ties resolved by the lexicographically smallest
    index set.

    The measure of sigma_I is a sum of the block values of I (``_Blocks``),
    so ``_kernels.shift_sweep`` finds the best index set as a longest path
    over the m(m+1)/2 blocks.  Every block is needed, so they are filled a
    column at a time on the prefix scan of ``_Blocks``, for the one
    objective, without the memo: m^2 touch scans and no union beyond the
    prefixes.
    """
    m = len(seq)
    if m < 1:
        raise InvalidIndexSetError("best_shift needs a nonempty sequence")
    code = _OBJECTIVE_INDEX[objective]
    blocks = _Blocks(seq)
    prefix, resid = blocks.prefix, blocks.resid
    block = [[0] * (m + 1) for _ in range(m)]
    for i in range(1, m + 1):
        gi = seq[i - 1].intervals
        block[i - 1][i] = blocks.units[i - 1][code]
        later = 0  # the inner sum of b(p, i), over p < h < i
        for p in range(i - 2, -1, -1):
            later += _terms(_survivors(gi, resid[p]))[code]
            block[p][i] = _terms(_survivors(prefix[p], gi))[code] + later
    value, index_set = _kernels.shift_sweep(block)
    return from_set(m, index_set), value
