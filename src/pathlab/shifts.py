"""Shift permutations: permutations sigma of [m] with sigma(j) >= j - 1.

They are indexed by subsets I of [m] containing m, and there are exactly
2^(m-1) of them.  ``best_shift`` maximizes one of the vector measures of a
graph sequence over the whole family exactly, with a longest-path DP over
the m(m+1)/2 blocks an index set can have; ``enumerate_all`` walks the
family itself.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Iterator, Literal

from . import _kernels
from .errors import InvalidIndexSetError, InvalidShiftError, ResourceLimitError
from .paths import GraphSequence, PathGraph, _merge, _survivors, _terms

Objective = Literal["vec_delta", "vec_lambda", "vec_lambda_delta"]

# position of each objective in the tuple ``vec_measures`` (and ``_terms``) returns
_OBJECTIVE_INDEX = {"vec_delta": 0, "vec_lambda": 1, "vec_lambda_delta": 2}

DEFAULT_ENUM_LIMIT = 25


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
    iset = sorted(sigma.index_set)
    if j in sigma.index_set:
        h = iset.index(j)
        prev = iset[h - 1] if h > 0 else 0
        new_set = sigma.index_set | set(range(1, prev + 1))
    else:
        new_set = sigma.index_set | set(range(1, j))
    return from_set(sigma.m, new_set)


def enumerate_all(m: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[ShiftPermutation]:
    """All 2^(m-1) shift permutations; index sets by increasing size, then lex."""
    if m < 1:
        raise InvalidIndexSetError(f"m={m} must be >= 1")
    if m > limit:
        raise ResourceLimitError(f"m={m} exceeds enumeration limit {limit}")
    rest = range(1, m)
    for size in range(0, m):
        for extra in combinations(rest, size):
            yield from_set(m, frozenset(extra) | {m})


def best_shift(seq: GraphSequence, objective: Objective = "vec_delta") -> tuple[ShiftPermutation, int]:
    """Maximize the chosen vector measure of (G_sigma(1), ..., G_sigma(m)) over
    all shift permutations; ties resolved by the lexicographically smallest
    index set.

    sigma_I visits each block (p, i] between consecutive elements of
    {0} | I as i, p+1, ..., i-1, and before the block it has visited exactly
    G_1..G_p.  So the measure is a sum of block values b(p, i), each taken on
    top of U_p = G_1 | ... | G_p, and ``_kernels.shift_sweep`` finds the best
    index set as a longest path over the m(m+1)/2 blocks.  Inside a block,
    G_h (p < h < i) comes after U_(h-1) and G_i, so its term is that of
    R_h = G_h {ominus} U_(h-1) with what touches G_i dropped, whatever p is:
    b(p, i) is the term of G_i {ominus} U_p plus a suffix sum over h, and
    the m(m+1)/2 blocks take m^2 touch scans and no union beyond the prefixes.
    """
    m = len(seq)
    if m < 1:
        raise InvalidIndexSetError("best_shift needs a nonempty sequence")
    code = _OBJECTIVE_INDEX[objective]
    prefix: list[tuple] = [()]
    resid: list[tuple] = []
    for g in seq:
        resid.append(_survivors(prefix[-1], g.intervals))
        prefix.append(_merge(prefix[-1], g.intervals))
    block = [[0] * (m + 1) for _ in range(m)]
    for i in range(1, m + 1):
        gi = seq[i - 1].intervals
        later = 0  # sum over p < h < i of the term of R_h without what touches G_i
        for p in range(i - 1, -1, -1):
            block[p][i] = _terms(_survivors(prefix[p], gi))[code] + later
            if p:
                later += _terms(_survivors(gi, resid[p - 1]))[code]
    value, index_set = _kernels.shift_sweep(block)
    return from_set(m, index_set), value
