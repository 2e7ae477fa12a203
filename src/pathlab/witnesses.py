"""Constructive orderings extracted from the covering lemmas.

Each constructor returns a :class:`WitnessResult` pairing the ordering it
found with the exact value achieved and the bound the lemma guarantees; the
result refuses to exist if the bound is missed (that would indicate an
implementation bug, not bad input).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Sequence

from . import shifts
from .errors import CheckFailedError, DomainError, InvalidCoveringError, InvalidParameterError
from .greedy import greedy_order
from .paths import (
    GraphSequence,
    PathGraph,
    _covered_length,
    _gap,
    _left,
    _merge,
    _path_length,
    _spans,
    _survivors,
    _terms,
    vec_delta,
    vec_lambda_delta,
)

_TOL = 1e-9

# positions in a (components, longest, longest * components) triple
_DELTA, _LAMBDA, _LAMBDA_DELTA = 0, 1, 2


# ---------------------------------------------------------------------------
# the numerical max inequality
# ---------------------------------------------------------------------------


def check_numerical(xs: Sequence[float], ys: Sequence[float], d: float) -> bool:
    """max_j ((d-1) x_j^(1/(d-1)) + y_1 + ... + y_j)
    >= d * ((x_1 y_1 + ... + x_m y_m) / e)^(1/d), plus the strengthening
    without the 1/e factor in the single-term case."""
    if len(xs) != len(ys):
        raise DomainError("xs and ys must have equal length")
    if any(x < 0 for x in xs) or any(y < 0 for y in ys):
        raise DomainError("entries must be nonnegative")
    if d <= 1:
        raise DomainError("d must exceed 1")
    if not xs:
        return True
    inner = sum(x * y for x, y in zip(xs, ys))
    rhs = d * (inner / math.e) ** (1.0 / d)
    prefix = 0.0
    lhs = -math.inf
    for x, y in zip(xs, ys):
        prefix += y
        lhs = max(lhs, (d - 1) * x ** (1.0 / (d - 1)) + prefix)
    ok = lhs >= rhs - _TOL
    if len(xs) == 1:
        x, y = xs[0], ys[0]
        strong = (d - 1) * x ** (1.0 / (d - 1)) + y >= d * (x * y) ** (1.0 / d) - _TOL
        ok = ok and strong
    return ok


# ---------------------------------------------------------------------------
# witness container
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    kind: str
    ordering: object  # permutation of sequence indices or a ShiftPermutation
    achieved: int
    guaranteed: Fraction
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.achieved < self.guaranteed:
            raise CheckFailedError(
                f"{self.kind}: achieved {self.achieved} below guarantee {self.guaranteed}"
            )

    def to_json(self) -> dict:
        if isinstance(self.ordering, shifts.ShiftPermutation):
            ordering = {"shift": self.ordering.to_json()}
        else:
            ordering = {"perm": list(self.ordering)}
        return {
            "kind": self.kind,
            "ordering": ordering,
            "achieved": self.achieved,
            "guaranteed": str(self.guaranteed),
            **({"extras": {k: str(v) for k, v in self.extras.items()}} if self.extras else {}),
        }


# ---------------------------------------------------------------------------
# unit-component covering: greedy ordering
# ---------------------------------------------------------------------------


def construct_premain_I(family: Sequence[PathGraph]) -> WitnessResult:
    """Greedy enumeration of a unit-component covering of Path_k; the
    component-count value is at least k/6."""
    graphs = list(family)
    k = _covered_length(graphs)
    if any(g.lam > 1 for g in graphs):
        raise InvalidCoveringError("all covering members must have component length <= 1")
    ordered = greedy_order(graphs)
    index_of: dict[PathGraph, list[int]] = {}
    for i, g in enumerate(graphs):
        index_of.setdefault(g, []).append(i)
    perm = [index_of[g].pop() + 1 for g in ordered]
    achieved = vec_delta(ordered)
    return WitnessResult("premain-I", perm, achieved, Fraction(k, 6))


# ---------------------------------------------------------------------------
# interleaving machinery shared by the shift-permutation constructions
# ---------------------------------------------------------------------------


def _clipped_rightmost(ivs, lo: int, hi: int) -> tuple[int, int] | None:
    """The last interval of the canonical ``ivs`` that holds an edge of
    Path_{lo,hi}, clipped to [lo, hi]: the last one starting before hi, when
    it ends after lo."""
    j = bisect_left(ivs, hi, key=_left) - 1
    if j < 0 or ivs[j][1] <= lo:
        return None
    s, t = ivs[j]
    return max(s, lo), min(t, hi)


def _covers(ivs, lo: int, hi: int) -> bool:
    """Whether intervals inside [lo, hi], sorted by left end, hold every edge
    of Path_{lo,hi}."""
    run = lo
    for s, t in ivs:
        if s > run:
            return False
        run = max(run, t)
    return run >= hi


def _interleave_selection(
    seq: GraphSequence, lo: int, hi: int, upto: int | None = None
) -> list[tuple[int, tuple[int, int]]] | None:
    """A minimal right-advancing subsequence whose rightmost components,
    clipped to [lo, hi], cover Path_{lo,hi}; returns (index, clipped
    component) pairs or None when the region is not covered this way.

    Minimality is taken over the clipped components themselves (never over
    whole graphs): that forces the strict interleaving of endpoints, which in
    turn makes every other selected component survive the prefix union."""
    if lo >= hi:
        return None
    m = len(seq) if upto is None else upto
    js: list[int] = []
    comps: dict[int, tuple[int, int]] = {}
    run = lo
    for j in range(1, m + 1):
        comp = _clipped_rightmost(seq[j - 1].intervals, lo, hi)
        if comp is not None and comp[1] > run:
            js.append(j)
            comps[j] = comp
            run = comp[1]

    def covers(idxs: list[int]) -> bool:
        return _covers(sorted(comps[j] for j in idxs), lo, hi)

    if not js or not covers(js):
        return None
    i = 0
    while i < len(js):
        trial = js[:i] + js[i + 1 :]
        if trial and covers(trial):
            js = trial
        else:
            i += 1
    return [(j, comps[j]) for j in js]


def _scan(seq: GraphSequence) -> tuple[shifts._Blocks, int]:
    """The block values of a sequence whose union is Path_k, and k; one
    prefix scan gives both."""
    blocks = shifts._Blocks(seq)
    return blocks, _path_length(blocks.prefix[-1])


def _increments(blocks: shifts._Blocks) -> list[int]:
    """The component increment of each member over its predecessors: the
    component count of the unit block b(l-1, l)."""
    return [unit[_DELTA] for unit in blocks.units]


def _split_set(m: int, positions: Sequence[int], keep: Sequence[int]) -> frozenset[int]:
    """Index set excluding, for each kept slot h, the open range between
    positions[h-1] and positions[h] (from 0 for h = 0); positions not in
    ``keep`` stay fully included, so the two complementary splits jointly
    cover [m].  Keeping every slot skips all but the positions themselves
    and what follows the last one."""
    excluded: set[int] = set()
    prev = 0
    keep_set = set(keep)
    for h, i in enumerate(positions):
        if h in keep_set:
            excluded.update(range(prev + 1, i))
        prev = i
    return frozenset(range(1, m + 1)) - excluded


def _parity_choices(selection) -> list[tuple[list[int], list[int]]]:
    """(positions, lengths) for the odd and even alternating subsequences."""
    out = []
    for start in (0, 1):
        chosen = selection[start::2]
        if chosen:
            out.append(
                ([j for j, _ in chosen], [t - s for _, (s, t) in chosen])
            )
    return out


def _full_sets(m: int, selections) -> list[frozenset[int]]:
    """For each selection and each parity, the index set keeping every slot
    of the alternating subsequence."""
    return [
        _split_set(m, positions, range(len(positions)))
        for sel in selections
        for positions, _lengths in _parity_choices(sel)
    ]


def _best(index_sets, blocks: shifts._Blocks, code: int) -> tuple[shifts.ShiftPermutation, int]:
    """The shift permutation of the first index set whose measure ``code``
    is largest, scored by its block values, and that measure."""
    index_set, value = max(((s, blocks.value(s, code)) for s in index_sets), key=lambda sv: sv[1])
    return shifts.from_set(blocks.m, index_set), value


def _premain_selections(
    seq: GraphSequence, blocks: shifts._Blocks, k: int
) -> list[list[tuple[int, tuple[int, int]]]]:
    """The interleaving selection of a covering with vector-component value
    1, taken from the end the first member's left end is nearer to (the
    sequence is mirrored when that end lies past k/2); empty when there is
    none.  An empty member never keeps a component in any order, so the
    first nonempty member stands for the first one."""
    if sum(_increments(blocks)) != 1:
        raise InvalidCoveringError("construction requires vec_delta(seq) == 1")

    def first_left(seq: GraphSequence) -> int:
        return next(g.intervals[0][0] for g in seq if g)

    s1 = first_left(seq)
    if 2 * s1 > k:
        seq = [g.mirror(k) for g in seq]
        s1 = first_left(seq)
    sel = _interleave_selection(seq, s1, k)
    return [sel] if sel else []


def construct_premain_II(seq: GraphSequence) -> WitnessResult:
    """For a covering with vector-component value 1: a shift permutation
    whose vector-length value is at least k/4."""
    blocks, k = _scan(seq)
    index_sets = _full_sets(len(seq), _premain_selections(seq, blocks, k))
    if not index_sets:
        raise InvalidCoveringError("interleaving selection failed on a valid covering")
    sigma, value = _best(index_sets, blocks, _LAMBDA)
    return WitnessResult("premain-II", sigma, value, Fraction(k, 4))


# ---------------------------------------------------------------------------
# the level construction for general coverings
# ---------------------------------------------------------------------------


def construct_main_I(family: Sequence[PathGraph]) -> WitnessResult:
    """Greedy level construction: r = ceil(log2(k+1)) rounds, round i taking
    graphs whose residual longest component is at least 2^(r-i), maximizing
    the residual component count.  The combined measure reaches k/30."""
    graphs = list(family)
    k = _covered_length(graphs)
    r = max(1, math.ceil(math.log2(k + 1)))
    acc: tuple = ()
    order: list[int] = []
    taken = [False] * len(graphs)
    for i in range(1, r + 1):
        threshold = 2 ** (r - i)
        while True:
            best_idx = -1
            best_delta = -1
            for idx, g in enumerate(graphs):
                if taken[idx]:
                    continue
                delta, lam, _ = _terms(_survivors(acc, g.intervals))
                if lam >= threshold and delta > best_delta:
                    best_idx, best_delta = idx, delta
            if best_idx < 0:
                break
            taken[best_idx] = True
            order.append(best_idx)
            acc = _merge(acc, graphs[best_idx].intervals)
    order.extend(idx for idx in range(len(graphs)) if not taken[idx])
    achieved = vec_lambda_delta([graphs[i] for i in order])
    return WitnessResult("main-I", [i + 1 for i in order], achieved, Fraction(k, 30))


# ---------------------------------------------------------------------------
# gap-driven shift constructions
# ---------------------------------------------------------------------------


def _region_frontiers(prefix: Sequence[tuple], lo: int, hi: int):
    """Left/right coverage frontiers of the region [lo, hi] just before the
    first prefix union U_l (``prefix[l]``) that covers it completely: (a, b,
    l) with Path_{lo,a} and Path_{b,hi} covered by the first l-1 graphs."""
    a, b = lo, hi
    for l in range(1, len(prefix)):
        acc = prefix[l]
        # Path_{lo,hi} is covered once one interval of the union spans it
        if any(s <= lo and hi <= t for s, t in acc):
            return a, b, l
        for s, t in acc:
            if s <= lo < t:
                a = max(a, min(t, hi))
            if s < hi <= t:
                b = min(b, max(s, lo))
    return None


def _gap_selections(
    seq: GraphSequence, blocks: shifts._Blocks, k: int, spans
) -> list[list[tuple[int, tuple[int, int]]]]:
    """Interleaving selections extracted from the widest midpoint gap of the
    surviving intervals ``spans``, per the three-case analysis (before the
    first midpoint, after the last one, or inside a widest adjacent pair).
    A selection from the left end is taken on the mirrored sequence."""
    mids = [Fraction(s + t, 2) for s, t in spans]
    mirrored = [g.mirror(k) for g in seq]
    # everything left of the first midpoint, then right of the last one (the
    # surviving spans lie in [0, k], so both regions hold an edge)
    found = [
        _interleave_selection(mirrored, k - spans[0][1], k),
        _interleave_selection(seq, spans[-1][0], k),
    ]
    # case: the widest interior gap
    widest = None
    for i in range(len(mids) - 1):
        width = mids[i + 1] - mids[i]
        if widest is None or width > widest[0]:
            widest = (width, i)
    if widest is not None:
        _, i = widest
        region_lo, region_hi = spans[i][1], spans[i + 1][0]
        front = _region_frontiers(blocks.prefix, region_lo, region_hi)
        if front is not None:
            a, b, l = front
            if a > region_lo:
                found.append(_interleave_selection(seq, region_lo, a, upto=l - 1))
            if b < region_hi:
                found.append(
                    _interleave_selection(mirrored, k - region_hi, k - b, upto=l - 1)
                )
    return [sel for sel in found if sel]


def construct_main_II(seq: GraphSequence) -> WitnessResult:
    """A shift permutation with combined measure at least sqrt(k/8), chosen
    as the best of every bring-to-front rotation (the identity first), the
    gap-driven interleaving candidates and the strong-shift split."""
    blocks, k = _scan(seq)
    m = len(seq)
    selections = _gap_selections(seq, blocks, k, _spans(blocks.resid))
    candidates = [range(j, m + 1) for j in range(1, m + 1)]
    candidates += _full_sets(m, selections)
    split = _split_choice(blocks, selections)
    if split is not None:
        candidates.append(split[0])
    sigma, value = _best(candidates, blocks, _LAMBDA_DELTA)
    # for an integer value, reaching the least r with 8 r^2 >= k is the same
    # as 8 value^2 >= k, i.e. value >= sqrt(k/8)
    guaranteed = Fraction(math.isqrt(-(-k // 8) - 1) + 1)
    return WitnessResult("main-II", sigma, value, guaranteed)


def _balanced_split(lengths: Sequence[int]) -> tuple[list[int], list[int]]:
    """Indices split into two buckets whose sums differ by at most the
    largest entry (largest-first greedy)."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    buckets: tuple[list[int], list[int]] = ([], [])
    sums = [0, 0]
    for i in order:
        b = 0 if sums[0] <= sums[1] else 1
        buckets[b].append(i)
        sums[b] += lengths[i]
    return buckets


def _split_choice(blocks: shifts._Blocks, selections) -> tuple[frozenset[int], int] | None:
    """Over both parities of each selection and both buckets of their
    balanced split, the index set whose kept increments reach half the
    vector-component value, then with the largest vector-length value;
    (index set, vector-length value), or None without a selection."""
    incs = _increments(blocks)
    vd = sum(incs)
    m = blocks.m
    best = None
    for sel in selections:
        for positions, lengths in _parity_choices(sel):
            # an empty bucket is legal: its permutation excludes nothing, so
            # it inherits the full increment sum while the kept lengths drop
            # to zero, which still meets the halved bound when p = 1
            for q in _balanced_split(lengths):
                index_set = _split_set(m, positions, q)
                lam_val = blocks.value(index_set, _LAMBDA)
                key = (2 * sum(incs[l - 1] for l in index_set) >= vd, lam_val)
                if best is None or key > best[0]:
                    best = (key, index_set, lam_val)
    return None if best is None else best[1:]


def construct_strong_shift(
    seq: GraphSequence, mode: Literal["premain", "gap"]
) -> WitnessResult:
    """Split an interleaving selection in two so that the chosen shift
    permutation keeps half the vector-length value while every induced
    permutation keeps half the component value.  Every candidate and every
    induced permutation is scored by its block values."""
    blocks, k = _scan(seq)
    m = len(seq)
    ell = max(g.lam for g in seq)
    if mode == "premain":
        selections = _premain_selections(seq, blocks, k)
        lam_bound = Fraction(k, 8) - Fraction(ell, 2)
        tilde_bound = Fraction(1, 2)
    elif mode == "gap":
        spans = _spans(blocks.resid)
        g = _gap(k, spans)
        selections = _gap_selections(seq, blocks, k, spans)
        lam_bound = (g - 3 * ell) / 4
        tilde_bound = Fraction(k) / (4 * g)
    else:
        raise InvalidParameterError(f"unknown strong-shift mode {mode!r}")
    split = _split_choice(blocks, selections)
    if split is None:
        raise InvalidCoveringError("no interleaving selection available")
    index_set, lam_val = split
    tilde_min = min(
        blocks.value(shifts._induced_set(index_set, j), _DELTA) for j in range(1, m + 1)
    )
    result = WitnessResult(
        f"strong-shift-{mode}",
        shifts.from_set(m, index_set),
        lam_val,
        lam_bound,
        extras={"tilde_min": tilde_min, "tilde_bound": tilde_bound},
    )
    if Fraction(tilde_min) < tilde_bound:
        raise CheckFailedError(
            f"strong-shift-{mode}: induced-permutation value {tilde_min} below {tilde_bound}"
        )
    return result
