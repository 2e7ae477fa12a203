"""Constructive orderings extracted from the covering lemmas.

Each constructor returns a :class:`WitnessResult` pairing the ordering it
found with the exact value achieved and the bound the lemma guarantees; the
result refuses to exist if the bound is missed (that would indicate an
implementation bug, not bad input).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul
from typing import Literal, Sequence

from . import shifts
from .errors import CheckFailedError, DomainError, InvalidCoveringError, InvalidParameterError
from .greedy import _greedy, _lazy_greedy
from .paths import (
    GraphSequence,
    Intervals,
    PathGraph,
    _covered_length,
    _gap,
    _left,
    _path_length,
    _right,
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
    if any(t - s > 1 for g in graphs for s, t in g.intervals):
        raise InvalidCoveringError("all covering members must have component length <= 1")
    ordered, achieved = _greedy(graphs)
    index_of: dict[PathGraph, list[int]] = {}
    for i, g in enumerate(graphs):
        index_of.setdefault(g, []).append(i)
    perm = [index_of[g].pop() + 1 for g in ordered]
    return WitnessResult("premain-I", perm, achieved, Fraction(k, 6))


# ---------------------------------------------------------------------------
# interleaving machinery shared by the shift-permutation constructions
# ---------------------------------------------------------------------------


def _covers(ivs, lo: int, hi: int) -> bool:
    """Whether intervals inside [lo, hi], sorted by left end, hold every edge
    of Path_{lo,hi}."""
    run = lo
    for s, t in ivs:
        if s > run:
            return False
        if t > run:
            run = t
    return run >= hi


def _interleave_selection(
    members: Sequence[Intervals], lo: int, hi: int, upto: int | None = None
) -> list[tuple[int, tuple[int, int]]] | None:
    """A minimal right-advancing subsequence whose rightmost components,
    clipped to [lo, hi], cover Path_{lo,hi}; returns (index, clipped
    component) pairs or None when the region is not covered this way.

    Minimality is taken over the clipped components themselves (never over
    whole graphs): that forces the strict interleaving of endpoints, which in
    turn makes every other selected component survive the prefix union."""
    if lo >= hi:
        return None
    comps = []
    for ivs in members[:upto]:
        # the last interval that holds an edge of Path_{lo,hi}: the last one
        # starting before hi, when it ends after lo
        j = bisect_left(ivs, hi, key=_left) - 1
        if j >= 0 and ivs[j][1] > lo:
            s, t = ivs[j]
            comps.append((max(s, lo), min(t, hi)))
        else:
            comps.append(None)
    return _minimal_selection(comps, lo, hi)


def _mirrored_selection(
    members: Sequence[Intervals], k: int, lo: int, hi: int, upto: int | None = None
) -> list[tuple[int, tuple[int, int]]] | None:
    """``_interleave_selection`` of the members reflected by x -> k - x,
    with [lo, hi] in reflected coordinates, read off the members in place:
    the rightmost reflected component is the reflection of the leftmost
    interval that ends after k - hi, clipped to [k - hi, k - lo]."""
    if lo >= hi:
        return None
    a, b = k - hi, k - lo
    comps = []
    for ivs in members[:upto]:
        j = bisect_right(ivs, a, key=_right)
        if j < len(ivs) and ivs[j][0] < b:
            s, t = ivs[j]
            comps.append((k - min(t, b), k - max(s, a)))
        else:
            comps.append(None)
    return _minimal_selection(comps, lo, hi)


def _minimal_selection(comps, lo: int, hi: int) -> list[tuple[int, tuple[int, int]]] | None:
    """The selection of ``_interleave_selection`` from each member's clipped
    component (None for a member without one), in index order."""
    selected = []
    run = lo
    for j, comp in enumerate(comps, start=1):
        if comp is not None and comp[1] > run:
            selected.append((j, comp))
            run = comp[1]
    # sorted by component once: each member, in index order, is dropped
    # when the members still kept cover without it
    order = sorted(selected, key=itemgetter(1))
    if not _covers((c for _, c in order), lo, hi):
        return None
    for j, _ in selected:
        if _covers((c for i, c in order if i != j), lo, hi):
            order = [x for x in order if x[0] != j]
    if len(order) == len(selected):
        return selected
    kept = {j for j, _ in order}
    return [x for x in selected if x[0] in kept]


def _scan(seq: GraphSequence) -> tuple[shifts._Blocks, int]:
    """The block values of a sequence whose union is Path_k, and k; one
    prefix scan gives both."""
    blocks = shifts._Blocks(seq)
    return blocks, _path_length(blocks.prefix[-1])


# A candidate index set I of [m] (m in I) is carried as its long blocks: the
# blocks (p, i] of I with i > p + 1, in increasing order.  Every other
# position of [m] is in I, so the empty list is the identity.


def _index_set(m: int, long_blocks) -> frozenset[int]:
    """The index set whose long blocks are ``long_blocks``."""
    excluded: set[int] = set()
    for p, i in long_blocks:
        excluded.update(range(p + 1, i))
    return frozenset(range(1, m + 1)).difference(excluded)


def _alternations(blocks: shifts._Blocks, selections) -> list[list[tuple]]:
    """The odd and the even alternating subsequence of each selection, as
    slots.  For each selected index i, with p the index before it in the
    subsequence (0 for the first), a slot is (the length of i's clipped
    component, the block (p, i] or None when i = p + 1, what the block
    adds to each measure over the units p+1..i it replaces, the increments
    of p+1..i-1).  A candidate keeps a set of slots: its index set excludes
    p+1..i-1 for each of them and holds every other position, so each of
    its measures is the sum of all units plus the gains of its slots, and
    its kept increments are the whole sum less their dropped ones."""
    sd, sl, sld = blocks.unit_sums
    out = []
    for sel in selections:
        for start in (0, 1):
            slots = []
            p = 0
            for i, (s, t) in sel[start::2]:
                if i > p + 1:
                    d, l, ld = blocks.block(p, i)
                    gains = (d - sd[i] + sd[p], l - sl[i] + sl[p], ld - sld[i] + sld[p])
                    slots.append((t - s, (p, i), gains, sd[i - 1] - sd[p]))
                else:
                    slots.append((t - s, None, (0, 0, 0), 0))
                p = i
            if slots:
                out.append(slots)
    return out


def _candidate(slots, keep=None) -> tuple[list[tuple[int, int]], tuple[int, int, int], int]:
    """(long blocks, gain per measure, dropped increments) of the candidate
    keeping the slots at the positions in ``keep``, or every slot."""
    long_blocks = []
    gd = gl = gld = lost = 0
    for h, (_, block, (d, l, ld), drop) in enumerate(slots):
        if block is not None and (keep is None or h in keep):
            long_blocks.append(block)
            gd, gl, gld, lost = gd + d, gl + l, gld + ld, lost + drop
    return long_blocks, (gd, gl, gld), lost


def _best(scored, m: int) -> tuple[shifts.ShiftPermutation, int]:
    """The shift permutation of the first (long blocks, value) candidate
    whose value is largest, and that value."""
    long_blocks, value = max(scored, key=itemgetter(1))
    return shifts.from_set(m, _index_set(m, long_blocks)), value


def _premain_selections(
    blocks: shifts._Blocks, k: int
) -> list[list[tuple[int, tuple[int, int]]]]:
    """The interleaving selection of a covering with vector-component value
    1, taken from the end the first member's left end is nearer to (on the
    members reflected by x -> k - x when that end lies past k/2); empty
    when there is none.  An empty member never keeps a component in any
    order, so the first nonempty member stands for the first one."""
    if blocks.unit_sums[_DELTA][-1] != 1:
        raise InvalidCoveringError("construction requires vec_delta(seq) == 1")

    members = blocks.members
    first = next(ivs for ivs in members if ivs)
    if 2 * first[0][0] > k:
        sel = _mirrored_selection(members, k, k - first[-1][1], k)
    else:
        sel = _interleave_selection(members, first[0][0], k)
    return [sel] if sel else []


def construct_premain_II(seq: GraphSequence) -> WitnessResult:
    """For a covering with vector-component value 1: a shift permutation
    whose vector-length value is at least k/4."""
    blocks, k = _scan(seq)
    alternations = _alternations(blocks, _premain_selections(blocks, k))
    if not alternations:
        raise InvalidCoveringError("interleaving selection failed on a valid covering")
    total = blocks.unit_sums[_LAMBDA][-1]
    scored = []
    for slots in alternations:
        long_blocks, gains, _ = _candidate(slots)
        scored.append((long_blocks, total + gains[_LAMBDA]))
    sigma, value = _best(scored, blocks.m)
    return WitnessResult("premain-II", sigma, value, Fraction(k, 4))


# ---------------------------------------------------------------------------
# the level construction for general coverings
# ---------------------------------------------------------------------------


def construct_main_I(family: Sequence[PathGraph]) -> WitnessResult:
    """Greedy level construction: r = ceil(log2(k+1)) rounds, round i taking
    graphs whose residual longest component is at least 2^(r-i), maximizing
    the residual component count (the first such graph on a tie); the graphs
    no round takes follow in index order.  The combined measure reaches
    k/30."""
    members = list(family)
    k = _covered_length(members)
    r = max(1, math.ceil(math.log2(k + 1)))
    thresholds = [2 ** (r - i) for i in range(1, r + 1)]
    order, incs, lams = _lazy_greedy([g.intervals for g in members], thresholds=thresholds)
    # the last threshold is 1, so a member no round takes keeps no interval
    # and adds nothing after the picks
    achieved = sum(map(mul, incs, lams))
    taken = set(order)
    order += [i for i in range(len(members)) if i not in taken]
    return WitnessResult("main-I", [i + 1 for i in order], achieved, Fraction(k, 30))


# ---------------------------------------------------------------------------
# gap-driven shift constructions
# ---------------------------------------------------------------------------


def _region_frontiers(prefix: Sequence[tuple], lo: int, hi: int) -> tuple[int, int, int]:
    """Left/right coverage frontiers of the region [lo, hi] just before the
    first prefix union U_l (``prefix[l]``) that covers it completely: (a, b,
    l) with Path_{lo,a} and Path_{b,hi} covered by the first l-1 graphs.
    The last union is Path_k (``_scan`` checks it), which spans every
    region, so l is at most m."""
    a, b = lo, hi
    last = len(prefix) - 1
    for l in range(1, last):
        acc = prefix[l]
        # Path_{lo,hi} is covered once one interval of the union spans it
        if any(s <= lo and hi <= t for s, t in acc):
            return a, b, l
        for s, t in acc:
            if s <= lo < t:
                a = max(a, min(t, hi))
            if s < hi <= t:
                b = min(b, max(s, lo))
    return a, b, last


def _gap_selections(blocks: shifts._Blocks, k: int) -> list[list[tuple[int, tuple[int, int]]]]:
    """Interleaving selections extracted from the widest midpoint gap of the
    surviving intervals ``blocks.spans``, per the three-case analysis
    (before the first midpoint, after the last one, or inside a widest
    adjacent pair).  A selection from the left end is taken on the members
    reflected by x -> k - x, read in place.  Midpoints are compared
    doubled, as the integers s + t."""
    spans, members = blocks.spans, blocks.members
    # everything left of the first midpoint, then right of the last one (the
    # surviving spans lie in [0, k], so both regions hold an edge)
    found = [
        _mirrored_selection(members, k, k - spans[0][1], k),
        _interleave_selection(members, spans[-1][0], k),
    ]
    # case: the widest interior gap
    widest = None
    for i in range(len(spans) - 1):
        width = spans[i + 1][0] + spans[i + 1][1] - spans[i][0] - spans[i][1]
        if widest is None or width > widest[0]:
            widest = (width, i)
    if widest is not None:
        _, i = widest
        region_lo, region_hi = spans[i][1], spans[i + 1][0]
        a, b, l = _region_frontiers(blocks.prefix, region_lo, region_hi)
        if a > region_lo:
            found.append(_interleave_selection(members, region_lo, a, upto=l - 1))
        if b < region_hi:
            found.append(_mirrored_selection(members, k, k - region_hi, k - b, upto=l - 1))
    return [sel for sel in found if sel]


def construct_main_II(seq: GraphSequence) -> WitnessResult:
    """A shift permutation with combined measure at least sqrt(k/8), chosen
    as the best of every bring-to-front rotation (the identity first), the
    gap-driven interleaving candidates and the strong-shift split."""
    blocks, k = _scan(seq)
    m = blocks.m
    alternations = _alternations(blocks, _gap_selections(blocks, k))
    sums = blocks.unit_sums[_LAMBDA_DELTA]
    total = sums[-1]
    # rotation j is the index set {j, ..., m}, the one long block (0, j]
    scored = [([], total)]
    scored += [([(0, j)], total + blocks.block(0, j)[_LAMBDA_DELTA] - sums[j]) for j in range(2, m + 1)]
    for slots in alternations:
        long_blocks, gains, _ = _candidate(slots)
        scored.append((long_blocks, total + gains[_LAMBDA_DELTA]))
    split = _split_choice(blocks, alternations)
    if split is not None:
        long_blocks, gains = split
        scored.append((long_blocks, total + gains[_LAMBDA_DELTA]))
    sigma, value = _best(scored, m)
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


def _split_choice(blocks: shifts._Blocks, alternations) -> tuple[list[tuple[int, int]], tuple[int, int, int]] | None:
    """Over every alternation (``_alternations``) and both buckets of the
    balanced split of its lengths, the candidate whose kept increments
    reach half the vector-component value, then with the largest
    vector-length value; (long blocks, gain per measure), or None without
    an alternation."""
    vd = blocks.unit_sums[_DELTA][-1]
    best = None
    for slots in alternations:
        # an empty bucket is legal: its permutation excludes nothing, so
        # it inherits the full increment sum while the kept lengths drop
        # to zero, which still meets the halved bound when p = 1
        for q in _balanced_split([slot[0] for slot in slots]):
            long_blocks, gains, lost = _candidate(slots, set(q))
            key = (2 * (vd - lost) >= vd, gains[_LAMBDA])
            if best is None or key > best[0]:
                best = (key, long_blocks, gains)
    return None if best is None else best[1:]


def construct_strong_shift(
    seq: GraphSequence, mode: Literal["premain", "gap"]
) -> WitnessResult:
    """Split an interleaving selection in two so that the chosen shift
    permutation keeps half the vector-length value while every induced
    permutation keeps half the component value.  Every candidate is scored
    by its long blocks, and the induced permutations by the block values
    of the winner's blocks (``_Blocks.induced_min``)."""
    blocks, k = _scan(seq)
    m = blocks.m
    ell = max([t - s for ivs in blocks.members for s, t in ivs])
    if mode == "premain":
        selections = _premain_selections(blocks, k)
        lam_bound = Fraction(k, 8) - Fraction(ell, 2)
        tilde_bound = Fraction(1, 2)
    elif mode == "gap":
        g = _gap(k, blocks.spans)
        selections = _gap_selections(blocks, k)
        lam_bound = (g - 3 * ell) / 4
        tilde_bound = Fraction(k) / (4 * g)
    else:
        raise InvalidParameterError(f"unknown strong-shift mode {mode!r}")
    split = _split_choice(blocks, _alternations(blocks, selections))
    if split is None:
        raise InvalidCoveringError("no interleaving selection available")
    long_blocks, gains = split
    lam_val = blocks.unit_sums[_LAMBDA][-1] + gains[_LAMBDA]
    index_set = _index_set(m, long_blocks)
    tilde_min = blocks.induced_min(index_set, _DELTA)
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
