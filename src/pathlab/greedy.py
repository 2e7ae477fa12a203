"""Greedy sequences, the generalized tight example, Dyck sequences, and
exact verification of the linear-programming optimality certificates.

The checker puts y and gamma over one common denominator and w over its
own, and decides every constraint in Python integers: the dual feasibility
margins shrink quickly with t and floats would mask violations.  The Dyck
columns of each length are decided at once by their least dual slack, which
a DP over prefix sums finds without listing a column.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import accumulate
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import InvalidParameterError, NotGreedyError, ResourceLimitError
from .paths import EMPTY, GraphSequence, Intervals, PathGraph, _ranked_intervals, union_all

# resource ceilings (each raises ResourceLimitError)
DYCK_LIMIT = 12  # length of the Dyck sequences enumerate_dyck lists
LP_T_LIMIT = 160  # t of verify_lp_certificates

_intervals = attrgetter("intervals")


# ---------------------------------------------------------------------------
# greedy sequences
# ---------------------------------------------------------------------------


def is_vec_delta_greedy(seq: GraphSequence, base: PathGraph = EMPTY) -> bool:
    """True when each graph maximizes its component increment against the
    union of ``base`` and everything placed before it: when the greedy order
    of the members, ties going to the earlier position, is ``seq`` itself."""
    return _greedy_increments(seq, base) is not None


def _greedy_increments(seq: GraphSequence, base: PathGraph) -> list[int] | None:
    """The component increments of a greedy ``seq`` over ``base``, from one
    lazy greedy pass; None when ``seq`` is not greedy."""
    order, incs, _ = _lazy_greedy([g.intervals for g in seq], base.intervals)
    return incs if order == list(range(len(seq))) else None


def greedy_order(family: Iterable[PathGraph], base: PathGraph = EMPTY) -> list[PathGraph]:
    """A greedy enumeration of the family; ties broken by the canonical
    graph order (smallest interval list first)."""
    return _greedy(family, base)[0]


def _greedy(family: Iterable[PathGraph], base: PathGraph = EMPTY) -> tuple[list[PathGraph], int]:
    """``greedy_order`` and the sum of the increments it picks, which is
    its component value on top of ``base``."""
    members = sorted(family, key=_intervals)
    order, incs, _ = _lazy_greedy([g.intervals for g in members], base.intervals)
    return [members[i] for i in order], sum(incs)


def _lazy_greedy(
    members: Sequence[Intervals], acc: Intervals = (), thresholds: Iterable[int] = (0,)
) -> tuple[list[int], list[int], list[int]]:
    """The greedy order of ``members`` as indices, and for each pick its
    increment and its longest new interval: how many of its intervals touch
    nothing of ``acc`` and the members picked before it, and the longest of
    those.  Round by round, each pick is the member with the largest
    increment among those whose longest such interval reaches the round's
    threshold, the lowest index on ties; a member that reaches no threshold
    is left out.

    The touch test ANDs the masks of ``paths._ranked_intervals``: the union
    picked so far is the OR of its members' masks, and a member whose mask
    misses it keeps every interval.

    An increment and a longest interval only fall as the union grows, so a
    max-heap of (increment, index) keys holds upper bounds: the top is
    re-measured and taken when its key is still exact and it meets the
    threshold.  One that falls short cannot meet it again this round, so it
    waits for the next."""
    acc_comps, *comps = _ranked_intervals((acc, *members))
    whole = []
    longest = []
    for cs in comps:
        mask = lam = 0
        for c, length in cs:
            mask |= c
            if length > lam:
                lam = length
        whole.append(mask)
        longest.append(lam)
    seen = sum(c for c, _ in acc_comps)
    heap = [(-len(ivs), i) for i, ivs in enumerate(members)]
    heapify(heap)
    order: list[int] = []
    incs: list[int] = []
    lams: list[int] = []
    for threshold in thresholds:
        waiting = []
        while heap:
            key, i = heap[0]
            if whole[i] & seen:
                keep = [length for c, length in comps[i] if not c & seen]
                now, lam = -len(keep), max(keep, default=0)
            else:
                now, lam = -len(comps[i]), longest[i]
            if lam < threshold:
                waiting.append((now, heappop(heap)[1]))
            elif now != key:
                heapreplace(heap, (now, i))
            else:
                heappop(heap)
                order.append(i)
                incs.append(-now)
                lams.append(lam)
                seen |= whole[i]
        heap = waiting
        heapify(heap)
    return order, incs, lams


# ---------------------------------------------------------------------------
# the generalized tight construction
# ---------------------------------------------------------------------------


def _realise(t: int, counts: dict[tuple[int, ...], int]) -> list[PathGraph]:
    """``counts[a]`` graphs of each Dyck profile a = (a_1..a_s), all of
    single-edge components, level by level: a graph at level s has t - s
    free edges and a_r edges, each attached to a free end of the first
    level-(s - r) graph that has one.  Free edges lie 2t + 6 apart, so
    attachment chains never meet."""
    spacing = 2 * t + 6
    cursor = 0
    # per level, each graph's free ends: (vertex, outward step)
    ends: list[list[list[tuple[int, int]]]] = [[] for _ in range(t + 1)]
    out: list[PathGraph] = []
    for a, n in sorted(counts.items(), key=lambda item: len(item[0])):
        s = len(a)
        targets = [s - r for r, a_r in enumerate(a, start=1) for _ in range(a_r)]
        for _ in range(n):
            edges, mine = [], []
            for _ in range(t - s):
                edges.append((cursor, cursor + 1))
                mine += [(cursor, -1), (cursor + 1, 1)]
                cursor += spacing
            for level in targets:
                v, step = next(e for e in ends[level] if e).pop()
                edges.append((min(v, v + step), max(v, v + step)))
                mine.append((v + step, step))
            ends[s].append(mine)
            out.append(PathGraph(edges))
    return out


def build_greedy_example(t: int) -> list[PathGraph]:
    """The tight greedy family for parameter t: all components are single
    edges, the first graph has t of them, and the ratio of total edges to the
    greedy vector-component value meets the LP optimum exactly.

    It realises the primal optimum ``certificate_w(t)``, threefold at t = 1:
    levels 0..t-2 hold one graph each (t free edges shrinking by one per
    level, plus one edge attached to each earlier level); level t-1 holds
    t+2 such graphs; level t holds (t+2)(t+1) single edges, each attached to
    a level-(t-1) graph.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    scale = 3 if t == 1 else 1
    return _realise(t, {a: int(scale * n) for a, n in certificate_w(t).items()})


# ---------------------------------------------------------------------------
# Dyck sequences and profiles
# ---------------------------------------------------------------------------


def is_dyck(seq: Sequence[int]) -> bool:
    """Whether every entry is a nonnegative integer (in value: 1.0 is one)
    and a_1 + ... + a_r <= r for every r."""
    total = 0
    for r, a in enumerate(seq, start=1):
        if a < 0 or a % 1 != 0:
            return False
        total += a
        if total > r:
            return False
    return True


def enumerate_dyck(s: int) -> list[tuple[int, ...]]:
    """All length-s sequences of nonnegative integers whose prefix sums
    satisfy a_1 + ... + a_r <= r.  Their number is the Catalan number C_{s+1}."""
    if s < 0:
        raise InvalidParameterError("length must be >= 0")
    if s > DYCK_LIMIT:
        raise ResourceLimitError(f"Dyck length {s} exceeds limit {DYCK_LIMIT}")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], total: int):
        r = len(prefix)
        if r == s:
            out.append(prefix)
            return
        for a in range(r + 1 - total + 1):
            rec(prefix + (a,), total + a)

    rec((), 0)
    return out


def catalan(n: int) -> int:
    num = 1
    for i in range(n):
        num = num * 2 * (2 * i + 1) // (i + 2)
    return num


def extract_profiles(seq: GraphSequence, base: PathGraph = EMPTY) -> list[tuple[int, ...]]:
    """Level profiles of a greedy sequence: graph j at level s gets
    (a_1..a_s) where a_r counts vertices shared with level-(s-r) graphs.

    Meaningful under the normalization that each edge of G_j has at most one
    endpoint among the predecessors (as in the attachment-style families)."""
    incs = _greedy_increments(seq, base)
    if incs is None:
        raise NotGreedyError("profiles are defined for greedy sequences only")
    t = incs[0] if incs else 0
    level_vertices: dict[int, set[int]] = {}
    profiles: list[tuple[int, ...]] = []
    for g, inc in zip(seq, incs):
        s = t - inc
        mine = set(g.vertices())
        profiles.append(tuple(len(mine & level_vertices.get(s - r, set())) for r in range(1, s + 1)))
        level_vertices.setdefault(s, set()).update(mine)
    return profiles


# ---------------------------------------------------------------------------
# the LP certificates
# ---------------------------------------------------------------------------


def gamma(t: int) -> Fraction:
    """The exact optimum ratio constant: 5 + 2/(t+1) - 12/(t+2)."""
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    return Fraction(5) + Fraction(2, t + 1) - Fraction(12, t + 2)


def gamma_closed_form(t: int) -> Fraction:
    return Fraction(2 * (3 * t * t + 4 * t + 2), (t + 2) * (t + 1)) - 1


def certificate_w(t: int) -> dict[tuple[int, ...], Fraction]:
    """The integral primal optimum: 1 on the all-ones sequences of lengths
    0..t-2, t+2 on the all-ones sequence of length t-1, (t+2)(t+1) on
    (1, 0, ..., 0) of length t.

    At t = 1 the two patterns collide on the empty sequence; the matrix
    identities pin the basic vertex (1, 2) there, of which the t = 1 tight
    family is the threefold scaling."""
    if t == 1:
        return {(): Fraction(1), (1,): Fraction(2)}
    w: dict[tuple[int, ...], Fraction] = {}
    for s in range(t - 1):
        w[(1,) * s] = Fraction(1)
    w[(1,) * (t - 1)] = Fraction(t + 2)
    w[(1,) + (0,) * (t - 1)] = Fraction((t + 2) * (t + 1))
    return w


def certificate_y(t: int) -> list[Fraction]:
    """The dual optimum: y_0 = 0 and
    y_r = gamma/2 - (r-1)(4t+2-r) / (2(2t+2-r)(2t+1-r))."""
    g = gamma(t)
    y = [Fraction(0)]
    for r in range(1, t + 1):
        y.append(g / 2 - Fraction((r - 1) * (4 * t + 2 - r), 2 * (2 * t + 2 - r) * (2 * t + 1 - r)))
    return y


def _column(t: int, a: tuple[int, ...], gamma_num: int, den: int) -> tuple[list[tuple[int, int]], int]:
    """The Dyck-sequence column ``a`` of the standard-form system (rows
    0..t): its (row, coefficient) pairs that can be nonzero, and its objective
    coefficient sum(a) - (t - s)·gamma times ``den``, where gamma =
    gamma_num / den.  A column of length s has at most s + 2 such rows."""
    s = len(a)
    total = sum(a)
    rows = [(r, a[s - r]) for r in range(1, s + 1)]  # a_{s-r+1}, 1-based
    if s < t:
        rows.append((s + 1, -(total + 2 * (t - s))))
    if s == 0:
        rows.append((0, -1))
    return rows, total * den - (t - s) * gamma_num


def verify_lp_certificates(
    t: int,
    w: dict[tuple[int, ...], Fraction] | None = None,
    y: Sequence[Fraction] | None = None,
) -> dict:
    """Exact check that the primal/dual pair certifies LP value 0.

    Verifies nonnegativity, every primal constraint over all Dyck columns,
    primal objective 0, dual feasibility for every Dyck sequence of length
    <= t, the monotone chain 5/2 > gamma/2 = y_1 > ... > y_t = 1, and the
    matrix identities M w = (-1, 0, ..., 0), M^T y = f, f^T w = -y_0 = 0 on
    the support columns.

    Entries may be ints or Fractions.  y and gamma are scaled to integers
    over the lcm of their denominators, w over the lcm of its own, so every
    comparison is between integers.  A key of w with a fractional entry is
    no Dyck sequence; the primal sums read only the Dyck keys of length
    <= t, each as the integer column it equals.  The dual constraints of
    each length s are decided by their least slack in O(s^2) steps, and a
    violated length is reported by its lex-first column of least slack.
    """
    if t > LP_T_LIMIT:
        raise ResourceLimitError(f"t={t} exceeds LP check limit {LP_T_LIMIT}")
    g = gamma(t)
    w = certificate_w(t) if w is None else {a: Fraction(v) for a, v in w.items()}
    y = certificate_y(t) if y is None else [Fraction(v) for v in y]
    if len(y) != t + 1:
        raise InvalidParameterError(f"y has {len(y)} entries; t={t} needs t + 1 = {t + 1}")
    den = lcm(g.denominator, *(v.denominator for v in y))
    y_int = [v.numerator * (den // v.denominator) for v in y]
    g_num = g.numerator * (den // g.denominator)
    w_den = lcm(*(v.denominator for v in w.values()))
    columns: list[tuple[int, ...]] = []  # the keys of w read as columns
    violated: list[str] = []
    failed: set[str] = set()

    def fail(part: str, message: str) -> None:
        """Record a violation under the part (primal, dual or identities) it
        refutes."""
        violated.append(message)
        failed.add(part)

    for a, val in w.items():
        if not is_dyck(a):
            fail("primal", f"support: w[{a}] indexed by a non-Dyck sequence")
        elif len(a) <= t:
            columns.append(tuple(map(int, a)))
        if val < 0:
            fail("primal", f"nonnegativity: w[{a}] = {val} < 0")
    if any(v < 0 for v in y_int):
        fail("dual", "nonnegativity: some y_r < 0")

    def primal_sums(keys) -> tuple[list[int], int]:
        """M w over w_den and f^T w over den·w_den, summed over the columns
        among ``keys`` that carry a value in w."""
        m_w = [0] * (t + 1)
        f_w = 0
        for a in keys:
            val = w.get(a)
            if val is None:
                continue
            scaled = val.numerator * (w_den // val.denominator)
            rows, obj = _column(t, a, g_num, den)
            for r, c in rows:
                m_w[r] += c * scaled
            f_w += obj * scaled
        return m_w, f_w

    def dual_slack(a: tuple[int, ...]) -> int:
        """(M^T y - f)[a] times den."""
        rows, obj = _column(t, a, g_num, den)
        return sum(c * y_int[r] for r, c in rows) - obj

    def least_slack(s: int) -> tuple[int, tuple[int, ...]]:
        """The least dual slack over the Dyck columns of length s and the
        lex-first column with it.  The slack is affine in the column, so a
        walk over positions p keeps the least slack and the lex-first prefix
        of each prefix sum k <= p: a running minimum over the sums j <= k."""
        zero = (0,) * s
        base = dual_slack(zero)
        best = [(base, ())]
        for p in range(1, s + 1):
            step = dual_slack(zero[: p - 1] + (1,) + zero[p:]) - base
            # prefixes of distinct sums differ, so ties never reach j
            lows = list(accumulate(((v - j * step, pre, j) for j, (v, pre) in enumerate(best)), min))
            lows.append(lows[-1])
            best = [(v + k * step, pre + (k - j,)) for k, (v, pre, j) in enumerate(lows)]
        return min(best)

    # primal constraints: row 0 is w_() >= 1, rows r >= 1 are <=-inequalities
    row_sums, primal_obj = primal_sums(columns)
    if not row_sums[0] <= -w_den:
        fail("primal", "(*_0): w_() >= 1 fails")
    for row in range(1, t + 1):
        if not row_sums[row] <= 0:
            fail("primal", f"(*_{row}): primal constraint violated by {Fraction(row_sums[row], w_den)}")
    if primal_obj != 0:
        fail("primal", f"objective: primal value {Fraction(primal_obj, den * w_den)} != 0")

    # dual feasibility: M^T y >= f over every Dyck column, length by length
    for s in range(t + 1):
        slack, a = least_slack(s)
        if slack < 0:
            fail("dual", f"(star_{a}): dual constraint violated")
    if y_int[0] != 0:
        fail("dual", f"dual objective: -y_0 = {-y[0]} != 0")
    if not 5 * den > 2 * y_int[1] == g_num:
        fail("dual", "chain: y_1 != gamma/2 or y_1 >= 5/2")
    for r in range(1, t):
        if not y_int[r] > y_int[r + 1]:
            fail("dual", f"chain: y_{r} <= y_{r + 1}")
    if y_int[t] != den:
        fail("dual", f"chain: y_t = {y[t]} != 1")

    # support-matrix identities
    support = [(1,) * s for s in range(t)] + [(1,) + (0,) * (t - 1)]
    m_w, f_w = primal_sums(support)
    if m_w != [-w_den] + [0] * t:
        fail("identities", "identity: M w != (-1, 0, ..., 0)")
    for a in support:
        if dual_slack(a) != 0:
            fail("identities", f"identity: (M^T y)[{a}] != f[{a}]")
    if not f_w == 0 == y_int[0]:
        fail("identities", "identity: f^T w != -y_0 or != 0")

    return {
        "t": t,
        "gamma": str(g),
        "primal_ok": "primal" not in failed,
        "dual_ok": "dual" not in failed,
        "identities_ok": "identities" not in failed,
        "violated": violated,
        "ok": not violated,
    }


# ---------------------------------------------------------------------------
# ratio checks
# ---------------------------------------------------------------------------


def check_greedy_ratio(seq: GraphSequence, base: PathGraph = EMPTY) -> dict:
    """Verify the tight edge-count bound for unit-component greedy sequences
    and the conditional 5*delta(F) + 6*vec_delta bound; report slack."""
    incs = _greedy_increments(seq, base)
    if incs is None:
        raise NotGreedyError("sequence is not greedy over the given base graph")
    report: dict = {"ok": True}
    vd_cond = sum(incs)
    residuals = [g.ominus(base) for g in seq]
    max_lam = max((r.lam for r in residuals), default=0)

    if not base and seq and all(g.lam <= 1 for g in seq) and seq[0].delta >= 1:
        t = seq[0].delta
        bound = (gamma(t) + 1) * vd_cond
        total = union_all(seq).norm
        report["unit_case"] = {
            "t": t,
            "edges": total,
            "bound": str(bound),
            "slack": str(bound - total),
            "tight": bound == total,
        }
        if total > bound:
            report["ok"] = False

    if max_lam > 0:
        covered = union_all(residuals).norm
        bound6 = 5 * base.delta + 6 * vd_cond
        report["conditional_case"] = {
            "covered_edges": covered,
            "max_component_length": max_lam,
            "bound": bound6,
            "holds": Fraction(covered, max_lam) <= bound6,
        }
        if Fraction(covered, max_lam) > bound6:
            report["ok"] = False
    return report


def check_greedy_quotient(seq: GraphSequence, base: PathGraph = EMPTY) -> bool:
    """The corollary form: ||(union seq) - base|| / max lambda(G_j - base)
    <= 6 * vec_delta(seq | base)."""
    incs = _greedy_increments(seq, base)
    if incs is None:
        raise NotGreedyError("sequence is not greedy over the given base graph")
    residual_union = union_all(seq).ominus(base)
    max_lam = max((g.ominus(base).lam for g in seq), default=0)
    if max_lam == 0:
        return residual_union.norm == 0
    return Fraction(residual_union.norm, max_lam) <= 6 * sum(incs)
