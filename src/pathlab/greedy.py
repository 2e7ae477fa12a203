"""Greedy sequences, the generalized tight example, Dyck sequences, and
exact verification of the linear-programming optimality certificates.

The certificates are given as ``fractions.Fraction`` values; the checker puts
y and gamma over one common denominator and w over its own, and decides every
constraint in Python integers.  The dual feasibility margins shrink quickly
with t and floats would mask violations.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import InvalidParameterError, NotGreedyError, ResourceLimitError
from .paths import EMPTY, GraphSequence, PathGraph, _merge, _survivors, union_all, vec_delta

# resource ceilings (each raises ResourceLimitError)
DYCK_LIMIT = 12  # length of the Dyck sequences enumerate_dyck lists
LP_DYCK_LIMIT = 8  # t of verify_lp_certificates

_intervals = attrgetter("intervals")


# ---------------------------------------------------------------------------
# greedy sequences
# ---------------------------------------------------------------------------


def is_vec_delta_greedy(seq: GraphSequence, base: PathGraph = EMPTY) -> bool:
    """True when each graph maximizes its component increment against the
    union of everything placed before it."""
    acc = base
    for j, g in enumerate(seq):
        inc = g.ominus(acc).delta
        for later in seq[j + 1 :]:
            if later.ominus(acc).delta > inc:
                return False
        acc = acc.union(g)
    return True


def greedy_order(family: Iterable[PathGraph], base: PathGraph = EMPTY) -> list[PathGraph]:
    """A greedy enumeration of the family; ties broken by the canonical
    graph order (smallest interval list first)."""
    return _greedy(family, base)[0]


def _greedy(family: Iterable[PathGraph], base: PathGraph = EMPTY) -> tuple[list[PathGraph], int]:
    """``greedy_order`` and the sum of the increments it picks, which is
    its component value on top of ``base``.

    A member's increment can only fall as the union grows, so a max-heap of
    (increment, index) keys holds upper bounds: the top is re-measured and
    taken when its key is still exact, and pushed back with the new key
    otherwise.  The union is kept as an interval tuple."""
    members = sorted(family, key=_intervals)
    acc = base.intervals
    heap = [(-len(_survivors(acc, g.intervals)), i) for i, g in enumerate(members)]
    heapify(heap)
    out: list[PathGraph] = []
    total = 0
    while heap:
        key, i = heap[0]
        ivs = members[i].intervals
        now = -len(_survivors(acc, ivs))
        if now != key:
            heapreplace(heap, (now, i))
            continue
        heappop(heap)
        out.append(members[i])
        total -= now
        acc = _merge(acc, ivs)
    return out, total


# ---------------------------------------------------------------------------
# the generalized tight construction
# ---------------------------------------------------------------------------


class _Builder:
    """Places single-edge components on a fresh stretch of the integer line,
    far enough apart that attachment chains can never collide."""

    def __init__(self, spacing: int):
        self.spacing = spacing
        self.cursor = 0
        # free endpoints per graph index: vertex v with the free cell on side d
        self.slots: dict[int, list[tuple[int, int]]] = {}
        self.edges: dict[int, list[tuple[int, int]]] = {}

    def new_graph(self) -> int:
        gid = len(self.edges)
        self.edges[gid] = []
        self.slots[gid] = []
        return gid

    def add_free_edge(self, gid: int) -> None:
        s = self.cursor
        self.cursor += self.spacing
        self.edges[gid].append((s, s + 1))
        self.slots[gid].append((s, -1))
        self.slots[gid].append((s + 1, +1))

    def attach_edge(self, gid: int, target: int) -> None:
        """Add to gid a single edge sharing one vertex with graph ``target``."""
        v, direction = self.slots[target].pop()
        if direction < 0:
            edge = (v - 1, v)
            outer = v - 1
        else:
            edge = (v, v + 1)
            outer = v + 1
        self.edges[gid].append(edge)
        self.slots[gid].append((outer, direction))

    def graph(self, gid: int) -> PathGraph:
        return PathGraph(self.edges[gid])


def build_greedy_example(t: int) -> list[PathGraph]:
    """The tight greedy family for parameter t: all components are single
    edges, the first graph has t of them, and the ratio of total edges to the
    greedy vector-component value meets the LP optimum exactly.

    Levels 0..t-2 hold one graph each (t free edges shrinking by one per
    level, plus one edge attached to each earlier level); level t-1 holds
    t+2 such graphs; level t holds (t+2)(t+1) single edges, each attached to
    a level-(t-1) graph.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    b = _Builder(spacing=2 * t + 6)
    levels: list[list[int]] = []
    for s in range(t - 1):
        gid = b.new_graph()
        for _ in range(t - s):
            b.add_free_edge(gid)
        for r in range(1, s + 1):
            target = levels[s - r][0]
            b.attach_edge(gid, target)
        levels.append([gid])
    top: list[int] = []
    for _ in range(t + 2):
        gid = b.new_graph()
        for _ in range(t - (t - 1)):
            b.add_free_edge(gid)
        for r in range(1, t):
            target_level = levels[t - 1 - r]
            target = next(x for x in target_level if b.slots[x])
            b.attach_edge(gid, target)
        top.append(gid)
    levels.append(top)
    singles: list[int] = []
    for _ in range((t + 2) * (t + 1)):
        gid = b.new_graph()
        target = next(x for x in top if b.slots[x])
        b.attach_edge(gid, target)
        singles.append(gid)
    order = [g for level in levels for g in level] + singles
    return [b.graph(g) for g in order]


# ---------------------------------------------------------------------------
# Dyck sequences and profiles
# ---------------------------------------------------------------------------


def is_dyck(seq: Sequence[int]) -> bool:
    total = 0
    for r, a in enumerate(seq, start=1):
        if a < 0:
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
    if not is_vec_delta_greedy(seq, base):
        raise NotGreedyError("profiles are defined for greedy sequences only")
    t = seq[0].ominus(base).delta if seq else 0
    acc = base
    level_vertices: dict[int, set[int]] = {}
    profiles: list[tuple[int, ...]] = []
    for g in seq:
        s = t - g.ominus(acc).delta
        prof = []
        mine = set(g.vertices())
        for r in range(1, s + 1):
            prof.append(len(mine & level_vertices.get(s - r, set())))
        profiles.append(tuple(prof))
        level_vertices.setdefault(s, set()).update(mine)
        acc = acc.union(g)
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
    comparison is between integers; a column's dual constraint costs one
    pass over its nonzero rows, and the primal sums run over the keys of w
    that are Dyck columns of length <= t (other keys add nothing).
    """
    if t > LP_DYCK_LIMIT:
        raise ResourceLimitError(f"t={t} exceeds Dyck enumeration limit {LP_DYCK_LIMIT}")
    g = gamma(t)
    w = certificate_w(t) if w is None else {a: Fraction(v) for a, v in w.items()}
    y = certificate_y(t) if y is None else [Fraction(v) for v in y]
    if len(y) != t + 1:
        raise InvalidParameterError(f"y has {len(y)} entries; t={t} needs t + 1 = {t + 1}")
    den = lcm(g.denominator, *(v.denominator for v in y))
    y_int = [v.numerator * (den // v.denominator) for v in y]
    g_num = g.numerator * (den // g.denominator)
    w_den = lcm(*(v.denominator for v in w.values()))
    # the Dyck columns of length <= t in order, each mapped to itself so that
    # a key of w equal to a column is read as that column
    columns = {a: a for s in range(t + 1) for a in enumerate_dyck(s)}
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

    # primal constraints: row 0 is w_() >= 1, rows r >= 1 are <=-inequalities
    row_sums, primal_obj = primal_sums(columns[a] for a in w if a in columns)
    if not row_sums[0] <= -w_den:
        fail("primal", "(*_0): w_() >= 1 fails")
    for row in range(1, t + 1):
        if not row_sums[row] <= 0:
            fail("primal", f"(*_{row}): primal constraint violated by {Fraction(row_sums[row], w_den)}")
    if primal_obj != 0:
        fail("primal", f"objective: primal value {Fraction(primal_obj, den * w_den)} != 0")

    # dual feasibility: M^T y >= f over every Dyck column
    for a in columns:
        if dual_slack(a) < 0:
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
    if not is_vec_delta_greedy(seq, base):
        raise NotGreedyError("sequence is not greedy over the given base graph")
    report: dict = {"ok": True}
    vd_cond = vec_delta(seq, base)
    residuals = [g.ominus(base) for g in seq]
    max_lam = max((r.lam for r in residuals), default=0)

    if not base and seq and all(g.lam <= 1 for g in seq) and seq[0].delta >= 1:
        t = seq[0].delta
        bound = (gamma(t) + 1) * vec_delta(seq)
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
    if not is_vec_delta_greedy(seq, base):
        raise NotGreedyError("sequence is not greedy over the given base graph")
    residual_union = union_all(seq).ominus(base)
    max_lam = max((g.ominus(base).lam for g in seq), default=0)
    if max_lam == 0:
        return residual_union.norm == 0
    return Fraction(residual_union.norm, max_lam) <= 6 * vec_delta(seq, base)
