"""Greedy sequences, the tight family, Dyck counting, LP certificates."""

from __future__ import annotations

import heapq
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from pathlab import greedy, paths, samples
from pathlab.errors import InvalidParameterError, NotGreedyError, ResourceLimitError
from pathlab.paths import (
    EMPTY,
    PathGraph,
    from_edges,
    full_path,
    make_path,
    single_edge,
    union_all,
    vec_delta,
)


# -- greediness -----------------------------------------------------------------


def test_example_family_is_greedy():
    seq = greedy.build_greedy_example(3)
    assert greedy.is_vec_delta_greedy(seq)
    assert not greedy.is_vec_delta_greedy(list(reversed(seq)))


def test_single_graph_is_greedy():
    assert greedy.is_vec_delta_greedy([make_path(0, 4)])


def test_greedy_order_passes_checker():
    rng = random.Random(0)
    for _ in range(100):
        fam = [samples.random_pathgraph(rng, 0, 10) for _ in range(rng.randint(1, 7))]
        base = samples.random_pathgraph(rng, 0, 10, max_comps=1)
        ordered = greedy.greedy_order(fam, base)
        assert sorted(ordered) == sorted(fam)
        assert greedy.is_vec_delta_greedy(ordered, base)


def _reference_greedy_order(family, base=EMPTY):
    """The max-scan greedy: every round re-measures every remaining member and
    takes the largest increment, the smallest index in sorted order on ties."""
    remaining = sorted(family)
    out = []
    acc = base
    while remaining:
        best_idx = max(range(len(remaining)), key=lambda i: (remaining[i].ominus(acc).delta, -i))
        g = remaining.pop(best_idx)
        out.append(g)
        acc = acc.union(g)
    return out


def test_lazy_greedy_order_matches_the_max_scan():
    rng = random.Random(12)
    seen = set()
    for case in range(520):
        if case % 4 == 0:
            fam = samples.random_unit_covering(rng, rng.randint(2, 24))
        else:
            fam = [samples.random_pathgraph(rng, 0, 14) for _ in range(rng.randint(0, 9))]
        if fam and rng.random() < 0.3:
            fam += rng.sample(fam, rng.randint(1, len(fam)))
        if rng.random() < 0.2:
            fam.append(EMPTY)
        base = samples.random_pathgraph(rng, 0, 14, max_comps=2) if rng.random() < 0.6 else EMPTY
        incs = sorted((g.ominus(base).delta for g in fam), reverse=True)
        seen.update(
            kind
            for kind, hit in (
                ("base", bool(base)),
                ("repeat", len(set(fam)) < len(fam)),
                ("empty", EMPTY in fam),
                ("tie", len(incs) > 1 and incs[0] == incs[1]),
            )
            if hit
        )
        ordered, total = greedy._greedy(fam, base)
        assert ordered == _reference_greedy_order(fam, base), case
        assert greedy.greedy_order(fam, base) == ordered
        assert total == vec_delta(ordered, base)
    assert seen == {"base", "repeat", "empty", "tie"}


def _tuple_lazy_greedy(members, acc=(), thresholds=(0,)):
    """The lazy greedy with its touch test on interval tuples: each
    re-measure bisects a member into the running union, and each pick
    merges it in.  The reference for the vertex-mask ``_lazy_greedy``."""
    heap = [(-len(ivs), i) for i, ivs in enumerate(members)]
    heapq.heapify(heap)
    order, incs, lams = [], [], []
    for threshold in thresholds:
        waiting = []
        while heap:
            key, i = heap[0]
            keep = paths._survivors(acc, members[i])
            now = -len(keep)
            lam = paths._terms(keep)[1]
            if threshold and lam < threshold:
                waiting.append((now, heapq.heappop(heap)[1]))
            elif now != key:
                heapq.heapreplace(heap, (now, i))
            else:
                heapq.heappop(heap)
                order.append(i)
                incs.append(-now)
                lams.append(lam)
                acc = paths._coalesce(sorted(acc + members[i]))
        heap = waiting
        heapq.heapify(heap)
    return order, incs, lams


def test_mask_greedy_matches_the_tuple_greedy():
    # seeded families with a base, repeats, empty members, coordinates near
    # +-10^9 and the level thresholds of construct_main_I
    rng = random.Random(27)
    seen = set()
    for case in range(600):
        c = rng.choice([0, 10**9, -(10**9)])
        if case % 3 == 0:
            fam = samples.random_covering(rng, rng.randint(1, 30))
        else:
            fam = [samples.random_pathgraph(rng, 0, 20) for _ in range(rng.randint(0, 12))]
        if fam and rng.random() < 0.3:
            fam += rng.sample(fam, rng.randint(1, len(fam)))
        if rng.random() < 0.2:
            fam.insert(rng.randint(0, len(fam)), EMPTY)
        base = samples.random_pathgraph(rng, 0, 20, max_comps=2) if rng.random() < 0.5 else EMPTY
        members = [g.translate(c).intervals for g in fam]
        acc = base.translate(c).intervals
        if rng.random() < 0.5:
            r = rng.randint(1, 5)
            thresholds = [2 ** (r - i) for i in range(1, r + 1)]
        else:
            thresholds = [0]
        seen.update(
            kind
            for kind, hit in (
                ("base", bool(acc)),
                ("repeat", len(set(members)) < len(members)),
                ("empty", () in members),
                ("thresholds", thresholds != [0]),
            )
            if hit
        )
        got = greedy._lazy_greedy(members, acc, thresholds)
        assert got == _tuple_lazy_greedy(members, acc, thresholds), case
    assert seen == {"base", "repeat", "empty", "thresholds"}


def _reference_is_greedy(seq, base=EMPTY):
    """The O(m^2) definition: each member's increment against the union of
    ``base`` and its predecessors is at least every later member's."""
    acc = base
    for j, g in enumerate(seq):
        inc = g.ominus(acc).delta
        for later in seq[j + 1 :]:
            if later.ominus(acc).delta > inc:
                return False
        acc = acc.union(g)
    return True


def test_greedy_check_matches_the_quadratic_scan():
    rng = random.Random(26)
    seen = set()
    verdicts = set()
    for case in range(600):
        if case % 4 == 0:
            fam = samples.random_unit_covering(rng, rng.randint(2, 20))
        else:
            fam = [samples.random_pathgraph(rng, 0, 14) for _ in range(rng.randint(0, 8))]
        if fam and rng.random() < 0.3:
            fam += rng.sample(fam, rng.randint(1, len(fam)))
        if rng.random() < 0.2:
            fam.insert(rng.randint(0, len(fam)), EMPTY)
        base = samples.random_pathgraph(rng, 0, 14, max_comps=2) if rng.random() < 0.6 else EMPTY
        # half of the cases start from a greedy order, so both verdicts occur
        seq = greedy.greedy_order(fam, base) if case % 2 else fam
        if len(seq) > 1 and case % 3 == 0:
            j = rng.randrange(len(seq) - 1)
            seq = seq[:j] + [seq[j + 1], seq[j]] + seq[j + 2 :]
        incs = sorted((g.ominus(base).delta for g in seq), reverse=True)
        seen.update(
            kind
            for kind, hit in (
                ("base", bool(base)),
                ("repeat", len(set(seq)) < len(seq)),
                ("empty", EMPTY in seq),
                ("tie", len(incs) > 1 and incs[0] == incs[1]),
            )
            if hit
        )
        want = _reference_is_greedy(seq, base)
        verdicts.add(want)
        assert greedy.is_vec_delta_greedy(seq, base) == want, case
    assert seen == {"base", "repeat", "empty", "tie"}
    assert verdicts == {True, False}


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_greedy_check_on_reordered_tight_families(t):
    seq = greedy.build_greedy_example(t)
    rng = random.Random(t)
    orders = [seq, seq[::-1]]
    for _ in range(20):
        orders.append(rng.sample(seq, len(seq)))
    for order in orders:
        assert greedy.is_vec_delta_greedy(order) == _reference_is_greedy(order)


def test_greedy_order_on_single_edges():
    e = [single_edge(i) for i in range(1, 9)]
    assert greedy.is_vec_delta_greedy(greedy.greedy_order(e))


def test_greedy_order_prefers_larger_increment():
    a = make_path(0, 3)
    b = make_path(2, 5)
    fatter = make_path(7, 8).union(make_path(10, 11))
    ordered = greedy.greedy_order([a, fatter, b])
    assert ordered[0] == fatter  # two fresh components beat one


def test_greedy_example_reordered_value():
    # re-sorting greedily can only match or exceed the canonical order's
    # value (the edge-count bound pins 10 as the minimum over greedy orders)
    fam = greedy.build_greedy_example(3)
    ordered = greedy.greedy_order(fam)
    assert greedy.is_vec_delta_greedy(ordered)
    assert vec_delta(ordered) >= 10
    assert union_all(ordered).norm <= (greedy.gamma(ordered[0].delta) + 1) * vec_delta(ordered)


# -- the tight family -----------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_family_counts(t):
    seq = greedy.build_greedy_example(t)
    assert len(seq) == t * t + 5 * t + 3
    assert union_all(seq).norm == 3 * t * t + 4 * t + 2
    assert vec_delta(seq) == (t + 2) * (t + 1) // 2
    assert all(g.lam == 1 for g in seq)
    assert greedy.is_vec_delta_greedy(seq)


class _ReferenceBuilder:
    """The tight family's original builder, kept as the reference: single
    edges on a fresh stretch of the line, free ends popped per graph."""

    def __init__(self, spacing):
        self.spacing = spacing
        self.cursor = 0
        self.slots = {}
        self.edges = {}

    def new_graph(self):
        gid = len(self.edges)
        self.edges[gid] = []
        self.slots[gid] = []
        return gid

    def add_free_edge(self, gid):
        s = self.cursor
        self.cursor += self.spacing
        self.edges[gid].append((s, s + 1))
        self.slots[gid].append((s, -1))
        self.slots[gid].append((s + 1, +1))

    def attach_edge(self, gid, target):
        v, direction = self.slots[target].pop()
        edge, outer = ((v - 1, v), v - 1) if direction < 0 else ((v, v + 1), v + 1)
        self.edges[gid].append(edge)
        self.slots[gid].append((outer, direction))


def _reference_greedy_example(t):
    b = _ReferenceBuilder(spacing=2 * t + 6)
    levels = []
    for s in range(t - 1):
        gid = b.new_graph()
        for _ in range(t - s):
            b.add_free_edge(gid)
        for r in range(1, s + 1):
            b.attach_edge(gid, levels[s - r][0])
        levels.append([gid])
    top = []
    for _ in range(t + 2):
        gid = b.new_graph()
        b.add_free_edge(gid)
        for r in range(1, t):
            b.attach_edge(gid, next(x for x in levels[t - 1 - r] if b.slots[x]))
        top.append(gid)
    levels.append(top)
    singles = []
    for _ in range((t + 2) * (t + 1)):
        gid = b.new_graph()
        b.attach_edge(gid, next(x for x in top if b.slots[x]))
        singles.append(gid)
    order = [g for level in levels for g in level] + singles
    return [PathGraph(b.edges[g]) for g in order]


def _tight_counts(t):
    """certificate_w(t) as integer counts, threefold at t = 1."""
    scale = 3 if t == 1 else 1
    return {a: scale * int(n) for a, n in greedy.certificate_w(t).items()}


@pytest.mark.parametrize("t", range(1, 31))
def test_realised_certificate_is_the_reference_family(t):
    want = _reference_greedy_example(t)
    assert greedy._realise(t, _tight_counts(t)) == want
    assert greedy.build_greedy_example(t) == want


@pytest.mark.parametrize("t", range(1, 11))
def test_profiles_of_the_family_are_its_counts(t):
    profiles = greedy.extract_profiles(greedy.build_greedy_example(t))
    assert Counter(profiles) == Counter(_tight_counts(t))


def test_family_golden_t3():
    seq = greedy.build_greedy_example(3)
    assert (len(seq), union_all(seq).norm, vec_delta(seq)) == (27, 41, 10)
    assert seq[0].delta == 3


# -- Dyck sequences ----------------------------------------------------------------


def test_dyck_counts_are_catalan():
    for s in range(0, 11):
        assert len(greedy.enumerate_dyck(s)) == greedy.catalan(s + 1)


def test_dyck_small_contents():
    assert greedy.enumerate_dyck(0) == [()]
    assert sorted(greedy.enumerate_dyck(1)) == [(0,), (1,)]
    assert len(greedy.enumerate_dyck(2)) == 5


def test_dyck_limit():
    with pytest.raises(ResourceLimitError):
        greedy.enumerate_dyck(13)


def test_profiles_of_the_family_are_dyck():
    for t in (1, 2, 3, 4):
        seq = greedy.build_greedy_example(t)
        profiles = greedy.extract_profiles(seq)
        assert all(greedy.is_dyck(p) for p in profiles)


def test_profile_goldens_t3():
    seq = greedy.build_greedy_example(3)
    profiles = greedy.extract_profiles(seq)
    assert profiles[0] == ()
    assert profiles[1] == (1,)
    assert profiles[2] == (1, 1)
    assert profiles[3] == (1, 1)


# -- the ratio constant -------------------------------------------------------------


def test_gamma_goldens():
    assert greedy.gamma(3) == Fraction(31, 10)
    assert greedy.gamma(3) + 1 == Fraction(2 * 41, 5 * 4)
    assert greedy.gamma(1) == 2


def test_gamma_closed_forms_agree():
    for t in range(1, 51):
        assert greedy.gamma(t) == greedy.gamma_closed_form(t)


def test_gamma_plus_one_below_six():
    for t in range(1, 80):
        assert greedy.gamma(t) + 1 < 6


# -- LP certificates -----------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7])
def test_lp_certificates_verify(t):
    report = greedy.verify_lp_certificates(t)
    assert report["ok"], report["violated"]
    assert report["primal_ok"] and report["dual_ok"] and report["identities_ok"]


def test_lp_certificates_fail_at_eight():
    # the closed-form dual misses one constraint by 1/90 at t = 8; pinned as
    # found, not mended
    report = greedy.verify_lp_certificates(8)
    assert not report["ok"] and not report["dual_ok"]
    assert report["primal_ok"] and report["identities_ok"]
    assert report["violated"] == ["(star_(1, 1, 1, 1, 1, 1, 0)): dual constraint violated"]


# (ones, zeros) of each column 1^ones 0^zeros that the closed-form dual
# violates at t = 9..16, one per violated length
_LP_FOUND = {
    9: [(7, 1)], 10: [(7, 2)], 11: [(7, 3)], 12: [(8, 3)], 13: [(8, 4)], 14: [(8, 5)],
    15: [(12, 1), (9, 5)], 16: [(12, 2), (9, 6)],
}


@pytest.mark.parametrize("t", sorted(_LP_FOUND))
def test_lp_certificates_fail_beyond_eight(t):
    # pinned as found, not mended, as at t = 8: only dual feasibility fails
    report = greedy.verify_lp_certificates(t)
    assert not report["ok"] and not report["dual_ok"]
    assert report["primal_ok"] and report["identities_ok"]
    assert report["violated"] == [
        f"(star_{(1,) * ones + (0,) * zeros}): dual constraint violated" for ones, zeros in _LP_FOUND[t]
    ]


def test_lp_check_lists_no_dyck_column(monkeypatch):
    def listing(s):
        raise AssertionError(f"enumerate_dyck({s}) called")

    monkeypatch.setattr(greedy, "enumerate_dyck", listing)
    for t in range(1, 17):
        greedy.verify_lp_certificates(t)
    w = greedy.certificate_w(5)
    w[(1, 0, 1)] = 2
    y = greedy.certificate_y(5)
    y[2] -= 1
    assert not greedy.verify_lp_certificates(5, w=w, y=y)["dual_ok"]


def test_dual_vector_goldens():
    y = greedy.certificate_y(3)
    assert y[0] == 0
    assert y[1] == greedy.gamma(3) / 2 == Fraction(31, 20)
    assert y[3] == 1
    y1 = greedy.certificate_y(1)
    assert y1[1] == greedy.gamma(1) / 2 == 1


def test_tampered_primal_is_rejected():
    w = greedy.certificate_w(3)
    w[(1, 0, 0)] += 1
    report = greedy.verify_lp_certificates(3, w=w)
    assert not report["ok"]
    assert any("(*_3)" in v or v.startswith("objective") for v in report["violated"])


def test_tampered_dual_is_rejected():
    y = greedy.certificate_y(4)
    y[2] += Fraction(1)
    report = greedy.verify_lp_certificates(4, y=y)
    assert not report["ok"]


def test_negative_dual_entry_is_a_dual_violation():
    # w is untouched, so only the dual side and the identities can fail
    y = greedy.certificate_y(3)
    y[2] = Fraction(-1)
    report = greedy.verify_lp_certificates(3, y=y)
    assert "nonnegativity: some y_r < 0" in report["violated"]
    assert report["primal_ok"] and not report["dual_ok"]


@pytest.mark.parametrize("y", [[0, 1], [0, 2, 1, 1, 1]])
def test_dual_of_the_wrong_length_is_refused(y):
    # t = 3 needs y_0..y_3: a shorter y used to raise IndexError, a longer
    # one gave a silent ok: False
    with pytest.raises(InvalidParameterError, match="t=3 needs t \\+ 1 = 4"):
        greedy.verify_lp_certificates(3, y=y)


def test_keys_of_w_equal_to_integer_columns_are_read_as_those_columns():
    # a float key equal to a column is read as the integer column, so no
    # float reaches a row sum; a key with a fractional entry is no Dyck
    # sequence, so it is reported, not dropped
    w = {tuple(map(float, a)): v for a, v in greedy.certificate_w(4).items()}
    assert greedy.verify_lp_certificates(4, w=w) == greedy.verify_lp_certificates(4)
    support = "support: w[(0.5,)] indexed by a non-Dyck sequence"
    w[(0.5,)] = 1
    report = greedy.verify_lp_certificates(4, w=w)
    assert not report["ok"] and not report["primal_ok"] and report["dual_ok"]
    assert report["violated"] == [support]
    w[(1.0, 0.0)] = 1
    assert greedy.verify_lp_certificates(4, w=w)["violated"] == [
        support, "(*_2): primal constraint violated by 1", "objective: primal value -29/5 != 0"
    ]
    assert not greedy.is_dyck((1, 0.5)) and greedy.is_dyck((1.0, 0.0))


def test_every_unit_perturbation_is_caught():
    t = 3
    base_w = greedy.certificate_w(t)
    for key in base_w:
        for eps in (1, -1):
            w = dict(base_w)
            w[key] += eps
            assert not greedy.verify_lp_certificates(t, w=w)["ok"], (key, eps)
    base_y = greedy.certificate_y(t)
    for r in range(len(base_y)):
        y = list(base_y)
        y[r] += 1
        assert not greedy.verify_lp_certificates(t, y=y)["ok"], ("y", r)


def _reference_column_coefficient(t, row, a):
    """Coefficient of the Dyck-sequence column ``a`` in constraint row
    ``row`` of the standard-form system (rows 0..t)."""
    s = len(a)
    if row == 0:
        return Fraction(-1) if s == 0 else Fraction(0)
    coef = Fraction(0)
    if row <= s:
        coef += a[s - row]  # a_{s-row+1} with 1-based indexing
    if row == s + 1:
        coef -= sum(a) + 2 * (t - s)
    return coef


def _reference_objective_coefficient(t, a, g=None):
    """Coefficient of column ``a`` in the objective; ``g`` is gamma(t)."""
    return Fraction(sum(a)) - (t - len(a)) * (greedy.gamma(t) if g is None else g)


@cache
def _reference_columns(t):
    """Per length s <= t, every Dyck column that ``enumerate_dyck`` lists,
    with its nonzero coefficients (row, c) over rows 0..t and its objective
    coefficient, built once per t."""
    col = _reference_column_coefficient
    obj = _reference_objective_coefficient
    g = greedy.gamma(t)
    return [
        [
            (a, [(row, c) for row in range(t + 1) if (c := col(t, row, a))], obj(t, a, g))
            for a in greedy.enumerate_dyck(s)
        ]
        for s in range(t + 1)
    ]


@cache
def _reference_least_slacks(t, y):
    """Per length s <= t, the least dual slack over every listed column and
    the lex-first column with it, priced once per (t, y)."""
    return [
        min((sum(c * y[row] for row, c in coefs) - f, a) for a, coefs, f in length)
        for length in _reference_columns(t)
    ]


def _reference_verify_lp(t, w=None, y=None):
    """The checker in Fractions: the primal rows summed over the keys
    of w that are listed Dyck columns, and every dual constraint over every
    listed Dyck column."""
    col = _reference_column_coefficient
    obj = _reference_objective_coefficient
    g = greedy.gamma(t)
    w = dict(greedy.certificate_w(t)) if w is None else dict(w)
    y = greedy.certificate_y(t) if y is None else list(y)
    priced = {a: (coefs, f) for length in _reference_columns(t) for a, coefs, f in length}
    violated = []
    failed = set()

    def fail(part, message):
        violated.append(message)
        failed.add(part)

    for a, val in w.items():
        if not greedy.is_dyck(a):
            fail("primal", f"support: w[{a}] indexed by a non-Dyck sequence")
        if val < 0:
            fail("primal", f"nonnegativity: w[{a}] = {val} < 0")
    if any(v < 0 for v in y):
        fail("dual", "nonnegativity: some y_r < 0")

    def wval(a):
        return w.get(a, Fraction(0))

    # a key equal to a listed column (a float key too) is priced as that column
    in_w = [(priced[a], val) for a, val in w.items() if a in priced]
    row_sums = [Fraction(0)] * (t + 1)
    for (coefs, _), val in in_w:
        for row, c in coefs:
            row_sums[row] += c * val
    if not row_sums[0] <= -1:
        fail("primal", "(*_0): w_() >= 1 fails")
    for row in range(1, t + 1):
        if not row_sums[row] <= 0:
            fail("primal", f"(*_{row}): primal constraint violated by {row_sums[row]}")
    primal_obj = sum((f * val for (_, f), val in in_w), Fraction(0))
    if primal_obj != 0:
        fail("primal", f"objective: primal value {primal_obj} != 0")

    # one message per violated length: its lex-first least-slack column
    for slack, a in _reference_least_slacks(t, tuple(y)):
        if slack < 0:
            fail("dual", f"(star_{a}): dual constraint violated")
    if y[0] != 0:
        fail("dual", f"dual objective: -y_0 = {-y[0]} != 0")
    if t >= 1 and not (Fraction(5, 2) > y[1] == g / 2):
        fail("dual", "chain: y_1 != gamma/2 or y_1 >= 5/2")
    for r in range(1, t):
        if not y[r] > y[r + 1]:
            fail("dual", f"chain: y_{r} <= y_{r + 1}")
    if y[t] != 1:
        fail("dual", f"chain: y_t = {y[t]} != 1")

    support = [(1,) * s for s in range(t)] + [(1,) + (0,) * (t - 1)]
    m_w = [sum(col(t, row, a) * wval(a) for a in support) for row in range(t + 1)]
    if m_w != [Fraction(-1)] + [Fraction(0)] * t:
        fail("identities", "identity: M w != (-1, 0, ..., 0)")
    for a in support:
        lhs = sum(col(t, row, a) * y[row] for row in range(t + 1))
        if lhs != obj(t, a):
            fail("identities", f"identity: (M^T y)[{a}] != f[{a}]")
    f_w = sum(obj(t, a) * wval(a) for a in support)
    if not f_w == -y[0] == 0:
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


def _t8_primal_ray():
    """ROADMAP item 1: a nonnegative Dyck-supported w that meets every primal
    row at t = 8 with objective 8/9 > 0, so the primal is unbounded."""
    w = {(): 3}
    w.update({(1,) * s: 8 for s in range(1, 7)})
    w[(1, 1, 1, 1, 1, 1, 0)] = 80
    w[(1, 0, 0, 0, 0, 0, 0, 0)] = 640
    return w


_LP_EPS = (1, -1, Fraction(1, 7), Fraction(-3, 11), Fraction(1, 90), Fraction(-1, 13))
# cases per t: the Fraction oracle takes about 0.15 s a call at t = 8
_LP_CASES = {1: 130, 2: 140, 3: 130, 4: 80, 5: 30, 6: 8, 7: 2, 8: 2}


def _integral_as_int(v):
    return v.numerator if v.denominator == 1 else v


def _perturbed_certificates(rng, t, seen):
    """Certificates with one to three seeded changes; ``seen`` collects the
    kinds of change."""
    w = dict(greedy.certificate_w(t))
    y = greedy.certificate_y(t)
    columns = [a for s in range(t + 1) for a in greedy.enumerate_dyck(s)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(
            ["w_eps", "w_int", "w_neg", "non_dyck", "too_long", "drop_empty", "new_column",
             "y_eps", "y_int", "y_neg", "y_noise", "default"]
        )
        seen.add(kind)
        if kind == "w_eps" and w:
            key = rng.choice(sorted(w))
            w[key] += rng.choice(_LP_EPS)
        elif kind == "w_int":
            w = {a: _integral_as_int(v) for a, v in w.items()}
        elif kind == "w_neg" and w:
            w[rng.choice(sorted(w))] = -abs(rng.choice(_LP_EPS))
        elif kind == "non_dyck":
            w[rng.choice([(2,), (0, 3), (1, 2), (3, 0, 0)])] = rng.choice(_LP_EPS)
        elif kind == "too_long":
            w[rng.choice([(0,), (1,)]) * (t + 1)] = rng.choice([1, 5, Fraction(1, 90)])
        elif kind == "drop_empty":
            w.pop((), None)
        elif kind == "new_column":
            w[rng.choice(columns)] = rng.choice([1, 2, 7, Fraction(1, 7), Fraction(1, 13)])
        elif kind == "y_eps":
            y[rng.randrange(t + 1)] += rng.choice(_LP_EPS)
        elif kind == "y_int":
            y = [_integral_as_int(v) for v in y]
        elif kind == "y_neg":
            y[rng.randrange(t + 1)] = -abs(rng.choice(_LP_EPS))
        elif kind == "y_noise":
            y = [v + rng.choice(_LP_EPS) for v in y]
    return w, y


def test_integer_lp_checker_matches_the_fraction_oracle():
    # the oracle lists every Dyck column; per length it reports the lex-first
    # column of least slack when that slack is negative
    rng = random.Random(31)
    seen = set()
    for t, cases in _LP_CASES.items():
        for case in range(cases):
            if case == 0:
                w, y = (_t8_primal_ray(), None) if t == 8 else (None, None)
            elif case <= t + 1 and t <= 5:
                # each y_r alone
                w, y = None, greedy.certificate_y(t)
                y[case - 1] += _LP_EPS[case % len(_LP_EPS)]
            else:
                w, y = _perturbed_certificates(rng, t, seen)
            got = greedy.verify_lp_certificates(t, w=w, y=y)
            want = _reference_verify_lp(t, w=w, y=y)
            assert json.dumps(got) == json.dumps(want), (t, w, y)
    assert seen == {
        "w_eps", "w_int", "w_neg", "non_dyck", "too_long", "drop_empty", "new_column",
        "y_eps", "y_int", "y_neg", "y_noise", "default",
    }


def test_t8_primal_ray_fails_only_the_objective():
    # pinned as found, not mended: the ray meets rows 0..8 and leaves the
    # objective at 8/9, so no dual can exist at t = 8 in this encoding
    report = greedy.verify_lp_certificates(8, w=_t8_primal_ray())
    assert not report["primal_ok"]
    primal = [v for v in report["violated"] if v.startswith(("support", "nonnegativity: w", "(*_", "objective"))]
    assert primal == ["objective: primal value 8/9 != 0"]


# -- ratio checks ---------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_family_meets_ratio_with_equality(t):
    report = greedy.check_greedy_ratio(greedy.build_greedy_example(t))
    assert report["ok"]
    assert report["unit_case"]["tight"]


def test_ratio_requires_greedy_input():
    seq = list(reversed(greedy.build_greedy_example(2)))
    with pytest.raises(NotGreedyError):
        greedy.check_greedy_ratio(seq)


def test_random_unit_greedy_sequences_meet_ratio():
    rng = random.Random(1)
    for _ in range(200):
        fam = samples.random_unit_covering(rng, rng.randint(2, 16))
        ordered = greedy.greedy_order(fam)
        report = greedy.check_greedy_ratio(ordered)
        assert report["ok"]


def test_conditional_bound_on_random_greedy_sequences():
    rng = random.Random(2)
    for _ in range(200):
        fam = [samples.random_pathgraph(rng, 0, 12) for _ in range(rng.randint(1, 6))]
        base = samples.random_pathgraph(rng, 0, 12, max_comps=2)
        ordered = greedy.greedy_order(fam, base)
        report = greedy.check_greedy_ratio(ordered, base)
        assert report["ok"]


def test_quotient_corollary():
    rng = random.Random(3)
    for _ in range(200):
        fam = [samples.random_pathgraph(rng, 0, 12) for _ in range(rng.randint(1, 6))]
        base = samples.random_pathgraph(rng, 0, 12, max_comps=2)
        assert greedy.check_greedy_quotient(greedy.greedy_order(fam, base), base)


def test_greedy_increments_are_non_increasing():
    rng = random.Random(5)
    for _ in range(150):
        fam = [samples.random_pathgraph(rng, 0, 12) for _ in range(rng.randint(1, 7))]
        base = samples.random_pathgraph(rng, 0, 12, max_comps=1)
        ordered = greedy.greedy_order(fam, base)
        acc = base
        incs = []
        for g in ordered:
            incs.append(g.ominus(acc).delta)
            acc = acc.union(g)
        assert all(a >= b for a, b in zip(incs, incs[1:]))


def test_unit_covering_greedy_reaches_a_sixth():
    rng = random.Random(4)
    for _ in range(150):
        k = rng.randint(2, 30)
        fam = samples.random_unit_covering(rng, k)
        ordered = greedy.greedy_order(fam)
        assert 6 * vec_delta(ordered) >= k
