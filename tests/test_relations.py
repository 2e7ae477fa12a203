"""Relations, densities, pathsets, minterms, costs, and restrictions."""

from __future__ import annotations

import collections
import functools
import json
import operator
import pathlib
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pathlab import formulas as F
from pathlab import jointrees as jt
from pathlab import relations as R
from pathlab import samples
from pathlab.errors import CheckFailedError, DomainError, InvalidParameterError, ResourceLimitError
from pathlab.paths import EMPTY, from_edges, full_path, make_path, single_edge


# -- joins ---------------------------------------------------------------------


def test_join_disjoint_is_product():
    a = samples.random_relation(random.Random(0), make_path(0, 1), 3, 0.5)
    b = samples.random_relation(random.Random(1), make_path(3, 4), 3, 0.5)
    assert len(R.join(a, b)) == len(a) * len(b)


def test_join_same_graph_is_intersection():
    g = make_path(0, 2)
    a = samples.random_relation(random.Random(2), g, 3, 0.5)
    b = samples.random_relation(random.Random(3), g, 3, 0.5)
    assert R.join(a, b).tuples == a.tuples & b.tuples


def test_join_overlap_example():
    a = R.Relation(make_path(0, 1), 3, [(1, 2)])
    b = R.Relation(make_path(1, 2), 3, [(2, 3)])
    j = R.join(a, b)
    assert j.tuples == {(1, 2, 3)}


def test_join_commutative_associative_and_projects():
    rng = random.Random(4)
    for _ in range(60):
        gs = [samples.random_pathgraph(rng, 0, 4, max_comps=1) or single_edge(1) for _ in range(3)]
        rels = [samples.random_relation(rng, g, 3, 0.4) for g in gs]
        ab = R.join(rels[0], rels[1])
        ba = R.join(rels[1], rels[0])
        assert ab == ba
        assert R.join(ab, rels[2]) == R.join(rels[0], R.join(rels[1], rels[2]))
        # projections land back inside the factors
        averts = rels[0].verts
        for t in ab.tuples:
            m = dict(zip(ab.verts, t))
            assert tuple(m[v] for v in averts) in rels[0].tuples


# -- densities -----------------------------------------------------------------


def test_density_extremes():
    g = make_path(0, 2)
    assert R.density(R.Relation.full(g, 2)) == 1
    assert R.density(R.Relation.empty(g, 4), make_path(0, 1)) == 0


def test_density_conditioning_only_grows():
    rng = random.Random(5)
    for _ in range(100):
        g = samples.random_pathgraph(rng, 0, 5, max_comps=2)
        if not g:
            continue
        a = samples.random_relation(rng, g, 3, 0.4)
        f = samples.random_pathgraph(rng, 0, 5, max_comps=1)
        assert R.density(a) == R.density(a, EMPTY) <= R.density(a, f) <= 1


# -- the pathset predicate -------------------------------------------------------


def test_pathset_predicate_extremes():
    params = R.PathsetParams(3, 3)
    assert R.is_pathset(R.Relation.empty(single_edge(1), 3), params)
    assert not R.is_pathset(R.Relation.full(single_edge(1), 3), params)
    single = R.Relation(full_path(3), 3, [(1, 2, 1, 2)])
    assert R.is_pathset(single, params)


def rational_pathset_oracle(a: R.Relation, params: R.PathsetParams) -> bool:
    """Direct rational-power recomputation of the predicate, one F at a time,
    with the conditional density counted here from the assignments."""
    n, k = params.n, params.k
    for f in R.subgraphs_of_path(k):
        shared = [v for v in a.verts if f.has_vertex(v)]
        groups = collections.Counter(tuple(x[v] for v in shared) for x in a.assignments())
        mu = Fraction(max(groups.values(), default=0), n ** (len(a.verts) - len(shared)))
        d = a.graph.ominus(f).delta
        # mu <= n^(-(k-1)d/k)  <=>  mu^k <= (1/n)^((k-1)d)
        if mu**k > Fraction(1, n ** ((k - 1) * d)):
            return False
    return True


def _pathset_cases(rng: random.Random, n: int, k: int, count: int, max_tuples: int = 1024):
    """Seeded relations for the predicate: relations at densities from 0.02
    to 1 on random nonempty graphs of up to three components in Path_k with
    at most ``max_tuples`` assignments, then the full relation on the empty
    graph and the empty and the full relation on the last of those graphs."""
    out = []
    while len(out) < count:
        g = samples.random_pathgraph(rng, 0, k, max_comps=3)
        if g and n ** g.num_vertices <= max_tuples:
            out.append(samples.random_relation(rng, g, n, rng.choice([0.02, 0.1, 0.3, 0.6, 1.0])))
    out += [R.Relation.full(EMPTY, n), R.Relation.empty(g, n), R.Relation.full(g, n)]
    return out


def test_pathset_predicate_matches_rational_recomputation():
    rng = random.Random(6)
    kinds = collections.Counter()
    for k in range(1, 7):
        for n in range(1, 5):
            params = R.PathsetParams(n, k)
            for a in _pathset_cases(rng, n, k, 30):
                got = R.is_pathset(a, params)
                assert got == rational_pathset_oracle(a, params), (a.graph, n, k, sorted(a.tuples))
                g = a.graph
                kinds["pathset" if got else "not a pathset"] += 1
                kinds["empty graph"] += not g
                kinds["several components"] += g.delta >= 2
                kinds["starts past 0"] += bool(g) and g.intervals[0][0] > 0
                kinds["empty relation"] += bool(g) and not a.tuples
                kinds["full relation"] += bool(g) and len(a) == n ** len(a.verts) > 1
                kinds["sparse"] += 0 < len(a) * 10 < n ** len(a.verts)
    for kind in ("pathset", "not a pathset", "empty graph", "several components", "starts past 0",
                 "empty relation", "full relation", "sparse"):
        assert kinds[kind] >= 10, (kind, kinds)


def test_pathset_parameters_must_be_positive():
    for n, k in ((0, 4), (3, 0), (-2, 3)):
        with pytest.raises(InvalidParameterError):
            R.PathsetParams(n, k)


# -- chain rules -----------------------------------------------------------------


def test_chain_rules_random():
    rng = random.Random(7)
    params = R.PathsetParams(3, 4)
    for _ in range(150):
        g1 = samples.random_pathgraph(rng, 0, 4, max_comps=2)
        g2 = samples.random_pathgraph(rng, 0, 4, max_comps=2)
        if not g1 or not g2:
            continue
        a = samples.random_relation(rng, g1, 3, 0.3)
        b = samples.random_relation(rng, g2, 3, 0.3)
        cond = samples.random_pathgraph(rng, 0, 4, max_comps=1)
        report = R.chain_rule_check([a, b], cond, params)
        assert report["ok"], report["violations"][:2]


def test_chain_rule_violations_keep_their_keys(monkeypatch):
    # a constant density of 1/2 breaks the binary and m-ary rules, and full
    # relations taken as pathsets break the ordered pathset bound
    monkeypatch.setattr(R, "density", lambda a, cond=None: Fraction(1, 2))
    monkeypatch.setattr(R, "is_pathset", lambda a, params: True)
    a = R.Relation.full(make_path(0, 1), 2)
    b = R.Relation.full(make_path(3, 4), 2)
    report = R.chain_rule_check([a, b], EMPTY, R.PathsetParams(2, 4))
    assert not report["ok"] and len(report["violations"]) == report["checked"] == 5
    keys = {v["rule"]: list(v) for v in report["violations"]}
    assert keys == {
        "binary": ["rule", "lhs", "rhs"],
        "m-ary": ["rule", "perm", "lhs", "rhs"],
        "pathset-join": ["rule", "perm", "vec_delta"],
    }
    assert report["violations"][0] == {"rule": "binary", "lhs": "1/2", "rhs": "1/4"}
    assert report["violations"][-1] == {"rule": "pathset-join", "perm": [1, 0], "vec_delta": 2}


def test_chain_rule_refuses_no_relations():
    with pytest.raises(InvalidParameterError):
        R.chain_rule_check([])


def test_chain_rule_empty_side():
    g = make_path(0, 1)
    a = R.Relation.empty(g, 2)
    b = R.Relation.full(make_path(1, 2), 2)
    report = R.chain_rule_check([a, b])
    assert report["ok"]
    assert R.density(R.join(a, b)) == 0


def test_chain_rule_disjoint_equality():
    a = R.Relation(make_path(0, 1), 2, [(1, 1), (2, 1)])
    b = R.Relation(make_path(3, 4), 2, [(1, 2)])
    assert R.density(R.join(a, b)) == R.density(a) * R.density(b)


# -- sections and minterms ---------------------------------------------------------


def test_section_single_edge():
    assert R.section(single_edge(1), {0: 1, 1: 1}, 2) == frozenset({(1, 1, 1)})


def test_section_shares_inner_vertex():
    edges = R.section(make_path(0, 2), (1, 2, 1), 3)
    assert edges == frozenset({(1, 1, 2), (2, 2, 1)})


def test_section_preserves_edge_count():
    rng = random.Random(8)
    for _ in range(50):
        g = samples.random_pathgraph(rng, 0, 6, max_comps=2)
        alpha = {v: rng.randint(1, 3) for v in g.vertices()}
        assert len(R.section(g, alpha, 3)) == g.norm


def test_minterm_bridge_oracle():
    for n, k in ((2, 2), (2, 4), (3, 3), (4, 4)):
        m = R.minterms(R.bmm_evaluator(n, k), full_path(k), "M", n)
        want = {
            t for t in product(range(1, n + 1), repeat=k + 1) if t[0] == 1 and t[-1] == 1
        }
        assert m.tuples == want
        assert R.density(m) == Fraction(1, n * n)


def test_minterms_of_constant_one():
    m = R.minterms(lambda column, full: full, make_path(0, 2), "M", 2)
    assert not m.tuples


def test_dependence_mode_on_parity():
    g = make_path(0, 2)
    # a section holds one blow-up variable of each of its edges, so the XOR
    # of them all is the number of its edges mod 2
    blowup = [(i, a, b) for i in (1, 2) for a in (1, 2) for b in (1, 2)]
    parity = lambda column, full: functools.reduce(operator.xor, map(column, blowup))
    m = R.minterms(parity, g, "N", 2)
    assert len(m.tuples) == 2 ** g.num_vertices


def test_minterms_within_dependence_relation():
    rng = random.Random(9)
    for _ in range(40):
        g = samples.random_pathgraph(rng, 0, 3, max_comps=2)
        if not g:
            continue
        phi = F.build_matrix_formula("D", 2, 3)
        ev = R.formula_evaluator(phi)
        mm = R.minterms(ev, g, "M", 2)
        nn = R.minterms(ev, g, "N", 2)
        assert mm.tuples <= nn.tuples


def _random_monotone_formula(rng, n, k, terms=3):
    """A small monotone DNF over the blow-up edge variables."""
    varpool = [(i, a, b) for i in range(1, k + 1) for a in range(1, n + 1) for b in range(1, n + 1)]
    out = []
    for _ in range(terms):
        width = rng.randint(1, 3)
        out.append(F.conj([F.lit(rng.choice(varpool)) for _ in range(width)]))
    return F.disj(out)


def test_minterm_gate_containments_exhaustive():
    rng = random.Random(10)
    n, k = 2, 3
    graphs = [g for g in R.subgraphs_of_path(k) if g]
    for _ in range(25):
        f1 = _random_monotone_formula(rng, n, k)
        f2 = _random_monotone_formula(rng, n, k)
        ev1, ev2 = R.formula_evaluator(f1), R.formula_evaluator(f2)
        ev_or = lambda column, full: ev1(column, full) | ev2(column, full)
        ev_and = lambda column, full: ev1(column, full) & ev2(column, full)
        for g in graphs:
            m_or = R.minterms(ev_or, g, "M", n).tuples
            m1 = R.minterms(ev1, g, "M", n).tuples
            m2 = R.minterms(ev2, g, "M", n).tuples
            assert m_or <= m1 | m2
            m_and = R.minterms(ev_and, g, "M", n)
            cover = set()
            for g1 in R.subgraphs_of_path(k):
                g2_needed = g.edge_difference(g1)
                if not g1.is_subgraph(g):
                    continue
                for g2 in R.subgraphs_of_path(k):
                    if not g2.is_subgraph(g) or g1.union(g2) != g:
                        continue
                    a = R.minterms(ev1, g1, "M", n)
                    b = R.minterms(ev2, g2, "M", n)
                    cover |= R.join(a, b).tuples
            assert m_and.tuples <= cover


# -- the packed minterm scan against the per-point scan -----------------------------


def _reference_minterms(f, g, mode, n):
    """The per-point scan: ``f`` maps the frozenset of present blow-up edges
    to 0/1 and is asked once per assignment and variant."""
    verts, edges = tuple(g.vertices()), tuple(g.edges())
    out = set()
    for alpha in product(range(1, n + 1), repeat=len(verts)):
        amap = dict(zip(verts, alpha))
        by_edge = [(i, amap[i - 1], amap[i]) for i in edges]
        full = frozenset(by_edge)
        if mode == "M":
            if f(full) and all(not f(full - {e}) for e in by_edge):
                out.add(alpha)
            continue
        values = [
            f(frozenset(e for j, e in enumerate(by_edge) if (bits >> j) & 1))
            for bits in range(1 << len(edges))
        ]
        if all(
            any(values[bits] != values[bits | (1 << j)] for bits in range(len(values)) if not (bits >> j) & 1)
            for j in range(len(edges))
        ):
            out.add(alpha)
    return out


def _point_value(phi, edges) -> int:
    """The formula at one point, by plain recursion (no packing, no memo)."""
    if phi.op == "const":
        return phi.value
    if phi.op == "lit":
        return int((phi.var in edges) != phi.neg)
    values = [_point_value(c, edges) for c in phi.children]
    return int(all(values) if phi.op == "and" else any(values))


def _reference_bmm(n, k, a0, ak):
    def run(edges) -> int:
        reach = {a0}
        for i in range(1, k + 1):
            reach = {b for (j, a, b) in edges if j == i and a in reach}
        return int(ak in reach)

    return run


def _random_formula(rng, pool, depth, binary):
    """Random formula over ``pool`` with negated literals and constants, as
    an unbounded fan-in formula or a binary (DeMorgan) one."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return F.dm_const(rng.randint(0, 1)) if binary else F.const(rng.randint(0, 1))
        var, neg = rng.choice(pool), rng.random() < 0.3
        return F.dm_lit(var, neg) if binary else F.lit(var, neg)
    op = rng.choice(("and", "or"))
    if binary:
        left, right = (_random_formula(rng, pool, depth - 1, True) for _ in range(2))
        return F.DeMorgan(op, left, right)
    kids = [_random_formula(rng, pool, depth - 1, False) for _ in range(rng.randint(1, 3))]
    return F.conj(kids) if op == "and" else F.disj(kids)


def test_packed_minterms_match_the_per_point_scan():
    rng = random.Random(2026)
    seen = collections.Counter()
    for case in range(600):
        k = rng.randint(1, 4)
        n = rng.randint(1, 3 if k <= 3 else 2)
        g = EMPTY
        while case % 10 and not g:
            g = samples.random_pathgraph(rng, 0, k, max_comps=2)
        mode = rng.choice("MN")
        kind = rng.choice(("formula", "demorgan", "bmm", "restricted"))
        if kind in ("formula", "demorgan"):
            # the pool reaches edges outside g, whose literals read 0
            pool = [(i, a, b) for i in range(1, k + 1) for a in range(1, n + 1) for b in range(1, n + 1)]
            phi = _random_formula(rng, pool, 3, kind == "demorgan")
            packed = R.formula_evaluator(phi)
            point = functools.partial(_point_value, phi)
        else:
            a0, ak = rng.randint(1, n), rng.randint(1, n)
            packed, point = R.bmm_evaluator(n, k, a0, ak), _reference_bmm(n, k, a0, ak)
            if kind == "restricted":
                xi = frozenset(
                    (i, a, b) for i in range(1, k + 1) for a in range(1, n + 1) for b in range(1, n + 1)
                    if rng.random() < 0.2
                )
                ev = packed
                packed = lambda column, full, ev=ev, xi=xi: ev(lambda var: full if var in xi else column(var), full)
                point = lambda edges, ev=point, xi=xi: ev(edges | xi)
        got = R.minterms(packed, g, mode, n).tuples
        assert got == _reference_minterms(point, g, mode, n), (case, kind, mode, n, g)
        seen[kind, mode, bool(got), n == 1, len(g.intervals)] += 1
    # every kind and mode ran, with and without minterms, on n = 1 and on
    # empty, one-component and two-component graphs
    assert {key[:2] for key in seen} == {(kd, md) for kd in ("formula", "demorgan", "bmm", "restricted") for md in "MN"}
    assert {key[2] for key in seen} == {True, False} and {key[3] for key in seen} == {True, False}
    assert {key[4] for key in seen} == {0, 1, 2}


def test_minterms_rejects_an_unknown_mode():
    phi = F.disj([F.lit((1, 1, 1)), F.lit((2, 1, 1))])
    g = full_path(2)
    assert not R.minterms(R.formula_evaluator(phi), g, "M", 1).tuples
    assert R.minterms(R.formula_evaluator(phi), g, "N", 1).tuples == {(1, 1, 1)}
    with pytest.raises(InvalidParameterError, match="mode"):
        R.minterms(R.formula_evaluator(phi), g, "x", 1)


def test_minterms_over_budget_raise_before_evaluating():
    def never(column, full):
        raise AssertionError("evaluated an over-budget scan")

    # 10^4 assignments times 4 variants (mode M), and 2^3 variants (mode N)
    for mode in "MN":
        with pytest.raises(ResourceLimitError):
            R.minterms(never, full_path(3), mode, 10, budget=39_999)
    assert len(R.minterms(lambda column, full: full, full_path(3), "M", 10, budget=40_000)) == 0


# -- tree-shaped minterm subsets ------------------------------------------------------


def test_restricted_minterms_single_edge_tree():
    phi = F.build_matrix_formula("D", 2, 1)
    dm = F.convert(phi, "right_deep")
    g = single_edge(1)
    t = jt.leaf(g)
    assert (
        R.restricted_minterms(dm, g, t, 2).tuples
        == R.minterms(R.formula_evaluator(dm), g, "M", 2).tuples
    )


def test_restricted_minterms_empty_for_pure_disjunctions():
    # a right-comb of ORs has and-left-depth 0, so every proper tree split is
    # unreachable and the subsets die on graphs with two or more edges
    lits = [F.lit((i, 1, 1)) for i in (1, 2)]
    dm = F.convert(F.disj(lits), "right_deep")
    g = make_path(0, 2)
    for t in jt.enumerate_strict(g):
        if jt.left_depth(t) >= 1:
            assert not R.restricted_minterms(dm, g, t, 2).tuples


def test_restricted_minterms_union_identity():
    n, k = 2, 3
    dm = F.convert(F.build_matrix_formula("D", n, k), "right_deep")
    g = full_path(k)
    want = R.minterms(R.formula_evaluator(dm), g, "M", n).tuples
    union = set()
    best = 0
    trees = list(jt.enumerate_strict(g))
    for t in trees:
        got = R.restricted_minterms(dm, g, t, n).tuples
        union |= got
        best = max(best, len(got))
        if got:
            assert jt.left_depth(t) <= F.and_left_depth(dm)
    assert union == want
    # pigeonhole: some tree keeps a fair share
    d = F.and_left_depth(dm)
    assert best * 2 ** (g.norm ** (d + 1)) >= len(want)


# -- decomposition costs ---------------------------------------------------------------


def test_chi_lower_values():
    params = R.PathsetParams(2, 3)
    t = jt.maximally_overlapping(3)
    empty = R.Relation.empty(full_path(3), 2)
    assert R.chi_lower(t, empty, params)["float"] == 0.0
    single = R.Relation(full_path(3), 2, [(1, 2, 1, 2)])
    info = R.chi_lower(t, single, params)
    assert info["psi"] == 1
    assert info["float"] == pytest.approx(2.0 ** (2 / 3) * 2.0**-4)


def test_chi_lower_rejects_non_pathsets():
    params = R.PathsetParams(2, 3)
    t = jt.maximally_overlapping(3)
    with pytest.raises(DomainError):
        R.chi_lower(t, R.Relation.full(full_path(3), 2), params)


def test_chi_cost_single_literal():
    params = R.PathsetParams(2, 3)
    dm = F.dm_lit((1, 1, 1))
    g = single_edge(1)
    t = jt.leaf(g)
    assert R.chi_decomposition_cost(t, None, dm, params) == 1


def test_chi_cost_above_the_binomial_bound_fails_its_check(monkeypatch):
    monkeypatch.setattr(F, "size", lambda f: 0)
    t, dm = jt.leaf(single_edge(1)), F.dm_lit((1, 1, 1))
    with pytest.raises(CheckFailedError, match="binomial bound"):
        R.chi_decomposition_cost(t, None, dm, R.PathsetParams(2, 3))


def test_chi_cost_below_the_ntilde_floor_fails_its_check(monkeypatch):
    monkeypatch.setattr(R, "exceeds_ntilde_bound", lambda *args: False)
    t, dm = jt.leaf(single_edge(1)), F.dm_lit((1, 1, 1))
    with pytest.raises(CheckFailedError, match="floor"):
        R.chi_decomposition_cost(t, None, dm, R.PathsetParams(2, 3))


def test_chi_cost_constant():
    params = R.PathsetParams(2, 3)
    t = jt.leaf(single_edge(1))
    assert R.chi_decomposition_cost(t, None, F.dm_const(0), params) == 0


def _substitute_ones(g, xi_edges):
    if g.op == "lit" and g.var in xi_edges:
        return F.dm_const(1)
    if g.op in ("and", "or"):
        return F.DeMorgan(g.op, _substitute_ones(g.left, xi_edges), _substitute_ones(g.right, xi_edges))
    return g


def test_chi_cost_toy_pipeline():
    # frozen restriction seed for which every subformula minterm relation is
    # a pathset (found by scanning seeds once; deterministic thereafter)
    n, k, seed = 2, 3, 0
    params = R.PathsetParams(n, k)
    dm = F.convert(F.build_matrix_formula("D", n, k), "right_deep")
    sample = R.sample_xi(n, k, seed)
    fx = _substitute_ones(dm, sample.xi_edges())
    g = full_path(k)
    costs = []
    for t in list(jt.enumerate_strict(g))[:8]:
        cost = R.chi_decomposition_cost(t, None, fx, params)
        costs.append(cost)
        mgt = R.restricted_minterms(fx, g, t, n)
        assert R.exceeds_ntilde_bound(cost, params, jt.psi(t), mgt)
    assert any(c > 0 for c in costs)


def test_chi_cost_scans_each_pair_once(monkeypatch):
    # the pathset pre-check, the cost walk and the tree-shaped minterm subset
    # share one minterm relation per distinct (subformula, graph) pair
    n, k = 2, 3
    params = R.PathsetParams(n, k)
    dm = F.convert(F.build_matrix_formula("D", n, k), "right_deep")
    fx = _substitute_ones(dm, R.sample_xi(n, k, 0).xi_edges())
    scans = collections.Counter()
    real_evaluator, real_minterms = R.formula_evaluator, R.minterms

    def tagged_evaluator(node):
        run = real_evaluator(node)
        run.node = node
        return run

    def counting_minterms(f, g, mode, n, budget=2_000_000):
        scans[(f.node, g)] += 1
        return real_minterms(f, g, mode, n, budget)

    monkeypatch.setattr(R, "formula_evaluator", tagged_evaluator)
    monkeypatch.setattr(R, "minterms", counting_minterms)
    t = next(t for t in jt.enumerate_strict(full_path(k)) if not t.is_leaf)
    R.chi_decomposition_cost(t, None, fx, params)
    assert scans and max(scans.values()) == 1


# chi_decomposition_cost of seeded restrictions of D and C, converted
# right-deep or balanced, on strict trees of Path_k (tree = index into
# enumerate_strict)
CHI_GOLDENS = json.loads((pathlib.Path(__file__).resolve().parent / "chi_cost_goldens.json").read_text())


def test_chi_cost_matches_goldens():
    assert len(CHI_GOLDENS) >= 50
    trees = {k: list(jt.enumerate_strict(full_path(k))) for k in {case["k"] for case in CHI_GOLDENS}}
    for case in CHI_GOLDENS:
        n, k = case["n"], case["k"]
        dm = F.convert(F.build_matrix_formula(case["kind"], n, k), case["style"])
        fx = _substitute_ones(dm, R.sample_xi(n, k, case["seed"]).xi_edges())
        tree = trees[k][case["tree"]]
        assert R.chi_decomposition_cost(tree, None, fx, R.PathsetParams(n, k)) == case["cost"], case


# -- restrictions --------------------------------------------------------------------


def test_induced_subperm_rules():
    zeta = np.array([[1, 1], [0, 1]], dtype=np.int8)
    xi = R.induced_subperm(zeta)
    # row 0 has two ones -> both die; column 1 then still has two ones
    assert xi.tolist() == [[0, 0], [0, 0]]
    zeta = np.array([[1, 0], [1, 0]], dtype=np.int8)
    assert R.induced_subperm(zeta).tolist() == [[0, 0], [0, 0]]
    zeta = np.array([[1, 0], [0, 1]], dtype=np.int8)
    assert R.induced_subperm(zeta).tolist() == [[1, 0], [0, 1]]
    zeros = np.zeros((3, 3), dtype=np.int8)
    assert R.induced_subperm(zeros).tolist() == zeros.tolist()


def test_sampled_xi_always_subperm():
    for seed in range(500):
        assert R.sample_xi(20, 3, seed).xi_is_subperm()


def test_empty_restriction_reproduces_exact_density():
    n, k = 4, 2
    xi = np.zeros((k, n, n), dtype=np.int8)
    count = R._minterm_count_bmm_restricted(xi, n, k)
    assert Fraction(count, n ** (k + 1)) == Fraction(1, n * n)


def test_restricted_count_matches_generic_scan():
    n, k = 4, 2
    for seed in range(10):
        sample = R.sample_xi(n, k, seed)
        fast = R._minterm_count_bmm_restricted(sample.xi, n, k)
        ev = R.bmm_evaluator(n, k)
        xi_edges = sample.xi_edges()
        restricted = lambda column, full: ev(lambda var: full if var in xi_edges else column(var), full)
        slow = len(R.minterms(restricted, full_path(k), "M", n).tuples)
        assert fast == slow


def test_montecarlo_mpath2_smoke():
    report = R.montecarlo_mpath2(4, 2, trials=20, seed=11)
    assert 0.0 <= report["frequency"] <= 1.0
    assert len(report["rows"]) == 20


def test_montecarlo_mpath2_formula_backed_matches_fast_path():
    n, k = 3, 2
    ev = R.bmm_evaluator(n, k)
    fast = R.montecarlo_mpath2(n, k, trials=12, seed=21)
    slow = R.montecarlo_mpath2(n, k, trials=12, seed=21, f=ev)
    assert [r["count"] for r in fast["rows"]] == [r["count"] for r in slow["rows"]]


# -- strictified random join trees ------------------------------------------------------


def test_eps1_single_edge_is_certain():
    report = R.montecarlo_eps1(1, 5, trials=200, seed=0)
    assert report["frequency"] == 1.0


def test_eps1_uniform_floor():
    freqs = [R.montecarlo_eps1(2, t, trials=1500, seed=3)["frequency"] for t in range(2, 11)]
    assert min(freqs) > 0.3


def test_eps1_skewed_distribution():
    report = R.montecarlo_eps1(2, 9, trials=2000, seed=4, p=[0.99, 0.01])
    assert report["frequency"] > 0.0


def test_relation_json_round_trip():
    a = R.Relation(make_path(0, 2), 3, [(1, 2, 3), (3, 2, 1)])
    assert R.Relation.from_json(a.to_json()) == a
