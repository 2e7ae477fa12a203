"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from pathlab import formulas as F
from pathlab import greedy, jointrees as jt, relations as R, samples, shifts
from pathlab import witnesses as wit
from pathlab.paths import (
    EMPTY,
    PathGraph,
    from_edges,
    full_path,
    gap,
    make_path,
    single_edge,
    union_all,
    vec_delta,
    vec_lambda,
    vec_lambda_delta,
    vec_measures,
)


def _report(num: int, desc: str, t0: float) -> None:
    print(f"[criterion {num:02d}] PASS {desc} ({time.time() - t0:.2f}s)")


def test_criterion_01_ordering_goldens():
    t0 = time.time()
    e = [single_edge(i) for i in range(1, 26)]
    assert vec_delta(e) == 1
    assert jt.max_vec_delta_over_orderings(e, limit=25) == 13
    for k in range(2, 13):
        assert jt.max_vec_delta_over_orderings([single_edge(i) for i in range(1, k + 1)]) == (
            k + 1
        ) // 2
    _report(1, "standard order 1, ordering optimum 13, ceil(k/2) for k=2..12", t0)


def test_criterion_02_shift_goldens():
    t0 = time.time()
    e = [single_edge(i) for i in range(1, 26)]
    odds = shifts.from_set(25, set(range(1, 26, 2)))
    assert vec_delta(odds.apply(e)) == 13
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    assert vec_delta(shifts.from_set(25, {15, 25}).apply(stride)) == 7
    stride9 = [single_edge(i) for j in range(1, 4) for i in range(j, 10, 3)]
    _, value = shifts.best_shift(stride9, "vec_delta")
    assert value == 4
    _, v25 = shifts.best_shift(e, "vec_delta")
    assert v25 == 13
    _, vs = shifts.best_shift(stride, "vec_delta")
    assert vs == 8  # the shift optimum beats the attained 7
    _report(2, "odd set 13, {15,25} set 7, reduced optimum 4, shift optimum 13 / 8", t0)


def test_criterion_03_greedy_family_and_lp():
    t0 = time.time()
    seq = greedy.build_greedy_example(3)
    assert (len(seq), union_all(seq).norm, vec_delta(seq)) == (27, 41, 10)
    for t in range(1, 6):
        fam = greedy.build_greedy_example(t)
        assert len(fam) == t * t + 5 * t + 3
        assert union_all(fam).norm == 3 * t * t + 4 * t + 2
        assert vec_delta(fam) == (t + 2) * (t + 1) // 2
        assert Fraction(union_all(fam).norm) == (greedy.gamma(t) + 1) * vec_delta(fam)
    for t in range(1, 7):
        report = greedy.verify_lp_certificates(t)
        assert report["ok"], (t, report["violated"])
        y = greedy.certificate_y(t)
        assert y[t] == 1 and y[1] == greedy.gamma(t) / 2
    base_w, base_y = greedy.certificate_w(3), greedy.certificate_y(3)
    for key in base_w:
        w = dict(base_w)
        w[key] += 1
        assert not greedy.verify_lp_certificates(3, w=w)["ok"]
    for r in range(len(base_y)):
        y = list(base_y)
        y[r] += 1
        assert not greedy.verify_lp_certificates(3, y=y)["ok"]
    _report(3, "family (27,41,10), equality t=1..5, certificates t=1..6, perturbations rejected", t0)


def test_criterion_04_dyck_counts():
    t0 = time.time()
    for s in range(0, 11):
        assert len(greedy.enumerate_dyck(s)) == greedy.catalan(s + 1)
    _report(4, "Dyck counts match Catalan numbers for lengths 0..10", t0)


def test_criterion_05_tight_constructions():
    t0 = time.time()
    # exact integer roots r = k^(1/d) and k^(1/2d): no float decides a bound
    for k, d in ((4, 1), (4, 2), (8, 3), (16, 2)):
        r = round(k ** (1 / d))
        assert r**d == k
        assert 2 * jt.psi(jt.build_tight("I", k, d)) <= d * r, ("I", k, d)
    for k, d in ((4, 1), (9, 1), (16, 2)):
        r = round(k ** (1 / (2 * d)))
        assert r ** (2 * d) == k
        assert jt.psi(jt.build_tight("II", k, d)) <= 2 * d * r, ("II", k, d)
    _report(5, "block constructions meet their size bounds (oracle values)", t0)


def test_criterion_06_tradeoff_suite():
    t0 = time.time()
    checked = 0
    for k in range(1, 5):
        for tree in jt.enumerate_strict(full_path(k)):
            for kind in ("I", "II"):
                holds, lhs, rhs = jt.verify_tradeoff(tree, kind)
                assert holds, (k, kind, tree.pretty(), lhs, rhs)
                checked += 1
    rng = random.Random(60)
    for _ in range(1000):
        k = rng.randint(2, 8)
        tree = samples.random_strict_tree(rng, full_path(k))
        for kind in ("I", "II"):
            holds, lhs, rhs = jt.verify_tradeoff(tree, kind)
            assert holds, (k, kind, lhs, rhs)
            checked += 1
    for k in range(1, 8):
        assert jt.psi(jt.maximally_overlapping(k)) == 1
    _report(6, f"both tradeoffs hold on {checked} trees; full-overlap trees have size 1", t0)


def test_criterion_07_randomized_lemma_suites():
    t0 = time.time()
    rng = random.Random(70)
    # conditional vector-measure identities
    for _ in range(500):
        seq = samples.random_sequence(rng, m=rng.randint(1, 6))
        seq2 = samples.random_sequence(rng, m=rng.randint(0, 3))
        f0 = samples.random_pathgraph(rng)
        f = f0.union(samples.random_pathgraph(rng))
        u = union_all(seq)
        assert vec_delta(seq, f) <= vec_delta(seq, f0)
        assert vec_delta(seq, f) == vec_delta([f] + seq) - f.delta
        assert u.ominus(f).delta <= vec_delta(seq, f) <= vec_delta([g.ominus(f) for g in seq])
        assert vec_delta(seq + seq2, f) == vec_delta(seq, f) + vec_delta(seq2, f.union(u))
        prefixes = []
        acc = EMPTY
        for g in seq:
            acc = acc.union(g)
            prefixes.append(acc)
        assert vec_delta(seq) == vec_delta(prefixes)
    # induced-permutation floor
    for _ in range(500):
        m = rng.randint(1, 7)
        seq = samples.random_sequence(rng, m=m)
        index_set = frozenset(rng.sample(range(1, m), rng.randint(0, m - 1))) | {m}
        sigma = shifts.from_set(m, index_set)
        acc = EMPTY
        incs = []
        for g in seq:
            incs.append(g.ominus(acc).delta)
            acc = acc.union(g)
        floor = sum(incs[i - 1] for i in index_set)
        j = rng.randint(1, m)
        assert vec_delta(shifts.induced(sigma, j).apply(seq)) >= floor
    # gap bounds: the conditional form carries the proof's -2 delta(F) term
    for _ in range(500):
        k = rng.randint(2, 14)
        seq = samples.random_covering(rng, k)
        g = gap(seq)
        assert vec_delta(seq) >= Fraction(k) / (2 * g)
        f = samples.random_pathgraph(rng, 0, k, max_comps=2)
        assert vec_delta(seq, f) >= Fraction(k - f.lam * f.delta) / (2 * g) - 2 * f.delta
        j = rng.randrange(len(seq))
        moved = [seq[j]] + seq[:j] + seq[j + 1 :]
        assert vec_delta(moved) >= Fraction(k - seq[j].lam * seq[j].delta) / (4 * g)
    # size recurrences at sq and sem roots
    for _ in range(500):
        parts = [samples.random_jointree(rng, k=5, leaves=rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        tree = jt.sem(parts) if rng.random() < 0.5 else jt.sq(parts)
        rep = jt.check_psi_recurrences(tree, perm_limit=3, shift_m_limit=5)
        assert rep["ok"], rep["violations"][:2]
    # the numerical max inequality
    for _ in range(100_000):
        m = rng.randint(1, 8)
        xs = [rng.uniform(0, 40) for _ in range(m)]
        ys = [rng.uniform(0, 40) for _ in range(m)]
        assert wit.check_numerical(xs, ys, rng.uniform(1.01, 6.0))
    _report(7, "measure identities, induced floors, gap bounds, recurrences, numerical", t0)


def test_criterion_08_witness_guarantees():
    t0 = time.time()
    rng = random.Random(80)
    for _ in range(500):
        k = rng.randint(2, 30)
        res = wit.construct_premain_I(samples.random_unit_covering(rng, k))
        assert Fraction(res.achieved) >= Fraction(k, 6)
    for _ in range(500):
        k = rng.randint(2, 30)
        res = wit.construct_premain_II(samples.random_chain_covering(rng, k))
        assert Fraction(res.achieved) >= Fraction(k, 4)
    for _ in range(500):
        k = rng.randint(2, 30)
        res = wit.construct_main_I(samples.random_covering(rng, k))
        assert Fraction(res.achieved) >= Fraction(k, 30)
    for _ in range(500):
        k = rng.randint(2, 30)
        res = wit.construct_main_II(samples.random_covering(rng, k))
        assert 8 * res.achieved**2 >= k
    for _ in range(500):
        k = rng.randint(2, 24)
        seq = samples.random_chain_covering(rng, k)
        ell = max(g.lam for g in seq)
        res = wit.construct_strong_shift(seq, "premain")
        assert Fraction(res.achieved) >= Fraction(k, 8) - Fraction(ell, 2)
        assert Fraction(res.extras["tilde_min"]) >= Fraction(1, 2)
    for _ in range(500):
        k = rng.randint(2, 24)
        seq = samples.random_covering(rng, k)
        g = gap(seq)
        ell = max(x.lam for x in seq)
        res = wit.construct_strong_shift(seq, "gap")
        assert Fraction(res.achieved) >= (g - 3 * ell) / 4
        assert Fraction(res.extras["tilde_min"]) >= Fraction(k) / (4 * g)
    _report(8, "constructed orderings meet k/6, k/4, k/30, sqrt(k/8), split bounds", t0)


def test_criterion_09_formula_correctness():
    t0 = time.time()
    d = F.build_matrix_formula("D", 2, 5)
    rep = F.check_formula_correct(d, 2, 5, input_class="any")
    assert rep["ok"] and rep["checked"] == 1 << 20
    c = F.build_matrix_formula("C", 2, 5)
    rep = F.check_formula_correct(c, 2, 5, input_class="subperm")
    assert rep["ok"] and rep["checked"] == 7**5
    for kind in ("SigmaI", "SigmaII", "PiII"):
        rep = F.check_formula_correct(F.build_matrix_formula(kind, 2, 4, 2), 2, 4)
        assert rep["ok"], kind
    for n, k, dd in ((2, 4, 2), (2, 25, 2), (2, 8, 3), (3, 9, 2), (3, 27, 3)):
        ell = round(k ** (1.0 / dd))
        phi = F.build_matrix_formula("SigmaI", n, k, dd)
        assert F.and_fanin(phi) == ell
        assert F.fanin(phi) <= n**ell
        assert F.size(phi) <= k * n ** (dd * ell)
    _report(9, "flat forms exhaustive at (2,5); recursive kinds at (2,4,2); bounds to (3,27,3)", t0)


def test_criterion_10_conversion_contracts():
    t0 = time.time()
    phi = F.build_matrix_formula("SigmaI", 2, 4, 2)  # 16 variables
    varlist = F.matrix_varlist(2, 4)
    want = F.truth_table(phi, varlist)
    for style in ("right_deep", "balanced"):
        dm = F.convert(phi, style)
        assert F.truth_table(dm, varlist) == want
        assert F.size(dm) == F.size(phi)
    assert F.and_left_depth(F.convert(phi, "right_deep")) <= F.and_depth(phi)
    assert F.depth(F.convert(phi, "balanced")) <= F.depth(phi) * math.ceil(
        math.log2(F.fanin(phi))
    )
    s, dep = F.size(phi), F.depth(phi)
    for t in (1, 2):
        for seed in range(50):
            g = F.randomized_conversion(phi, t, seed)
            assert F.size(g) <= t**dep * s
            assert F.depth(g) <= dep * math.ceil(math.log2(t * s))
    small = F.build_matrix_formula("D", 2, 4)
    t = max(1, round(math.log2(F.size(small)) ** 2))
    rng = random.Random(100)
    for mats in [tuple(F.random_subperm_matrix(2, rng) for _ in range(4)) for _ in range(3)]:
        env = F.matrix_env(mats)
        expect = F.evaluate(small, env)
        hits = sum(
            F.randomized_conversion_value(small, t, seed, env) == expect
            for seed in range(1000)
        )
        assert hits >= 990
    _report(10, "conversions preserve function and size; sampled bounds and 0.99 agreement", t0)


def test_criterion_11_pathset_algebra():
    t0 = time.time()
    rng = random.Random(110)
    params = R.PathsetParams(3, 4)
    done = 0
    while done < 1000:
        g1 = samples.random_pathgraph(rng, 0, 4, max_comps=2)
        g2 = samples.random_pathgraph(rng, 0, 4, max_comps=2)
        if not g1 or not g2:
            continue
        a = samples.random_relation(rng, g1, rng.randint(2, 4), 0.3)
        b = samples.random_relation(rng, g2, a.n, 0.3)
        cond = samples.random_pathgraph(rng, 0, 4, max_comps=1)
        rep = R.chain_rule_check([a, b], cond, R.PathsetParams(a.n, 4))
        assert rep["ok"], rep["violations"][:2]
        done += 1
    done = 0
    while done < 200:
        g = samples.random_pathgraph(rng, 0, 4, max_comps=2)
        if not g:
            continue
        a = samples.random_relation(rng, g, 3, rng.choice([0.05, 0.2, 0.5]))
        direct = True
        for f in R.subgraphs_of_path(4):
            mu = R.density(a, f)
            if mu**4 > Fraction(1, 3 ** (3 * a.graph.ominus(f).delta)):
                direct = False
                break
        assert R.is_pathset(a, params) == direct
        done += 1
    _report(11, "chain rules on 1000 pairs; predicate matches rational recomputation on 200", t0)


def test_criterion_12_minterm_bridge():
    t0 = time.time()
    for n, k in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        want = {t for t in product(range(1, n + 1), repeat=k + 1) if t[0] == 1 and t[-1] == 1}
        builders = [("D", 1), ("C", 1)]
        if k == 4:
            builders.append(("SigmaII", 2))
        for kind, d in builders:
            phi = F.build_matrix_formula(kind, n, k, d)
            got = R.minterms(R.formula_evaluator(phi), full_path(k), "M", n)
            assert got.tuples == want, (n, k, kind)
            assert R.density(got) == Fraction(1, n * n)
    rng = random.Random(120)
    n, k = 2, 3
    graphs = [g for g in R.subgraphs_of_path(k) if g]

    def random_monotone():
        pool = F.matrix_varlist(n, k)
        return F.disj(
            [
                F.conj([F.lit(rng.choice(pool)) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))
            ]
        )

    for _ in range(25):
        f1, f2 = random_monotone(), random_monotone()
        ev1, ev2 = R.formula_evaluator(f1), R.formula_evaluator(f2)
        for g in graphs:
            m1 = R.minterms(ev1, g, "M", n).tuples
            m2 = R.minterms(ev2, g, "M", n).tuples
            m_or = R.minterms(lambda c, full: ev1(c, full) | ev2(c, full), g, "M", n).tuples
            assert m_or <= m1 | m2
            m_and = R.minterms(lambda c, full: ev1(c, full) & ev2(c, full), g, "M", n).tuples
            cover = set()
            for g1 in R.subgraphs_of_path(k):
                if not g1.is_subgraph(g):
                    continue
                for g2 in R.subgraphs_of_path(k):
                    if g2.is_subgraph(g) and g1.union(g2) == g:
                        cover |= R.join(
                            R.minterms(ev1, g1, "M", n), R.minterms(ev2, g2, "M", n)
                        ).tuples
            assert m_and <= cover
    dm = F.convert(F.build_matrix_formula("D", n, k), "right_deep")
    g = full_path(k)
    want = R.minterms(R.formula_evaluator(dm), g, "M", n).tuples
    union = set()
    best = 0
    for t in jt.enumerate_strict(g):
        got = R.restricted_minterms(dm, g, t, n).tuples
        union |= got
        best = max(best, len(got))
        if got:
            assert jt.left_depth(t) <= F.and_left_depth(dm)
    assert union == want
    dd = F.and_left_depth(dm)
    assert best * 2 ** (g.norm ** (dd + 1)) >= len(want)
    _report(12, "minterm relation is the endpoint square; gate containments; tree covering", t0)


def test_criterion_13_decomposition_costs():
    t0 = time.time()
    n, k, seed = 2, 3, 0
    params = R.PathsetParams(n, k)
    dm = F.convert(F.build_matrix_formula("D", n, k), "right_deep")

    def substitute(g, xi_edges):
        if g.op == "lit" and g.var in xi_edges:
            return F.dm_const(1)
        if g.op in ("and", "or"):
            return F.DeMorgan(g.op, substitute(g.left, xi_edges), substitute(g.right, xi_edges))
        return g

    fx = substitute(dm, R.sample_xi(n, k, seed).xi_edges())
    size_fx = F.size(fx)
    d_cap = F.and_depth(fx)
    nonzero = 0
    for t in list(jt.enumerate_strict(full_path(k)))[:12]:
        cost = R.chi_decomposition_cost(t, None, fx, params)
        assert cost <= (d_cap + 1) ** 3 * size_fx
        mgt = R.restricted_minterms(fx, full_path(k), t, n)
        assert R.exceeds_ntilde_bound(cost, params, jt.psi(t), mgt)
        nonzero += cost > 0
    assert nonzero
    _report(13, "certified costs sit between the density floor and the size bound", t0)


def test_criterion_14_random_restrictions():
    t0 = time.time()
    for seed in range(10_000):
        xi = R.sample_xi(20, 3, seed).xi
        assert (xi.sum(axis=2) <= 1).all() and (xi.sum(axis=1) <= 1).all(), seed
    report = R.montecarlo_mpath2(30, 2, trials=200, seed=140)
    assert report["frequency"] >= 0.9, report["frequency"]
    # the counts recorded with the per-alpha scan that the layered count replaced
    counts = [row["count"] for row in report["rows"]]
    assert (sum(counts), min(counts), max(counts), report["frequency"]) == (5929, 28, 30, 1.0)
    trials = 4000
    f4 = R.montecarlo_eps1(2, 4, trials=trials, seed=141)["frequency"]
    f10 = R.montecarlo_eps1(2, 10, trials=trials, seed=142)["frequency"]
    assert min(f4, f10) > 0.0
    se = lambda p: math.sqrt(max(p * (1 - p), 1e-9) / trials)
    assert abs(f10 - f4) <= 3 * math.sqrt(se(f4) ** 2 + se(f10) ** 2) + 1e-9, (f4, f10)
    _report(14, "restrictions stay sub-permutation; density and floor frequencies hold", t0)
