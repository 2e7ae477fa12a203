"""Greedy sequences, the tight family, Dyck counting, LP certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pathlab import greedy, samples
from pathlab.errors import NotGreedyError, ResourceLimitError
from pathlab.paths import (
    EMPTY,
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
