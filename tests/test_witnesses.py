"""Constructive orderings and their guaranteed bounds."""

from __future__ import annotations

import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from pathlab import jointrees as jt
from pathlab import paths, samples, shifts, witnesses as wit
from pathlab.errors import CheckFailedError, DomainError, InvalidCoveringError
from pathlab.paths import (
    EMPTY,
    full_path,
    make_path,
    single_edge,
    vec_delta,
    vec_lambda,
    vec_lambda_delta,
    vec_measures,
)


# -- the numerical inequality ------------------------------------------------------


def test_numerical_zero_case():
    assert wit.check_numerical([0.0, 0.0], [0.0, 0.0], 2.5)


def test_numerical_empty_input_holds():
    assert wit.check_numerical([], [], 2.0)


def test_numerical_single_term_equality():
    assert wit.check_numerical([1.0], [1.0], 2.0)


def test_numerical_rejects_bad_domain():
    with pytest.raises(DomainError):
        wit.check_numerical([-1.0], [1.0], 2.0)
    with pytest.raises(DomainError):
        wit.check_numerical([1.0], [1.0], 1.0)
    with pytest.raises(DomainError):
        wit.check_numerical([1.0, 2.0], [1.0], 2.0)


@pytest.mark.parametrize(
    "construct, cover, measure",
    [
        (wit.construct_premain_I, samples.random_unit_covering, vec_delta),
        (wit.construct_main_I, samples.random_covering, vec_lambda_delta),
    ],
)
def test_witness_json_of_a_permutation_ordering(construct, cover, measure):
    seq = cover(random.Random(9), 12)
    result = construct(seq)
    data = json.loads(json.dumps(result.to_json()))
    perm = data["ordering"]["perm"]
    assert data["kind"] == result.kind and perm == list(result.ordering)
    assert sorted(perm) == list(range(1, len(seq) + 1))
    assert data["achieved"] == result.achieved == measure([seq[p - 1] for p in perm])
    assert Fraction(data["guaranteed"]) == result.guaranteed


def test_numerical_random_instances():
    rng = random.Random(0)
    for _ in range(10_000):
        m = rng.randint(1, 10)
        xs = [rng.uniform(0, 50) for _ in range(m)]
        ys = [rng.uniform(0, 50) for _ in range(m)]
        d = rng.uniform(1.01, 6.0)
        assert wit.check_numerical(xs, ys, d)


# -- unit-component coverings -------------------------------------------------------


def test_premain_one_on_single_edges():
    res = wit.construct_premain_I([single_edge(i) for i in range(1, 13)])
    assert res.achieved == 6
    assert res.guaranteed == Fraction(2)


def test_premain_one_tiny():
    res = wit.construct_premain_I([single_edge(1)])
    assert res.achieved == 1


def test_premain_one_rejects_long_components():
    with pytest.raises(InvalidCoveringError):
        wit.construct_premain_I([make_path(0, 3)])


def test_premain_one_random_coverings():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(2, 30)
        fam = samples.random_unit_covering(rng, k)
        res = wit.construct_premain_I(fam)
        assert Fraction(res.achieved) >= Fraction(k, 6)
        # the ordering is a permutation of the input
        assert sorted(res.ordering) == list(range(1, len(fam) + 1))


# -- chain coverings ------------------------------------------------------------------


def test_premain_two_standard_order():
    res = wit.construct_premain_II([single_edge(i) for i in range(1, 26)])
    assert res.achieved >= Fraction(25, 4)
    assert res.achieved <= 13  # never beats the overall ordering optimum


def test_premain_two_reversed_order():
    seq = [single_edge(i) for i in range(25, 0, -1)]
    assert vec_delta(seq) == 1
    res = wit.construct_premain_II(seq)
    assert res.achieved >= Fraction(25, 4)


def test_premain_two_nested_prefixes():
    seq = [make_path(0, j) for j in range(1, 26)]
    res = wit.construct_premain_II(seq)
    assert res.achieved >= Fraction(25, 4)


def test_premain_two_requires_chain_covering():
    with pytest.raises(InvalidCoveringError):
        wit.construct_premain_II([single_edge(1), single_edge(3), single_edge(2)])


def test_premain_two_random_chain_coverings():
    rng = random.Random(2)
    for _ in range(300):
        k = rng.randint(2, 24)
        seq = samples.random_chain_covering(rng, k)
        assert vec_delta(seq) == 1
        res = wit.construct_premain_II(seq)
        assert Fraction(res.achieved) >= Fraction(k, 4)


def test_premain_two_never_beats_best_shift():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(2, 10)
        seq = samples.random_chain_covering(rng, k)
        if len(seq) > 12:
            continue
        res = wit.construct_premain_II(seq)
        _, best = shifts.best_shift(seq, "vec_lambda")
        assert res.achieved <= best


# -- general coverings ----------------------------------------------------------------


def test_main_one_whole_path():
    res = wit.construct_main_I([full_path(16)])
    assert res.achieved == 16


def test_main_one_single_edges():
    res = wit.construct_main_I([single_edge(i) for i in range(1, 17)])
    assert Fraction(res.achieved) >= Fraction(16, 30)


def test_main_one_two_scale_covering():
    fam = [make_path(0, 8), make_path(8, 16)] + [single_edge(i) for i in range(1, 17)]
    res = wit.construct_main_I(fam)
    assert Fraction(res.achieved) >= Fraction(16, 30)


def test_main_one_random_coverings():
    rng = random.Random(4)
    for _ in range(300):
        k = rng.randint(2, 30)
        fam = samples.random_covering(rng, k)
        res = wit.construct_main_I(fam)
        assert Fraction(res.achieved) >= Fraction(k, 30)


def test_main_one_never_beats_subset_optimum():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 8)
        fam = samples.random_covering(rng, k, extra=2)
        if len(fam) > 8:
            continue
        res = wit.construct_main_I(fam)
        best = 0
        import itertools

        for perm in itertools.permutations(fam):
            best = max(best, vec_lambda_delta(list(perm)))
        assert res.achieved <= best


def test_main_two_whole_path():
    res = wit.construct_main_II([full_path(16)])
    assert res.achieved == 16


def test_main_two_standard_and_stride():
    res = wit.construct_main_II([single_edge(i) for i in range(1, 26)])
    assert 8 * res.achieved**2 >= 25
    assert res.guaranteed == Fraction(2)  # the least r with 8 r^2 >= 25
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    res = wit.construct_main_II(stride)
    assert 8 * res.achieved**2 >= 25


def test_main_two_random_coverings():
    rng = random.Random(6)
    for _ in range(300):
        k = rng.randint(2, 30)
        seq = samples.random_covering(rng, k)
        res = wit.construct_main_II(seq)
        assert 8 * res.achieved**2 >= k


def test_main_two_never_beats_best_shift():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(2, 10)
        seq = samples.random_covering(rng, k, extra=2)
        if len(seq) > 12:
            continue
        res = wit.construct_main_II(seq)
        _, best = shifts.best_shift(seq, "vec_lambda_delta")
        assert res.achieved <= best


# -- the strengthened split --------------------------------------------------------


def test_strong_shift_standard_orders():
    for k in range(2, 21):
        seq = [single_edge(i) for i in range(1, k + 1)]
        res = wit.construct_strong_shift(seq, "premain")
        assert Fraction(res.achieved) >= Fraction(k, 8) - Fraction(1, 2)
        assert res.extras["tilde_min"] >= Fraction(1, 2)


def test_strong_shift_random_chain_coverings():
    rng = random.Random(8)
    for _ in range(300):
        k = rng.randint(2, 24)
        seq = samples.random_chain_covering(rng, k)
        ell = max(g.lam for g in seq)
        res = wit.construct_strong_shift(seq, "premain")
        assert Fraction(res.achieved) >= Fraction(k, 8) - Fraction(ell, 2)
        assert Fraction(res.extras["tilde_min"]) >= Fraction(vec_delta(seq), 2)


def test_strong_shift_random_gap_mode():
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(2, 24)
        seq = samples.random_covering(rng, k)
        from pathlab.paths import gap as gap_of

        g = gap_of(seq)
        ell = max(x.lam for x in seq)
        res = wit.construct_strong_shift(seq, "gap")
        assert Fraction(res.achieved) >= (g - 3 * ell) / 4
        assert Fraction(res.extras["tilde_min"]) >= Fraction(k) / (4 * g)


def test_strong_shift_premain_requires_chain():
    with pytest.raises(InvalidCoveringError):
        wit.construct_strong_shift([single_edge(1), single_edge(3), single_edge(2)], "premain")


def _mirror(members, k):
    """The members' interval tuples reflected by x -> k - x: the reference
    for the selections ``_mirrored_selection`` reads in place."""
    return [tuple((k - t, k - s) for s, t in reversed(ivs)) for ivs in members]


def _clipped_rightmost(ivs, lo, hi):
    """The last interval of ``ivs`` holding an edge of Path_{lo,hi}, clipped
    to [lo, hi], found by a scan; None when there is none."""
    inside = [(max(s, lo), min(t, hi)) for s, t in ivs if s < hi and t > lo]
    return inside[-1] if inside else None


def old_interleave_selection(members, lo, hi, upto=None):
    """The minimality pass that re-sorts the selection for every member it
    tries to drop: the reference for ``_interleave_selection``."""
    if lo >= hi:
        return None
    m = len(members) if upto is None else upto
    js, comps, run = [], {}, lo
    for j in range(1, m + 1):
        comp = _clipped_rightmost(members[j - 1], lo, hi)
        if comp is not None and comp[1] > run:
            js.append(j)
            comps[j] = comp
            run = comp[1]

    def covers(idxs):
        return wit._covers(sorted(comps[j] for j in idxs), lo, hi)

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


def test_interleave_selection_matches_the_resorting_pass():
    # on the members and on their mirror images; the selection read in
    # place off the members is the one taken on their mirror images
    rng = random.Random(10)
    selected = 0
    for _ in range(400):
        k = rng.randint(2, 30)
        seq = samples.random_covering(rng, k, extra=rng.randint(0, 8))
        plain = [g.intervals for g in seq]
        for members in (plain, _mirror(plain, k)):
            for _ in range(4):
                lo, hi = sorted(rng.randint(0, k) for _ in range(2))
                upto = rng.choice([None, rng.randint(0, len(members))])
                want = old_interleave_selection(members, lo, hi, upto)
                assert wit._interleave_selection(members, lo, hi, upto) == want
                if members is not plain:
                    assert wit._mirrored_selection(plain, k, lo, hi, upto) == want
                selected += want is not None
    assert selected > 500


def test_mirrored_selection_is_the_selection_on_mirrored_members():
    # members with empty entries, repeats and coordinates near +-10^9, the
    # mirror taken about points inside, at and outside their span, and
    # regions that miss some members or touch them at one vertex
    rng = random.Random(18)
    selected = 0
    for _ in range(600):
        c = rng.choice([0, 10**9, -(10**9)])
        span = rng.randint(2, 24)
        seq = [EMPTY] + samples.random_covering(rng, span, extra=rng.randint(0, 6))
        seq += rng.sample(seq, rng.randint(0, 3))
        members = [g.translate(c).intervals for g in seq]
        k = c + rng.randint(-5, 40)
        mirrored = _mirror(members, k)
        for _ in range(4):
            # the members lie in [k - c - span, k - c] once mirrored
            lo, hi = sorted(k - c - rng.randint(-2, span + 2) for _ in range(2))
            upto = rng.choice([None, rng.randint(0, len(members))])
            want = wit._interleave_selection(mirrored, lo, hi, upto)
            assert wit._mirrored_selection(members, k, lo, hi, upto) == want
            selected += want is not None
    assert selected > 300


def test_witnesses_survive_adversarial_coverings():
    # duplicated members, swallowed members, and whole-path members stress
    # the single-position interleaving selections
    rng = random.Random(13)
    for _ in range(150):
        k = rng.randint(2, 24)
        seq = samples.random_chain_covering(rng, k)
        j = rng.randrange(len(seq))
        seq = seq[: j + 1] + [seq[j]] + seq[j + 1 :]
        if vec_delta(seq) == 1:
            wit.construct_premain_II(seq)
            wit.construct_strong_shift(seq, "premain")
    for _ in range(150):
        k = rng.randint(2, 24)
        seq = samples.random_covering(rng, k)
        if rng.random() < 0.4:
            seq.insert(rng.randrange(len(seq) + 1), full_path(k))
        if rng.random() < 0.4:
            seq = seq + seq[: rng.randint(1, len(seq))]
        wit.construct_main_I(seq)
        wit.construct_main_II(seq)
        wit.construct_strong_shift(seq, "gap")


def test_witnesses_on_degenerate_coverings():
    for k in range(2, 10):
        assert wit.construct_strong_shift([full_path(k)], "gap").achieved >= 0
        assert wit.construct_strong_shift([full_path(k)], "premain").achieved >= 0
        assert wit.construct_main_II([full_path(k), full_path(k)]).achieved == k
        assert wit.construct_premain_II([full_path(k)] * 3).achieved == k


def _premain_guarantees_hold(seq):
    k = max(t for g in seq for _, t in g.intervals)
    ell = max(g.lam for g in seq)
    res = wit.construct_premain_II(seq)
    assert res.achieved == vec_lambda(res.ordering.apply(seq))
    assert Fraction(res.achieved) >= Fraction(k, 4)
    strong = wit.construct_strong_shift(seq, "premain")
    assert strong.achieved == vec_lambda(strong.ordering.apply(seq))
    assert Fraction(strong.achieved) >= Fraction(k, 8) - Fraction(ell, 2)
    assert 2 * strong.extras["tilde_min"] >= 1


def test_premain_constructions_skip_leading_empty_members():
    # an empty member keeps no component in any order, so the selection
    # starts from the first nonempty member (mirrored when it lies past k/2)
    _premain_guarantees_hold([EMPTY, full_path(3)])
    _premain_guarantees_hold([EMPTY, EMPTY, make_path(2, 3), make_path(0, 2)])


def test_premain_constructions_with_empty_members_between():
    rng = random.Random(14)
    for _ in range(200):
        seq = samples.random_chain_covering(rng, rng.randint(2, 24))
        for _ in range(rng.randint(1, 3)):
            seq.insert(rng.randrange(len(seq) + 1), EMPTY)
        _premain_guarantees_hold(seq)


@pytest.mark.parametrize(
    "construct",
    [
        wit.construct_premain_I,
        wit.construct_premain_II,
        wit.construct_main_I,
        wit.construct_main_II,
        lambda seq: wit.construct_strong_shift(seq, "premain"),
        lambda seq: wit.construct_strong_shift(seq, "gap"),
    ],
)
def test_witnesses_reject_non_coverings(construct):
    for seq in ([single_edge(2)], [single_edge(1), single_edge(3)]):
        with pytest.raises(InvalidCoveringError, match="is not a path 0..k"):
            construct(seq)


def test_main_two_selects_once_and_skips_induced_values(monkeypatch):
    calls = {"selections": 0, "induced": 0}
    selections, induced = wit._gap_selections, shifts.induced

    def counting_selections(*args):
        calls["selections"] += 1
        return selections(*args)

    def counting_induced(*args):
        calls["induced"] += 1
        return induced(*args)

    monkeypatch.setattr(wit, "_gap_selections", counting_selections)
    monkeypatch.setattr(shifts, "induced", counting_induced)
    wit.construct_main_II(samples.random_covering(random.Random(4), 12))
    assert calls == {"selections": 1, "induced": 0}


def test_witness_result_refuses_missed_bounds():
    with pytest.raises(AssertionError):
        wit.WitnessResult("demo", [1], 1, Fraction(2))


def test_witness_below_its_guarantee_fails_its_check(monkeypatch):
    # a guarantee of k + 1 is above any component count on Path_k
    monkeypatch.setattr(wit, "Fraction", lambda k, d: Fraction(k + 1))
    with pytest.raises(CheckFailedError, match="premain-I"):
        wit.construct_premain_I([single_edge(i) for i in range(1, 7)])


def test_strong_shift_below_its_induced_bound_fails_its_check(monkeypatch):
    monkeypatch.setattr(shifts._Blocks, "induced_min", lambda self, index_set, code: 0)
    with pytest.raises(CheckFailedError, match="induced-permutation value"):
        wit.construct_strong_shift([single_edge(i) for i in range(1, 9)], "premain")


def test_witness_json():
    res = wit.construct_premain_II([single_edge(i) for i in range(1, 9)])
    data = res.to_json()
    assert data["kind"] == "premain-II"
    assert "shift" in data["ordering"]


def _main_I_full_scan(family) -> list[int]:
    """construct_main_I's order by its definition: each pick re-measures
    every member not yet taken."""
    graphs = list(family)
    k = paths._covered_length(graphs)
    r = max(1, math.ceil(math.log2(k + 1)))
    acc = EMPTY
    order: list[int] = []
    taken = [False] * len(graphs)
    for i in range(1, r + 1):
        threshold = 2 ** (r - i)
        while True:
            best_idx, best_delta = -1, -1
            for idx, g in enumerate(graphs):
                if not taken[idx]:
                    rest = g.ominus(acc)
                    if rest.lam >= threshold and rest.delta > best_delta:
                        best_idx, best_delta = idx, rest.delta
            if best_idx < 0:
                break
            taken[best_idx] = True
            order.append(best_idx)
            acc = acc.union(graphs[best_idx])
    order.extend(idx for idx in range(len(graphs)) if not taken[idx])
    return [i + 1 for i in order]


def test_lazy_main_one_order_is_the_full_scan_order():
    # ties, empty members, repeated members and whole-path members included
    rng = random.Random(16)
    for n in range(600):
        k = rng.randint(1, 40)
        fam = [samples.random_covering, samples.random_unit_covering, samples.random_chain_covering][n % 3](rng, k)
        if n % 4 == 1:
            fam.insert(rng.randrange(len(fam) + 1), EMPTY)
        if n % 5 == 2:
            fam += [rng.choice(fam) for _ in range(3)]
        if n % 7 == 3:
            fam.insert(rng.randrange(len(fam) + 1), full_path(k))
        rng.shuffle(fam)
        assert wit.construct_main_I(fam).ordering == _main_I_full_scan(fam)


def test_mirrored_members_are_the_mirrored_graphs():
    # the reference reflection of the selection tests is PathGraph.mirror
    rng = random.Random(17)
    for _ in range(200):
        seq = samples.random_covering(rng, rng.randint(1, 30))
        seq.append(EMPTY)
        k = rng.randint(-5, 40)
        assert _mirror([g.intervals for g in seq], k) == [g.mirror(k).intervals for g in seq]


# -- pinned outputs ---------------------------------------------------------------

GOLDENS = pathlib.Path(__file__).resolve().parent / "witness_goldens.json"


def _pinned_cases():
    """40 seeded coverings: a chain covering for the premain modes and a
    general covering for main-II and gap mode, with an empty member in every
    fourth chain and a whole-path member and repeated members in every fifth
    covering."""
    rng = random.Random(1010)
    for n in range(40):
        k = rng.randint(2, 30)
        chain = samples.random_chain_covering(rng, k)
        if n % 4 == 3:
            chain.insert(rng.randrange(len(chain) + 1), EMPTY)
        cover = samples.random_covering(rng, k)
        if n % 5 == 4:
            cover.insert(rng.randrange(len(cover) + 1), full_path(k))
            cover += cover[: rng.randint(1, 3)]
        yield chain, cover


def _pinned_results() -> list[dict]:
    return [
        {
            "premain-II": wit.construct_premain_II(chain).to_json(),
            "main-II": wit.construct_main_II(cover).to_json(),
            "strong-shift-premain": wit.construct_strong_shift(chain, "premain").to_json(),
            "strong-shift-gap": wit.construct_strong_shift(cover, "gap").to_json(),
        }
        for chain, cover in _pinned_cases()
    ]


def test_shift_witnesses_match_their_pinned_outputs():
    # orderings, values, bounds and extras, tie-breaks included; rewrite the
    # file with `PYTHONPATH=src python tests/test_witnesses.py --write-goldens`
    # only for an intended change of a construction
    assert _pinned_results() == json.loads(GOLDENS.read_text())


def test_shift_witnesses_measure_one_ordering_each(monkeypatch):
    # candidates are scored from block values; at most the result is re-measured
    calls = {"n": 0}
    measure = paths.vec_measures

    def counting(*args, **kwargs):
        calls["n"] += 1
        return measure(*args, **kwargs)

    monkeypatch.setattr(paths, "vec_measures", counting)
    rng = random.Random(15)
    for k in (12, 24, 30):
        cover = samples.random_covering(rng, k)
        chain = samples.random_chain_covering(rng, k)
        for run in (
            lambda: wit.construct_main_II(cover),
            lambda: wit.construct_strong_shift(cover, "gap"),
            lambda: wit.construct_strong_shift(chain, "premain"),
        ):
            calls["n"] = 0
            run()
            assert calls["n"] <= 1


if __name__ == "__main__" and sys.argv[1:] == ["--write-goldens"]:
    GOLDENS.write_text("[\n" + ",\n".join(json.dumps(r) for r in _pinned_results()) + "\n]\n")
