"""Shift permutations: indexing bijection, induced permutations, brute force."""

from __future__ import annotations

import random

import pytest

from pathlab import shifts
from pathlab.errors import InvalidIndexSetError, InvalidShiftError, ResourceLimitError
from pathlab.paths import EMPTY, PathGraph, single_edge, vec_delta, vec_measures
from pathlab import samples

OBJECTIVES = ("vec_delta", "vec_lambda", "vec_lambda_delta")


def test_identity_and_cycle():
    ident = shifts.from_set(6, range(1, 7))
    assert ident.perm == (1, 2, 3, 4, 5, 6)
    cyc = shifts.from_set(6, {6})
    assert cyc.perm == (6, 1, 2, 3, 4, 5)


def test_block_formula_golden():
    s = shifts.from_set(5, {3, 5})
    assert s.perm == (3, 1, 2, 5, 4)


def test_from_set_rejects_bad_index_sets():
    with pytest.raises(InvalidIndexSetError):
        shifts.from_set(5, {3})  # m missing
    with pytest.raises(InvalidIndexSetError):
        shifts.from_set(5, {5, 7})


def test_to_set():
    assert shifts.to_set(shifts.from_set(7, range(1, 8))) == frozenset(range(1, 8))
    assert shifts.to_set((3, 1, 2, 5, 4)) == frozenset({3, 5})
    assert shifts.to_set((2, 1, 3)) == frozenset({2, 3})


def test_to_set_rejects_non_shift_inputs():
    with pytest.raises(InvalidShiftError):
        shifts.to_set((2, 3, 1))  # sigma(3) = 1 < 2
    with pytest.raises(InvalidShiftError):
        shifts.to_set((1, 1, 2))  # not a permutation


def test_round_trips():
    rng = random.Random(0)
    for _ in range(100):
        m = rng.randint(1, 10)
        index_set = frozenset(rng.sample(range(1, m), rng.randint(0, m - 1))) | {m}
        sigma = shifts.from_set(m, index_set)
        assert shifts.to_set(sigma) == index_set
        again = shifts.from_set(m, shifts.to_set(sigma))
        assert again.perm == sigma.perm


def test_induced_goldens():
    s = shifts.from_set(5, {3, 5})
    assert shifts.induced(s, 2).perm == (1, 3, 2, 5, 4)
    assert shifts.induced(s, 4).perm == (1, 2, 3, 5, 4)
    assert shifts.induced(s, 5).perm == (1, 2, 3, 5, 4)
    assert shifts.induced(s, 1).perm == s.perm
    assert shifts.induced(s, 3).perm == s.perm


def test_enumerate_counts_and_shift_property():
    assert len(list(shifts.enumerate_all(1))) == 1
    assert len(list(shifts.enumerate_all(3))) == 4
    perms = list(shifts.enumerate_all(5))
    assert len(perms) == 16
    assert len({p.perm for p in perms}) == 16
    for p in perms:
        assert all(p(j) >= j - 1 for j in range(1, 6))
    # index sets by increasing size, then lex: the order the recurrence
    # checker lists its violations in
    assert [sorted(p.index_set) for p in shifts.enumerate_all(4)] == [
        [4], [1, 4], [2, 4], [3, 4], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]
    ]


def test_enumerate_limit():
    with pytest.raises(ResourceLimitError):
        list(shifts.enumerate_all(30))


def test_odd_set_attains_13_on_standard_order():
    e = [single_edge(i) for i in range(1, 26)]
    sigma = shifts.from_set(25, set(range(1, 26, 2)))
    assert vec_delta(sigma.apply(e)) == 13


def test_sigma_15_25_attains_7_on_stride_order():
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    sigma = shifts.from_set(25, {15, 25})
    assert vec_delta(sigma.apply(stride)) == 7


def _random_member(rng: random.Random, lo: int, span: int) -> PathGraph:
    """Up to three random intervals in [lo, lo + span]; sometimes none."""
    ivs = []
    for _ in range(rng.randint(0, 3)):
        s = rng.randint(lo, lo + span)
        ivs.append((s, s + rng.randint(1, 5)))
    return PathGraph(ivs)


def test_best_shift_reduced_stride():
    stride9 = [single_edge(i) for j in range(1, 4) for i in range(j, 10, 3)]
    sigma, value = shifts.best_shift(stride9, "vec_delta")
    assert value == 4  # 3 + (3 - 1) / 2


def test_best_shift_single_graph():
    g = samples.random_pathgraph(random.Random(1))
    sigma, value = shifts.best_shift([g], "vec_delta")
    assert sigma.perm == (1,)
    assert value == g.delta


def test_best_shift_dominates_identity():
    rng = random.Random(2)
    for _ in range(100):
        seq = samples.random_sequence(rng, m=rng.randint(1, 7))
        for objective, idx in (("vec_delta", 0), ("vec_lambda", 1), ("vec_lambda_delta", 2)):
            _, value = shifts.best_shift(seq, objective)
            assert value >= vec_measures(seq)[idx]


def test_best_shift_matches_pure_enumeration():
    # value and lex-min sorted index set against brute force, for all three
    # objectives, on sequences with negative coordinates, empty members and
    # vertex spans above 61
    rng = random.Random(3)
    seqs = [samples.random_sequence(rng, m=rng.randint(1, 6)) for _ in range(30)]
    for k in range(64):
        lo, span = rng.choice([(-80, 70), (-10, 12), (0, 6), (5, 200), (-(10**6), 2 * 10**6)])
        seqs.append([_random_member(rng, lo, span) for _ in range(1 + k % 8)])
    for seq in seqs:
        perms = list(shifts.enumerate_all(len(seq)))
        for idx, objective in enumerate(OBJECTIVES):
            sigma, value = shifts.best_shift(seq, objective)
            scored = [(vec_measures(s.apply(seq))[idx], sorted(s.index_set)) for s in perms]
            top = max(v for v, _ in scored)
            assert value == top
            assert sorted(sigma.index_set) == min(i for v, i in scored if v == top)
            assert vec_measures(sigma.apply(seq))[idx] == value


def test_induced_order_dominates_index_increments():
    # the induced permutations preserve the increments collected by the index set
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(1, 7)
        seq = samples.random_sequence(rng, m=m)
        index_set = frozenset(rng.sample(range(1, m), rng.randint(0, m - 1))) | {m}
        sigma = shifts.from_set(m, index_set)
        acc = EMPTY
        increments = []
        for g in seq:
            increments.append(g.ominus(acc).delta)
            acc = acc.union(g)
        floor = sum(increments[i - 1] for i in index_set)
        for j in range(1, m + 1):
            tilde = shifts.induced(sigma, j)
            assert vec_delta(tilde.apply(seq)) >= floor


def _all_or_sampled_index_sets(rng: random.Random, m: int):
    """Every index set of [m] containing m for m <= 8, 60 random ones above."""
    if m <= 8:
        for mask in range(1 << (m - 1)):
            yield frozenset(j + 1 for j in range(m - 1) if mask >> j & 1) | {m}
    else:
        for _ in range(60):
            yield frozenset(rng.sample(range(1, m), rng.randint(0, m - 1))) | {m}


def _reference_induced_set(index_set: frozenset[int], j: int) -> frozenset[int]:
    """The induced index set by its definition: with (p, i] the block of I
    that holds j, add 1..p when j = i and 1..j-1 otherwise."""
    ordered = sorted(index_set)
    h = next(n for n, i in enumerate(ordered) if i >= j)
    p = ordered[h - 1] if h else 0
    return index_set | set(range(1, (p if ordered[h] == j else j - 1) + 1))


def _value(blocks, long_blocks, code: int) -> int:
    """Measure ``code`` of sigma_I from block values, for the index set I
    given by its long blocks: the sum of all m units with each long block
    (p, i] put in place of the units p+1..i it spans."""
    sums = blocks.unit_sums[code]
    return sums[-1] + sum(blocks.block(p, i)[code] - sums[i] + sums[p] for p, i in long_blocks)


def _long_blocks(index_set: frozenset[int]) -> list[tuple[int, int]]:
    """The blocks (p, i] of I with i > p + 1."""
    ordered = sorted(index_set)
    return [(p, i) for p, i in zip([0] + ordered, ordered) if i > p + 1]


def test_block_values_sum_to_the_measures_of_every_shift():
    # sigma_I's measures are the sums of its block values, and the induced
    # index set matches the induced permutation, on sequences with empty
    # members and coordinates near 0 and +-10^9
    rng = random.Random(10)
    for m in range(1, 13):
        for c in (0, 10**9, -(10**9)):
            seq = [_random_member(rng, c - 8, 16) for _ in range(m)]
            seq[rng.randrange(m)] = EMPTY
            blocks = shifts._Blocks(seq)
            for index_set in _all_or_sampled_index_sets(rng, m):
                sigma = shifts.from_set(m, index_set)
                want = vec_measures(sigma.apply(seq))
                long_blocks = _long_blocks(index_set)
                assert tuple(_value(blocks, long_blocks, code) for code in range(3)) == want
                for j in range(1, m + 1):
                    induced = shifts._induced_set(index_set, j)
                    assert induced == shifts.induced(sigma, j).index_set
                    assert induced == _reference_induced_set(index_set, j)


def _contact_sequence(rng: random.Random, m: int) -> list[PathGraph]:
    """m members on a few vertices, so that many pairs share exactly one
    vertex: empty members, repeats of an earlier member, members nested in
    or around an earlier one, and intervals with endpoints on a grid of 2."""
    seq: list[PathGraph] = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.1:
            g = EMPTY
        elif roll < 0.25 and seq:
            g = rng.choice(seq)
        elif roll < 0.4 and any(seq):
            s, t = rng.choice(rng.choice([g for g in seq if g]).intervals)
            g = PathGraph([(s - rng.randint(0, 1), t + rng.randint(0, 1))] if rng.random() < 0.5
                          else [(s, s + 1)] if t > s + 1 and rng.random() < 0.5 else [(s - 2, s)])
        else:
            ivs = []
            for _ in range(rng.randint(1, 3)):
                s = 2 * rng.randint(-2, 8)
                ivs.append((s, s + 2 * rng.randint(1, 2)))
            g = PathGraph(ivs)
        seq.append(g)
    return seq


def _block_sequences(rng: random.Random):
    for m in range(1, 13):
        for _ in range(40):
            yield _contact_sequence(rng, m)
    for m in range(1, 9):
        for c in (0, 10**9, -(10**9)):
            yield [_random_member(rng, c - 8, 16) for _ in range(m)]


def _prefix_union(seq, p: int) -> PathGraph:
    acc = EMPTY
    for g in seq[:p]:
        acc = acc.union(g)
    return acc


def test_every_block_value_is_the_measure_of_its_members_on_the_prefix():
    # b(p, i) = vec_measures([G_i, G_(p+1), ..., G_(i-1)], U_p), whichever
    # block of a column comes first; many members share exactly one vertex
    rng = random.Random(11)
    for seq in _block_sequences(rng):
        m = len(seq)
        blocks = shifts._Blocks(seq)
        pairs = [(p, i) for i in range(1, m + 1) for p in range(i)]
        rng.shuffle(pairs)
        for p, i in pairs:
            want = vec_measures([seq[i - 1]] + seq[p : i - 1], _prefix_union(seq, p))
            assert blocks.block(p, i) == want, (seq, p, i)


def test_block_values_do_not_depend_on_which_blocks_were_asked_first():
    # a column's heads are worked out on the first block with p >= 1 that
    # asks for them: rotations (p = 0) first, then the rest; the rest first;
    # and the two interleaved, each against a fresh scan of its members
    rng = random.Random(14)
    for n, seq in enumerate(_block_sequences(rng)):
        m = len(seq)
        blocks = shifts._Blocks(seq)
        rotations = [(0, i) for i in range(1, m + 1)]
        rest = [(p, i) for i in range(1, m + 1) for p in range(1, i)]
        rng.shuffle(rest)
        if n % 3 == 0:
            pairs = rotations + rest
        elif n % 3 == 1:
            pairs = rest + rotations
        else:
            pairs = rotations + rest
            rng.shuffle(pairs)
        for p, i in pairs:
            want = vec_measures([seq[i - 1]] + seq[p : i - 1], _prefix_union(seq, p))
            assert blocks.block(p, i) == want, (seq, p, i)


def test_one_pass_induced_minimum_is_the_least_induced_measure():
    # against the minimum over j of the block-value score of each induced
    # index set, as the witness constructions took it before the one pass
    # (block-value scores are checked against vec_measures above)
    rng = random.Random(12)
    for seq in _block_sequences(rng):
        m = len(seq)
        blocks = shifts._Blocks(seq)
        for index_set in _all_or_sampled_index_sets(rng, m):
            induced = [_long_blocks(shifts._induced_set(index_set, j)) for j in range(1, m + 1)]
            for code in range(3):
                want = min(_value(blocks, long_blocks, code) for long_blocks in induced)
                assert blocks.induced_min(index_set, code) == want


def test_best_shift_matches_enumeration_up_to_ten_members():
    # value and lex-min index set, all three objectives, on sequences whose
    # members touch at one vertex, repeat, nest or are empty
    rng = random.Random(13)
    for m in range(1, 11):
        perms = list(shifts.enumerate_all(m))
        for _ in range(10):
            seq = _contact_sequence(rng, m)
            measured = [(vec_measures(s.apply(seq)), sorted(s.index_set)) for s in perms]
            for idx, objective in enumerate(OBJECTIVES):
                sigma, value = shifts.best_shift(seq, objective)
                top = max(v[idx] for v, _ in measured)
                assert value == top
                assert sorted(sigma.index_set) == min(i for v, i in measured if v[idx] == top)


def test_best_shift_has_no_size_limit():
    # 2^39 shift permutations, past the enumeration limit; half the edges survive
    e = [single_edge(i) for i in range(1, 41)]
    sigma, value = shifts.best_shift(e, "vec_delta")
    assert value == 20
    assert vec_delta(sigma.apply(e)) == 20


def test_full_sweep_standard_order():
    e = [single_edge(i) for i in range(1, 26)]
    sigma, value = shifts.best_shift(e, "vec_delta")
    assert value == 13


def test_full_sweep_stride_order_beats_seven():
    # sigma_{15,25} reaches 7, but the optimum over all 2^24 shifts is 8
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    sigma, value = shifts.best_shift(stride, "vec_delta")
    assert value == 8
    assert vec_delta(sigma.apply(stride)) == 8


def test_json_round_trip():
    s = shifts.from_set(9, {2, 5, 9})
    assert shifts.ShiftPermutation.from_json(s.to_json()).perm == s.perm
