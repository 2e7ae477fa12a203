"""Join trees: combinators, depth measures, the Psi oracle, constructions."""

from __future__ import annotations

import collections
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import random

import pytest

from pathlab import jointrees as jt
from pathlab import _kernels, cli, formulas, samples, shifts
from pathlab.errors import ArityError, InvalidParameterError, ResourceLimitError
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


def leaves(k: int) -> list[jt.JoinTree]:
    return [jt.leaf(single_edge(i)) for i in range(1, k + 1)]


# -- combinators ----------------------------------------------------------------


def test_binary_case_coincides():
    t1, t2 = leaves(2)
    assert jt.sem([t1, t2]) == jt.sq([t1, t2]) == jt.node(t1, t2)


def test_sem_leaf_count_doubles():
    assert jt.sem(leaves(5)).leaf_count() == 16
    assert jt.sq(leaves(5)).leaf_count() == 5


def test_sem_root_graph_is_union():
    t = jt.sem(leaves(4))
    assert t.graph == full_path(4)


def test_sq_and_leaf_arity():
    with pytest.raises(ArityError):
        jt.sq([])
    with pytest.raises(ArityError):
        jt.leaf(make_path(0, 2))


# -- depth measures ----------------------------------------------------------------


def test_depths_single_leaf():
    assert jt.depths(jt.leaf(single_edge(1))) == (0, 0, 0)


def test_sem_depth_of_sem_application():
    t = jt.sem(leaves(5))
    assert jt.sem_depth(t) == 1
    assert jt.sem_depth(jt.sq(leaves(5))) == 4  # right comb needs nesting


def test_left_depth_is_max_left_descents():
    comb = jt.sq(leaves(6))
    assert jt.left_depth(comb) == 1
    assert jt.standard_depth(comb) == 5
    t = jt.node(jt.node(jt.leaf(single_edge(1)), jt.leaf(single_edge(2))), jt.leaf(single_edge(3)))
    assert jt.left_depth(t) == 2


def test_nested_sem_depth():
    inner = [jt.sem(leaves(3)) for _ in range(2)]
    t = jt.sem([inner[0], jt.leaf(single_edge(4))])
    assert jt.sem_depth(t) <= 2


# -- branch coverings -----------------------------------------------------------


def test_single_leaf_covering():
    t = jt.leaf(single_edge(1))
    assert jt.branch_coverings(t) == [frozenset({single_edge(1)})]


def test_sq_rightmost_branch_covering():
    parts = leaves(4)
    t = jt.sq(parts)
    covs = jt.branch_coverings(t)
    rightmost = frozenset(p.graph for p in parts)
    assert rightmost in covs


def test_two_leaf_coverings():
    g1, g2 = single_edge(1), single_edge(5)
    t = jt.node(jt.leaf(g1), jt.leaf(g2))
    assert set(map(frozenset, jt.branch_coverings(t))) == {frozenset({g1, g2})}


def test_branch_coverings_are_distinct_in_walk_order():
    rng = random.Random(5)
    for _ in range(60):
        t = samples.random_jointree(rng, k=5, leaves=rng.randint(1, 7))
        per_branch = []
        stack = [(t, ())]
        while stack:
            cur, sibs = stack.pop()
            if cur.is_leaf:
                per_branch.append(frozenset(sibs + (cur.graph,)))
            else:
                stack.append((cur.left, sibs + (cur.right.graph,)))
                stack.append((cur.right, sibs + (cur.left.graph,)))
        assert jt.branch_coverings(t) == list(dict.fromkeys(per_branch))


def test_coverings_cover_the_root_graph():
    rng = random.Random(0)
    for _ in range(50):
        t = samples.random_jointree(rng, k=6, leaves=rng.randint(1, 5))
        for cov in jt.branch_coverings(t):
            assert union_all(cov) == t.graph


# -- the ordering DP -----------------------------------------------------------


def test_dp_on_single_edges():
    for k in range(2, 13):
        got = jt.max_vec_delta_over_orderings([single_edge(i) for i in range(1, k + 1)])
        assert got == (k + 1) // 2


def test_dp_single_graph():
    g = make_path(0, 3).union(make_path(5, 6))
    assert jt.max_vec_delta_over_orderings([g]) == g.delta


def test_dp_matches_permutation_brute_force():
    rng = random.Random(1)
    # negative and far-apart coordinates too: vertex masks are built over ranks
    for lo, hi in ((0, 9), (-9, 0), (-5, 4), (-1_000_003, -999_994)):
        for _ in range(60):
            members = sorted(
                {samples.random_pathgraph(rng, lo, hi, max_comps=2) for _ in range(rng.randint(1, 6))}
            )
            members = [g for g in members if g]
            if not members:
                continue
            brute = max(vec_delta(list(p)) for p in itertools.permutations(members))
            assert jt.max_vec_delta_over_orderings(members) == brute
    far = [make_path(0, 1), make_path(1, 2), make_path(2, 3).union(make_path(10**9, 10**9 + 1))]
    assert jt.max_vec_delta_over_orderings(far) == 3


def test_dp_counts_past_int8():
    # pairwise vertex-disjoint members, so every component survives in every
    # ordering; 3 members run the plain-integer loop, 11 the zero-mask rule
    # in the entry and the numpy layers when called directly
    assert 3 <= _kernels.PY_M < 11
    for members, comps in ((3, 50), (11, 20)):
        seq = [
            PathGraph((3 * (j * comps + c), 3 * (j * comps + c) + 1) for c in range(comps))
            for j in range(members)
        ]
        assert jt.max_vec_delta_over_orderings(seq) == members * comps
    assert _kernels._max_ordering_np(jt._conflict_masks(seq)) == 11 * 20


@pytest.mark.parametrize("m", range(5, 15))
def test_dp_bodies_agree_across_crossover(m):
    # arbitrary asymmetric masks; above PY_M the entry reduces first
    rng = random.Random(m)
    for _ in range(4):
        conflicts = [
            [rng.getrandbits(m) & ~(1 << j) for _ in range(rng.randint(0, 3))] for j in range(m)
        ]
        want = _kernels._max_ordering_np(conflicts)
        if m <= 12:  # the loop's time doubles with each member
            assert _kernels._max_ordering_py(conflicts) == want
        assert _kernels.max_ordering_value(conflicts) == want


def _seeded_conflicts(rng, m):
    """Masks that reach every corner of the DP bodies: members with no
    component, zero masks, repeated masks and, when m > 0, one member with
    130 components (past int8)."""
    conflicts = []
    for j in range(m):
        masks = [rng.getrandbits(m) & ~(1 << j) for _ in range(rng.randint(0, 4))]
        if masks and rng.random() < 0.3:
            masks += [masks[0]] * rng.randint(1, 3)
        if rng.random() < 0.2:
            masks.append(0)
        conflicts.append(masks)
    if m:
        j = rng.randrange(m)
        conflicts[j] += [rng.getrandbits(m) & ~(1 << j) for _ in range(130)]
    return conflicts


@pytest.mark.parametrize("m", range(13))
def test_three_dp_bodies_and_the_entry_agree(m):
    rng = random.Random(f"bodies:{m}")
    for _ in range(6):
        conflicts = _seeded_conflicts(rng, m)
        want = _kernels._max_ordering_py(conflicts)
        assert _kernels._max_ordering_np(conflicts) == want
        assert _kernels.max_ordering_value(conflicts) == want
    # no member has a component
    assert _kernels._max_ordering_np([[] for _ in range(m)]) == 0
    # every component counts in every ordering
    zeros = [[0] * 3 for _ in range(m)]
    assert _kernels._max_ordering_np(zeros) == _kernels.max_ordering_value(zeros) == 3 * m


@pytest.mark.parametrize("spec", [("II", 9, 1), ("II", 16, 2), ("I", 16, 2)])
def test_layered_body_on_every_tight_tree_covering(spec):
    # the coverings of 7 to 9 members that nothing reduces, run by the loop
    coverings = jt.branch_coverings(jt.build_tight(*spec))
    sizes = set()
    for cov in coverings:
        conflicts = jt._conflict_masks(sorted(cov))
        sizes.add(len(conflicts))
        want = _kernels._max_ordering_np(conflicts)
        assert _kernels._max_ordering_py(conflicts) == want
        assert _kernels.max_ordering_value(conflicts) == want
    assert 6 < max(sizes) <= _kernels.PY_M


def test_entry_reduces_only_above_py_m(monkeypatch):
    reduced = []
    real = _kernels._reduce
    monkeypatch.setattr(_kernels, "_reduce", lambda c: reduced.append(len(c)) or real(c))
    rng = random.Random(11)
    for m in range(17):
        # the clique is irreducible, so above PY_M it runs one DP on all m
        clique = [[((1 << m) - 1) ^ (1 << j)] for j in range(m)]
        assert _kernels.max_ordering_value(clique) == min(m, 1)
        _kernels.max_ordering_value(_seeded_conflicts(rng, m))
    big = range(_kernels.PY_M + 1, 17)
    assert reduced == [m for m in big for _ in range(2)]


def test_numpy_body_on_single_edges():
    conflicts = jt._conflict_masks([single_edge(i) for i in range(1, 21)])
    assert _kernels._max_ordering_np(conflicts) == 10


def test_irreducible_clique_runs_one_dp_part():
    # the intervals (-i, i) all share vertex 0: every mask has 11 bits, so no
    # rule applies and the numpy layers run on one part of 12
    conflicts = jt._conflict_masks(sorted(make_path(-i, i) for i in range(1, 13)))
    total, parts = _kernels._reduce(conflicts)
    assert total == 0 and [len(p) for p in parts] == [12]
    assert _kernels.max_ordering_value(conflicts) == 1


def _reduced_value(conflicts):
    total, parts = _kernels._reduce(conflicts)
    return total + sum(_kernels._max_ordering_py(p) for p in parts)


def _far_edges(n):
    return [make_path(1000 + 3 * i, 1001 + 3 * i) for i in range(n)]


# Coverings where "a_j >= b_j puts member j first" is wrong: a_j counts j's
# live components, b_j the components of other members that touch j.
FRONT_RULE_COUNTEREXAMPLES = [
    # the middle member has a = 4 >= b = 3, and putting it first gives 4
    [
        make_path(0, 2).union(make_path(6, 8)),
        PathGraph([(2, 6), (10, 11), (13, 14), (16, 17)]),
        make_path(11, 16),
    ],
    # the rule applied in member order gives 4
    [
        PathGraph([(3, 5), (14, 21)]),
        PathGraph([(3, 6), (8, 12)]),
        PathGraph([(11, 15), (16, 17), (20, 22)]),
        make_path(13, 15),
    ],
]


@pytest.mark.parametrize("cov", FRONT_RULE_COUNTEREXAMPLES)
def test_front_rule_counterexamples(cov):
    assert max(vec_delta(list(p)) for p in itertools.permutations(cov)) == 5
    # the mirror image sorts the members the other way round, so a rule tried
    # in member order meets the first covering's middle member first
    for members in (cov, [g.mirror(30) for g in cov]):
        assert jt.max_vec_delta_over_orderings(members) == 5
        assert _reduced_value(jt._conflict_masks(sorted(members))) == 5
        # eight isolated edges lift m above PY_M, so the entry reduces
        padded = sorted(members + _far_edges(8))
        assert len(padded) > _kernels.PY_M
        assert jt.max_vec_delta_over_orderings(padded) == 5 + 8


def test_reductions_match_the_dp_on_random_coverings():
    rng = random.Random(7)
    for _ in range(1500):
        m = rng.randint(2, 9)
        members = {samples.random_pathgraph(rng, 0, rng.randint(4, 3 * m + 6), rng.randint(1, 4)) for _ in range(m)}
        conflicts = jt._conflict_masks(sorted(g for g in members if g))
        assert _reduced_value(conflicts) == _kernels._max_ordering_py(conflicts)
    for _ in range(40):
        m = rng.randint(_kernels.PY_M + 1, 14)
        members = {samples.random_pathgraph(rng, 0, rng.randint(4, 4 * m), rng.randint(1, 4)) for _ in range(m)}
        conflicts = jt._conflict_masks(sorted(g for g in members if g))
        assert _kernels.max_ordering_value(conflicts) == _kernels._max_ordering_np(conflicts)


def test_reductions_match_the_dp_on_path4_strict_coverings():
    coverings = {cov for t in jt.enumerate_strict(full_path(4)) for cov in jt.branch_coverings(t)}
    assert len(coverings) > 100
    for cov in coverings:
        conflicts = jt._conflict_masks(sorted(g for g in cov if g))
        assert _reduced_value(conflicts) == _kernels._max_ordering_py(conflicts)


def test_dp_limit():
    with pytest.raises(ResourceLimitError):
        jt.max_vec_delta_over_orderings([single_edge(i) for i in range(1, 24)])


# -- Psi ------------------------------------------------------------------------


def test_psi_single_edge_leaf():
    assert jt.psi(jt.leaf(single_edge(1))) == 1


def test_psi_maximally_overlapping():
    for k in range(1, 7):
        assert jt.psi(jt.maximally_overlapping(k)) == 1


def test_psi_rotation_invariance():
    rng = random.Random(2)

    def rotate(t: jt.JoinTree) -> jt.JoinTree:
        if t.is_leaf:
            return t
        l, r = rotate(t.left), rotate(t.right)
        return jt.node(r, l) if rng.random() < 0.5 else jt.node(l, r)

    for _ in range(40):
        t = samples.random_jointree(rng, k=6, leaves=rng.randint(2, 6))
        assert jt.psi(rotate(t)) == jt.psi(t)


def spy_dp_runs(monkeypatch) -> list:
    """Every covering a subset DP runs on from now on."""
    runs = []
    real = jt.max_vec_delta_over_orderings
    monkeypatch.setattr(
        jt, "max_vec_delta_over_orderings", lambda cov, limit: runs.append(cov) or real(cov, limit)
    )
    return runs


def forget_psi(t: jt.JoinTree) -> None:
    """Clear every cache the Psi walk and the dp_limit check read under t."""
    for x in jt._postorder(t):
        x._psi = x._psi_size = None


def largest_covering(t: jt.JoinTree) -> int:
    return max(len(cov) - (EMPTY in cov) for cov in jt.branch_coverings(t))


def test_psi_cache_keeps_the_dp_limit(monkeypatch):
    t = jt.build_tight("II", 16, 2)
    forget_psi(t)
    largest = largest_covering(t)
    dp_runs = spy_dp_runs(monkeypatch)
    with pytest.raises(ResourceLimitError):
        jt.psi(t, dp_limit=largest - 1)
    assert dp_runs == [] and t._psi is None  # a refused tree runs no DP and caches no value
    value = jt.psi(t)
    assert (t._psi, t._psi_size) == (value, largest)
    with pytest.raises(ResourceLimitError):
        jt.psi(t, dp_limit=largest - 1)
    assert jt.psi(t, dp_limit=largest) == value


def contract_trees() -> list[jt.JoinTree]:
    """Trees whose largest covering is below, at and above their height + 1
    (repeated or empty graphs on a branch make it smaller), deep combs
    among them."""
    rng = random.Random(25)
    trees = tight_trees() + [jt.sq(leaves(m)) for m in (2, 9, jt.DEFAULT_DP_LIMIT + 1)]
    trees += [samples.random_jointree(rng, k=4, leaves=rng.randint(2, 12)) for _ in range(60)]
    trees += [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(60)]
    for _ in range(60):
        t = samples.random_jointree(rng, k=6, leaves=rng.randint(2, 12))
        trees.append(jt.tree_restrict(t, samples.random_pathgraph(rng, 0, 6)))
    return trees


@pytest.mark.parametrize("children_first", [False, True])
def test_dp_limit_refusal_names_the_exact_covering_size(children_first):
    below = with_empty = 0
    for t in contract_trees():
        forget_psi(t)
        size = largest_covering(t)
        assert size <= jt.standard_depth(t) + 1
        below += size < jt.standard_depth(t) + 1
        with_empty += size < max(len(cov) for cov in jt.branch_coverings(t))
        if children_first and t.left is not None:
            for child in (t.left, t.right):
                if largest_covering(child) <= jt.DEFAULT_DP_LIMIT:
                    jt.psi(child)
        if size <= jt.DEFAULT_DP_LIMIT:
            value = jt.psi(t)
            assert jt.psi(t, dp_limit=size) == value
        message = f"^covering size {size} exceeds subset-DP limit {size - 1}$"
        with pytest.raises(ResourceLimitError, match=message):
            jt.psi(t, dp_limit=size - 1)
    assert below > 20 and with_empty > 10


def test_psi_cache_matches_a_fresh_tree(monkeypatch):
    rng = random.Random(4)
    dp_runs = spy_dp_runs(monkeypatch)
    for _ in range(30):
        t = samples.random_strict_tree(rng, full_path(rng.randint(2, 7)))
        first = jt.psi(t)
        runs = len(dp_runs)
        fresh = jt.JoinTree.from_json(t.to_json())
        assert fresh is t
        assert jt.psi(fresh) == first and len(dp_runs) == runs


def test_verify_tradeoff_kinds_share_one_psi(monkeypatch):
    # one walk over the branches of the tree, none over its children
    calls = []
    real = jt._psi_walk
    monkeypatch.setattr(jt, "_psi_walk", lambda t, limit: calls.append(t) or real(t, limit))
    t = jt.build_tight("II", 16, 2)
    forget_psi(t)
    assert jt.verify_tradeoff(t, "I")[1] == jt.verify_tradeoff(t, "II")[1]
    assert calls == [t]


def test_psi_dominates_every_fixed_ordering():
    rng = random.Random(3)
    for _ in range(40):
        t = samples.random_jointree(rng, k=6, leaves=rng.randint(2, 6))
        p = jt.psi(t)
        for cov in jt.branch_coverings(t):
            members = list(cov)
            rng.shuffle(members)
            assert p >= vec_delta(members)


def random_bounds_covering(rng: random.Random) -> list[PathGraph]:
    """Members of up to four components near one base, empty and repeated
    members among them; components one vertex apart are common."""
    base = rng.choice((0, -40, 10**9))
    members: list[PathGraph] = []
    for _ in range(rng.randint(0, 7)):
        if members and rng.random() < 0.15:
            members.append(rng.choice(members))
            continue
        starts = [base + rng.randint(0, 24) for _ in range(rng.randint(0, 4))]
        members.append(PathGraph((s, s + rng.randint(1, 4)) for s in starts))
    return members


def test_psi_bounds_bracket_the_ordering_optimum():
    rng = random.Random(18)
    for _ in range(3000):
        cov = random_bounds_covering(rng)
        hi, lo = jt._bounds(cov)
        assert lo <= jt.max_vec_delta_over_orderings(cov) <= hi, cov
        assert hi <= jt._ceiling(union_all(cov))
    covs = {cov for t in jt.enumerate_strict(full_path(4)) for cov in jt.branch_coverings(t)}
    assert len(covs) == 227
    for cov in covs:
        hi, lo = jt._bounds(cov)
        assert lo <= jt.max_vec_delta_over_orderings(cov) <= hi <= jt._ceiling(full_path(4)), cov


def test_ceiling_counts_disjoint_paths_of_each_component():
    assert jt._ceiling(EMPTY) == 0
    assert [jt._ceiling(full_path(k)) for k in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]
    assert jt._ceiling(PathGraph(((0, 1), (3, 5), (10, 14)))) == 1 + 1 + 2


def dp_over_every_covering(t: jt.JoinTree, memo: dict | None = None) -> int:
    """Psi without bounds: the subset DP on every distinct branch covering
    (each covering's optimum kept in ``memo`` when one is given)."""
    memo = {} if memo is None else memo
    values = []
    for cov in jt.branch_coverings(t):
        if cov not in memo:
            memo[cov] = jt.max_vec_delta_over_orderings(cov)
        values.append(memo[cov])
    return max(values)


def tight_trees() -> list[jt.JoinTree]:
    """The block constructions criterion 05 checks."""
    return [jt.build_tight("I", k, d) for k, d in ((4, 1), (4, 2), (8, 3), (16, 2))] + [
        jt.build_tight("II", k, d) for k, d in ((4, 1), (9, 1), (16, 2))
    ]


def test_psi_lies_between_its_children_and_the_ceiling():
    rng = random.Random(26)
    trees = list(jt.enumerate_strict(full_path(4)))
    trees += [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(2000)]
    memo: dict = {}
    oracle: dict = {}  # Psi without bounds, per node
    at_ceiling = at_floor = 0
    for t in trees:
        forget_psi(t)
        for x in (t.left, t.right, t):
            if x not in oracle:
                oracle[x] = dp_over_every_covering(x, memo)
        value, floor = oracle[t], max(oracle[t.left], oracle[t.right])
        ceiling = jt._ceiling(t.graph)
        assert floor <= value <= ceiling, t.pretty()
        at_ceiling += value == ceiling
        at_floor += value == floor
        # the walk from the floor (children measured) and from 0 agree
        jt.psi(t.left), jt.psi(t.right)
        assert jt.psi(t) == value
        forget_psi(t)
        assert jt.psi(t) == value
    assert 0 < at_ceiling < len(trees) and 0 < at_floor < len(trees)


def test_psi_digests_are_pinned():
    # SHA-256 of the Psi lists as they were before the walk had whole-tree
    # bounds: every strict Path_4 tree, and criterion 06's random trees
    path4 = list(jt.enumerate_strict(full_path(4)))
    rng = random.Random(60)
    random_trees = [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(1000)]
    digests = []
    for trees in (path4, random_trees):
        for t in trees:
            forget_psi(t)
        digests.append(hashlib.sha256(repr([jt.psi(t) for t in trees]).encode()).hexdigest())
    assert digests == [
        "b7a50ab17dbc7d265b313e0a7ced20ad6d6a2669360437b60504a5bc4bdc3fcb",
        "20b41d4ce52adbe53808512f77800e63c5c4cc333199167b99c0b26646887527",
    ]


def test_pruned_psi_equals_the_dp_over_every_covering():
    rng = random.Random(19)
    trees = list(jt.enumerate_strict(full_path(4)))[::7]
    trees += [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(300)]
    restricted = []
    for _ in range(200):
        t = samples.random_jointree(rng, k=7, leaves=rng.randint(1, 8))
        restricted.append(jt.tree_restrict(t, samples.random_pathgraph(rng, 0, 7)))
    assert sum(1 for t in restricted if any(x.graph == EMPTY for x in jt._postorder(t))) > 100
    trees += restricted + tight_trees() + [jt.maximally_overlapping(k) for k in range(1, 8)]
    for t in trees:
        t._psi = None
        assert jt.psi(t) == dp_over_every_covering(t), t.pretty()


def test_psi_runs_a_dp_only_where_the_bounds_differ(monkeypatch):
    dp_runs = spy_dp_runs(monkeypatch)
    for k in range(1, 8):
        t = jt.maximally_overlapping(k)
        forget_psi(t)
        assert jt.psi(t) == 1 and dp_runs == []
    for t in tight_trees():
        forget_psi(t)
        jt.psi(t)
        assert len(dp_runs) <= 1, t.pretty()
        dp_runs.clear()


# -- tight constructions ----------------------------------------------------------


def test_build_tight_roots():
    assert jt.build_tight("I", 8, 3).graph == full_path(8)
    assert jt.build_tight("II", 16, 2).graph == full_path(16)


def test_build_tight_rejects_non_integral_roots():
    with pytest.raises(InvalidParameterError):
        jt.build_tight("I", 6, 2)
    with pytest.raises(InvalidParameterError):
        jt.build_tight("II", 25, 3)


def test_integer_root_matches_a_brute_force_root():
    for d in range(1, 41):
        roots = {r**d: r for r in range(1, 2001) if r**d <= 2000}
        assert [jt._integer_root(k, d) for k in range(1, 2001)] == [roots.get(k) for k in range(1, 2001)]


def test_integer_root_builds_no_power_when_k_is_below_two_to_the_d():
    # r >= 2 gives r^d >= 2^d > k, so only k = 1 has a root (r = 1); these
    # d would need a power of up to 125 MB if one were built
    for d in (64, 10**5, 10**8, 10**9):
        assert jt._integer_root(1, d) == 1
        assert jt._integer_root(2, d) is None
        assert jt._integer_root(2**63 - 1, d) is None
    assert jt._integer_root(2**64, 64) == 2
    assert jt._integer_root(2**64 - 1, 64) is None


def test_integer_root_is_exact():
    assert jt._integer_root((10**17 + 3) ** 2, 2) == 10**17 + 3
    assert jt._integer_root((10**17 + 3) ** 2 + 1, 2) is None
    assert jt._integer_root(3**700, 700) == 3
    assert jt._integer_root(3**700 - 1, 700) is None
    for d in range(1, 6):
        assert [r for r in range(1, 200) if jt._integer_root(r, d)] == [
            x**d for x in range(1, 200) if x**d < 200
        ]


def test_e_power_decided_past_the_integer_bracket():
    # both lie inside 2.718281828 < e < 2.718281829, so the partial sums decide
    assert jt._e_power_at_least(1, 10**15, 2718281828459045)
    assert not jt._e_power_at_least(1, 10**15, 2718281828459046)
    assert jt._e_power_at_least(2, 10**30, 2718281828459045**2)
    assert not jt._e_power_at_least(2, 10**30, 2718281828459046**2)


def test_e_power_refused_by_the_integer_bracket():
    # e < 2.718281829 < 3, so the upper bracket alone refuses e >= 3
    assert not jt._e_power_at_least(1, 1, 3)


def test_build_tight_psi_bounds():
    assert jt.psi(jt.build_tight("I", 4, 2)) <= 2  # d ell / 2
    assert jt.psi(jt.build_tight("I", 8, 3)) <= 3
    assert jt.psi(jt.build_tight("II", 16, 2)) <= 8  # 2 d ell
    assert jt.sem_depth(jt.build_tight("II", 16, 2)) <= 2


def test_right_comb_psi_is_ceil_half():
    # the depth-1 block construction is the right comb; its Psi carries the
    # ceiling, which overshoots k/2 on odd k
    assert jt.psi(jt.build_tight("I", 9, 1)) == 5


def test_block_construction_sem_depth_is_exact():
    assert jt.sem_depth(jt.build_tight("II", 16, 2)) == 2
    assert jt.sem_depth(jt.build_tight("II", 9, 1)) == 1


def test_overlap_tree_depths_all_equal():
    for k in range(2, 7):
        ov = jt.maximally_overlapping(k)
        assert jt.depths(ov) == (k - 1, k - 1, k - 1)


def test_psi_recurrences_on_block_construction():
    rep = jt.check_psi_recurrences(jt.build_tight("II", 4, 1), shift_m_limit=6)
    assert rep["ok"] and rep["checked"] > 100


# -- strictness -------------------------------------------------------------------


def test_strictify_collapses_redundant_child():
    e1 = jt.leaf(single_edge(1))
    dup = jt.node(e1, e1)
    t = jt.node(dup, jt.leaf(single_edge(2)))
    s = jt.strictify(t)
    assert s == jt.node(e1, jt.leaf(single_edge(2)))
    assert jt.is_strict(s)


def test_strictify_identity_on_strict_trees():
    rng = random.Random(4)
    for _ in range(50):
        t = samples.random_strict_tree(rng, full_path(rng.randint(1, 5)))
        assert jt.strictify(t) == t
        assert jt.is_strict(t)


def test_strictify_preserves_graph_and_is_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        t = samples.random_jointree(rng, k=5, leaves=rng.randint(1, 6))
        s = jt.strictify(t)
        assert s.graph == t.graph
        assert jt.strictify(s) == s
        assert jt.is_strict(s)


def node_objects(t: jt.JoinTree) -> int:
    """Number of distinct node objects reachable from t."""
    seen = {}
    stack = [t]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            if not x.is_leaf:
                stack += (x.left, x.right)
    return len(seen)


def test_strictify_and_restrict_keep_sharing():
    t = jt.sem(leaves(16))
    nodes = node_objects(t)
    assert nodes < 200  # 2^16 leaves when unfolded
    assert node_objects(jt.strictify(t)) <= nodes
    assert jt.is_strict(t)
    keep = from_edges(range(1, 9))
    restricted = jt.tree_restrict(t, keep)
    assert node_objects(restricted) <= nodes
    assert restricted.graph == keep


def test_equality_of_dags_built_apart():
    # 2^19 root-to-leaf paths each; equal trees are one interned object
    a = jt.sem(leaves(20))
    assert jt.sem(leaves(20)) is a
    other = leaves(20)
    other[-1] = jt.leaf(single_edge(21))
    assert jt.sem(other) is not a


def test_intern_table_drops_dead_trees():
    # an entry goes with its node, by reference counting alone; the leaves
    # of phi are entries for as long as phi lives
    phi = formulas.build_matrix_formula("C", 2, 3)
    gc.collect()
    start = len(jt._NODES)
    gc.disable()
    try:
        rng = random.Random(11)
        for _ in range(10_000):
            jt.depths(samples.random_strict_tree(rng, full_path(rng.randint(1, 6))))
        for seed in range(1_000):
            g = formulas.randomized_conversion(phi, 1 + seed % 3, seed)
            formulas.sem_depth_demorgan(g)
            formulas.and_left_depth(g)
            jt.left_depth(g)
        del g
        assert len(jt._NODES) == start
        list(jt.enumerate_strict(full_path(3), "sem", 2))
        formulas.count_strict_demorgan(2, 1)
        formulas.support_tools(formulas.sem_demorgan([formulas.dm_lit(i) for i in (1, 2, 3)], "and"), 3)
        assert len(jt._NODES) == start
    finally:
        gc.enable()


def test_a_node_rebuilt_after_its_equal_predecessor_died_is_a_fresh_entry():
    gc.collect()
    start = len(jt._NODES)
    a, b = jt.leaf(single_edge(101)), jt.leaf(single_edge(102))
    key = (jt.JoinTree, "union", a, b)
    t = jt.node(a, b)
    old = jt._NODES[key]
    assert old() is t and jt.psi(t) == 1 and t._psi == 1
    del t
    assert key not in jt._NODES and old() is None
    u = jt.node(a, b)
    assert jt._NODES[key] is not old and jt._NODES[key]() is u
    assert u._psi is None  # nothing of the dead node's caches carries over
    del u, a, b, key, old  # a key and a dead reference's key hold the leaves
    assert len(jt._NODES) == start


def test_a_dead_references_callback_keeps_the_newer_entry():
    class Stand:  # a stand-in object, freed before any callback could run
        pass

    a, b = jt.leaf(single_edge(103)), jt.leaf(single_edge(104))
    key = (jt.JoinTree, "union", a, b)
    stand = Stand()
    dead = jt._KeyedRef(stand)
    dead.key = key
    jt._NODES[key] = dead
    del stand
    assert dead() is None and jt._NODES[key] is dead
    t = jt.node(a, b)  # a dead entry is replaced by the new node
    assert jt._NODES[key]() is t
    jt._drop(dead)  # the late callback of the dead reference
    assert jt._NODES[key]() is t
    del t
    assert key not in jt._NODES


def test_join_tree_and_formula_keys_share_one_table():
    gc.collect()
    start = len(jt._NODES)
    t = jt.node(jt.leaf(single_edge(105)), jt.leaf(single_edge(106)))
    g = formulas.dm_and(formulas.dm_lit("p"), formulas.dm_lit("q"))
    assert len(jt._NODES) == start + 6
    assert jt._NODES[(jt.JoinTree, "union", t.left, t.right)]() is t
    assert jt._NODES[(formulas.DeMorgan, "and", g.left, g.right)]() is g
    assert jt._NODES[(formulas.DeMorgan, "lit", "p", False, 0)]() is g.left
    del t, g
    assert len(jt._NODES) == start


def left_comb(k: int) -> jt.JoinTree:
    """The k-level left comb over the edges 1..k+1."""
    ls = leaves(k + 1)
    t = ls[0]
    for x in ls[1:]:
        t = jt.node(t, x)
    return t


def mirror(t: jt.JoinTree) -> jt.JoinTree:
    """t with the children of every node swapped."""
    out: dict = {}
    for x in jt._postorder(t):
        out[x] = x if x.left is None else jt.node(out[x.right], out[x.left])
    return out[t]


def test_every_node_carries_its_left_depth_from_construction():
    comb = left_comb(3000)
    phi = formulas.build_matrix_formula("C", 2, 3)
    dms = [formulas.convert(phi, style) for style in ("right_deep", "balanced")]
    for t in [comb, mirror(comb), *dms]:
        want = left_depths_by_dict(t)
        assert all(x._left_depth == want[x] for x in want)
    assert jt.left_depth(comb) == 3000 and jt.left_depth(mirror(comb)) == 1


def test_left_depth_runs_no_walk(monkeypatch):
    comb = left_comb(50)
    dm = formulas.convert(formulas.build_matrix_formula("D", 2, 3), "balanced")
    want = left_depths_by_dict(dm)[dm]
    walks = []
    postorder = jt._postorder
    monkeypatch.setattr(jt, "_postorder", lambda *args, **kw: walks.append(args) or postorder(*args, **kw))
    assert jt.left_depth(comb) == 50 and jt.left_depth(dm) == want
    assert walks == []
    jt.sem_depth(jt.node(comb, comb))  # the spy sees a walk that does run
    assert len(walks) == 1


def test_strictify_with_equal_subtrees_built_apart():
    e1, e2 = jt.leaf(single_edge(1)), jt.leaf(single_edge(2))
    dup = jt.node(jt.node(e1, e1), e2)
    t = jt.sem([dup, dup, dup, jt.leaf(single_edge(3))])
    s = jt.strictify(t)
    assert s.graph == t.graph and jt.is_strict(s)
    assert s == jt.strictify(jt.JoinTree.from_json(t.to_json()))
    # a copy without shared subtrees is strict too, and strictify keeps it whole
    copy = jt.JoinTree.from_json(jt.sem(leaves(5)).to_json())
    assert jt.is_strict(copy) and jt.strictify(copy) is copy


# -- enumeration -------------------------------------------------------------------


def test_enumerate_strict_single_edge():
    assert len(list(jt.enumerate_strict(single_edge(1)))) == 1


def test_enumerate_strict_two_edges_depth_one():
    trees = list(jt.enumerate_strict(make_path(0, 2), "left", 1))
    assert len(trees) == 2


def independent_strict_count(g: PathGraph, d: int) -> int:
    """Second enumerator: count by the recursive split with explicit
    left-depth budgeting, never materializing trees; a subgraph is its
    sorted edge tuple."""
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def count(h: tuple[int, ...], budget: int) -> int:
        if len(h) <= 1:
            return 1
        if budget <= 0:
            return 0
        got = memo.get((h, budget))
        if got is None:
            got = 0
            for g1, g2 in jt._edge_subgraph_pairs(h):
                got += count(g1, budget - 1) * count(g2, budget)
            memo[(h, budget)] = got
        return got

    return count(tuple(g.edges()), d)


def test_enumerate_strict_matches_independent_count():
    g = make_path(0, 3)
    for d in (1, 2, 3):
        got = len(list(jt.enumerate_strict(g, "left", d)))
        assert got == independent_strict_count(g, d)
        assert got <= 2 ** (g.norm ** (d + 1))


def test_five_edges_are_refused_before_any_tree_is_built(monkeypatch):
    # the strict-tree count depends only on the edge count, and 5 edges
    # have over 500,000 trees, so every 5-edge graph is refused up front
    def never(*args):
        raise AssertionError("built a tree")

    monkeypatch.setattr(jt, "_all_strict", never)
    monkeypatch.setattr(jt, "node", never)
    for g in (full_path(5), from_edges([1, 3, 5, 7, 9]), from_edges([2, 3, 4, 8, 9])):
        with pytest.raises(ResourceLimitError, match="^graph has 5 edges, enumeration limit 4$"):
            next(jt.enumerate_strict(g))


def test_enumeration_is_duplicate_free():
    trees = list(jt.enumerate_strict(make_path(0, 3)))
    assert len(trees) == len(set(trees))


def test_enumerate_strict_sem_filter():
    g = make_path(0, 3)
    shallow = list(jt.enumerate_strict(g, "sem", 1))
    for t in shallow:
        assert jt.sem_depth(t) <= 1
    assert len(shallow) < len(list(jt.enumerate_strict(g)))


def test_path4_depth_histogram():
    hist = collections.Counter(
        (jt.left_depth(t), jt.sem_depth(t)) for t in jt.enumerate_strict(full_path(4))
    )
    assert hist == {
        (1, 3): 24, (2, 2): 336, (2, 3): 3432, (3, 1): 24, (3, 2): 1152, (3, 3): 12624
    }


def test_sem_depth_never_exceeds_standard_depth():
    rng = random.Random(11)
    for _ in range(60):
        t = samples.random_jointree(rng, k=5, leaves=rng.randint(1, 5))
        assert jt.sem_depth(t) <= max(1, jt.standard_depth(t))


def left_depths_by_dict(t: jt.BinaryTree) -> dict:
    """Left depth of every node under t, by one dict-based fold."""
    depth: dict = {}
    for x in jt._postorder(t):
        depth[x] = 0 if x.left is None else max(depth[x.left] + 1, depth[x.right])
    return depth


def sem_tables_by_dict(t: jt.BinaryTree) -> dict:
    """(sequences, depth) of every node under t, the singleton first, by one
    dict-based fold with no cache and no limit."""
    table: dict = {}
    for x in jt._postorder(t):
        if x.left is None:
            table[x] = (((x,),), 0)
            continue
        got_l, got_r = table[x.left], table[x.right]
        seqs_l = got_l[0] if x.left.gate == x.gate else got_l[0][:1]
        seqs_r = got_r[0] if x.right.gate == x.gate else got_r[0][:1]
        acc = [(x,)]
        depth = None
        for a in seqs_l:
            for b in seqs_r:
                if len(a) == len(b) and a[:-1] == b[:-1]:
                    seq = a + (b[-1],)
                    acc.append(seq)
                    worst = max(table[part][1] for part in seq)
                    depth = worst if depth is None else min(depth, worst)
        table[x] = (tuple(acc), depth + 1)
    return table


def forget_depths(trees) -> None:
    """Empty the doubling-combinator table of every node under ``trees``;
    left depth is set when a node is made, so it is no cache to empty."""
    for t in trees:
        for x in jt._postorder(t):
            x._sem = None


def assert_cached_depths_match_the_folds(trees) -> None:
    """Every node's depths equal the folds', whether each subtree's
    doubling-combinator table is filled before the trees above it or the
    roots are measured first."""
    want = [(t, left_depths_by_dict(t), sem_tables_by_dict(t)) for t in trees]
    for subtrees_first in (True, False):
        forget_depths(trees)
        for t, left, table in want:
            if not subtrees_first:
                assert jt.left_depth(t) == left[t] and jt.sem_depth(t) == table[t][1]
            for x in left:  # children first
                assert jt.left_depth(x) == left[x]
                assert jt.sem_depth(x) == table[x][1]
                assert jt.sem_decompositions(x) == list(table[x][0][1:])


def test_cached_depths_equal_the_uncached_folds():
    rng = random.Random(20)
    trees = list(jt.enumerate_strict(full_path(4)))
    trees += [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(1000)]
    trees += [jt.sem(leaves(m)) for m in range(1, 13)] + [jt.sq(leaves(m)) for m in range(1, 13)]
    trees += tight_trees() + [jt.maximally_overlapping(k) for k in range(1, 9)]
    assert_cached_depths_match_the_folds(trees)


def random_mixed_formula(rng: random.Random, gates: int) -> formulas.DeMorgan:
    """AND and OR gates over three literals and the gates made before, so
    a child often has the other gate over the same parts."""
    pool = [formulas.dm_lit(i) for i in (1, 2, 3)]
    for _ in range(gates):
        pool.append(formulas.DeMorgan(rng.choice(("and", "or")), rng.choice(pool), rng.choice(pool)))
    return pool[-1]


@pytest.fixture(scope="module")
def strict_formulas_2_2() -> tuple:
    """The 1,854 formulas of count_strict_demorgan(2, 2), made once."""
    return tuple(formulas._strict_demorgan(2, 2))


def test_cached_formula_depths_equal_the_uncached_folds(strict_formulas_2_2):
    rng = random.Random(21)
    forms = list(strict_formulas_2_2) + [random_mixed_formula(rng, rng.randint(1, 12)) for _ in range(300)]
    assert_cached_depths_match_the_folds(forms)
    forget_depths(forms)
    assert [formulas.sem_depth_demorgan(g) for g in forms] == [
        sem_tables_by_dict(g)[g][1] for g in forms
    ]


def trees_with_leaves(labels: list, n: int, memo: dict) -> list:
    """Every join tree with exactly n leaves, each labelled from ``labels``."""
    if n not in memo:
        if n == 1:
            memo[n] = [jt.leaf(g) for g in labels]
        else:
            memo[n] = [
                jt.node(left, right)
                for a in range(1, n)
                for left in trees_with_leaves(labels, a, memo)
                for right in trees_with_leaves(labels, n - a, memo)
            ]
    return memo[n]


def test_is_strict_answers_as_strictify_does(strict_formulas_2_2):
    # every Path_4 join tree with at most five leaves (single edges or the
    # empty graph), every strict Path_4 tree, and each of those joined to one
    # of its edges, which makes the root redundant; then formulas, strict
    # and mixed AND/OR ones
    p4 = full_path(4)
    memo: dict = {}
    labels = [EMPTY] + [single_edge(i) for i in range(1, 5)]
    small = [t for n in range(4, 6) for t in trees_with_leaves(labels, n, memo) if t.graph == p4]
    strict = list(jt.enumerate_strict(p4))
    joined = [jt.node(t, jt.leaf(single_edge(1 + n % 4))) for n, t in enumerate(strict[::5])]
    trees = small + strict + joined
    verdicts = [jt.is_strict(t) for t in trees]
    assert verdicts == [jt.strictify(t) is t for t in trees]
    assert 0 < sum(verdicts[: len(small)]) < len(small)
    assert all(verdicts[len(small) : len(small) + len(strict)]) and not any(verdicts[-len(joined) :])
    forms = strict_formulas_2_2
    rng = random.Random(22)
    mixed = [random_mixed_formula(rng, rng.randint(1, 12)) for _ in range(300)]
    for k, group in ((2, forms), (3, mixed)):
        value = formulas._edge_tables(k)
        verdicts = [jt.is_strict(g, value) for g in group]
        assert verdicts == [jt.strictify(g, value) is g for g in group]
    assert all(jt.is_strict(g, formulas._edge_tables(2)) for g in forms)
    assert not all(jt.is_strict(g, formulas._edge_tables(3)) for g in mixed)


def test_strict_formulas_2_2_are_pinned(strict_formulas_2_2):
    # the enumeration skips the nodes it already knows to be strict; the
    # formulas and their order are those it found checking every node
    text = "\n".join(formulas.to_sexpr(g) for g in strict_formulas_2_2)
    assert len(strict_formulas_2_2) == 1854
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "69a3a09ebae6dc5b10440718383329dbab7accf82f36a843737d10cd544794ce"
    )


def test_is_strict_skips_the_nodes_marked_done():
    redundant = jt.node(jt.leaf(single_edge(1)), jt.leaf(single_edge(1)))
    t = jt.node(redundant, jt.leaf(single_edge(2)))
    assert not jt.is_strict(t)
    assert jt.is_strict(t, done={redundant: True}.get)


# -- tradeoffs and recurrences -----------------------------------------------------


def test_verify_tradeoff_single_leaf():
    t = jt.leaf(single_edge(1))
    for kind in ("I", "II"):
        holds, lhs, rhs = jt.verify_tradeoff(t, kind)
        assert holds and lhs == 1 and rhs == 1.0


def test_verify_tradeoff_exhaustive_small():
    for k in (1, 2, 3):
        for tree in jt.enumerate_strict(full_path(k)):
            for kind in ("I", "II"):
                holds, lhs, rhs = jt.verify_tradeoff(tree, kind)
                assert holds, (k, kind, tree.pretty(), lhs, rhs)


def test_verify_tradeoff_random_trees():
    rng = random.Random(6)
    for _ in range(150):
        k = rng.randint(2, 8)
        tree = samples.random_strict_tree(rng, full_path(k))
        for kind in ("I", "II"):
            holds, lhs, rhs = jt.verify_tradeoff(tree, kind)
            assert holds, (k, kind, lhs, rhs)


@pytest.mark.parametrize("edges,d,x", [((1, 2), 1, 0), ((1, 3, 5), 2, -1)])
def test_verify_tradeoff_refuses_a_nonpositive_x(monkeypatch, edges, d, x):
    # with Psi read as 0, x = Psi - delta + d is d - delta; at x = -1 and
    # d = 2 both sides raised to an even power would pass without the check
    monkeypatch.setattr(jt, "psi", lambda t: 0)
    a, b, *rest = [jt.leaf(single_edge(e)) for e in edges]
    t = jt.node(a, b)
    for c in rest:
        t = jt.node(t, c)
    assert jt.left_depth(t) == jt.sem_depth(t) == d and d - t.graph.delta == x
    for kind in ("I", "II"):
        holds, lhs, rhs = jt.verify_tradeoff(t, kind)
        assert not holds and lhs == 0, kind


def test_tight_construction_close_to_lower_bound():
    t = jt.build_tight("I", 8, 3)
    holds, lhs, rhs = jt.verify_tradeoff(t, "I")
    assert holds
    assert lhs <= 15 * 2.718281828 * max(rhs, 1)


def test_psi_recurrences_on_sem_of_disjoint_edges():
    t = jt.sem([jt.leaf(single_edge(i)) for i in (1, 3, 5)])
    rep = jt.check_psi_recurrences(t)
    assert rep["ok"], rep["violations"][:3]
    assert rep["checked"] > 0


def test_psi_recurrences_on_random_sq():
    rng = random.Random(7)
    for _ in range(20):
        parts = [samples.random_jointree(rng, k=5, leaves=rng.randint(1, 2)) for _ in range(3)]
        rep = jt.check_psi_recurrences(jt.sq(parts))
        assert rep["ok"], rep["violations"][:3]


def test_psi_recurrence_violations_keep_their_keys(monkeypatch):
    # a psi of 0 at the root and 9 below breaks every bound, so each family
    # of cases is violated once and recorded with its keys in order
    t = jt.sem([jt.leaf(single_edge(i)) for i in (1, 3, 5)])
    monkeypatch.setattr(jt, "psi", lambda x, dp_limit=None: 0 if x is t else 9)
    rep = jt.check_psi_recurrences(t)
    # sq: one family per j; each decomposition of arity m: m corollaries and
    # m(m + 1)/2 families (i, q) of (ii) and of (iii) each
    families = len(jt.right_spine(t)) + sum(m + m * (m + 1) for m in map(len, jt.sem_decompositions(t)))
    assert not rep["ok"] and len(rep["violations"]) == families
    keys = {v["kind"]: list(v) for v in rep["violations"]}
    assert keys == {
        "sq": ["kind", "j", "tau", "lhs", "rhs"],
        "sem-corollary": ["kind", "j", "lhs", "rhs"],
        "sem-ii": ["kind", "I", "h", "lhs", "rhs"],
        "sem-iii": ["kind", "I", "h", "lhs", "rhs"],
    }
    first = {v["kind"]: v for v in reversed(rep["violations"])}
    assert first["sq"] == {"kind": "sq", "j": 1, "tau": [1], "lhs": 0, "rhs": 9}
    # the first decomposition is sem(E_1 + E_3, E_1 + E_5); over the base
    # E_1 + E_3 only the component E_5 survives
    assert first["sem-corollary"] == {"kind": "sem-corollary", "j": 1, "lhs": 0, "rhs": 10}


def test_psi_recurrences_binary_case_agrees():
    t1 = jt.leaf(single_edge(1))
    t2 = jt.leaf(single_edge(4))
    assert jt.sem([t1, t2]) == jt.sq([t1, t2])
    rep = jt.check_psi_recurrences(jt.sem([t1, t2]))
    assert rep["ok"]


def _reference_cases(t: jt.JoinTree, perm_limit: int = 5, shift_m_limit: int = 10):
    """The recurrence cases written one by one, as the checker was before
    its tables: a union, a vec_delta scan and a restricted tree for every
    (tau, j) and every (shift permutation, h).  Yields (family, case), with
    the case as the checker reports it when violated and its family as a
    key that sorts in the checker's report order: sq by j, then for each
    decomposition d its corollaries by j, and its (ii) and (iii) cases by
    the end i of the block that holds h and by q = h - 1.  ``psi`` is
    looked up at call time, as the checker does."""
    psi_t = jt.psi(t)

    def residual(x, f):
        return jt.psi(jt.tree_ominus(x, f)) - x.graph.ominus(f).delta

    def case(kind, rhs, **where):
        return {"kind": kind, **where, "lhs": psi_t, "rhs": rhs}

    if t.is_leaf:
        return
    parts = jt.right_spine(t)
    graphs = [p.graph for p in parts]
    for j in range(1, min(len(parts), perm_limit) + 1):
        for tau in itertools.permutations(range(1, j + 1)):
            f = union_all(graphs[tau[i] - 1] for i in range(tau.index(j)))
            rhs = residual(parts[j - 1], f) + vec_delta([graphs[i - 1] for i in tau])
            yield (0, j), case("sq", rhs, j=j, tau=list(tau))
    for d, decomp in enumerate(jt.sem_decompositions(t)):
        m = len(decomp)
        if m > shift_m_limit:
            continue
        graphs = [p.graph for p in decomp]
        for j in range(1, m + 1):
            rhs = jt.psi(decomp[j - 1]) + vec_delta(graphs, graphs[j - 1])
            yield (1, d, 0, j), case("sem-corollary", rhs, j=j)
        for sigma in shifts.enumerate_all(m):
            index_set = sorted(sigma.index_set)
            ordered = sigma.apply(graphs)
            for h in range(1, m + 1):
                j = sigma(h)
                i = min(x for x in index_set if x >= h)
                rhs = jt.psi(decomp[j - 1]) + vec_delta(ordered[h:], union_all(ordered[:h]))
                yield (1, d, 1, i, h - 1, 0), case("sem-ii", rhs, I=index_set, h=h)
                rhs = residual(decomp[j - 1], union_all(ordered[: h - 1])) + vec_delta(
                    shifts.induced(sigma, j).apply(graphs)
                )
                yield (1, d, 1, i, h - 1, 1), case("sem-iii", rhs, I=index_set, h=h)


def _reference_psi_recurrences(t: jt.JoinTree, perm_limit: int = 5, shift_m_limit: int = 10) -> dict:
    """The report of the case-by-case checker: every case checked and every
    violated one listed, and the cases the limits leave out counted, j! for
    each sq prefix beyond ``perm_limit`` and, for each decomposition beyond
    ``shift_m_limit``, its m corollaries and two cases per (shift
    permutation, h)."""
    cases = [case for _, case in _reference_cases(t, perm_limit, shift_m_limit)]
    violations = [case for case in cases if case["lhs"] < case["rhs"]]
    skipped = 0
    if not t.is_leaf:
        spine = len(jt.right_spine(t))
        skipped += sum(math.factorial(j) for j in range(max(perm_limit, 0) + 1, spine + 1))
        skipped += sum(m + 2 * m * 2 ** (m - 1) for m in map(len, jt.sem_decompositions(t)) if m > shift_m_limit)
    return {"checked": len(cases), "skipped": skipped, "violations": violations, "ok": not violations}


def _recurrence_cases():
    """(tree, perm_limit, shift_m_limit) for the table checker's cross-check."""
    rng = random.Random(27)
    for _ in range(40):
        # the shapes of the CLI suite and of the benchmark's recurrence verdicts
        parts = [samples.random_jointree(rng, k=5, leaves=rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        tree = jt.sem(parts) if rng.random() < 0.5 else jt.sq(parts)
        yield tree, 3, 6
        yield tree, 3, 5
        # empty leaves, as tree_restrict leaves them
        yield jt.tree_restrict(tree, from_edges(e for e in range(1, 6) if rng.random() < 0.5)), 3, 6
    for _ in range(20):
        # repeated leaves, and sometimes an empty one
        pool = [jt.leaf(single_edge(rng.randint(1, 3))) for _ in range(rng.randint(2, 5))]
        pool += [jt.leaf(EMPTY)] * rng.randint(0, 1)
        yield (jt.sem(pool) if rng.random() < 0.5 else jt.sq(pool)), 5, 8
    for m in range(2, 7):
        for perm_limit in range(6):
            parts = [samples.random_jointree(rng, k=6, leaves=rng.randint(1, 3)) for _ in range(m)]
            yield jt.sq(parts), perm_limit, 4
    for m in range(2, 9):
        yield jt.sem(leaves(m)), 5, 8
        parts = [samples.random_jointree(rng, k=6, leaves=1) for _ in range(m)]
        yield jt.sem(parts), 3, rng.randint(m - 2, 8)


def test_psi_recurrence_tables_match_the_enumeration():
    for tree, perm_limit, shift_m_limit in _recurrence_cases():
        want = _reference_psi_recurrences(tree, perm_limit, shift_m_limit)
        got = jt.check_psi_recurrences(tree, perm_limit, shift_m_limit)
        assert json.dumps(got) == json.dumps(want), (tree.pretty(), perm_limit, shift_m_limit)


@pytest.mark.parametrize("drop", [1, 2, 10])
def test_psi_recurrence_violations_match_the_enumeration(monkeypatch, drop):
    # Psi(T) lowered at the root breaks some cases of a family and not
    # others: a family is reported iff the enumeration has a violation in
    # it, once and in the checker's order, with the enumeration's largest
    # rhs in it, naming (tau, or I and h) a case of the family with that rhs
    real = jt.psi
    cases = list(itertools.islice(_recurrence_cases(), 0, None, 3))
    for tree, perm_limit, shift_m_limit in cases:
        monkeypatch.setattr(jt, "psi", lambda x, dp_limit=jt.DEFAULT_DP_LIMIT: real(x, dp_limit) - drop * (x is tree))
        families = collections.defaultdict(list)
        for family, case in _reference_cases(tree, perm_limit, shift_m_limit):
            families[family].append(case)
        want = [family for _, family in sorted(families.items()) if any(c["lhs"] < c["rhs"] for c in family)]
        got = jt.check_psi_recurrences(tree, perm_limit, shift_m_limit)
        where = (tree.pretty(), perm_limit, shift_m_limit)
        assert got["checked"] == sum(map(len, families.values())), where
        assert len(got["violations"]) == len(want), where
        for entry, family in zip(got["violations"], want):
            assert entry["rhs"] == max(c["rhs"] for c in family), (where, entry)
            assert entry in family, (where, entry)


def test_psi_recurrence_limits_only_move_cases_between_checked_and_skipped():
    for tree, _, _ in _recurrence_cases():
        spine = 0 if tree.is_leaf else len(jt.right_spine(tree))
        widest = max(map(len, jt.sem_decompositions(tree)), default=0)
        reports = [jt.check_psi_recurrences(tree, *limits) for limits in [(0, 0), (3, 5), (spine, widest)]]
        assert len({rep["checked"] + rep["skipped"] for rep in reports}) == 1, tree.pretty()
        assert reports[-1]["skipped"] == 0, tree.pretty()


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_psi_recurrence_maxima_beyond_the_enumeration(monkeypatch, m):
    # sem of m vertex-disjoint edges, at arities the enumeration cannot
    # reach.  Every graph here is a set of those edges, and every tree over
    # them has Psi equal to its edge count, so each family has a closed
    # form: a residual is 0 and vec_delta over a base U counts the edges
    # outside U, so an sq case is |U_j| whatever tau is, a corollary and a
    # (iii) case m, and a (ii) case at h = q + 1 of the block (p, i] of I is
    # m - |U_q | G_i| plus |G_i| at the head (p = q) or |G_q| inside.
    # Lowering Psi(T) = m by one or two breaks a known set of families.
    t = jt.sem([jt.leaf(single_edge(2 * e - 1)) for e in range(1, m + 1)])
    real = jt.psi
    assert real(t) == m
    decomps = jt.sem_decompositions(t)
    spine = [p.graph for p in jt.right_spine(t)]
    rep = jt.check_psi_recurrences(t, 5, m)
    assert rep["ok"] and rep["skipped"] == sum(math.factorial(j) for j in range(6, len(spine) + 1))
    assert rep["checked"] == sum(math.factorial(j) for j in range(1, 6)) + sum(k + (k << k) for k in map(len, decomps))
    for drop in (1, 2):
        monkeypatch.setattr(jt, "psi", lambda x, dp_limit=jt.DEFAULT_DP_LIMIT: real(x, dp_limit) - drop * (x is t))
        want = [("sq", j, union_all(spine[:j]).delta) for j in range(1, 6)]
        for decomp in decomps:
            g = [p.graph for p in decomp]
            want += [("sem-corollary", j, m) for j in range(1, len(g) + 1)]
            for i in range(1, len(g) + 1):
                for q in range(i):
                    rhs = m - union_all(g[:q] + [g[i - 1]]).delta + max(g[i - 1].delta, g[q - 1].delta if q else 0)
                    want += [("sem-ii", (i, q), rhs), ("sem-iii", (i, q), m)]
        got = []
        for v in jt.check_psi_recurrences(t, 5, m)["violations"]:
            if v["kind"] in ("sem-ii", "sem-iii"):
                index_set, h = v["I"], v["h"]
                assert index_set == sorted(set(index_set)) and 1 <= h <= index_set[-1], v
                got.append((v["kind"], (min(x for x in index_set if x >= h), h - 1), v["rhs"]))
            else:
                assert v["kind"] != "sq" or sorted(v["tau"]) == list(range(1, v["j"] + 1)), v
                got.append((v["kind"], v["j"], v["rhs"]))
        assert got == [w for w in want if w[2] > m - drop], (m, drop)


def test_a_recurrence_check_walks_each_restricted_tree_once(monkeypatch):
    walked: list[str] = []  # texts, so that no walked tree is kept alive
    real_walk = jt._psi_walk
    monkeypatch.setattr(jt, "_psi_walk", lambda t, limit: walked.append(t.pretty()) or real_walk(t, limit))
    per_check = []
    real_check = jt.check_psi_recurrences

    def check(t, *args, **kwargs):
        start = len(walked)
        report = real_check(t, *args, **kwargs)
        per_check.append(walked[start:])
        return report

    monkeypatch.setattr(jt, "check_psi_recurrences", check)
    argv = ["verify", "psi-recurrences", "--trials", "40", "--seed", "5", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert len(per_check) == 40
    assert all(len(set(texts)) == len(texts) for texts in per_check)
    assert len(walked) == 248


def test_tree_json_round_trip():
    t = jt.build_tight("II", 4, 1)
    assert jt.JoinTree.from_json(t.to_json()) == t


def test_sem_recogniser_needs_no_recursion_per_level():
    # a right comb deeper than the recursion limit: each node is one union
    # over the rest, so the depth is one per level
    comb = jt.sq(leaves(3000))
    assert jt.sem_depth(comb) == 2999
    assert jt.sem_decompositions(comb) == [(comb.left, comb.right)]


def test_a_deep_comb_walks_on_explicit_stacks():
    # every walker of a whole tree is a loop over one explicit stack, so a
    # comb far deeper than the recursion limit goes through all of them
    n = 10_000
    comb = jt.sq(leaves(n))
    assert jt.depths(comb) == (n - 1, 1, n - 1)
    want = "".join(f"([{i - 1},{i}] U " for i in range(1, n)) + f"[{n - 1},{n}]" + ")" * (n - 1)
    assert comb.pretty() == want
    assert comb.leaf_count() == n
    # at the dict level, since json.dumps itself recurses once per level
    assert jt.JoinTree.from_json(comb.to_json()) == comb
    assert jt.strictify(comb) is comb
    half = jt.tree_restrict(comb, full_path(n // 2))
    assert half.leaf_count() == n and half.graph == full_path(n // 2)
    assert jt.strictify(half) == jt.sq(leaves(n // 2))


def test_folds_visit_each_distinct_node_once(monkeypatch):
    # sem over 20 edges has 2^19 leaves but only 20 distinct ones
    t = jt.sem(leaves(20))
    walked = []
    postorder = jt._postorder

    def spy(root):
        for x in postorder(root):
            walked.append(x)
            yield x

    monkeypatch.setattr(jt, "_postorder", spy)
    assert t.leaf_count() == 2**19
    assert sum(x.is_leaf for x in walked) == 20
    assert len(walked) == len(set(walked)) == len(set(map(id, walked)))


def test_pretty_of_a_shared_tree_is_unchanged():
    text = jt.sem(leaves(12)).pretty()
    assert len(text) == 20481
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "48c26688c636b858acecdf009c57c4122c606bc1f13e2dc0a9c6cc70c054d6f4"
    )
    assert text.startswith("((((((((((([0,1] U [1,2]) U ([0,1] U [2,3])) U (([0,1] U [1,2])")
