"""Join trees: combinators, depth measures, the Psi oracle, constructions."""

from __future__ import annotations

import collections
import gc
import hashlib
import itertools
import random

import pytest

from pathlab import jointrees as jt
from pathlab import _kernels, formulas, samples, shifts
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


def test_build_dispatch_and_arity():
    assert jt.build("leaf", single_edge(2)).graph == single_edge(2)
    with pytest.raises(ArityError):
        jt.build("sq", [])
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
    assert 3 <= _kernels.SMALL_M < 11
    for members, comps in ((3, 50), (11, 20)):
        seq = [
            PathGraph((3 * (j * comps + c), 3 * (j * comps + c) + 1) for c in range(comps))
            for j in range(members)
        ]
        assert jt.max_vec_delta_over_orderings(seq) == members * comps
    assert _kernels._max_ordering_np(jt._conflict_masks(seq)) == 11 * 20


@pytest.mark.parametrize("m", range(_kernels.PY_M - 1, 15))
def test_dp_bodies_agree_across_crossover(m):
    # arbitrary asymmetric masks; above SMALL_M the entry reduces first
    rng = random.Random(m)
    for _ in range(4):
        conflicts = [
            [rng.getrandbits(m) & ~(1 << j) for _ in range(rng.randint(0, 3))] for j in range(m)
        ]
        want = _kernels._max_ordering_np(conflicts)
        if m <= 12:  # the loop's time doubles with each member
            assert _kernels._max_ordering_py(conflicts) == want
            assert _kernels._max_ordering_gather(conflicts) == want
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
        assert _kernels._max_ordering_gather(conflicts) == want
        assert _kernels._max_ordering_np(conflicts) == want
        assert _kernels.max_ordering_value(conflicts) == want
    # no member has a component
    assert _kernels._max_ordering_gather([[] for _ in range(m)]) == 0
    # every component counts in every ordering
    zeros = [[0] * 3 for _ in range(m)]
    assert _kernels._max_ordering_gather(zeros) == _kernels.max_ordering_value(zeros) == 3 * m


@pytest.mark.parametrize("spec", [("II", 9, 1), ("II", 16, 2), ("I", 16, 2)])
def test_gather_on_every_tight_tree_covering(spec):
    coverings = jt.branch_coverings(jt.build_tight(*spec))
    sizes = set()
    for cov in coverings:
        conflicts = jt._conflict_masks(sorted(cov))
        sizes.add(len(conflicts))
        want = _kernels._max_ordering_py(conflicts)
        assert _kernels._max_ordering_gather(conflicts) == want
        assert _kernels.max_ordering_value(conflicts) == want
    assert max(sizes) > _kernels.PY_M


def test_gather_layouts_are_cached_only_between_the_crossovers():
    assert 0 < _kernels.PY_M < _kernels.SMALL_M
    _kernels._gather_layout.cache_clear()
    rng = random.Random(11)
    outside = [m for m in range(17) if not _kernels.PY_M < m <= _kernels.SMALL_M]
    for m in outside:
        # the clique is irreducible, so above SMALL_M it runs one DP on all m
        clique = [[((1 << m) - 1) ^ (1 << j)] for j in range(m)]
        assert _kernels.max_ordering_value(clique) == min(m, 1)
        if m <= _kernels.PY_M:
            _kernels.max_ordering_value(_seeded_conflicts(rng, m))
    assert _kernels._gather_layout.cache_info().currsize == 0
    for m in range(_kernels.PY_M + 1, _kernels.SMALL_M + 1):
        _kernels.max_ordering_value(_seeded_conflicts(rng, m))
    assert _kernels._gather_layout.cache_info().currsize == _kernels.SMALL_M - _kernels.PY_M
    # the entry reduces coverings above SMALL_M into parts of any size
    for _ in range(40):
        _kernels.max_ordering_value(_seeded_conflicts(rng, _kernels.SMALL_M + 2))
    assert _kernels._gather_layout.cache_info().currsize == _kernels.SMALL_M - _kernels.PY_M


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
        # eight isolated edges lift m above SMALL_M, so the entry reduces
        padded = sorted(members + _far_edges(8))
        assert len(padded) > _kernels.SMALL_M
        assert jt.max_vec_delta_over_orderings(padded) == 5 + 8


def test_reductions_match_the_dp_on_random_coverings():
    rng = random.Random(7)
    for _ in range(1500):
        m = rng.randint(2, 9)
        members = {samples.random_pathgraph(rng, 0, rng.randint(4, 3 * m + 6), rng.randint(1, 4)) for _ in range(m)}
        conflicts = jt._conflict_masks(sorted(g for g in members if g))
        assert _reduced_value(conflicts) == _kernels._max_ordering_py(conflicts)
    for _ in range(40):
        m = rng.randint(_kernels.SMALL_M + 1, 14)
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


def test_psi_cache_keeps_the_dp_limit(monkeypatch):
    t = jt.build_tight("II", 16, 2)
    largest = max(sum(1 for g in cov if g) for cov in jt.branch_coverings(t))
    dp_runs = []
    real = jt.max_vec_delta_over_orderings
    monkeypatch.setattr(
        jt, "max_vec_delta_over_orderings", lambda cov, limit: dp_runs.append(cov) or real(cov, limit)
    )
    with pytest.raises(ResourceLimitError):
        jt.psi(t, dp_limit=largest - 1)
    assert dp_runs == [] and t._psi is None  # a refused tree runs no DP and caches no value
    value = jt.psi(t)
    assert (t._psi, t._psi_size) == (value, largest)
    with pytest.raises(ResourceLimitError):
        jt.psi(t, dp_limit=largest - 1)
    assert jt.psi(t, dp_limit=largest) == value


def test_psi_cache_matches_a_fresh_tree(monkeypatch):
    rng = random.Random(4)
    dp_runs = []
    real = jt.max_vec_delta_over_orderings
    monkeypatch.setattr(
        jt, "max_vec_delta_over_orderings", lambda cov, limit: dp_runs.append(cov) or real(cov, limit)
    )
    for _ in range(30):
        t = samples.random_strict_tree(rng, full_path(rng.randint(2, 7)))
        first = jt.psi(t)
        runs = len(dp_runs)
        fresh = jt.JoinTree.from_json(t.to_json())
        assert fresh is t
        assert jt.psi(fresh) == first and len(dp_runs) == runs


def test_verify_tradeoff_kinds_share_one_psi(monkeypatch):
    calls = []
    real = jt.branch_coverings
    monkeypatch.setattr(jt, "branch_coverings", lambda t: calls.append(t) or real(t))
    t = jt.build_tight("II", 16, 2)
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


# -- tight constructions ----------------------------------------------------------


def test_build_tight_roots():
    assert jt.build_tight("I", 8, 3).graph == full_path(8)
    assert jt.build_tight("II", 16, 2).graph == full_path(16)


def test_build_tight_rejects_non_integral_roots():
    with pytest.raises(InvalidParameterError):
        jt.build_tight("I", 6, 2)
    with pytest.raises(InvalidParameterError):
        jt.build_tight("II", 25, 3)


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
    # an entry goes with its node, by reference counting alone
    gc.collect()
    start = len(jt._NODES)
    rng = random.Random(11)
    for _ in range(10_000):
        samples.random_strict_tree(rng, full_path(rng.randint(1, 6)))
    phi = formulas.build_matrix_formula("C", 2, 3)
    for seed in range(1_000):
        formulas.randomized_conversion(phi, 1 + seed % 3, seed)
    assert len(jt._NODES) == start


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
    left-depth budgeting, never materializing trees."""
    memo: dict[tuple[PathGraph, int], int] = {}

    def count(h: PathGraph, budget: int) -> int:
        if h.norm <= 1:
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

    return count(g, d)


def test_enumerate_strict_matches_independent_count():
    g = make_path(0, 3)
    for d in (1, 2, 3):
        got = len(list(jt.enumerate_strict(g, "left", d)))
        assert got == independent_strict_count(g, d)
        assert got <= 2 ** (g.norm ** (d + 1))


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
    # a psi of 0 at the root and 9 below breaks every bound, so each kind of
    # violation is recorded with its keys in order
    t = jt.sem([jt.leaf(single_edge(i)) for i in (1, 3, 5)])
    monkeypatch.setattr(jt, "psi", lambda x, dp_limit=None: 0 if x is t else 9)
    rep = jt.check_psi_recurrences(t)
    assert not rep["ok"] and len(rep["violations"]) == rep["checked"]
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
