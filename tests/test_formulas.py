"""Formula IR, the block constructions, conversions, strictness, supports."""

from __future__ import annotations

import collections
import hashlib
import json
import math
import pathlib
import random

import pytest

from pathlab import formulas as F
from pathlab import jointrees as jt
from pathlab.errors import ArityError, DomainError, InvalidParameterError, ResourceLimitError
from pathlab.paths import EMPTY, from_edges


def identity_tuple(n: int, k: int):
    return tuple(
        tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n)) for _ in range(k)
    )


def zero_tuple(n: int, k: int):
    return tuple(tuple(tuple(0 for _ in range(n)) for _ in range(n)) for _ in range(k))


# -- construction shapes ------------------------------------------------------------


def test_disjunctive_form_shape():
    d = F.build_matrix_formula("D", 3, 5)
    assert F.size(d) == 5 * 3**4
    assert F.depth(d) == 2 and F.and_depth(d) == 1
    assert F.is_monotone(d)


def test_disjunctive_form_evaluation():
    d = F.build_matrix_formula("D", 3, 5)
    assert F.evaluate(d, F.matrix_env(identity_tuple(3, 5))) == 1
    assert F.evaluate(d, F.matrix_env(zero_tuple(3, 5))) == 0


def test_conjunctive_form_shape():
    c = F.build_matrix_formula("C", 2, 5)
    assert F.depth(c) == 2
    assert F.size(c) == 2**4 * ((2 - 1) * 4 + 1)


def test_oracles():
    assert F.oracle_subpmm(identity_tuple(3, 4)) == 1
    mats = list(identity_tuple(3, 4))
    mats[2] = zero_tuple(3, 1)[0]
    assert F.oracle_subpmm(tuple(mats)) == 0
    bad = ((1, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(DomainError):
        F.oracle_subpmm((bad,) * 2)
    assert F.oracle_bmm((bad,) * 2) == 1


def test_oracle_matches_path_search():
    rng = random.Random(0)
    for _ in range(300):
        mats = tuple(F.random_subperm_matrix(4, rng) for _ in range(6))
        # independent check: explicit path enumeration through the blow-up
        n = 4
        paths = [(0,)]
        for mat in mats:
            paths = [p + (b,) for p in paths for b in range(n) if mat[p[-1]][b]]
        want = 1 if any(p[-1] == 0 for p in paths) else 0
        assert F.oracle_subpmm(mats) == want


def test_packed_oracle_matches_scalar_oracle():
    n, k = 2, 3
    vl = F.matrix_varlist(n, k)
    table = F.oracle_table(n, k, vl)
    for idx in range(1 << len(vl)):
        mats = F._decode_input(idx, n, k, vl)
        assert ((table >> idx) & 1) == F.oracle_bmm(mats)


def test_exhaustive_disjunctive_vs_bmm():
    d = F.build_matrix_formula("D", 2, 5)
    report = F.check_formula_correct(d, 2, 5, input_class="any")
    assert report["ok"] and report["checked"] == 1 << 20


def test_exhaustive_conjunctive_vs_subpmm():
    c = F.build_matrix_formula("C", 2, 5)
    report = F.check_formula_correct(c, 2, 5, input_class="subperm")
    assert report["ok"] and report["checked"] == 7**5


def test_conjunctive_form_needs_column_constraint():
    # two row-constrained rows merging into one column defeat the
    # conjunctive form: it cannot see that the first matrix has no 1s at all
    c = F.build_matrix_formula("C", 2, 5)
    report = F.check_formula_correct(c, 2, 5, input_class="rows")
    assert not report["ok"]
    ce = report["counterexample"]
    assert ce["formula"] == 1 and ce["oracle"] == 0


# (ok, checked) and the counterexample of every exhaustive check of D and C at
# n = 2, k = 3..5, for every endpoint pair and input class
CHECK_GOLDENS = json.loads((pathlib.Path(__file__).resolve().parent / "formula_check_goldens.json").read_text())


@pytest.mark.parametrize("kind,k", [(kind, k) for kind in ("D", "C") for k in (3, 4, 5)])
def test_exhaustive_checks_match_goldens(kind, k):
    cases = [g for g in CHECK_GOLDENS if g["kind"] == kind and g["k"] == k]
    assert len(cases) == 12
    for g in cases:
        phi = F.build_matrix_formula(kind, 2, k, a0=g["a0"], ak=g["ak"])
        report = F.check_formula_correct(phi, 2, k, input_class=g["input_class"], a0=g["a0"], ak=g["ak"])
        assert json.loads(json.dumps(report)) == g["report"], g


def test_exhaustive_check_refuses_before_building_columns(monkeypatch):
    def no_columns(varlist):
        raise AssertionError("columns built")

    monkeypatch.setattr(F, "_variable_columns", no_columns)
    monkeypatch.setattr(F, "NVARS_LIMIT", 19)
    d = F.build_matrix_formula("D", 2, 5)
    with pytest.raises(ResourceLimitError, match="^20 variables exceeds truth-table limit 19$"):
        F.check_formula_correct(d, 2, 5)
    with pytest.raises(ResourceLimitError, match="^20 variables exceeds truth-table limit 19$"):
        F.truth_table(d, F.matrix_varlist(2, 5))


def test_recursive_kinds_exhaustive():
    for kind in ("SigmaI", "SigmaII", "PiII"):
        phi = F.build_matrix_formula(kind, 2, 4, 2)
        report = F.check_formula_correct(phi, 2, 4)
        assert report["ok"], kind


def test_non_integral_root_rejected():
    with pytest.raises(InvalidParameterError):
        F.build_matrix_formula("SigmaII", 2, 25, 3)
    with pytest.raises(InvalidParameterError):
        F.build_matrix_formula("D", 2, 5, d=2)


def test_sample_mode():
    phi = F.build_matrix_formula("SigmaI", 3, 9, 2)
    report = F.check_formula_correct(phi, 3, 9, mode="sample", count=300, seed=1)
    assert report["ok"]


def test_build_budget_counts_every_leaf(monkeypatch):
    # SigmaI over 2 x 2 matrices at k = 81, d = 4 has 12^4 = 20,736 leaves,
    # although no single walk loop comes near 1,000
    monkeypatch.setattr(F, "_BUILD_NODE_LIMIT", 1000)
    with pytest.raises(ResourceLimitError):
        F.build_matrix_formula("SigmaI", 2, 81, 4)
    assert F.size(F.build_matrix_formula("SigmaI", 2, 9, 2)) == 12**2


def test_build_depth_limit():
    # at k = 1 every level has one block, so only the depth limit stops d
    for kind in ("SigmaI", "SigmaII", "PiII"):
        phi = F.build_matrix_formula(kind, 2, 1, F._BUILD_DEPTH_LIMIT)
        assert F.check_formula_correct(phi, 2, 1)["ok"], kind
        with pytest.raises(ResourceLimitError):
            F.build_matrix_formula(kind, 2, 1, F._BUILD_DEPTH_LIMIT + 1)


@pytest.mark.parametrize(
    "kind,n,k,d",
    [("D", 3, 4, 1), ("C", 3, 4, 1), ("SigmaI", 2, 8, 3), ("SigmaII", 3, 9, 2), ("PiII", 2, 16, 2)],
)
def test_leaf_count_is_the_built_size(kind, n, k, d):
    flat = F._FLAT.get(kind)
    ell = k if flat else jt._integer_root(k, d)
    assert F._leaf_count(flat or kind, n, ell, d) == F.size(F.build_matrix_formula(kind, n, k, d))


@pytest.mark.parametrize(
    "kind,size,digest",
    [
        ("D", 256, "72c160a06a468514e86d6e77f2e0f045b1e7a21320b3ef7d5e81363b76ebf9d9"),
        ("C", 640, "c63465c05bf0e38c6e86537bab589408ee7946207c76befeb3fc13bc5e3c2345"),
    ],
)
def test_build_makes_one_literal_per_variable(kind, size, digest):
    phi = F.build_matrix_formula(kind, 4, 4)
    lits = [x for x in jt._postorder(phi) if x.op == "lit"]
    assert len(lits) == len(F.variables(phi)) == 40
    assert F.size(phi) == size
    assert hashlib.sha256(F.to_sexpr(phi).encode()).hexdigest() == digest


def test_sample_rows_class_has_one_column_per_row():
    # the conjunctive form fails on the rows class; every counterexample it
    # reports must still have at most one 1 per row
    c = F.build_matrix_formula("C", 2, 3)
    failed = 0
    for seed in range(20):
        report = F.check_formula_correct(c, 2, 3, mode="sample", input_class="rows", seed=seed)
        if not report["ok"]:
            failed += 1
            for mat in report["counterexample"]["matrices"]:
                assert all(sum(row) <= 1 for row in mat), mat
    assert failed


@pytest.mark.parametrize("n,k,d", [(2, 4, 2), (2, 25, 2), (2, 8, 3), (3, 9, 2), (3, 27, 3)])
def test_structural_bounds(n, k, d):
    ell = round(k ** (1.0 / d))
    phi = F.build_matrix_formula("SigmaI", n, k, d)
    assert F.and_fanin(phi) == ell
    assert F.fanin(phi) <= n**ell
    assert F.size(phi) <= k * n ** (d * ell)
    for kind in ("SigmaII", "PiII"):
        psi = F.build_matrix_formula(kind, n, k, d)
        assert F.size(psi) <= k * n ** (d * ell)
        assert F.depth(psi) <= d + 1


@pytest.mark.parametrize(
    "kind,n,k,d,want",
    [
        ("D", 3, 5, 1, (405, 2, 1, 81, 5)),
        ("C", 2, 5, 1, (80, 2, 1, 16, 16)),
        ("SigmaI", 2, 8, 3, (64, 6, 3, 2, 2)),
        ("SigmaII", 2, 8, 3, (64, 4, 2, 4, 4)),
        ("PiII", 2, 8, 3, (64, 4, 2, 4, 4)),
        ("SigmaI", 3, 9, 2, (729, 4, 2, 9, 3)),
        ("SigmaII", 3, 9, 2, (1215, 3, 1, 27, 27)),
        ("PiII", 3, 9, 2, (1215, 3, 2, 45, 9)),
        ("PiII", 2, 16, 2, (1024, 3, 2, 32, 8)),
    ],
)
def test_structural_values(kind, n, k, d, want):
    # (size, depth, and_depth, fanin, and_fanin) of the entry (1, n) formula
    phi = F.build_matrix_formula(kind, n, k, d, a0=1, ak=n)
    got = (F.size(phi), F.depth(phi), F.and_depth(phi), F.fanin(phi), F.and_fanin(phi))
    assert got == want


# -- conversions ----------------------------------------------------------------------


def test_right_deep_conversion_shape():
    big = F.conj([F.lit(("e", i)) for i in range(8)])
    dm = F.convert(big, "right_deep")
    assert F.and_left_depth(dm) == 1
    assert F.size(dm) == 8


def test_balanced_conversion_shape():
    big = F.conj([F.lit(("e", i)) for i in range(8)])
    dm = F.convert(big, "balanced")
    assert F.depth(dm) == 3


def test_conversions_preserve_function_and_size():
    phi = F.build_matrix_formula("SigmaI", 2, 4, 2)
    varlist = F.matrix_varlist(2, 4)
    want = F.truth_table(phi, varlist)
    for style in ("right_deep", "balanced"):
        dm = F.convert(phi, style)
        assert F.truth_table(dm, varlist) == want
        assert F.size(dm) == F.size(phi)
    dm = F.convert(phi, "right_deep")
    assert F.and_left_depth(dm) <= F.and_depth(phi)
    dmb = F.convert(phi, "balanced")
    assert F.depth(dmb) <= F.depth(phi) * math.ceil(math.log2(F.fanin(phi)))


def test_randomized_conversion_depth0_passthrough():
    g = F.randomized_conversion(F.lit((1, 1, 1)), 5, seed=0)
    assert g.op == "lit" and g.var == (1, 1, 1) and not g.neg


def test_randomized_conversion_binary_structure():
    phi = F.conj([F.lit(1), F.lit(2)])
    g = F.randomized_conversion(phi, 4, seed=3)
    assert F.size(g) == 8  # balanced tree of t*m - 1 = 7 binary gates
    assert F.depth(g) == 3
    assert F.variables(g) <= {1, 2}


def test_randomized_conversion_bounds_every_sample():
    phi = F.build_matrix_formula("SigmaII", 2, 4, 2)
    s = F.size(phi)
    d = F.depth(phi)
    for t in (1, 2, 3):
        for seed in range(40):
            g = F.randomized_conversion(phi, t, seed)
            assert F.size(g) <= t**d * s
            assert F.depth(g) <= d * math.ceil(math.log2(t * s))


def test_randomized_conversion_is_seed_reproducible():
    phi = F.build_matrix_formula("SigmaII", 2, 4, 2)
    a = F.randomized_conversion(phi, 2, seed=17)
    b = F.randomized_conversion(phi, 2, seed=17)
    c = F.randomized_conversion(phi, 2, seed=18)
    assert F.to_sexpr(a) == F.to_sexpr(b)
    assert F.to_sexpr(a) != F.to_sexpr(c)


def test_randomized_conversion_eval_only_agrees_with_materialized():
    rng = random.Random(4)
    phi = F.build_matrix_formula("SigmaII", 2, 4, 2)
    for seed in range(30):
        mats = tuple(F.random_subperm_matrix(2, rng) for _ in range(4))
        env = F.matrix_env(mats)
        g = F.randomized_conversion(phi, 2, seed)
        assert F.evaluate(g, env) == F.randomized_conversion_value(phi, 2, seed, env)


def test_randomized_conversion_agreement_rate():
    phi = F.build_matrix_formula("D", 2, 4)
    s = F.size(phi)
    t = max(1, round(math.log2(s) ** 2))
    rng = random.Random(5)
    inputs = [tuple(F.random_subperm_matrix(2, rng) for _ in range(4)) for _ in range(3)]
    for mats in inputs:
        env = F.matrix_env(mats)
        want = F.evaluate(phi, env)
        hits = sum(
            F.randomized_conversion_value(phi, t, seed, env) == want for seed in range(1000)
        )
        assert hits >= 990


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_picks_follow_the_randrange_stream(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for m in range(1, 71):  # every power of two up to 64 among them
        count = 1 + (seed + m) % 9
        assert F._picks(ours, m, count) == [theirs.randrange(m) for _ in range(count)], m
        # the next draw agrees too, so the stream stays aligned
        assert ours.getrandbits(32) == theirs.getrandbits(32), m


def test_picks_of_a_gate_without_children_draw_nothing():
    rng = random.Random(3)
    assert F._picks(rng, 0, 0) == []
    assert rng.random() == random.Random(3).random()


# digests of to_sexpr of sampled conversions, pinned from the randrange stream
SAMPLED_CONVERSION_DIGESTS = {
    ("D", 2, 3, 1, 11): "4f6430415cfdf43e124700e8c08cba202b02c894c251a29e7ec14f342aecfe58",
    ("SigmaI", 2, 4, 2, 5): "c93a11c6264ac17d004cd15a21368b09f8e1a7bcbf094442c2c52d6b8a45caf2",
}


@pytest.mark.parametrize("kind,n,k,t,seed", list(SAMPLED_CONVERSION_DIGESTS))
def test_sampled_conversion_is_pinned(kind, n, k, t, seed):
    g = F.randomized_conversion(F.build_matrix_formula(kind, n, k), t, seed)
    digest = hashlib.sha256(F.to_sexpr(g).encode()).hexdigest()
    assert digest == SAMPLED_CONVERSION_DIGESTS[(kind, n, k, t, seed)]


# -- strictness on edge variables ------------------------------------------------------


def test_strictify_collapses_duplicate_child():
    g = F.dm_and(F.dm_lit(1), F.dm_lit(1))
    s = F.strictify_demorgan(g, 2)
    assert s.op == "lit" and s.var == 1


def test_strictify_keeps_distinct_children():
    g = F.dm_and(F.dm_lit(1), F.dm_lit(2))
    s = F.strictify_demorgan(g, 2)
    assert s.op == "and"


def test_strictify_nested():
    g = F.dm_and(F.dm_or(F.dm_lit(1), F.dm_lit(1)), F.dm_lit(2))
    s = F.strictify_demorgan(g, 2)
    assert s == F.dm_and(F.dm_lit(1), F.dm_lit(2))


def test_strictify_is_fixed_point_and_equivalent():
    rng = random.Random(6)
    k = 4

    def random_dm(depth):
        if depth == 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.1:
                return F.dm_const(rng.randint(0, 1))
            return F.dm_lit(rng.randint(1, k), neg=rng.random() < 0.4)
        op = F.dm_and if rng.random() < 0.5 else F.dm_or
        return op(random_dm(depth - 1), random_dm(depth - 1))

    for _ in range(150):
        g = random_dm(4)
        s = F.strictify_demorgan(g, k)
        assert F.dm_truth_table(s, k) == F.dm_truth_table(g, k)
        assert F.is_strict_demorgan(s, k)
        again = F.strictify_demorgan(s, k)
        assert again == s


def test_demorgan_structural_equality():
    a, b = F.dm_lit(1), F.dm_lit(2, neg=True)
    g = F.sem_demorgan([a, b, F.dm_or(F.dm_lit(3), F.dm_const(1))], "and")
    assert F.from_sexpr(F.to_sexpr(g), binary=True) is g
    assert F.dm_lit(1) is not F.dm_lit(1, neg=True)
    assert F.dm_lit(1) is not F.dm_lit(2)
    assert F.dm_const(0) is not F.dm_const(1)
    assert F.dm_and(a, b) is not F.dm_or(a, b)
    assert F.dm_and(a, b) is not F.dm_and(b, a)


# -- doubling-combinator depth ---------------------------------------------------------


def test_dm_sem_depth_literal():
    assert F.sem_depth_demorgan(F.dm_lit(3)) == 0


def test_dm_sem_depth_flat():
    parts = [F.dm_lit(i) for i in (1, 2, 3)]
    assert F.sem_depth_demorgan(F.sem_demorgan(parts, "or")) == 1


def test_dm_sem_depth_recognizes_and_pattern():
    a, b, c = F.dm_lit(1), F.dm_lit(2), F.dm_lit(3)
    g = F.dm_and(F.dm_and(a, b), F.dm_and(a, c))
    assert F.sem_depth_demorgan(g) == 1


def test_dm_sem_depth_ignores_sharing():
    inner = [F.sem_demorgan([F.dm_lit(i + j) for j in range(3)], "or") for i in (1, 2, 3)]
    g = F.sem_demorgan(inner, "and")
    copy = F.from_sexpr(F.to_sexpr(g), binary=True)
    assert F.sem_depth_demorgan(copy) == F.sem_depth_demorgan(g) == 2


def node_objects(t) -> int:
    """Number of distinct node objects reachable from t."""
    seen = {}
    stack = [t]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            stack += x.children
    return len(seen)


# -- supports --------------------------------------------------------------------------


def test_support_of_literal():
    g = F.dm_lit(3)
    supp, restrict, stree, strict_stree = F.support_tools(g, 4)
    assert supp == from_edges([3])
    assert stree.graph == supp
    assert stree.is_leaf


def test_support_of_contradiction():
    g = F.dm_and(F.dm_lit(1), F.dm_lit(1, neg=True))
    supp, _, stree, strict_stree = F.support_tools(g, 3)
    assert supp == EMPTY
    assert stree.graph == EMPTY


@pytest.mark.parametrize(
    "call, var",
    [
        (lambda: F.truth_table(F.lit(5), [1, 2]), "5"),
        (lambda: F.truth_table(F.lit((3, 1, 1)), F.matrix_varlist(2, 2)), r"\(3, 1, 1\)"),
        (lambda: F.dm_truth_table(F.dm_lit(4), 3), "4"),
        (lambda: F.support(F.dm_lit(4), 3), "4"),
    ],
)
def test_variables_outside_the_order_are_domain_errors(call, var):
    with pytest.raises(DomainError, match=f"variable {var} is not in the variable order"):
        call()


def test_support_tree_depth_bound():
    parts = [F.dm_lit(i) for i in (1, 2, 3)]
    g = F.sem_demorgan(parts, "and")
    supp, _, stree, strict_stree = F.support_tools(g, 3)
    assert jt.sem_depth(stree) <= F.sem_depth_demorgan(g) == 1


def test_support_tree_root_graph_random():
    rng = random.Random(7)
    k = 4

    def random_dm(depth):
        if depth == 0 or rng.random() < 0.35:
            return F.dm_lit(rng.randint(1, k), neg=rng.random() < 0.3)
        op = F.dm_and if rng.random() < 0.5 else F.dm_or
        return op(random_dm(depth - 1), random_dm(depth - 1))

    for _ in range(120):
        g = random_dm(3)
        supp, _, stree, strict_stree = F.support_tools(g, k)
        assert stree.graph == supp
        assert strict_stree.graph == supp
        assert jt.is_strict(strict_stree)


def test_support_tools_builds_one_table_walk(monkeypatch):
    # the support and the support tree each take one memoised table walk,
    # however many inner nodes the formula has
    calls = []
    real = F._edge_tables

    def counting(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(F, "_edge_tables", counting)
    g = F.sem_demorgan([F.dm_lit(i) for i in range(1, 13)], "and")
    supp, _, stree, _ = F.support_tools(g, 12)
    assert supp == from_edges(range(1, 13))
    assert stree.graph == supp
    assert len(calls) <= 2


def test_support_tools_honours_a_raised_limit(monkeypatch):
    with pytest.raises(ResourceLimitError, match="17 variables exceeds the 2\\^16 table limit"):
        F.support_tools(F.dm_lit(3), 17)
    monkeypatch.setattr(F, "EDGE_TABLE_LIMIT", 20)
    supp, _, stree, _ = F.support_tools(F.dm_lit(3), 17)
    assert supp == from_edges([3])
    assert stree.graph == supp


def test_restriction_neutralizes_out_of_graph_literals():
    g = F.dm_and(F.dm_lit(1), F.dm_lit(2, neg=True))
    restricted = F.dm_restrict(g, from_edges([1]))
    assert F.dm_truth_table(restricted, 2) == F.dm_truth_table(F.dm_lit(1), 2)


def test_strictify_and_restrict_keep_sharing():
    g = F.sem_demorgan([F.dm_lit(i) for i in range(1, 17)], "and")
    assert F.strictify_demorgan(g, 16) is g
    restricted = F.dm_restrict(g, from_edges(range(1, 9)))
    assert node_objects(restricted) <= node_objects(g)
    assert F.dm_truth_table(restricted, 16) == F.dm_truth_table(
        F.sem_demorgan([F.dm_lit(i) for i in range(1, 9)] + [F.dm_const(0)] * 8, "and"), 16
    )


# -- serialization -----------------------------------------------------------------------


def test_sexpr_round_trip():
    phi = F.build_matrix_formula("SigmaII", 2, 4, 2)
    back = F.from_sexpr(F.to_sexpr(phi))
    varlist = F.matrix_varlist(2, 4)
    assert F.truth_table(back, varlist) == F.truth_table(phi, varlist)
    assert F.size(back) == F.size(phi)


def test_sexpr_negative_literal_and_consts():
    phi = F.disj([F.lit(3, neg=True), F.const(1)])
    back = F.from_sexpr(F.to_sexpr(phi))
    assert F.to_sexpr(back) == F.to_sexpr(phi)


def test_json_round_trip_binary():
    g = F.dm_and(F.dm_lit(1), F.dm_or(F.dm_lit(2, neg=True), F.dm_const(0)))
    back = F.from_json_dict(F.to_json_dict(g), binary=True)
    assert back == g


def test_json_rejects_unknown_gate_and_bad_arity():
    data = {"xor": [{"lit": 1}, {"lit": 2}]}
    for binary in (False, True):
        with pytest.raises(ArityError):
            F.from_json_dict(data, binary=binary)
    with pytest.raises(ArityError):
        F.from_json_dict({"and": [{"lit": 1}, {"lit": 2}, {"lit": 3}]}, binary=True)
    with pytest.raises(ArityError):
        F.from_sexpr("(or (lit 1))", binary=True)


def test_sexpr_parses_edge_and_matrix_vars():
    phi = F.from_sexpr("(and (lit 1 2 2) (or (lit 5) (nlit 3)))")
    assert {v for v in F.variables(phi)} == {(1, 2, 2), 5, 3}


@pytest.mark.parametrize(
    "parse, data",
    [
        (F.from_sexpr, "(and (lit 1)"),
        (F.from_sexpr, "(lit)"),
        (F.from_sexpr, ""),
        (F.from_sexpr, "(lit x)"),
        (F.from_sexpr, "(const)"),
        (F.from_sexpr, "(const 2)"),
        (F.from_json_dict, {"and": 5}),
        (F.from_json_dict, {"const": 2}),
        (jt.JoinTree.from_json, {"node": [{"leaf": {"intervals": [[0, 1]]}}]}),
    ],
)
def test_parsers_raise_arity_errors(parse, data):
    with pytest.raises(ArityError):
        parse(data)


def test_a_deep_binary_chain_walks_on_explicit_stacks():
    # gate i joins the chain so far (left) and literal i (right), an AND
    # when i is odd: 10,000 literals, 5,000 AND gates on the left spine
    n = 10_000
    phi = F.lit(0)
    for i in range(1, n):
        phi = (F.conj if i % 2 else F.disj)([phi, F.lit(i)])
    dm = F.convert(phi, "right_deep")
    assert F.convert(phi, "balanced") == dm
    assert F.variables(phi) == F.variables(dm) == set(range(n))
    assert F.and_left_depth(dm) == n // 2
    assert (F.size(dm), F.depth(dm), F.and_depth(dm)) == (n, n - 1, n // 2)
    assert F.from_sexpr(F.to_sexpr(dm), binary=True) == dm
    assert F.to_sexpr(F.from_sexpr(F.to_sexpr(phi))) == F.to_sexpr(dm)
    assert F.from_json_dict(F.to_json_dict(dm), binary=True) == dm


# -- exhaustive strict counts ----------------------------------------------------------


def test_count_strict_depth0():
    assert F.count_strict_demorgan(1, 0) == 4
    assert F.count_strict_demorgan(2, 0) == 6


def test_count_strict_bounds():
    want = {(1, 1): 8, (1, 2): 8, (2, 1): 46, (3, 1): 308}
    for (k, d), exact in want.items():
        count = F.count_strict_demorgan(k, d)
        assert count == exact
        assert count <= 2 ** (2 ** ((d + 1) * (k + 1)))


def test_count_strict_formulas_are_strict_and_distinct():
    count, forms = F.count_strict_demorgan(2, 1, return_formulas=True)
    assert count == len(forms)
    assert len(set(forms)) == count
    for g in forms:
        assert F.is_strict_demorgan(g, 2)
    assert collections.Counter(F.sem_depth_demorgan(g) for g in forms) == {0: 6, 1: 40}
