"""Time the two exact optimum searches: the subset DP behind the ordering
oracle and the block DP of the shift optimum.

The subset DP sweep times the two bodies of ``_kernels.max_ordering_value``
(the plain-integer loop and the layered numpy DP) and the entry point itself
on the m single edges of a path (optimum ceil(m/2)), for each m, and prints
the crossover: the m from which the layered DP beats the loop
(``_kernels.PY_M`` rests on it).  The loop's time doubles and more with each
member, so it is timed only up to ``PY_MAX_M``.  Above ``PY_M`` the entry
reduces the path of edges to nothing before any DP runs, so its column
times the reductions alone; the clique column runs the entry on m members
that all share one vertex (optimum 1), which nothing reduces, so it times
one DP on all m members.

The Psi table times a fresh ``jointrees.psi`` on the tight trees of
``TIGHT_TREES``, on every strict Path_4 tree and on ``PSI_RANDOM_TREES``
seeded random strict trees of Path_2..8 (drawn as criterion 06 draws them),
and prints the subset DPs one pass runs.  Psi is cached on a tree, equal
trees are one object and the walk starts from the children's cached Psi,
so each pass first clears the cache on every node.  Each value is
checked against the plain-integer loop on every branch covering, walked
branch by branch apart from ``jointrees.branch_coverings``.

The shift optimum ``shifts.best_shift`` is timed on the m single edges of a
path (optimum ceil(m/2) as well), for each m.

The path layer is timed on seeded random sequences of m distinct graphs,
member j with 1 + j % 3 vertex-disjoint intervals of length 1..3 in
[0, 4m]: ``paths.vec_measures`` (all three objectives in one call),
``paths.union_all`` and ``shifts.best_shift`` for each objective.  Every
value is checked against a plain recomputation from ``ominus`` and
``union``, and for m <= ``ENUM_MAX_M`` each shift optimum also against all
2^(m-1) shift permutations.

The witness table times each of the six constructions of ``witnesses`` on
``WITNESS_COVERINGS`` seeded coverings of Path_k per k (unit coverings for
premain-I, chain coverings for premain-II and strong-shift premain mode,
random coverings for the rest), and re-checks each achieved value with
``paths.vec_measures`` of the returned ordering.

The minterm table times ``relations.minterms`` (mode M) of the flat product
formulas D and C on Path_k for each n and k, and checks each relation
against the endpoint square {alpha : alpha_0 = alpha_k = 1}.

The LP table times ``greedy.verify_lp_certificates(t)`` on the closed-form
certificates for each t, up to its ceiling ``greedy.LP_T_LIMIT``, and
checks that they verify for t <= 7, that from t = 8 on only dual
feasibility fails, and that t = 8..16 report exactly the violations
pinned in ``LP_FOUND`` (ROADMAP item 1).

The pathset table times ``relations.is_pathset`` on ``PATHSET_RELATIONS``
seeded relations per (n, k): random graphs of up to three components in
Path_k with at most ``PATHSET_MAX_TUPLES`` assignments, at densities 0.05,
0.2 and 0.5, and checks each verdict against a rational recomputation that
walks all 2^k subgraphs F of Path_k.  The chi row times
``relations.chi_decomposition_cost`` at (n, k) = (2, 3) on the D formula,
converted right-deep, under ``CHI_CASES`` seeded restrictions, each on a
seeded strict tree of Path_3, and checks each cost against the
ntilde^Psi * mu floor of the tree-shaped minterm subset.

The sampled-conversion row times ``formulas.randomized_conversion_value``
and ``formulas.randomized_conversion`` on Sigma_I (n, k, d) = (2, 4, 1) at
t = round(log2(size)^2) over ``SAMPLED_SEEDS`` seeds, and checks that each
value equals the materialised sample evaluated on the same input.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py [--dp-m 2..22] [--tight II,9,1 II,16,2 I,16,2]
                 [--shift-m 8..25]
                 [--paths-m 8 12 16 24 32] [--witness-k 6 14 22 30]
                 [--minterm-n 2 3 4] [--minterm-k 2 3 4] [--lp-t 1..16 24 32 48 64 96 128 160]
                 [--pathset-k 2..8] [--pathset-n 2 3] [--no-chi] [--no-sampled]
                 [--repeat 3]
"""

from __future__ import annotations

import argparse
import math
import random
import time
from fractions import Fraction
from itertools import product

from pathlab import _kernels, formulas, greedy, jointrees, relations, samples, shifts, witnesses
from pathlab.paths import EMPTY, PathGraph, full_path, single_edge, union_all, vec_measures

# largest m the plain-integer loop is timed at (14 takes about 0.1 s a call)
PY_MAX_M = 14
# (kind, k, d) of the tight trees whose Psi is timed: II (9, 1) has 128
# distinct branch coverings of 9 members that nothing reduces
TIGHT_TREES = (("II", 9, 1), ("II", 16, 2), ("I", 16, 2))
PSI_RANDOM_SEED = 60
PSI_RANDOM_TREES = 1000
# largest m whose shift optimum is also checked against every permutation
ENUM_MAX_M = 12
PATHS_SEED = 2024
PATHS_SEQUENCES = 20
OBJECTIVES = ("vec_delta", "vec_lambda", "vec_lambda_delta")
WITNESS_SEED = 401
WITNESS_COVERINGS = 20
# (name, covering generator, construction, position of the measure it reaches)
WITNESSES = (
    ("premain-I", samples.random_unit_covering, witnesses.construct_premain_I, 0),
    ("premain-II", samples.random_chain_covering, witnesses.construct_premain_II, 1),
    ("main-I", samples.random_covering, witnesses.construct_main_I, 2),
    ("main-II", samples.random_covering, witnesses.construct_main_II, 2),
    ("strong-premain", samples.random_chain_covering,
     lambda seq: witnesses.construct_strong_shift(seq, "premain"), 1),
    ("strong-gap", samples.random_covering, lambda seq: witnesses.construct_strong_shift(seq, "gap"), 1),
)
# the dual constraints the closed-form certificates miss at t = 8..16, one
# per violated length: (ones, zeros) of the column 1^ones 0^zeros
LP_FOUND = {
    8: [(6, 1)], 9: [(7, 1)], 10: [(7, 2)], 11: [(7, 3)], 12: [(8, 3)], 13: [(8, 4)], 14: [(8, 5)],
    15: [(12, 1), (9, 5)], 16: [(12, 2), (9, 6)],
}
PATHSET_SEED = 7331
PATHSET_RELATIONS = 30
PATHSET_MAX_TUPLES = 2048
CHI_CASES = 20
SAMPLED_SEEDS = 20

def _single_edge_conflicts(m: int) -> list[list[int]]:
    """Edge j conflicts with edges j-1 and j+1."""
    return [[(1 << (j - 1) if j else 0) | (1 << (j + 1) if j + 1 < m else 0)] for j in range(m)]


def _clique_conflicts(m: int) -> list[list[int]]:
    """Every member conflicts with every other one."""
    return [[((1 << m) - 1) ^ (1 << j)] for j in range(m)]


def _per_call(fn, arg, repeat: int) -> tuple[float, object]:
    fn(arg)  # warm up
    t0 = time.perf_counter()
    for _ in range(repeat):
        got = fn(arg)
    return (time.perf_counter() - t0) / repeat, got


def bench_subset_dp(m: int, repeat: int) -> dict:
    conflicts = _single_edge_conflicts(m)
    # small m takes microseconds: repeat until about 2^12 states were walked
    repeat = max(repeat, (1 << 12) >> m)
    bodies = {"numpy": _kernels._max_ordering_np, "entry": _kernels.max_ordering_value}
    if m <= PY_MAX_M:
        bodies["python"] = _kernels._max_ordering_py
    rows = {}
    for name, fn in bodies.items():
        rows[name], got = _per_call(fn, conflicts, repeat)
        assert got == (m + 1) // 2, (name, m, got)
    rows["clique"], got = _per_call(_kernels.max_ordering_value, _clique_conflicts(m), repeat)
    assert got == 1, ("clique", m, got)
    return rows


def _crossover(sweep: dict, small: str, large: str) -> str:
    """The least m from which body ``large`` is faster than ``small`` at
    every m the sweep timed both at."""
    both = sorted(m for m, rows in sweep.items() if small in rows and large in rows)
    losing = [m for m in both if sweep[m][large] >= sweep[m][small]]
    rest = [m for m in both if not losing or m > losing[-1]]
    if rest:
        return f"from m = {rest[0]}"
    return f"at no m up to {both[-1]}" if both else "(not timed)"


def _exhaustive_psi(tree: jointrees.JoinTree) -> int:
    """Psi by its definition: the largest plain-integer-loop value over the
    branch coverings, walked here one root-to-leaf branch at a time."""
    seen: set[frozenset] = set()
    stack = [(tree, ())]
    while stack:
        x, sibs = stack.pop()
        if x.is_leaf:
            seen.add(frozenset(g for g in sibs + (x.graph,) if g))
        else:
            stack.append((x.left, sibs + (x.right.graph,)))
            stack.append((x.right, sibs + (x.left.graph,)))
    return max(_kernels._max_ordering_py(jointrees._conflict_masks(sorted(c))) for c in seen)


def _time_psi(trees: list, repeat: int) -> tuple[float, int]:
    """Seconds per tree of a fresh ``psi`` over ``trees`` (best of ``repeat``
    passes, each clearing first every cached Psi and covering size under
    each tree, since the walk starts from the children's cached Psi), and
    the subset DPs one pass runs; every value is checked against
    ``_exhaustive_psi``."""
    dps = 0
    real = jointrees.max_vec_delta_over_orderings

    def counting(cov, limit):
        nonlocal dps
        dps += 1
        return real(cov, limit)

    best = float("inf")
    jointrees.max_vec_delta_over_orderings = counting
    try:
        for _ in range(repeat):
            for t in trees:
                for x in jointrees._postorder(t):
                    x._psi = x._psi_size = None
            t0 = time.perf_counter()
            values = [jointrees.psi(t) for t in trees]
            best = min(best, time.perf_counter() - t0)
    finally:
        jointrees.max_vec_delta_over_orderings = real
    for t, value in zip(trees, values):
        assert value == _exhaustive_psi(t), (t.pretty(), value)
    return best / len(trees), dps // repeat


def bench_psi(kind: str, k: int, d: int, repeat: int) -> tuple[float, int]:
    return _time_psi([jointrees.build_tight(kind, k, d)], repeat)


def _random_strict_trees() -> list[jointrees.JoinTree]:
    rng = random.Random(PSI_RANDOM_SEED)
    return [samples.random_strict_tree(rng, full_path(rng.randint(2, 8))) for _ in range(PSI_RANDOM_TREES)]


def bench_best_shift(m: int, repeat: int) -> float:
    seq = [single_edge(i) for i in range(1, m + 1)]
    seconds, (_, value) = _per_call(shifts.best_shift, seq, repeat)
    assert value == (m + 1) // 2, (m, value)
    return seconds


def _distinct_sequence(rng: random.Random, m: int) -> list[PathGraph]:
    """m distinct graphs in [0, 4m]; member j has 1 + j % 3 vertex-disjoint
    intervals of length 1..3."""
    hi = 4 * m
    seen: set[PathGraph] = set()
    out = []
    for j in range(m):
        while True:
            ivs: list[tuple[int, int]] = []
            while len(ivs) < 1 + j % 3:
                s = rng.randint(0, hi - 1)
                t = min(hi, s + rng.randint(1, 3))
                if all(t < s2 or t2 < s for s2, t2 in ivs):
                    ivs.append((s, t))
            g = PathGraph(ivs)
            if g not in seen:
                break
        seen.add(g)
        out.append(g)
    return out


def _reference_measures(seq) -> tuple[int, int, int]:
    """The vector measures recomputed from ``ominus`` and ``union``."""
    total = [0, 0, 0]
    acc = EMPTY
    for g in seq:
        r = g.ominus(acc)
        total[0] += r.delta
        total[1] += r.lam
        total[2] += r.lam * r.delta
        acc = acc.union(g)
    return tuple(total)


def _per_call_over(fn, inputs, repeat: int) -> tuple[float, list]:
    """Mean seconds per call of ``fn`` over ``inputs`` (best of ``repeat``
    passes), and the values of the last pass."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        got = [fn(x) for x in inputs]
        best = min(best, time.perf_counter() - t0)
    return best / len(inputs), got


def bench_paths(m: int, repeat: int) -> dict:
    rng = random.Random(f"{PATHS_SEED}:{m}")
    seqs = [_distinct_sequence(rng, m) for _ in range(PATHS_SEQUENCES)]
    rows = {}
    rows["vec_measures"], got = _per_call_over(vec_measures, seqs, repeat)
    assert got == [_reference_measures(seq) for seq in seqs], ("vec_measures", m)
    rows["union_all"], got = _per_call_over(union_all, seqs, repeat)
    for seq, u in zip(seqs, got):
        want = EMPTY
        for g in seq:
            want = want.union(g)
        assert u == want, ("union_all", m)
    for code, objective in enumerate(OBJECTIVES):
        rows[objective], got = _per_call_over(lambda seq: shifts.best_shift(seq, objective), seqs, repeat)
        for seq, (sigma, value) in zip(seqs, got):
            assert value == _reference_measures(sigma.apply(seq))[code], (objective, m)
            if m <= ENUM_MAX_M:
                top = max(_reference_measures(s.apply(seq))[code] for s in shifts.enumerate_all(m))
                assert value == top, (objective, m, value, top)
    return rows


def bench_witnesses(k: int, repeat: int) -> dict:
    rng = random.Random(f"{WITNESS_SEED}:{k}")
    rows = {}
    for name, generate, construct, code in WITNESSES:
        seqs = [generate(rng, k) for _ in range(WITNESS_COVERINGS)]
        rows[name], got = _per_call_over(construct, seqs, repeat)
        for seq, res in zip(seqs, got):
            if isinstance(res.ordering, shifts.ShiftPermutation):
                ordered = res.ordering.apply(seq)
            else:
                ordered = [seq[j - 1] for j in res.ordering]
            assert res.achieved == vec_measures(ordered)[code], (name, k)
    return rows


def bench_minterms(n: int, k: int, repeat: int) -> dict:
    square = {t for t in product(range(1, n + 1), repeat=k + 1) if t[0] == t[-1] == 1}
    rows = {}
    for kind in ("D", "C"):
        evaluator = relations.formula_evaluator(formulas.build_matrix_formula(kind, n, k))
        run = lambda g: relations.minterms(evaluator, g, "M", n).tuples
        rows[kind], got = _per_call_over(run, [full_path(k)], repeat)
        assert got == [square], (kind, n, k)
    return rows


def bench_lp(t: int, repeat: int) -> float:
    seconds, (report,) = _per_call_over(greedy.verify_lp_certificates, [t], repeat)
    if t <= 7:
        assert report["ok"], (t, report["violated"])
    else:
        assert report["primal_ok"] and report["identities_ok"] and not report["dual_ok"], t
    if t in LP_FOUND:
        want = [f"(star_{(1,) * ones + (0,) * zeros}): dual constraint violated" for ones, zeros in LP_FOUND[t]]
        assert report["violated"] == want, (t, report["violated"])
    return seconds


def _rational_is_pathset(a: relations.Relation, n: int, k: int) -> bool:
    """mu(A | F)^k <= n^(-(k-1) delta(G - F)) for every F of the 2^k
    subgraphs of Path_k, in rationals, counting each conditional density
    from the assignments."""
    for f in relations.subgraphs_of_path(k):
        shared = [v for v in a.verts if f.has_vertex(v)]
        counts: dict[tuple, int] = {}
        for x in a.assignments():
            key = tuple(x[v] for v in shared)
            counts[key] = counts.get(key, 0) + 1
        mu = Fraction(max(counts.values(), default=0), n ** (len(a.verts) - len(shared)))
        if mu**k > Fraction(1, n ** ((k - 1) * a.graph.ominus(f).delta)):
            return False
    return True


def bench_pathset(n: int, k: int, repeat: int) -> tuple[float, int]:
    """Mean seconds per ``is_pathset`` call and the number of pathsets."""
    rng = random.Random(f"{PATHSET_SEED}:{n}:{k}")
    rels = []
    while len(rels) < PATHSET_RELATIONS:
        g = samples.random_pathgraph(rng, 0, k, max_comps=3)
        if g and n**g.num_vertices <= PATHSET_MAX_TUPLES:
            rels.append(samples.random_relation(rng, g, n, rng.choice([0.05, 0.2, 0.5])))
    params = relations.PathsetParams(n, k)
    seconds, got = _per_call_over(lambda a: relations.is_pathset(a, params), rels, repeat)
    for a, verdict in zip(rels, got):
        assert verdict == _rational_is_pathset(a, n, k), (n, k, a)
    return seconds, sum(got)


def _substitute_ones(g, edges):
    """g with every literal on one of ``edges`` replaced by the constant 1."""
    return jointrees.relabel_leaves(g, lambda x: formulas.dm_const(1) if x.op == "lit" and x.var in edges else x)


def bench_chi(repeat: int) -> float:
    n, k = 2, 3
    rng = random.Random(f"{PATHSET_SEED}:chi")
    trees = list(jointrees.enumerate_strict(full_path(k)))
    dm = formulas.convert(formulas.build_matrix_formula("D", n, k), "right_deep")
    cases = [
        (_substitute_ones(dm, relations.sample_xi(n, k, rng.randrange(1 << 20)).xi_edges()), rng.choice(trees))
        for _ in range(CHI_CASES)
    ]
    params = relations.PathsetParams(n, k)
    seconds, got = _per_call_over(lambda c: relations.chi_decomposition_cost(c[1], None, c[0], params), cases, repeat)
    for (fx, tree), cost in zip(cases, got):
        mgt = relations.restricted_minterms(fx, full_path(k), tree, n)
        assert relations.exceeds_ntilde_bound(cost, params, jointrees.psi(tree), mgt), (tree.pretty(), cost)
    return seconds


def bench_sampled(repeat: int) -> dict:
    n, k = 2, 4
    phi = formulas.build_matrix_formula("SigmaI", n, k, 1)
    t = max(1, round(math.log2(formulas.size(phi)) ** 2))
    env = formulas.matrix_env(tuple(formulas.random_subperm_matrix(n, random.Random(PATHSET_SEED)) for _ in range(k)))
    seeds = range(SAMPLED_SEEDS)
    rows = {}
    rows["value"], values = _per_call_over(lambda s: formulas.randomized_conversion_value(phi, t, s, env), seeds, repeat)
    rows["materialize"], samples_ = _per_call_over(lambda s: formulas.randomized_conversion(phi, t, s), seeds, repeat)
    assert values == [formulas.evaluate(g, env) for g in samples_], "sampled values"
    return rows


def _ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:12.3f}" if seconds is not None else f"{'--':>12}"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dp-m", type=int, nargs="*", default=list(range(2, 23)))
    parser.add_argument("--tight", nargs="*", default=[f"{kd},{k},{d}" for kd, k, d in TIGHT_TREES])
    parser.add_argument("--shift-m", type=int, nargs="*", default=list(range(8, 26)))
    parser.add_argument("--paths-m", type=int, nargs="*", default=[8, 12, 16, 24, 32])
    parser.add_argument("--witness-k", type=int, nargs="*", default=[6, 14, 22, 30])
    parser.add_argument("--minterm-n", type=int, nargs="*", default=[2, 3, 4])
    parser.add_argument("--minterm-k", type=int, nargs="*", default=[2, 3, 4])
    parser.add_argument(
        "--lp-t", type=int, nargs="*", default=[*range(1, 17), 24, 32, 48, 64, 96, 128, greedy.LP_T_LIMIT]
    )
    parser.add_argument("--pathset-k", type=int, nargs="*", default=list(range(2, 9)))
    parser.add_argument("--pathset-n", type=int, nargs="*", default=[2, 3])
    parser.add_argument("--chi", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--sampled", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.dp_m:
        print(
            f"subset DP, ms per call; max_ordering_value runs the python loop for m <= {_kernels.PY_M} "
            "and the numpy layers above"
        )
        print(f"{'m':>4}{'python':>12}{'numpy':>12}{'entry':>12}{'clique':>12}")
        sweep = {}
        for m in args.dp_m:
            rows = sweep[m] = bench_subset_dp(m, args.repeat)
            cells = "".join(_ms(rows.get(name)) for name in ("python", "numpy", "entry", "clique"))
            print(f"{m:>4}{cells}")
        print(f"numpy faster than python {_crossover(sweep, 'python', 'numpy')} (PY_M = {_kernels.PY_M})")
    if args.tight:
        print("\nfresh Psi, ms per tree; subset DPs per pass")
        print(f"{'trees':>22}{'psi':>12}{'DPs':>8}")
        rows = {}
        for spec in args.tight:
            kind, k, d = spec.split(",")
            rows[spec] = bench_psi(kind, int(k), int(d), args.repeat)
        rows["strict Path_4"] = _time_psi(list(jointrees.enumerate_strict(full_path(4))), args.repeat)
        rows[f"{PSI_RANDOM_TREES} random strict"] = _time_psi(_random_strict_trees(), args.repeat)
        for name, (seconds, dps) in rows.items():
            print(f"{name:>22}{_ms(seconds)}{dps:>8}")
    if args.shift_m:
        print("\nshift optimum (block DP), ms per call")
        print(f"{'m':>4}{'best_shift':>12}")
        for m in args.shift_m:
            print(f"{m:>4}{_ms(bench_best_shift(m, args.repeat))}")
    if args.paths_m:
        print(f"\npath layer, ms per call over {PATHS_SEQUENCES} sequences (seed {PATHS_SEED}); best_shift per objective")
        print(f"{'m':>4}{'vec_measures':>14}{'union_all':>12}" + "".join(f"{o:>18}" for o in OBJECTIVES))
        for m in args.paths_m:
            rows = bench_paths(m, args.repeat)
            cells = "".join(f"{_ms(rows[o]):>18}" for o in OBJECTIVES)
            print(f"{m:>4}{_ms(rows['vec_measures']):>14}{_ms(rows['union_all'])}{cells}")
    if args.witness_k:
        names = [w[0] for w in WITNESSES]
        print(f"\nwitness constructions, ms per call over {WITNESS_COVERINGS} coverings of Path_k (seed {WITNESS_SEED})")
        print(f"{'k':>4}" + "".join(f"{n:>16}" for n in names))
        for k in args.witness_k:
            rows = bench_witnesses(k, args.repeat)
            print(f"{k:>4}" + "".join(f"{_ms(rows[n]):>16}" for n in names))
    if args.minterm_n and args.minterm_k:
        print("\nminterm relations (mode M) of the flat product formulas on Path_k, ms per call")
        print(f"{'n':>4}{'k':>4}{'D':>12}{'C':>12}")
        for n in args.minterm_n:
            for k in args.minterm_k:
                rows = bench_minterms(n, k, args.repeat)
                print(f"{n:>4}{k:>4}{_ms(rows['D'])}{_ms(rows['C'])}")
    if args.lp_t:
        print("\nLP certificate check on the closed-form certificates, ms per call")
        print(f"{'t':>4}{'verify_lp':>12}")
        for t in args.lp_t:
            print(f"{t:>4}{_ms(bench_lp(t, args.repeat))}")
    if args.pathset_k and args.pathset_n:
        print(f"\npathset predicate, ms per call over {PATHSET_RELATIONS} relations (seed {PATHSET_SEED}); "
              "pathsets among them")
        print(f"{'n':>4}{'k':>4}{'is_pathset':>12}{'pathsets':>10}")
        for n in args.pathset_n:
            for k in args.pathset_k:
                seconds, hits = bench_pathset(n, k, args.repeat)
                print(f"{n:>4}{k:>4}{_ms(seconds)}{hits:>10}")
    if args.chi:
        print(f"\nchi_decomposition_cost at (n, k) = (2, 3), ms per call over {CHI_CASES} restrictions: "
              f"{_ms(bench_chi(args.repeat)).strip()}")
    if args.sampled:
        rows = bench_sampled(args.repeat)
        print(f"\nsampled conversion of Sigma_I (2, 4, 1), ms per call over {SAMPLED_SEEDS} seeds")
        print(f"{'value':>12}{'materialize':>12}")
        print(f"{_ms(rows['value'])}{_ms(rows['materialize'])}")


if __name__ == "__main__":
    main()
