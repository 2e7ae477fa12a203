"""The three benchmark workloads, generated from a seed.

A *verdict* is one checked unit of work: ``run`` calls pathlab, ``check``
compares the answer with a golden value or with the reference computations
in ``oracles`` and returns ``None`` when it agrees, else a reason.  A
*block* is a list of verdicts whose shape (kinds, sizes, counts) is the same
in every block of a workload and whose contents come from the seed and the
block's index alone, so block ``b`` has the same inputs, and the same digest,
however fast the code under test runs and however many blocks a run reaches.
``WORKLOADS[name](seed, inputs_dir)`` returns the function that makes block
``b``.

Why these workloads (each exercises layers the others leave idle):

* ``tradeoff``: Psi on thousands of small join trees, each checked for
  kind I and kind II, so the subset DP runs at m <= 8 and a tree repeats
  inside every verdict.  The shift optimum is never called.
* ``orderings``: exhaustive searches with no repeated input: the subset DP
  at m = 16..21, the shift optimum at m = 8..16 and the witness
  constructions.  Small-m or memo changes must leave it flat.
* ``algebra``: truth tables, formula conversions, minterm scans, relation
  joins, Monte Carlo restrictions and LP certificates.  Psi runs on one
  tree per sub-round, so Psi and DP changes must leave it flat.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable

import pathlab.cli as cli
import pathlab.formulas as F
import pathlab.greedy as greedy
import pathlab.jointrees as jt
import pathlab.relations as R
import pathlab.samples as samples
import pathlab.shifts as shifts
import pathlab.witnesses as wit
from pathlab.paths import PathGraph, full_path, sequence_to_json, single_edge

import oracles

DATA = Path(__file__).resolve().parent.parent / "data"

OBJECTIVES = ("vec_delta", "vec_lambda", "vec_lambda_delta")

# goldens from the paper, as pinned by the acceptance suite
GOLDEN_OVERLAP_PSI = 1
GOLDEN_README = {
    ("vecdelta", "edges25.json", None): 1,
    ("vecdelta", "edges25.json", "odd-even"): 13,
    ("vecdelta", "stride25.json", "I:15,25"): 7,
    ("gap", "whole_path10.json", None): "5",
}
GOLDEN_DEPTHS_BLOCK16 = {"standard": 6, "left": 6, "sem": 2}
WITNESS_KS = (6, 14, 22, 30)
TIGHT_CASES = (("I", 4, 1), ("I", 4, 2), ("I", 8, 3), ("I", 16, 2), ("II", 4, 1), ("II", 9, 1), ("II", 16, 2))


@dataclass
class Verdict:
    kind: str
    key: str  # canonical text of the input; its digest names the input
    run: Callable[[], object]
    check: Callable[[object], str | None]


def seq_key(seq) -> str:
    return repr([g.intervals for g in seq])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``pathlab.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_verdict(kind: str, argv: list[str], check: Callable[[dict], str | None], key: str | None = None) -> Verdict:
    """A README-style command; ``key`` replaces the command line as the input
    text when the command reads a generated file."""

    def checked(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return check(json.loads(text))

    return Verdict(kind, key or " ".join(argv), lambda: run_cli(argv), checked)


def expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def separated_graph(rng: random.Random, comps: int, lo: int, hi: int) -> PathGraph:
    """``comps`` pairwise vertex-disjoint intervals of length 1..3 in [lo, hi]."""
    while True:
        out = []
        for _ in range(comps):
            s = rng.randint(lo, hi - 1)
            out.append((s, min(hi, s + rng.randint(1, 3))))
        if all(not oracles.touches(a, out[:i]) for i, a in enumerate(out)):
            return PathGraph(out)


def distinct_sequence(rng: random.Random, m: int, lo: int, hi: int) -> list[PathGraph]:
    """m distinct nonempty graphs; member j has 1 + j % 3 components, so the
    work per member is the same under every seed."""
    seen: set = set()
    out = []
    for j in range(m):
        while True:
            g = separated_graph(rng, 1 + j % 3, lo, hi)
            if g not in seen:
                break
        seen.add(g)
        out.append(g)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------


def tradeoff_blocks(seed: int, inputs_dir: Path) -> Callable[[int], list[Verdict]]:
    path4 = list(jt.enumerate_strict(full_path(4)))
    small_trees = sum(1 for k in range(1, 4) for _ in jt.enumerate_strict(full_path(k)))
    # oracle optimum per covering, shared by the checks of one block; emptied
    # for each block, so the run's memory does not grow with its block count
    memo: dict = {}

    def tree_verdict(kind: str, tree) -> Verdict:
        def run():
            return jt.verify_tradeoff(tree, "I"), jt.verify_tradeoff(tree, "II")

        def check(out):
            (ok1, psi1, _), (ok2, psi2, _) = out
            if not (ok1 and ok2):
                return f"tradeoff violated (I {ok1}, II {ok2})"
            return expect((psi1, psi2), (oracles.psi(tree, memo),) * 2, "psi (I, II)")

        return Verdict(kind, tree.pretty(), run, check)

    def recurrence_verdict(tree) -> Verdict:
        spine = 1
        node = tree
        while node.left is not None:
            spine += 1
            node = node.right
        sq_checks = sum(math.factorial(j) for j in range(1, min(spine, 3) + 1))

        def check(rep):
            if not rep["ok"]:
                return f"violations {rep['violations'][:2]}"
            if rep["checked"] < sq_checks:
                return f"checked {rep['checked']} < {sq_checks} sq cases"
            return None

        return Verdict(
            "tradeoff.recurrences",
            tree.pretty(),
            lambda: jt.check_psi_recurrences(tree, perm_limit=3, shift_m_limit=5),
            check,
        )

    def overlap_verdict(k: int) -> Verdict:
        def check(value):
            return expect(value, GOLDEN_OVERLAP_PSI, f"psi(maximally_overlapping({k}))") or expect(
                value, oracles.psi(jt.maximally_overlapping(k)), "oracle psi"
            )

        return Verdict("tradeoff.overlap", f"overlap {k}", lambda: jt.psi(jt.maximally_overlapping(k)), check)

    def tight_verdict(kind: str, k: int, d: int) -> Verdict:
        ell = round(k ** (1 / d)) if kind == "I" else round(k ** (1 / (2 * d)))

        def run():
            tree = jt.build_tight(kind, k, d)
            return tree, jt.psi(tree)

        def check(out):
            tree, value = out
            # kind I: psi <= d k^(1/d) / 2;  kind II: psi <= 2 d k^(1/(2d))
            ok = 2 * value <= d * ell if kind == "I" else value <= 2 * d * ell
            if not ok:
                return f"psi {value} above the {kind} bound at k={k}, d={d}"
            return expect(value, oracles.psi(tree, memo), "oracle psi")

        return Verdict("tradeoff.tight", f"tight {kind} {k} {d}", run, check)

    def cli_verdicts(b: int, r: int) -> list[Verdict]:
        s = f"{seed}{b:05d}{r}"
        return [
            cli_verdict(
                "tradeoff.cli",
                ["measure", "psi", "--tree", str(DATA / "overlap_tree5.json"), "--format", "json"],
                lambda rep: expect(rep["value"], GOLDEN_OVERLAP_PSI, "psi overlap_tree5"),
            ),
            cli_verdict(
                "tradeoff.cli",
                ["measure", "depths", "--tree", str(DATA / "block_tree16.json"), "--format", "json"],
                lambda rep: expect({k: rep[k] for k in GOLDEN_DEPTHS_BLOCK16}, GOLDEN_DEPTHS_BLOCK16, "depths"),
            ),
            cli_verdict(
                "tradeoff.cli",
                ["verify", f"tradeoff-{'I' if r % 2 else 'II'}", "--enumerate-k", "3", "--trials", "10",
                 "--seed", s, "--format", "json"],
                lambda rep: expect((rep["ok"], rep["checked"]), (True, small_trees + 10), "tradeoff suite"),
            ),
            cli_verdict(
                "tradeoff.cli",
                ["verify", "psi-recurrences", "--trials", "2", "--seed", s, "--format", "json"],
                lambda rep: expect(rep["ok"], True, "psi-recurrences ok"),
            ),
        ]

    def block(b: int) -> list[Verdict]:
        """Seven sub-rounds: every overlap size 1..7 and every tight case once."""
        rng = random.Random(f"tradeoff:{seed}:{b}")
        memo.clear()
        out = []
        for r in range(7):
            out += [tree_verdict("tradeoff.path4", path4[rng.randrange(len(path4))]) for _ in range(40)]
            out += [
                tree_verdict("tradeoff.random", samples.random_strict_tree(rng, full_path(2 + i % 7)))
                for i in range(42)
            ]
            for _ in range(2):
                parts = [samples.random_jointree(rng, k=5, leaves=rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
                out.append(recurrence_verdict(jt.sem(parts) if rng.random() < 0.5 else jt.sq(parts)))
            out.append(overlap_verdict(1 + r))
            out.append(tight_verdict(*TIGHT_CASES[r]))
            out += cli_verdicts(b, r)
        return out

    return block


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------


def orderings_blocks(seed: int, inputs_dir: Path) -> Callable[[int], list[Verdict]]:

    def dp_verdict(kind: str, seq, want: int) -> Verdict:
        return Verdict(
            kind,
            seq_key(seq),
            lambda: jt.max_vec_delta_over_orderings(seq),
            lambda value: expect(value, want, "ordering optimum"),
        )

    def single_edges(rng: random.Random, m: int) -> Verdict:
        off = rng.randint(0, 40)
        seq = [single_edge(i + off) for i in range(1, m + 1)]
        rng.shuffle(seq)
        return dp_verdict("orderings.dp_edges", seq, (m + 1) // 2)

    def grouped(rng: random.Random, m: int) -> Verdict:
        """Vertex-disjoint groups of 3..6 members: the optimum is the sum of
        the groups' optima, each small enough for the reference DP."""
        sizes = []
        while sum(sizes) < m:
            sizes.append(min(rng.randint(3, 6), m - sum(sizes)))
        seq, want, lo = [], 0, 0
        for size in sizes:
            group = distinct_sequence(rng, size, lo, lo + 8)
            want += oracles.ordering_optimum([g.intervals for g in group])
            seq += group
            lo += 12
        rng.shuffle(seq)
        return dp_verdict("orderings.dp_groups", seq, want)

    def shift_verdict(seq, objective: str) -> Verdict:
        m = len(seq)
        code = OBJECTIVES.index(objective)
        plain = [g.intervals for g in seq]

        def check(out):
            sigma, value = out
            if sigma.perm != oracles.shift_perm(m, sigma.index_set) or m not in sigma.index_set:
                return f"witness {sigma!r} is not sigma_I"
            bad = expect(value, oracles.measures(oracles.apply(sigma.perm, plain))[code], "witness value")
            if bad:
                return bad
            if objective == "vec_delta":
                dp = jt.max_vec_delta_over_orderings(seq)
                if value > dp:
                    return f"shift optimum {value} above the ordering optimum {dp}"
            if m <= 10:
                scored = [
                    (oracles.measures(oracles.apply(s.perm, plain))[code], sorted(s.index_set))
                    for s in shifts.enumerate_all(m)
                ]
                top = max(v for v, _ in scored)
                want = (top, min(i for v, i in scored if v == top))
                return expect((value, sorted(sigma.index_set)), want, "brute-force (value, lex-min I)")
            return None

        return Verdict(
            f"orderings.shift_m{m}", f"{objective} {seq_key(seq)}", lambda: shifts.best_shift(seq, objective), check
        )

    def need(ok: bool, what: str) -> str | None:
        return None if ok else f"guarantee missed: {what}"

    def strong_premain_floor(a, extras, k, ell, plain):
        return need(a >= Fraction(k, 8) - Fraction(ell, 2), "k/8 - l/2") or need(
            2 * extras["tilde_min"] >= 1, "induced value 1/2"
        )

    def strong_gap_floor(a, extras, k, ell, plain):
        g = oracles.gap(plain, k)
        return need(a >= (g - 3 * ell) / 4, "(gap - 3l)/4") or need(
            extras["tilde_min"] >= Fraction(k) / (4 * g), "induced value k/(4 gap)"
        )

    # (name, covering generator, construction, measure it guarantees, floor)
    constructions = (
        ("premain_I", samples.random_unit_covering, lambda seq: wit.construct_premain_I(seq), 0,
         lambda a, x, k, ell, p: need(6 * a >= k, "k/6")),
        ("premain_II", samples.random_chain_covering, lambda seq: wit.construct_premain_II(seq), 1,
         lambda a, x, k, ell, p: need(4 * a >= k, "k/4")),
        ("main_I", samples.random_covering, lambda seq: wit.construct_main_I(seq), 2,
         lambda a, x, k, ell, p: need(30 * a >= k, "k/30")),
        ("main_II", samples.random_covering, lambda seq: wit.construct_main_II(seq), 2,
         lambda a, x, k, ell, p: need(8 * a * a >= k, "sqrt(k/8)")),
        ("strong_premain", samples.random_chain_covering,
         lambda seq: wit.construct_strong_shift(seq, "premain"), 1, strong_premain_floor),
        ("strong_gap", samples.random_covering, lambda seq: wit.construct_strong_shift(seq, "gap"), 1, strong_gap_floor),
    )

    def witness_verdict(rng: random.Random) -> Verdict:
        """Every construction on a fresh covering of Path_k for each k in
        WITNESS_KS (Path_24 at most for the split constructions), so every
        verdict does the same amount of work.  Each achieved value is checked
        by re-measuring the returned ordering, then against the lemma's
        guarantee in exact arithmetic."""
        cases = []
        for k in WITNESS_KS:
            for c in constructions:
                name, generate = c[:2]
                cases.append((c, generate(rng, min(k, 24) if name.startswith("strong") else k)))

        def run():
            return [c[2](seq) for c, seq in cases]

        def check(results):
            for ((name, _, _, measure, floor), seq), res in zip(cases, results):
                plain = [g.intervals for g in seq]
                k = max(t for g in plain for _, t in g)
                ell = max(t - s for g in plain for s, t in g)
                order = res.ordering.perm if isinstance(res.ordering, shifts.ShiftPermutation) else res.ordering
                got = oracles.measures(oracles.apply(order, plain))[measure]
                bad = expect(res.achieved, got, "achieved value") or floor(res.achieved, res.extras, k, ell, plain)
                if bad:
                    return f"{name} at k={k}: {bad}"
            return None

        return Verdict("orderings.witnesses", "witnesses " + " ".join(seq_key(seq) for _, seq in cases), run, check)

    def best_shift_cli(rng: random.Random, b: int) -> Verdict:
        seq = distinct_sequence(rng, 12, 0, 40)
        code = b % 3
        path = inputs_dir / f"orderings-{seed}-{b}.json"
        path.write_text(json.dumps(sequence_to_json(seq)))
        plain = [g.intervals for g in seq]

        def check(rep):
            best = max(
                oracles.measures(oracles.apply(oracles.shift_perm(12, set(c) | {12}), plain))[code]
                for n in range(12)
                for c in combinations(range(1, 12), n)
            )
            return expect(rep["value"], best, "best-shift value")

        argv = ["measure", "best-shift", "--seq", str(path), "--objective", OBJECTIVES[code], "--format", "json"]
        return cli_verdict("orderings.cli", argv, check, key=" ".join(argv[:2] + argv[4:]) + " " + seq_key(seq))

    def cli_verdicts(rng: random.Random, b: int) -> list[Verdict]:
        out = []
        for (what, name, order), want in GOLDEN_README.items():
            argv = ["measure", what, "--seq", str(DATA / name), "--format", "json"]
            if order:
                argv[4:4] = ["--order", order]
            out.append(
                cli_verdict("orderings.cli", argv, lambda rep, want=want: expect(rep["value"], want, "README value"))
            )
        out.append(best_shift_cli(rng, b))
        out.append(
            cli_verdict(
                "orderings.cli",
                ["verify", "delta-props", "--trials", "100", "--seed", f"{seed}{b:05d}", "--format", "json"],
                lambda rep: expect(rep["ok"], True, "delta-props ok"),
            )
        )
        return out

    def block(b: int) -> list[Verdict]:
        rng = random.Random(f"orderings:{seed}:{b}")
        out = [single_edges(rng, m) for m in (16, 18, 20)]
        out += [grouped(rng, m) for m in (17, 19, 21)]
        for m in (8, 10, 12, 14):
            seq = distinct_sequence(rng, m, 0, 40)
            out += [shift_verdict(seq, obj) for obj in OBJECTIVES]
        out.append(shift_verdict(distinct_sequence(rng, 16, 0, 40), OBJECTIVES[b % 3]))
        out += [witness_verdict(rng) for _ in range(20)]
        out += cli_verdicts(rng, b)
        return out

    return block


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def random_monotone(rng: random.Random, n: int, k: int) -> F.Formula:
    pool = F.matrix_varlist(n, k)
    return F.disj(
        [F.conj([F.lit(rng.choice(pool)) for _ in range(rng.randint(1, 3))]) for _ in range(rng.randint(2, 5))]
    )


def endpoint_square(n: int, k: int, a0: int, ak: int) -> frozenset:
    return frozenset(t for t in product(range(1, n + 1), repeat=k + 1) if t[0] == a0 and t[-1] == ak)


def algebra_blocks(seed: int, inputs_dir: Path) -> Callable[[int], list[Verdict]]:
    rng = random.Random()  # reseeded for each block
    path3 = list(jt.enumerate_strict(full_path(3)))
    memo: dict = {}

    def endpoints(n: int) -> tuple[int, int]:
        return rng.randint(1, n), rng.randint(1, n)

    def exhaustive(kind: str, input_class: str, count: int) -> Verdict:
        a0, ak = endpoints(2)
        phi = F.build_matrix_formula(kind, 2, 5, 1, a0, ak)
        probes = [rng.randrange(1 << 20) for _ in range(8)]

        def check(rep):
            bad = expect((rep["ok"], rep["checked"]), (True, count), "exhaustive check")
            if input_class != "any":  # the C form is only correct on sub-permutation inputs
                return bad
            for index in probes:
                mats = oracles.matrices_of(index, 2, 5)
                env = lambda var, mats=mats: mats[var[0] - 1][var[1] - 1][var[2] - 1]
                bad = bad or expect(
                    oracles.evaluate(phi, env), oracles.product_entry(mats, a0, ak), f"formula at input {index}"
                )
            return bad

        return Verdict(
            f"algebra.formula_{kind}",
            f"{kind} 2 5 {a0} {ak} {input_class}",
            lambda: F.check_formula_correct(phi, 2, 5, input_class=input_class, a0=a0, ak=ak),
            check,
        )

    def conversion(phi) -> Verdict:
        varlist = F.matrix_varlist(2, 4)
        probes = [rng.randrange(1 << 16) for _ in range(16)]

        def run():
            return [F.truth_table(f, varlist) for f in (phi, F.convert(phi, "right_deep"), F.convert(phi, "balanced"))]

        def check(tables):
            if len(set(tables)) != 1:
                return "conversion changed the truth table"
            for index in probes:
                mats = oracles.matrices_of(index, 2, 4)
                env = lambda var, mats=mats: mats[var[0] - 1][var[1] - 1][var[2] - 1]
                if (tables[0] >> index) & 1 != oracles.evaluate(phi, env):
                    return f"truth table bit {index} disagrees with evaluation"
            return None

        return Verdict("algebra.convert", F.to_sexpr(phi), run, check)

    def sampled_conversion() -> Verdict:
        a0, ak = endpoints(2)
        phi = F.build_matrix_formula("D", 2, 4, 1, a0, ak)
        t = max(1, round(math.log2(F.size(phi)) ** 2))
        mats = tuple(F.random_subperm_matrix(2, rng) for _ in range(4))
        seeds = [rng.randrange(1 << 30) for _ in range(10)]

        def run():
            env = F.matrix_env(mats)
            return [F.randomized_conversion_value(phi, t, s, env) for s in seeds]

        def check(values):
            env = lambda var: mats[var[0] - 1][var[1] - 1][var[2] - 1]
            want = [oracles.evaluate(F.randomized_conversion(phi, t, s), env) for s in seeds]
            return expect(values, want, "sampled conversion values")

        return Verdict("algebra.sampled_conversion", f"D 2 4 {a0} {ak} {mats} {seeds}", run, check)

    def minterm(kind: str, n: int, k: int) -> Verdict:
        a0, ak = endpoints(n)
        phi = F.build_matrix_formula(kind, n, k, 1, a0, ak)
        path = full_path(k)
        return Verdict(
            f"algebra.minterms_n{n}",
            f"{kind} {n} {k} {a0} {ak}",
            lambda: R.minterms(R.formula_evaluator(phi), path, "M", n).tuples,
            lambda got: expect(got, endpoint_square(n, k, a0, ak), "minterm relation"),
        )

    def restricted(dm, want, tree) -> Verdict:
        def check(got):
            return None if got <= want else "restricted minterms outside the minterm relation"

        return Verdict(
            "algebra.restricted_minterms",
            tree.pretty() + F.to_sexpr(dm),
            lambda: R.restricted_minterms(dm, tree.graph, tree, 2).tuples,
            check,
        )

    def relation(n: int, density: float):
        while True:
            g = samples.random_pathgraph(rng, 0, 4, max_comps=2)
            if g:
                return samples.random_relation(rng, g, n, density)

    def rel_key(a) -> str:
        return f"{a.graph.intervals} {a.n} {sorted(a.tuples)}"

    def join_verdict() -> Verdict:
        n = rng.randint(2, 4)
        a, b = relation(n, 0.3), relation(n, 0.3)
        return Verdict(
            "algebra.join",
            rel_key(a) + rel_key(b),
            lambda: R.join(a, b).tuples,
            lambda got: expect(got, oracles.join(a.verts, a.tuples, b.verts, b.tuples), "join"),
        )

    def chain_verdict() -> Verdict:
        n = 3
        a, b = relation(n, 0.3), relation(n, 0.3)
        cond = samples.random_pathgraph(rng, 0, 4, max_comps=1)

        def check(rep):
            # binary rule, two orders of the m-ary rule, and two pathset orders
            # when both relations are pathsets
            pathsets = all(oracles.is_pathset(x.graph.intervals, n, x.tuples, 4) for x in (a, b))
            return expect((rep["ok"], rep["checked"]), (True, 3 + 2 * pathsets), "chain rule (ok, checked)")

        return Verdict(
            "algebra.chain_rule",
            rel_key(a) + rel_key(b) + repr(cond.intervals),
            lambda: R.chain_rule_check([a, b], cond, R.PathsetParams(n, 4)),
            check,
        )

    def pathset_verdict() -> Verdict:
        a = relation(3, rng.choice([0.05, 0.2, 0.5]))
        return Verdict(
            "algebra.is_pathset",
            rel_key(a),
            lambda: R.is_pathset(a, R.PathsetParams(3, 4)),
            lambda got: expect(got, oracles.is_pathset(a.graph.intervals, 3, a.tuples, 4), "pathset predicate"),
        )

    def mpath2_verdict() -> Verdict:
        s = rng.randrange(1 << 20)

        def check(rep):
            want = [oracles.restricted_bmm_minterm_count(R.sample_xi(8, 2, s + i).xi) for i in range(10)]
            return expect([row["count"] for row in rep["rows"]], want, "restricted minterm counts")

        return Verdict("algebra.mpath2", f"mpath2 8 2 10 {s}", lambda: R.montecarlo_mpath2(8, 2, 10, s), check)

    def eps1_verdict(t: int) -> Verdict:
        s = rng.randrange(1 << 20)
        return Verdict(
            "algebra.eps1",
            f"eps1 2 {t} 300 {s}",
            lambda: R.montecarlo_eps1(2, t, 300, s),
            lambda rep: expect(rep["matches"], oracles.eps1_matches(2, t, 300, s), "eps1 matches"),
        )

    def lp_verdicts(t: int) -> list[Verdict]:
        w, y = greedy.certificate_w(t), greedy.certificate_y(t)
        if rng.random() < 0.5:
            key = rng.choice(sorted(w))
            w = dict(w)
            w[key] += 1
            what = f"w{key}"
        else:
            r = rng.randrange(len(y))
            y = list(y)
            y[r] += 1
            what = f"y{r}"
        return [
            Verdict("algebra.lp", f"lp {t}", lambda: greedy.verify_lp_certificates(t)["ok"],
                    lambda ok: expect(ok, True, "certificates verify")),
            Verdict("algebra.lp", f"lp {t} +1 at {what}", lambda: greedy.verify_lp_certificates(t, w=w, y=y)["ok"],
                    lambda ok: expect(ok, False, "perturbed certificate rejected")),
        ]

    def dyck_verdict(s: int) -> Verdict:
        def check(seqs):
            if len(set(seqs)) != len(seqs) or not all(len(x) == s and oracles.is_dyck(x) for x in seqs):
                return "not distinct Dyck sequences of the right length"
            return expect(len(seqs), oracles.catalan(s + 1), "Dyck count")

        return Verdict("algebra.dyck", f"dyck {s}", lambda: greedy.enumerate_dyck(s), check)

    def chi_verdict() -> Verdict:
        n, k, s = 2, 3, rng.randrange(1 << 20)
        params = R.PathsetParams(n, k)
        xi_edges = R.sample_xi(n, k, s).xi_edges()

        def substitute(g):
            if g.op == "lit" and g.var in xi_edges:
                return F.dm_const(1)
            if g.op in ("and", "or"):
                return F.DeMorgan(g.op, substitute(g.left), substitute(g.right))
            return g

        fx = substitute(F.convert(F.build_matrix_formula("D", n, k), "right_deep"))
        tree = path3[rng.randrange(12)]

        def check(cost):
            if cost > (F.and_depth(fx) + 1) ** 3 * F.size(fx):
                return "cost above the size bound"
            mgt = R.restricted_minterms(fx, full_path(k), tree, n)
            psi, nv = oracles.psi(tree, memo), len(mgt.verts)
            # cost >= ntilde^psi * mu, as k-th powers of integers
            ok = cost**k * n ** (k * nv) >= n ** ((k - 1) * psi) * len(mgt.tuples) ** k
            return None if ok else "cost below the ntilde^psi * mu floor"

        return Verdict(
            "algebra.chi_cost",
            f"chi {s} {tree.pretty()}",
            lambda: R.chi_decomposition_cost(tree, None, fx, params),
            check,
        )

    def cli_verdicts(b: int, r: int) -> list[Verdict]:
        s = int(f"{seed}{b:05d}{r}")
        t = 1 + r

        def restriction(rep):
            direct = R.montecarlo_mpath2(8, 2, 10, s)
            return expect(rep["rows"], direct["rows"], "restriction rows")

        def eps1(rep):
            want = [oracles.eps1_matches(2, tt, 300, s) for tt in range(2, 6)]
            return expect([row["matches"] for row in rep["rows"]], want, "eps1 matches")

        def randomized(rep):
            phi = F.build_matrix_formula("SigmaI", 2, 4, 1)
            tt = max(1, round(math.log2(F.size(phi)) ** 2))
            inputs_rng = random.Random(s)
            inputs = [tuple(F.random_subperm_matrix(2, inputs_rng) for _ in range(4)) for _ in range(3)]
            agree = 0
            for mats in inputs:
                env = lambda var, mats=mats: mats[var[0] - 1][var[1] - 1][var[2] - 1]
                want = oracles.product_entry(mats)
                agree += sum(
                    oracles.evaluate(F.randomized_conversion(phi, tt, s + trial), env) == want for trial in range(4)
                )
            return expect(rep["agreement"], agree / 12, "agreement")

        return [
            cli_verdict("algebra.cli", ["verify", "lp", "--t", str(t), "--format", "json"],
                        lambda rep: expect(rep["ok"], True, "lp ok")),
            cli_verdict("algebra.cli", ["verify", "formulas", "--n", "2", "--k", "5", "--kind", "C", "--exhaustive",
                                        "--format", "json"],
                        lambda rep: expect((rep["ok"], rep["checked"]), (True, 7**5), "formulas (ok, checked)")),
            cli_verdict("algebra.cli", ["experiment", "restriction", "--n", "8", "--k", "2", "--trials", "10",
                                        "--seed", str(s)], restriction),
            cli_verdict("algebra.cli", ["experiment", "eps1", "--k", "2", "--t-range", "2..5", "--trials", "300",
                                        "--seed", str(s)], eps1),
            cli_verdict("algebra.cli", ["experiment", "randomized-conversion", "--n", "2", "--k", "4", "--trials",
                                        "4", "--seed", str(s)], randomized),
            cli_verdict("algebra.cli", ["verify", "chain-rules", "--n", "3", "--k", "4", "--trials", "10", "--seed",
                                        str(s), "--format", "json"],
                        lambda rep: expect(rep["ok"], True, "chain-rules ok")),
            cli_verdict("algebra.cli", ["verify", "minterms", "--n", "2", "--k", "3", "--format", "json"],
                        lambda rep: expect(rep["ok"], True, "minterms ok")),
        ]

    def block(b: int) -> list[Verdict]:
        """Six sub-rounds: LP certificates for t = 1..6 and Dyck sequences of
        length 0, 2, .., 10, once each."""
        nonlocal rng
        rng = random.Random(f"algebra:{seed}:{b}")
        out = []
        for r in range(6):
            out += [exhaustive("D", "any", 1 << 20), exhaustive("C", "subperm", 7**5)]
            a0, ak = endpoints(2)
            out += [conversion(random_monotone(rng, 2, 4)) for _ in range(4)]
            out.append(conversion(F.build_matrix_formula("SigmaI", 2, 4, 2, a0, ak)))
            out += [sampled_conversion() for _ in range(4)]
            out += [minterm(kind, n, k) for n, k in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)) for kind in "DC"]
            a0, ak = endpoints(2)
            dm = F.convert(F.build_matrix_formula("D", 2, 3, 1, a0, ak), "right_deep")
            want = endpoint_square(2, 3, a0, ak)
            out += [restricted(dm, want, path3[rng.randrange(len(path3))]) for _ in range(6)]
            out += [join_verdict() for _ in range(6)]
            out += [chain_verdict() for _ in range(6)]
            out += [pathset_verdict() for _ in range(6)]
            out.append(mpath2_verdict())
            out += [eps1_verdict(t) for t in (4, 6)]
            out += lp_verdicts(1 + r)
            out.append(dyck_verdict(2 * r))
            out.append(chi_verdict())
            out += cli_verdicts(b, r)
        return out

    return block


WORKLOADS = {"tradeoff": tradeoff_blocks, "orderings": orderings_blocks, "algebra": algebra_blocks}
