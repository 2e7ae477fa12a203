"""Batch front-end: measure / verify / experiment subcommands.

Reports are deterministic functions of the invocation (all randomness flows
through explicit seeds, JSON output is key-sorted, and no timestamps are
emitted).  Exit codes: 0 pass, 1 check failure, 2 input error (an input
that cannot be read, parsed or validated), 3 resource limit exceeded,
4 internal error (any other exception, with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import traceback
from fractions import Fraction
from itertools import product
from typing import Callable

from . import formulas, greedy, jointrees, relations, samples, shifts
from .errors import CheckFailedError, InputError, PathLabError, ResourceLimitError
from .paths import (
    EMPTY,
    full_path,
    gap,
    sequence_from_json,
    union_all,
    vec_delta,
    vec_measures,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4

# the JSON decoder recurses once per nesting level, so it raises
# RecursionError on input nested too deeply
_PARSE_ERRORS = (OSError, TypeError, ValueError, KeyError, IndexError, RecursionError)


def _read(path: str, parse: Callable[[str], object]):
    """Read and parse one input file; any failure is an input error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except _PARSE_ERRORS as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_sequence(path: str):
    return _read(path, lambda text: sequence_from_json(json.loads(text)))


def _read_tree(path: str) -> jointrees.JoinTree:
    return _read(path, lambda text: jointrees.JoinTree.from_json(json.loads(text)))


def _emit(report: dict, fmt: str, rows: list[dict] | None = None) -> None:
    if fmt == "json":
        payload = dict(report)
        if rows is not None:
            payload["rows"] = rows
        print(json.dumps(payload, sort_keys=True, default=str))
    elif fmt == "csv":
        rows = rows if rows is not None else [report]
        if rows:
            header = sorted(rows[0])
            print(",".join(header))
            for row in rows:
                print(",".join(str(row.get(h, "")) for h in header))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
        for row in rows or ():
            print("  " + json.dumps(row, sort_keys=True, default=str))


def _reorder(seq, spec: str):
    if spec in (None, "identity"):
        return list(seq)
    if spec == "odd-even":
        return list(seq[0::2]) + list(seq[1::2])
    try:
        if spec.startswith("I:"):
            index_set = [int(x) for x in spec[2:].split(",")]
            return shifts.from_set(len(seq), index_set).apply(seq)
        perm = [int(x) for x in spec.split(",")]
        return [seq[p - 1] for p in perm]
    except (ValueError, IndexError) as exc:
        raise InputError(f"bad --order {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def cmd_measure(args) -> int:
    what = args.what
    report: dict = {"measure": what}
    if what in ("vecdelta", "veclambda", "veclambdadelta"):
        seq = _reorder(_read_sequence(args.seq), args.order)
        vals = vec_measures(seq)
        report["order"] = args.order or "identity"
        report["value"] = vals[("vecdelta", "veclambda", "veclambdadelta").index(what)]
    elif what == "gap":
        seq = _reorder(_read_sequence(args.seq), args.order)
        report["value"] = str(gap(seq))
    elif what == "psi":
        tree = _read_tree(args.tree)
        report["value"] = jointrees.psi(tree, dp_limit=args.limit_dp)
        report["tree"] = tree.pretty()
    elif what == "depths":
        tree = _read_tree(args.tree)
        std, left, semd = jointrees.depths(tree)
        report.update({"standard": std, "left": left, "sem": semd})
    elif what == "best-shift":
        seq = _read_sequence(args.seq)
        sigma, value = shifts.best_shift(seq, args.objective)
        report["value"] = value
        report["witness"] = sigma.to_json()
    elif what == "formula-stats":
        phi = _read(args.formula, _parse_formula)
        report.update(
            {
                "size": formulas.size(phi),
                "depth": formulas.depth(phi),
                "and_depth": formulas.and_depth(phi),
                "fanin": formulas.fanin(phi),
                "and_fanin": formulas.and_fanin(phi),
                "monotone": formulas.is_monotone(phi),
            }
        )
    _emit(report, args.format)
    return EXIT_OK


def _parse_formula(text: str):
    """Accept either the s-expression text format or the JSON mirror."""
    text = text.strip()
    if text.startswith("("):
        return formulas.from_sexpr(text)
    return formulas.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_delta_props(args) -> dict:
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        seq = samples.random_sequence(rng, m=rng.randint(1, 6))
        f0 = samples.random_pathgraph(rng)
        extra = samples.random_pathgraph(rng)
        f = f0.union(extra)
        if vec_delta(seq, f) > vec_delta(seq, f0):
            failures.append({"rule": "monotone-in-condition", "trial": trial})
        if vec_delta(seq, f) != vec_delta([f] + seq) - f.delta:
            failures.append({"rule": "prepend", "trial": trial})
        u = union_all(seq)
        if not (
            u.ominus(f).delta
            <= vec_delta(seq, f)
            <= vec_delta([g.ominus(f) for g in seq])
        ):
            failures.append({"rule": "sandwich", "trial": trial})
        seq2 = samples.random_sequence(rng, m=rng.randint(1, 4))
        if vec_delta(seq + seq2, f) != vec_delta(seq, f) + vec_delta(seq2, f.union(u)):
            failures.append({"rule": "chain", "trial": trial})
        prefixes = []
        acc = EMPTY
        for g in seq:
            acc = acc.union(g)
            prefixes.append(acc)
        if vec_delta(seq) != vec_delta(prefixes):
            failures.append({"rule": "prefix-union", "trial": trial})
    return {"suite": "delta-props", "trials": args.trials, "failures": failures, "ok": not failures}


def _suite_lp(args) -> dict:
    report = greedy.verify_lp_certificates(args.t)
    report["suite"] = "lp"
    return report


def _suite_tradeoff(args, kind: str) -> dict:
    rng = random.Random(args.seed)

    def trees():
        """Every strict tree up to ``enumerate_k`` edges, then the samples."""
        for k in range(1, args.enumerate_k + 1):
            for tree in jointrees.enumerate_strict(full_path(k)):
                yield k, tree
        for _ in range(args.trials):
            k = rng.randint(2, 8)
            yield k, samples.random_strict_tree(rng, full_path(k))

    failures = []
    checked = 0
    for k, tree in trees():
        holds, lhs, rhs = jointrees.verify_tradeoff(tree, kind)
        checked += 1
        if not holds:
            failures.append({"k": k, "tree": tree.pretty(), "lhs": lhs, "rhs": rhs})
    return {
        "suite": f"tradeoff-{kind}",
        "checked": checked,
        "failures": failures[:5],
        "ok": not failures,
    }


def _suite_psi_recurrences(args) -> dict:
    rng = random.Random(args.seed)
    bad = []
    checked = 0
    for _ in range(args.trials):
        arity = rng.randint(2, 3)
        parts = [samples.random_jointree(rng, k=5, leaves=rng.randint(1, 2)) for _ in range(arity)]
        tree = jointrees.sem(parts) if rng.random() < 0.5 else jointrees.sq(parts)
        rep = jointrees.check_psi_recurrences(tree, perm_limit=3, shift_m_limit=6)
        checked += rep["checked"]
        bad.extend(rep["violations"])
    return {"suite": "psi-recurrences", "checked": checked, "failures": bad[:5], "ok": not bad}


def _suite_chain_rules(args) -> dict:
    rng = random.Random(args.seed)
    params = relations.PathsetParams(args.n, args.k)
    failures = []
    checked = 0
    for _ in range(args.trials):
        g1 = samples.random_pathgraph(rng, 0, args.k, max_comps=2)
        g2 = samples.random_pathgraph(rng, 0, args.k, max_comps=2)
        if not g1 or not g2:
            continue
        a = samples.random_relation(rng, g1, args.n)
        b = samples.random_relation(rng, g2, args.n)
        cond = samples.random_pathgraph(rng, 0, args.k, max_comps=1)
        rep = relations.chain_rule_check([a, b], cond, params)
        checked += rep["checked"]
        failures.extend(rep["violations"])
    return {"suite": "chain-rules", "checked": checked, "failures": failures[:5], "ok": not failures}


def _suite_formulas(args) -> dict:
    kind = args.kind or "D"
    phi = formulas.build_matrix_formula(kind, args.n, args.k, args.d)
    input_class = {"D": "any", "C": "subperm"}.get(kind, "subperm")
    mode = "exhaustive" if args.exhaustive else "sample"
    rep = formulas.check_formula_correct(
        phi, args.n, args.k, mode=mode, input_class=input_class, count=args.trials, seed=args.seed
    )
    rep.update({"suite": "formulas", "kind": kind, "n": args.n, "k": args.k, "d": args.d})
    return rep


def _suite_minterms(args) -> dict:
    failures = []
    n, k = args.n, args.k
    want = {t for t in product(range(1, n + 1), repeat=k + 1) if t[0] == 1 and t[-1] == 1}
    for kind, d in (("D", 1), ("C", 1)):
        phi = formulas.build_matrix_formula(kind, n, k, d)
        got = relations.minterms(relations.formula_evaluator(phi), full_path(k), "M", n)
        if got.tuples != want:
            failures.append({"kind": kind})
    rep = relations.minterms(relations.bmm_evaluator(n, k), full_path(k), "M", n)
    if relations.density(rep) != Fraction(1, n * n):
        failures.append({"kind": "oracle-density"})
    return {"suite": "minterms", "n": n, "k": k, "failures": failures, "ok": not failures}


def _suite_strict_counts(args) -> dict:
    failures = []
    rows = []
    for k, d in ((1, 0), (1, 1), (2, 1)):
        count = formulas.count_strict_demorgan(k, d)
        bound = 2 ** (2 ** ((d + 1) * (k + 1)))
        rows.append({"k": k, "d": d, "count": count})
        if count > bound:
            failures.append({"k": k, "d": d, "count": count})
    return {"suite": "strict-counts", "rows": rows, "failures": failures, "ok": not failures}


_SUITES = {
    "delta-props": _suite_delta_props,
    "lp": _suite_lp,
    "tradeoff-I": lambda a: _suite_tradeoff(a, "I"),
    "tradeoff-II": lambda a: _suite_tradeoff(a, "II"),
    "psi-recurrences": _suite_psi_recurrences,
    "chain-rules": _suite_chain_rules,
    "formulas": _suite_formulas,
    "minterms": _suite_minterms,
    "strict-counts": _suite_strict_counts,
}


def cmd_verify(args) -> int:
    report = _SUITES[args.suite](args)
    _emit(report, args.format)
    return EXIT_OK if report.get("ok") else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> list[int]:
    try:
        if ".." in spec:
            a, b = spec.split("..")
            return list(range(int(a), int(b) + 1))
        return [int(spec)]
    except ValueError as exc:
        raise InputError(f"bad range {spec!r}: {exc}") from exc


def cmd_experiment(args) -> int:
    if args.seed is None:
        raise InputError("experiment requires --seed")
    if args.experiment == "restriction":
        rep = relations.montecarlo_mpath2(args.n, args.k, args.trials, args.seed)
        rows = rep.pop("rows")
        _emit(rep, args.format, rows)
        return EXIT_OK
    if args.experiment == "eps1":
        rows = []
        for t in _parse_range(args.t_range or str(args.t)):
            r = relations.montecarlo_eps1(args.k, t, args.trials, args.seed)
            rows.append({"t": t, "frequency": r["frequency"], "matches": r["matches"]})
        summary = {
            "experiment": "eps1",
            "k": args.k,
            "trials": args.trials,
            "seed": args.seed,
            "min_frequency": min(r["frequency"] for r in rows),
        }
        _emit(summary, args.format, rows)
        return EXIT_OK
    # randomized-conversion, the last of the experiment choices
    phi = formulas.build_matrix_formula("SigmaI", args.n, args.k, args.d)
    s = formulas.size(phi)
    t = args.t if args.t else max(1, round(math.log2(s) ** 2))
    rng = random.Random(args.seed)
    fixed_inputs = [
        tuple(formulas.random_subperm_matrix(args.n, rng) for _ in range(args.k))
        for _ in range(3)
    ]
    rows = []
    agree = 0
    total = 0
    for i, mats in enumerate(fixed_inputs):
        env = formulas.matrix_env(mats)
        want = formulas.evaluate(phi, env)
        hits = 0
        for trial in range(args.trials):
            got = formulas.randomized_conversion_value(phi, t, args.seed + trial, env)
            hits += got == want
        agree += hits
        total += args.trials
        rows.append({"input": i, "agreement": hits / args.trials})
    summary = {
        "experiment": "randomized-conversion",
        "t": t,
        "size": s,
        "agreement": agree / total,
    }
    _emit(summary, args.format, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse returns a
    fresh namespace, and suites are looked up in ``_SUITES`` at dispatch."""
    parser = argparse.ArgumentParser(prog="pathlab")
    sub = parser.add_subparsers(dest="command", required=True)

    meas = sub.add_parser("measure", help="evaluate a measure on a graph sequence or join tree")
    meas.add_argument(
        "what",
        choices=[
            "vecdelta", "veclambda", "veclambdadelta", "gap", "psi", "depths",
            "best-shift", "formula-stats",
        ],
    )
    meas.add_argument("--seq", help="JSON file with {'graphs': [...]} ")
    meas.add_argument("--tree", help="JSON file with a join tree")
    meas.add_argument("--formula", help="formula file (s-expression text or JSON)")
    meas.add_argument("--order", help="identity | odd-even | I:1,3,5 | comma permutation")
    meas.add_argument("--objective", default="vec_delta",
                      choices=["vec_delta", "vec_lambda", "vec_lambda_delta"])
    meas.add_argument("--limit-dp", type=int, default=jointrees.DEFAULT_DP_LIMIT)
    meas.add_argument("--format", default="pretty", choices=["json", "csv", "pretty"])
    meas.set_defaults(func=cmd_measure)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--t", type=int, default=3)
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--k", type=int, default=3)
    ver.add_argument("--d", type=int, default=1)
    ver.add_argument("--kind", choices=["D", "C", "SigmaI", "SigmaII", "PiII"])
    ver.add_argument("--exhaustive", action="store_true")
    ver.add_argument("--enumerate-k", type=int, default=3, dest="enumerate_k")
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", default="pretty", choices=["json", "csv", "pretty"])
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    exp.add_argument("experiment", choices=["restriction", "eps1", "randomized-conversion"])
    exp.add_argument("--n", type=int, default=30)
    exp.add_argument("--k", type=int, default=2)
    exp.add_argument("--d", type=int, default=1)
    exp.add_argument("--t", type=int)
    exp.add_argument("--t-range", dest="t_range")
    exp.add_argument("--trials", type=int, default=200)
    exp.add_argument("--seed", type=int)
    exp.add_argument("--format", default="json", choices=["json", "csv", "pretty"])
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PathLabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
