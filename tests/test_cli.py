"""Command-line front-end: goldens, exit codes, determinism."""

from __future__ import annotations

import json
import pathlib

import pytest

from pathlab import cli, jointrees as jt
from pathlab.errors import CheckFailedError
from pathlab.paths import full_path, sequence_to_json, single_edge

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def seq_file(tmp_path):
    def write(name, seq):
        path = tmp_path / name
        path.write_text(json.dumps(sequence_to_json(seq)))
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_measure_vecdelta_orders(seq_file, capsys):
    path = seq_file("ex.json", [single_edge(i) for i in range(1, 26)])
    code, out = run(capsys, "measure", "vecdelta", "--seq", path, "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out = run(
        capsys, "measure", "vecdelta", "--seq", path, "--order", "odd-even", "--format", "json"
    )
    assert code == 0 and json.loads(out)["value"] == 13


def test_measure_an_explicit_permutation_order(seq_file, capsys):
    # the odd edges first, spelled out: the odd-even value 13
    path = seq_file("ex.json", [single_edge(i) for i in range(1, 26)])
    order = ",".join(map(str, [*range(1, 26, 2), *range(2, 26, 2)]))
    code, out = run(capsys, "measure", "vecdelta", "--seq", path, "--order", order, "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 13


def test_measure_psi_overlap(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(jt.maximally_overlapping(5).to_json()))
    code, out = run(capsys, "measure", "psi", "--tree", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 1


def test_measure_gap(seq_file, capsys):
    path = seq_file("p.json", [full_path(10)])
    code, out = run(capsys, "measure", "gap", "--seq", path, "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "5"


def test_measure_shift_order(seq_file, capsys):
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    path = seq_file("s.json", stride)
    code, out = run(
        capsys, "measure", "vecdelta", "--seq", path, "--order", "I:15,25", "--format", "json"
    )
    assert code == 0 and json.loads(out)["value"] == 7


def test_shipped_data_files(capsys):
    code, out = run(
        capsys, "measure", "vecdelta", "--seq", str(DATA / "stride25.json"),
        "--order", "I:15,25", "--format", "json",
    )
    assert code == 0 and json.loads(out)["value"] == 7
    code, out = run(
        capsys, "measure", "depths", "--tree", str(DATA / "block_tree16.json"),
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["sem"] == 2


def test_verify_lp(capsys):
    code, out = run(capsys, "verify", "lp", "--t", "3", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["gamma"] == "31/10"


def test_verify_lp_beyond_eight_is_a_failed_check(capsys):
    # no resource limit stops t = 9: the closed-form dual fails its check
    code, out = run(capsys, "verify", "lp", "--t", "9", "--format", "json")
    report = json.loads(out)
    assert code == cli.EXIT_CHECK_FAILED and report["primal_ok"] and not report["dual_ok"]
    assert report["violated"] == ["(star_(1, 1, 1, 1, 1, 1, 1, 0)): dual constraint violated"]


def test_verify_suites_pass(capsys):
    for suite, extra in [
        ("delta-props", ["--trials", "30"]),
        ("tradeoff-I", ["--enumerate-k", "3", "--trials", "30"]),
        ("tradeoff-II", ["--enumerate-k", "3", "--trials", "30"]),
        ("psi-recurrences", ["--trials", "5"]),
        ("chain-rules", ["--trials", "30"]),
        ("minterms", ["--n", "2", "--k", "3"]),
        ("strict-counts", []),
    ]:
        code, _ = run(capsys, "verify", suite, "--format", "json", *extra)
        assert code == 0, suite


def test_verify_formulas_exhaustive(capsys):
    code, out = run(
        capsys,
        "verify", "formulas", "--n", "2", "--k", "5", "--kind", "C", "--exhaustive",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["checked"] == 7**5


def test_eps1_above_its_draw_ceiling_exits_three(capsys):
    # 16,000 trials of 2^14 leaves would need about 8 GB
    argv = ["experiment", "eps1", "--k", "2", "--t", "14", "--trials", "16000", "--seed", "0"]
    assert cli.main(argv) == cli.EXIT_RESOURCE_LIMIT
    assert "eps1 draw limit" in capsys.readouterr().err


def test_verify_formulas_sample_mode_default_kind(capsys):
    code, out = run(capsys, "verify", "formulas", "--n", "2", "--k", "4", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["kind"] == "D" and report["checked"] == 50


def test_verify_formulas_at_one_matrix_builds_any_depth(capsys):
    # at k = 1 every d builds the one literal, so no depth is refused
    code, _ = run(capsys, "verify", "formulas", "--kind", "SigmaI", "--k", "1", "--d", "3000")
    assert code == 0


@pytest.mark.parametrize(
    "argv, want",
    [
        (["vecdelta", "--seq", "edges25.json"], {"value": "1"}),
        (["vecdelta", "--seq", "edges25.json", "--order", "odd-even"], {"value": "13"}),
        (["vecdelta", "--seq", "stride25.json", "--order", "I:15,25"], {"value": "7"}),
        (["psi", "--tree", "overlap_tree5.json"], {"value": "1"}),
        (["depths", "--tree", "block_tree16.json"], {"standard": "6", "left": "6", "sem": "2"}),
        (["gap", "--seq", "whole_path10.json"], {"value": "5"}),
        (["best-shift", "--seq", "stride25.json"], {"value": "8"}),
    ],
)
def test_readme_measure_examples_in_pretty_format(capsys, argv, want):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, "measure", *argv)
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert code == 0 and fields["measure"] == argv[0]
    assert {key: fields[key] for key in want} == want


def test_measure_best_shift(seq_file, capsys):
    # the witness index set, fed back through --order I:..., attains the value
    stride9 = [single_edge(i) for j in range(1, 4) for i in range(j, 10, 3)]
    cases = [(seq_file("s9.json", stride9), 9, 4), (str(DATA / "stride25.json"), 25, 8)]
    for path, m, want in cases:
        code, out = run(capsys, "measure", "best-shift", "--seq", path, "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["value"] == want
        assert report["witness"]["m"] == m
        order = "I:" + ",".join(str(i) for i in report["witness"]["I"])
        code, out = run(
            capsys, "measure", "vecdelta", "--seq", path, "--order", order, "--format", "json"
        )
        assert code == 0 and json.loads(out)["value"] == want


def test_missing_file_is_input_error(capsys):
    code = cli.main(["measure", "vecdelta", "--seq", "/nonexistent/x.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_resource_limit_exit_code(capsys):
    # the block tree's largest branch covering has 7 members
    tree = str(DATA / "block_tree16.json")
    code = cli.main(["measure", "psi", "--tree", tree, "--limit-dp", "4"])
    assert code == cli.EXIT_RESOURCE_LIMIT


@pytest.mark.parametrize(
    "argv, text",
    [
        (["measure", "vecdelta", "--seq"], "{not json"),
        (["measure", "vecdelta", "--seq"], '{"graphs": [{"nope": 1}]}'),
        (["measure", "vecdelta", "--seq"], '{"graphs": 5}'),
        (["measure", "depths", "--tree"], '{"leaf": {"intervals": [[0, 2]]}}'),
        (["measure", "formula-stats", "--formula"], "(xor (lit 1))"),
        (["measure", "formula-stats", "--formula"], '{"xor": [{"lit": 1}, {"lit": 2}]}'),
        (["measure", "formula-stats", "--formula"], "(lit 1) (lit 2) garbage"),
        (["measure", "formula-stats", "--formula"], '{"lit": 1, "and": []}'),
        # a non-integer endpoint is refused, not truncated into a component
        (["measure", "vecdelta", "--seq"], '{"graphs": [{"intervals": [[2.2, 2.7]]}, {"intervals": [[0, 1]]}]}'),
        # a constant other than 0 or 1 is refused, not read as const(1)
        (["measure", "formula-stats", "--formula"], "(const 2)"),
        (["measure", "formula-stats", "--formula"], '{"const": 2}'),
    ],
)
def test_malformed_input_is_input_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.main(argv + [str(path)]) == cli.EXIT_INPUT_ERROR
    assert "input error" in capsys.readouterr().err


def test_bad_option_values_are_input_errors(capsys):
    seq = str(DATA / "edges25.json")
    assert cli.main(["measure", "vecdelta", "--seq", seq, "--order", "1,x"]) == cli.EXIT_INPUT_ERROR
    assert cli.main(["measure", "vecdelta", "--seq", seq, "--order", "1,99"]) == cli.EXIT_INPUT_ERROR
    assert cli.main(["measure", "psi"]) == cli.EXIT_INPUT_ERROR  # no --tree
    argv = ["experiment", "eps1", "--k", "2", "--t-range", "2..x", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize("order", ["1,1", "0,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25", "2,1"])
def test_an_order_that_is_not_a_permutation_is_an_input_error(capsys, order):
    # a repeated index, an index 0 (which would wrap to the last member) and a
    # permutation of too few members are each refused, not measured
    seq = str(DATA / "edges25.json")
    assert cli.main(["measure", "vecdelta", "--seq", seq, "--order", order]) == cli.EXIT_INPUT_ERROR
    assert "not a permutation of 1..25" in capsys.readouterr().err


def test_a_negative_dp_limit_is_an_input_error(capsys):
    tree = str(DATA / "overlap_tree5.json")
    assert cli.main(["measure", "psi", "--tree", tree, "--limit-dp", "-1"]) == cli.EXIT_INPUT_ERROR
    assert "input error: --limit-dp must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_negative_trials_are_an_input_error_for_every_suite(capsys, suite):
    assert cli.main(["verify", suite, "--trials", "-3"]) == cli.EXIT_INPUT_ERROR
    assert "input error: --trials must be >= 0" in capsys.readouterr().err
    # no trials at all is still a valid run
    if suite == "formulas":
        assert cli.main(["verify", suite, "--trials", "0"]) == cli.EXIT_OK
        assert "checked: 0" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["tradeoff-I", "tradeoff-II"])
def test_a_negative_enumerate_k_is_an_input_error(capsys, suite):
    assert cli.main(["verify", suite, "--enumerate-k", "-1", "--trials", "1"]) == cli.EXIT_INPUT_ERROR
    assert "input error: --enumerate-k must be >= 0, got -1" in capsys.readouterr().err
    # no enumeration at all is still a valid run: only the sampled tree is checked
    assert cli.main(["verify", suite, "--enumerate-k", "0", "--trials", "1", "--format", "json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["checked"] == 1


@pytest.mark.parametrize("n,k", [("0", "2"), ("1", "2"), ("-2", "2"), ("3", "-1")])
def test_restriction_checks_n_and_k_before_measuring(capsys, n, k):
    # n = 0 once reached Fraction(1, 0) and exited 4
    argv = ["experiment", "restriction", "--n", n, "--k", k, "--trials", "2", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert "input error: need n >= 2 and k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["randomized-conversion", "--n", "2", "--k", "4", "--t", "-1", "--trials", "2"],
        ["randomized-conversion", "--n", "2", "--k", "4", "--t", "0", "--trials", "2"],
        ["randomized-conversion", "--n", "2", "--k", "4", "--trials", "0"],
        ["eps1", "--k", "2", "--t-range", "5..2"],
        ["eps1", "--k", "0", "--t", "3"],
        ["restriction", "--n", "8", "--k", "0", "--trials", "2"],
    ],
)
def test_bad_experiment_parameters_are_input_errors(capsys, argv):
    assert cli.main(["experiment", *argv, "--seed", "1"]) == cli.EXIT_INPUT_ERROR
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc", [AssertionError("broken invariant"), KeyError("missing"), RecursionError("too deep")]
)
def test_internal_error_exits_four(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._SUITES, "lp", broken)
    assert cli.main(["verify", "lp"]) == cli.EXIT_INTERNAL_ERROR
    assert f"internal error: {type(exc).__name__}" in capsys.readouterr().err


def test_failed_certificate_check_exits_one(capsys, monkeypatch):
    def failing(args):
        raise CheckFailedError("certified cost fell below the floor")

    monkeypatch.setitem(cli._SUITES, "lp", failing)
    assert cli.main(["verify", "lp"]) == cli.EXIT_CHECK_FAILED
    assert "check failed: certified cost" in capsys.readouterr().err


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    assert cli.main(["verify", "lp", "--t", "2"]) == cli.EXIT_OK
    assert cli.main(["verify", "lp", "--format", "json"]) == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the second parse starts from the defaults, not from the first one's --t
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["t"] == 3


def test_exit_code_values():
    codes = (
        cli.EXIT_OK,
        cli.EXIT_CHECK_FAILED,
        cli.EXIT_INPUT_ERROR,
        cli.EXIT_RESOURCE_LIMIT,
        cli.EXIT_INTERNAL_ERROR,
    )
    assert codes == (0, 1, 2, 3, 4)


def test_experiment_requires_seed(capsys):
    code = cli.main(["experiment", "eps1", "--k", "2", "--t", "4"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "input error: experiment requires --seed" in capsys.readouterr().err


def test_experiment_eps1_needs_a_depth(capsys):
    argv = ["experiment", "eps1", "--k", "2", "--trials", "10", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert "input error: eps1 needs --t or --t-range" in capsys.readouterr().err


def test_experiment_eps1_single_depth(capsys):
    argv = ["experiment", "eps1", "--k", "2", "--t", "4", "--trials", "100", "--seed", "3"]
    code, out = run(capsys, *argv)
    report = json.loads(out)
    assert code == 0 and [row["t"] for row in report["rows"]] == [4]
    assert report["min_frequency"] == report["rows"][0]["frequency"]


def test_failing_suite_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "lp", lambda args: {"suite": "lp", "ok": False, "violated": ["demo"]}
    )
    code = cli.main(["verify", "lp", "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILED


def test_experiment_eps1_runs_and_is_deterministic(capsys):
    args = ["experiment", "eps1", "--k", "2", "--t-range", "2..4", "--trials", "200",
            "--seed", "5", "--format", "json"]
    code, out1 = run(capsys, *args)
    assert code == 0
    code, out2 = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["rows"]) == 3


def test_experiment_restriction_csv(capsys):
    code, out = run(
        capsys,
        "experiment", "restriction", "--n", "8", "--k", "2", "--trials", "4",
        "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert "density" in lines[0]


def test_experiment_randomized_conversion(capsys):
    code, out = run(
        capsys,
        "experiment", "randomized-conversion", "--n", "2", "--k", "4", "--trials", "60",
        "--seed", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] >= 0.95


def test_experiment_randomized_conversion_is_pinned(capsys):
    code, out = run(
        capsys, "experiment", "randomized-conversion", "--n", "2", "--k", "4", "--trials", "4", "--seed", "5"
    )
    assert code == 0
    assert out == (
        '{"agreement": 1.0, "experiment": "randomized-conversion", "rows": [{"agreement": 1.0, "input": 0}, '
        '{"agreement": 1.0, "input": 1}, {"agreement": 1.0, "input": 2}], "size": 32, "t": 25}\n'
    )


@pytest.mark.parametrize("n,k", [("0", "4"), ("3", "0"), ("-1", "4")])
def test_bad_pathset_parameters_are_input_errors(capsys, n, k):
    argv = ["verify", "chain-rules", "--n", n, "--k", k, "--trials", "30", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert "input error: pathset parameters need n, k >= 1" in capsys.readouterr().err


def test_verify_deterministic_output(capsys):
    args = ["verify", "chain-rules", "--trials", "25", "--seed", "9", "--format", "json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_measure_formula_stats_sexpr(tmp_path, capsys):
    from pathlab import formulas as F

    phi = F.build_matrix_formula("D", 2, 3)
    path = tmp_path / "d.sexpr"
    path.write_text(F.to_sexpr(phi))
    code, out = run(capsys, "measure", "formula-stats", "--formula", str(path), "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["size"] == F.size(phi) and report["monotone"]


def test_measure_formula_stats_json(tmp_path, capsys):
    from pathlab import formulas as F

    phi = F.conj([F.lit(1), F.lit(2, neg=True)])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(F.to_json_dict(phi)))
    code, out = run(capsys, "measure", "formula-stats", "--formula", str(path), "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["size"] == 2 and not report["monotone"]


def _gate_chain(gates: int) -> str:
    """(or (lit g) (and (lit g-1) ... (lit 0))): gate i is an OR when i is
    even and an AND when odd, over a new literal and the chain so far, so
    no two gates merge."""
    heads = "".join(f"({'and' if i % 2 else 'or'} (lit {i + 1}) " for i in reversed(range(gates)))
    return heads + "(lit 0)" + ")" * gates


def test_measure_depths_of_a_deep_comb(tmp_path, capsys):
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(jt.sq(jt.leaf(single_edge(i)) for i in range(1, 251)).to_json()))
    code, out = run(capsys, "measure", "depths", "--tree", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"measure": "depths", "left": 1, "sem": 249, "standard": 249}


@pytest.mark.parametrize("gates", [600, 1200, 10_000])
def test_deep_gate_chain_measures_exactly(tmp_path, capsys, gates):
    # nesting depth is no ceiling: the parser and the measures run on
    # explicit stacks
    path = tmp_path / "chain.sexpr"
    path.write_text(_gate_chain(gates))
    code, out = run(capsys, "measure", "formula-stats", "--formula", str(path), "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out) == {
        "measure": "formula-stats",
        "size": gates + 1,
        "depth": gates,
        "and_depth": gates // 2,
        "fanin": 2,
        "and_fanin": 2,
        "monotone": True,
    }


def test_tree_too_deep_to_decode_is_an_input_error(tmp_path, capsys):
    text = '{"leaf": {"intervals": [[0, 1]]}}'
    for _ in range(1500):
        text = '{"node": [' + text + ', {"leaf": {"intervals": [[0, 1]]}}]}'
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert cli.main(["measure", "depths", "--tree", str(path)]) == cli.EXIT_INPUT_ERROR
    assert "input error: cannot read" in capsys.readouterr().err
