"""Every resource ceiling: a module constant, read at call time, that raises
ResourceLimitError with its message and makes the CLI exit 3."""

from __future__ import annotations

import pathlib
import re

import pytest

from pathlab import cli, formulas as F, greedy, jointrees as jt, relations as R, shifts
from pathlab.errors import ResourceLimitError
from pathlab.paths import EMPTY, full_path, single_edge
from pathlab.relations import PathsetParams, Relation

BLOCK_TREE = str(pathlib.Path(__file__).resolve().parent.parent / "data" / "block_tree16.json")


def leaves(m: int) -> list[jt.JoinTree]:
    return [jt.leaf(single_edge(i)) for i in range(1, m + 1)]


# (module, constant, lowered value, call, message, CLI argv reaching it or None)
CEILINGS = [
    (jt, "SEM_ARITY_LIMIT", 1, lambda: jt.sem(leaves(2)), "sem arity 2 exceeds limit 1",
     ["verify", "psi-recurrences", "--trials", "20", "--seed", "3"]),
    (jt, "SEM_MEMO_LIMIT", 2, lambda: jt.sem_depth(jt.sem(leaves(5))),
     "sem-depth recognition exceeded 2 sequences of one node",
     ["measure", "depths", "--tree", BLOCK_TREE]),
    (jt, "STRICT_NORM_LIMIT", 2, lambda: list(jt.enumerate_strict(full_path(3))),
     "graph has 3 edges, enumeration limit 2", ["verify", "tradeoff-I", "--enumerate-k", "3"]),
    (shifts, "ENUM_LIMIT", 1, lambda: list(shifts.enumerate_all(2)),
     "m=2 exceeds enumeration limit 1", None),
    (greedy, "DYCK_LIMIT", 2, lambda: greedy.enumerate_dyck(3), "Dyck length 3 exceeds limit 2", None),
    (greedy, "LP_T_LIMIT", 2, lambda: greedy.verify_lp_certificates(3),
     "t=3 exceeds LP check limit 2", ["verify", "lp", "--t", "3"]),
    (F, "NVARS_LIMIT", 4, lambda: F.truth_table(F.lit((1, 1, 1)), F.matrix_varlist(2, 2)),
     "8 variables exceeds truth-table limit 4",
     ["verify", "formulas", "--n", "2", "--k", "2", "--exhaustive"]),
    (F, "EDGE_TABLE_LIMIT", 1, lambda: F.dm_truth_table(F.dm_lit(1), 2),
     "2 variables exceeds the 2^1 table limit", ["verify", "strict-counts"]),
    (F, "STRICT_COUNT_BUDGET", 4, lambda: F.count_strict_demorgan(1, 1),
     "strict enumeration exceeded 4 candidates", ["verify", "strict-counts"]),
    (F, "_BUILD_NODE_LIMIT", 10, lambda: F.build_matrix_formula("SigmaI", 2, 9, 2),
     "144 leaves for n=2, k=9, d=2 exceed the node budget 10",
     ["verify", "formulas", "--kind", "SigmaI", "--k", "9", "--d", "2"]),
    (R, "PATHSET_K_LIMIT", 3, lambda: R.is_pathset(Relation(EMPTY, 2, [()]), PathsetParams(2, 4)),
     "k=4 exceeds pathset-check limit 3",
     ["verify", "chain-rules", "--n", "3", "--k", "4", "--trials", "40", "--seed", "3"]),
    (R, "MONTECARLO_BUDGET", 100, lambda: R.montecarlo_mpath2(2, 2, 10, 0),
     "minterm scans exceed the Monte Carlo budget",
     ["experiment", "restriction", "--n", "2", "--k", "2", "--trials", "10", "--seed", "0"]),
    (R, "EPS1_K_LIMIT", 1, lambda: R.montecarlo_eps1(2, 3, 10, 0), "k=2 exceeds eps1 limit 1",
     ["experiment", "eps1", "--k", "2", "--t", "3", "--trials", "10", "--seed", "0"]),
    (R, "EPS1_DRAW_LIMIT", 79, lambda: R.montecarlo_eps1(2, 3, 10, 0),
     "10 trials of 2^3 leaves exceed eps1 draw limit 79",
     ["experiment", "eps1", "--k", "2", "--t", "3", "--trials", "10", "--seed", "0"]),
]


@pytest.mark.parametrize(
    "module, name, value, call, message, argv", CEILINGS, ids=[c[1] for c in CEILINGS]
)
def test_ceiling_is_a_module_constant(monkeypatch, capsys, module, name, value, call, message, argv):
    call()  # below the ceiling at its own value
    monkeypatch.setattr(module, name, value)
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        call()
    if argv is not None:
        assert cli.main(argv) == cli.EXIT_RESOURCE_LIMIT
        assert "resource limit: " in capsys.readouterr().err


def test_dp_ceiling_is_the_default_of_psi(capsys):
    # the subset-DP ceiling stays a per-call limit of psi, so it is met at
    # its own value: a right comb of 23 edges has a 23-member covering
    comb = jt.sq(leaves(jt.DEFAULT_DP_LIMIT + 1))
    message = "^covering size 23 exceeds subset-DP limit 22$"
    with pytest.raises(ResourceLimitError, match=message):
        jt.verify_tradeoff(comb, "I")
    with pytest.raises(ResourceLimitError, match=message):
        jt.check_psi_recurrences(comb)


def test_sem_memo_ceiling_bounds_one_node_whatever_was_measured_before(monkeypatch):
    # sem over five edges has 4 sequences at its root and 3 at each child
    t = jt.sem([jt.leaf(single_edge(i)) for i in range(31, 36)])
    assert t._sem is None
    monkeypatch.setattr(jt, "SEM_MEMO_LIMIT", 3)
    message = "^sem-depth recognition exceeded 3 sequences of one node$"
    with pytest.raises(ResourceLimitError, match=message):
        jt.sem_depth(t)
    assert jt.sem_depth(t.left) == jt.sem_depth(t.right) == 1
    with pytest.raises(ResourceLimitError, match=message):
        jt.sem_depth(t)
    monkeypatch.setattr(jt, "SEM_MEMO_LIMIT", 4)
    assert jt.sem_depth(t) == 1 and len(jt.sem_decompositions(t)) == 4
    monkeypatch.setattr(jt, "SEM_MEMO_LIMIT", 3)
    with pytest.raises(ResourceLimitError, match=message):
        jt.depths(t)


def test_minterm_budget_is_the_default_of_minterms(monkeypatch):
    # 40^4 points in each of 4 variants exceed the 2,000,000-point default
    never = lambda column, full: 0  # noqa: E731
    with pytest.raises(ResourceLimitError, match="^minterm scan exceeds evaluation budget$"):
        R.minterms(never, full_path(3), "M", 40)
    monkeypatch.setattr(R, "DEFAULT_MINTERM_BUDGET", 40**4 * 4)
    assert len(R.minterms(never, full_path(3), "M", 40)) == 0


def test_shift_m_limit_skips_the_largest_decompositions():
    # each skipped decomposition of arity m drops m corollary checks and two
    # checks per (shift permutation, h): 2^(m-1) permutations times m
    t = jt.sem(leaves(5))
    decomps = jt.sem_decompositions(t)
    m = max(len(d) for d in decomps)
    skipped = sum(1 for d in decomps if len(d) == m)
    full = jt.check_psi_recurrences(t, shift_m_limit=m)
    cut = jt.check_psi_recurrences(t, shift_m_limit=m - 1)
    assert full["ok"] and cut["ok"] and skipped >= 1
    assert full["checked"] - cut["checked"] == skipped * (m + 2 * m * 2 ** (m - 1))
    assert cut["skipped"] - full["skipped"] == full["checked"] - cut["checked"]
