"""The kernel benchmark script times what it says it times."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from pathlab import _kernels
from pathlab import jointrees as jt

_spec = importlib.util.spec_from_file_location(
    "bench_kernels", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
)
bench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernels)


def test_bench_psi_times_a_fresh_psi_on_every_repeat(monkeypatch):
    # equal trees are one object and share one cached Psi, so a rebuilt tree
    # would come back with its value already set, and a cached child would
    # give the walk a floor
    tree = jt.build_tight("II", 4, 1)
    jt.psi(tree.left), jt.psi(tree.right), jt.psi(tree)
    walks = []
    real = jt._psi_walk
    monkeypatch.setattr(
        jt, "_psi_walk", lambda t, limit: walks.append((t, t.left._psi, t.right._psi)) or real(t, limit)
    )
    bench_kernels.bench_psi("II", 4, 1, repeat=3)
    assert walks == [(tree, None, None)] * 3


def test_subset_dp_sweep_runs_both_bodies_on_each_side_of_the_crossover():
    for m in (_kernels.PY_M, _kernels.PY_M + 1):
        rows = bench_kernels.bench_subset_dp(m, repeat=1)
        assert set(rows) == {"python", "numpy", "entry", "clique"}


def test_lp_rows_hold_their_pinned_reports():
    # the closed-form certificates verify up to t = 7, and from t = 8 on the
    # row asserts the violations found, not mended
    for t in (1, 7, 8, 15, 16, 17):
        assert bench_kernels.bench_lp(t, repeat=1) > 0


def test_sampled_and_chi_rows_run_with_their_agreement_checks():
    # each asserts its own agreement: the sampled value against the
    # materialised sample, and each certified cost against its floor
    assert set(bench_kernels.bench_sampled(1)) == {"value", "materialize"}
    assert bench_kernels.bench_chi(1) > 0
