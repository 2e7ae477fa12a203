"""The kernel benchmark script times what it says it times."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from pathlab import jointrees as jt

_spec = importlib.util.spec_from_file_location(
    "bench_kernels", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
)
bench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernels)


def test_bench_psi_times_a_fresh_psi_on_every_repeat(monkeypatch):
    # equal trees are one object and share one cached Psi, so a rebuilt tree
    # would come back with its value already set
    calls = []
    real = jt.branch_coverings
    monkeypatch.setattr(jt, "branch_coverings", lambda t: calls.append(t) or real(t))
    bench_kernels.bench_psi("II", 4, 1, repeat=3)
    assert len(calls) == 3
