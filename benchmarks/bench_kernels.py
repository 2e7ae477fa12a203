"""Time the two hot kernels: the subset DP behind the ordering oracle and the
shift-permutation sweep.

The subset DP sweep times both bodies of ``_kernels.max_ordering_value`` (the
plain-integer loop and the layered numpy DP) and the entry point itself on
the m single edges of a path (optimum ceil(m/2)), for each m.  The m where
the loop stops winning is the crossover ``_kernels.SMALL_M`` rests on.  The
loop's time doubles and more with each member, so it is timed only up to
``PY_MAX_M``.

The shift sweep has a numba kernel and a python fallback; both are timed
when numba is importable (``PATHLAB_NO_NUMBA`` switches it off).

Run:  python benchmarks/bench_kernels.py [--dp-m 2..22] [--sweep-m 14 18] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from pathlab import _kernels
from pathlab.paths import single_edge
from pathlab.shifts import _prep_arrays

# largest m the plain-integer loop is timed at (14 takes about 0.1 s a call)
PY_MAX_M = 14

def _single_edge_conflicts(m: int) -> list[list[int]]:
    """Edge j conflicts with edges j-1 and j+1."""
    return [[(1 << (j - 1) if j else 0) | (1 << (j + 1) if j + 1 < m else 0)] for j in range(m)]


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
    return rows


def bench_shift_sweep(m: int, repeat: int) -> dict:
    seq = [single_edge(i) for i in range(1, m + 1)]
    comp_vmask, comp_len, offsets, gmask = _prep_arrays(seq)
    rows = {}
    if _kernels.USING_NUMBA:
        _kernels._shift_sweep_nb(comp_vmask, comp_len, offsets, gmask, m, 0)  # warm jit
        t0 = time.perf_counter()
        for _ in range(repeat):
            out_nb = _kernels._shift_sweep_nb(comp_vmask, comp_len, offsets, gmask, m, 0)
        rows["numba"] = (time.perf_counter() - t0) / repeat
    t0 = time.perf_counter()
    for _ in range(repeat):
        out_py = _kernels._shift_sweep_py(comp_vmask, comp_len, offsets, gmask, m, 0)
    rows["python"] = (time.perf_counter() - t0) / repeat
    if "numba" in rows:
        assert np.array_equal(out_nb, out_py)
    return rows


def _ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:12.3f}" if seconds is not None else f"{'--':>12}"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dp-m", type=int, nargs="+", default=list(range(2, 23)))
    parser.add_argument("--sweep-m", type=int, nargs="*", default=[14, 18])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"subset DP, ms per call; max_ordering_value runs the python loop for m <= {_kernels.SMALL_M}")
    print(f"{'m':>4}{'python':>12}{'numpy':>12}{'entry':>12}{'python/numpy':>14}")
    for m in args.dp_m:
        rows = bench_subset_dp(m, args.repeat)
        py, npy = rows.get("python"), rows["numpy"]
        ratio = f"{py / npy:14.2f}" if py is not None else f"{'--':>14}"
        print(f"{m:>4}{_ms(py)}{_ms(npy)}{_ms(rows['entry'])}{ratio}")
    if args.sweep_m:
        print(f"\nshift sweep, s per call; numba available and enabled: {_kernels.USING_NUMBA}")
        print(f"{'m':>4}{'numba':>12}{'python':>12}")
        for m in args.sweep_m:
            rows = bench_shift_sweep(m, args.repeat)
            nb = f"{rows['numba']:12.4f}" if "numba" in rows else f"{'--':>12}"
            print(f"{m:>4}{nb}{rows['python']:>12.4f}")


if __name__ == "__main__":
    main()
