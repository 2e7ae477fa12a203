"""Time the two exact optimum searches: the subset DP behind the ordering
oracle and the block DP of the shift optimum.

The subset DP sweep times both bodies of ``_kernels.max_ordering_value`` (the
plain-integer loop and the layered numpy DP) and the entry point itself on
the m single edges of a path (optimum ceil(m/2)), for each m.  The m where
the loop stops winning is the crossover ``_kernels.SMALL_M`` rests on.  The
loop's time doubles and more with each member, so it is timed only up to
``PY_MAX_M``.  Above ``SMALL_M`` the entry reduces the path of edges to
nothing before any DP runs, so its column times the reductions alone; the
clique column runs the entry on m members that all share one vertex
(optimum 1), which nothing reduces, so it times one DP on all m members.

The shift optimum ``shifts.best_shift`` is timed on the m single edges of a
path (optimum ceil(m/2) as well), for each m.

Run:  python benchmarks/bench_kernels.py [--dp-m 2..22] [--shift-m 8..25] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

from pathlab import _kernels, shifts
from pathlab.paths import single_edge

# largest m the plain-integer loop is timed at (14 takes about 0.1 s a call)
PY_MAX_M = 14

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


def bench_best_shift(m: int, repeat: int) -> float:
    seq = [single_edge(i) for i in range(1, m + 1)]
    seconds, (_, value) = _per_call(shifts.best_shift, seq, repeat)
    assert value == (m + 1) // 2, (m, value)
    return seconds


def _ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:12.3f}" if seconds is not None else f"{'--':>12}"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dp-m", type=int, nargs="+", default=list(range(2, 23)))
    parser.add_argument("--shift-m", type=int, nargs="*", default=list(range(8, 26)))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"subset DP, ms per call; max_ordering_value runs the python loop for m <= {_kernels.SMALL_M}")
    print(f"{'m':>4}{'python':>12}{'numpy':>12}{'entry':>12}{'clique':>12}{'python/numpy':>14}")
    for m in args.dp_m:
        rows = bench_subset_dp(m, args.repeat)
        py, npy = rows.get("python"), rows["numpy"]
        ratio = f"{py / npy:14.2f}" if py is not None else f"{'--':>14}"
        print(f"{m:>4}{_ms(py)}{_ms(npy)}{_ms(rows['entry'])}{_ms(rows['clique'])}{ratio}")
    if args.shift_m:
        print("\nshift optimum (block DP), ms per call")
        print(f"{'m':>4}{'best_shift':>12}")
        for m in args.shift_m:
            print(f"{m:>4}{_ms(bench_best_shift(m, args.repeat))}")


if __name__ == "__main__":
    main()
