"""pathlab benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload tradeoff --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # the three, one process each

One client runs the verdicts of blocks 0, 1, 2, .. in order; the next
verdict starts when the previous one has been checked, and the run stops at
the first block boundary after ``--seconds``.  Each block is generated from
the seed just before it runs, outside the timed region.  Every verdict is
checked against a golden value or a reference computation.

``--trace 0`` reports each end-to-end time metric as its median over the
blocks after the first, which warms up, with every time scaled to one
machine speed by a reference computation timed during the same block (see
``end_to_end``).
``--trace 1`` first runs untraced for half the time, then replays the same
blocks with every public pathlab function wrapped, and reports the
per-layer metrics plus the cost of the tracing itself.  Metric names and
units are the ones ``BENCHMARK.json`` lists; the last line of standard
output is the JSON result.

Run from the root of a source checkout: the program is imported from
``src/``, and a checkout without it is refused with exit code 2.  Outputs
(spans, per-run reports, generated input files) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_RUNS = 5
PERCENTILES = (99.9, 99, 98, 95, 90, 75, 50)
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.25
# sizes whose kernel time is reported on its own
DP_SIZES = range(16, 22)
SHIFT_SIZES = (12, 14, 16)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="tradeoff, orderings, algebra or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="import and generate block 0, print its digest")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path and import pathlab from
    it; exits with code 2 when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "pathlab" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"no pathlab source tree under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import pathlab

    if Path(pathlab.__file__).resolve().parent != src / "pathlab":
        print(f"pathlab imported from {pathlab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy

    from pathlab import _kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pathlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": _kernels.USING_NUMBA,
        "PATHLAB_NO_NUMBA": os.environ.get("PATHLAB_NO_NUMBA"),
        "PATHLAB_FULL_SWEEP": os.environ.get("PATHLAB_FULL_SWEEP"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def block_maker(workload: str, seed: int):
    """The function that generates block ``b`` of a workload."""
    from workloads import WORKLOADS

    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, inputs)


def digest(block) -> str:
    h = hashlib.sha256()
    for v in block:
        h.update(f"{v.kind}\t{v.key}\n".encode())
    return h.hexdigest()


class Setup:
    """Times fresh processes that import pathlab and generate block 0, and
    keeps the block digests they report.  The run starts one before its
    first block and one after every second block, so the median is taken
    over processes spread across the run."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.times: list[float] = []
        self.digests: set[str] = set()

    def measure(self) -> None:
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"setup process failed: {done.stderr.strip()[-500:]}")
        self.digests.add(done.stdout.strip().splitlines()[-1])

    def after_block(self, done: int) -> None:
        if done % 2 == 1 and len(self.times) < SETUP_RUNS:
            self.measure()


@dataclass
class BlockRecord:
    """What a run keeps of one block: the kind, start and end of each
    verdict, the failures by position as (error, input digest), and the
    calibration times taken during the block.  The times sit in arrays, so
    the run's memory hardly grows with the number of blocks it reaches."""

    kinds: list[str]
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    failures: dict[int, tuple[str, str]] = field(default_factory=dict)
    calibrations: array = field(default_factory=lambda: array("d"))

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]


def run_blocks(make_block, seconds: float, tracer=None, blocks: int | None = None, after_block=None,
               calibrate: bool = False):
    """Closed loop over whole blocks; returns a BlockRecord and a digest per
    block run.  Runs ``blocks`` blocks, or else stops at the first block
    boundary after ``seconds``.  A verdict fails on a wrong answer or on any
    exception.  Generation and checks run outside the timed region and
    untraced, and so does ``after_block(blocks done)``.  With ``calibrate``,
    ``calibration.measure()`` runs before the first verdict of each block
    and then before the first verdict after every CALIBRATE_EVERY_S.  Before each
    block the garbage collector runs and the objects alive are frozen, so
    collections inside a verdict do not walk the benchmark's own inputs and
    records."""
    records: list[BlockRecord] = []
    digests: list[str] = []
    verdicts = 0
    start = time.perf_counter()
    while (len(records) < blocks) if blocks is not None else (not records or time.perf_counter() - start < seconds):
        if tracer is not None:
            with tracer.paused():
                block = make_block(len(records))
        else:
            block = make_block(len(records))
        digests.append(digest(block))
        record = BlockRecord([v.kind for v in block])
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        next_calibration = 0.0
        for j, v in enumerate(block):
            if tracer is not None:
                tracer.verdict = verdicts + j
            if calibrate and time.perf_counter() >= next_calibration:
                record.calibrations.append(calibration.measure())
                next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
            t0 = time.perf_counter()
            try:
                out = v.run()
                error = None
            except Exception as exc:  # every exception is a failed verdict
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if error is None:
                try:
                    if tracer is not None:
                        with tracer.paused():
                            error = v.check(out)
                    else:
                        error = v.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            record.starts.append(t0)
            record.ends.append(t1)
            if error is not None:
                record.failures[j] = (error, key_digest(v.key))
        verdicts += len(block)
        records.append(record)
        if after_block is not None:
            after_block(len(records))
    gc.unfreeze()
    return records, digests


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least TAIL_BEYOND of n samples
    beyond it (nearest rank)."""
    for q in PERCENTILES:
        if n - max(1, math.ceil(q * n / 100)) >= TAIL_BEYOND:
            return q
    return PERCENTILES[-1]


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile q of values, and the samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(records: list[BlockRecord], setup_times) -> tuple[dict, dict, dict]:
    """The end-to-end values: each time metric is computed on every block
    after the warm-up block 0 (block 0 itself when it is the only one), and
    the median over those blocks is reported.  The machine changes speed
    from second to second and from minute to minute, by up to half, so the
    verdict times of a block are first scaled to one machine speed:
    multiplied by calibration.NOMINAL_S over the block's median calibration
    time.  The calibration calls no pathlab code, so the scaling depends on
    the machine and not on the program.  ``setup_s`` is not scaled: it is
    part process start and imports, which follow the calibration less than
    verdicts do.  The tail is taken at the highest percentile that has
    TAIL_BEYOND verdicts of a block beyond it."""
    timed = records[1:] or records
    speeds = [statistics.median(r.calibrations) / calibration.NOMINAL_S for r in timed]
    q = tail_percentile(len(timed[0].kinds))
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for r, speed in zip(timed, speeds):
        for target, factor in ((scaled, speed), (raw, 1.0)):
            durations = [d / factor for d in r.durations()]
            value, beyond = percentile(durations, q)
            target.setdefault("verdicts_per_s", []).append(len(durations) / sum(durations))
            target.setdefault("verdict_p50_ms", []).append(statistics.median(durations) * 1e3)
            target.setdefault("verdict_tail_ms", []).append(value * 1e3)
    values = {name: statistics.median(per_block) for name, per_block in scaled.items()}
    extra = {"raw_" + name: statistics.median(per_block) for name, per_block in raw.items()}
    attempted = sum(len(r.kinds) for r in records)
    values |= {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": sum(len(r.failures) for r in records) / attempted,
    }
    blocks = (f"median of {len(timed)} blocks of {len(timed[0].kinds)} verdicts; block calibrations "
              f"{min(speeds) * calibration.NOMINAL_S * 1e3:.3f} to {max(speeds) * calibration.NOMINAL_S * 1e3:.3f} ms")
    notes = {"verdicts_per_s": blocks, "verdict_p50_ms": blocks,
             "verdict_tail_ms": f"p{q:g}, {beyond} beyond in each block; {blocks}",
             "setup_s": f"median of {len(setup_times)} processes, not scaled"}
    detail = {"unscaled": extra, "per_block": scaled, "calibrations_s": [list(r.calibrations) for r in timed],
              "durations_s": [r.durations() for r in timed]}
    return values, notes, detail


def per_layer(tracer, names, records, untraced_s: float, traced_s: float) -> dict:
    table = spans.summarize(tracer.spans, tracer.calls, tracer.errors)
    out: dict = {}
    for name in names:
        row = table.get(name, {})
        for stat in ("calls", "self_s", "total_s", "errors"):
            out[f"{name}.{stat}"] = row.get(stat, 0)
        for key, value in row.items():
            if key.startswith("self_s.m"):
                out[f"{name}.{key}"] = value
        for key in spans.COUNTERS.get(name, ()):
            out[f"{name}.{key}"] = tracer.counts[name][key]

    def share(a, b):
        return a / b if b else 0.0

    kern = "kernels.max_ordering_value"
    mo = table.get(kern, {})
    out[f"{kern}.small_share"] = share(tracer.counts[kern]["small"], out[f"{kern}.calls"])
    out[f"{kern}.self_s.small"] = sum(v for k, v in mo.items() if k.startswith("self_s.m") and int(k[8:]) <= 8)
    for m in DP_SIZES:
        out.setdefault(f"{kern}.self_s.m{m}", 0.0)
    for m in SHIFT_SIZES:
        out.setdefault(f"shifts.best_shift.self_s.m{m}", 0.0)
    psi_calls = out["jointrees.psi.calls"]
    out["jointrees.psi.repeat_share"] = share(tracer.counts["jointrees.psi"]["repeats"], psi_calls)
    from_psi = sum(
        1
        for span in tracer.spans
        if span[spans.NAME] == "jointrees.max_vec_delta_over_orderings"
        and span[spans.PARENT] >= 0
        and tracer.spans[span[spans.PARENT]][spans.NAME] == "jointrees.psi"
    )
    out["jointrees.psi.unique_covering_share"] = share(from_psi, tracer.counts["jointrees.branch_coverings"]["coverings"])
    minterms = tracer.counts["relations.minterms"]
    out["relations.minterms.hit_share"] = share(minterms["kept"], minterms["alphas"])
    starts = [t for r in records for t in r.starts]
    ends = [t for r in records for t in r.ends]
    windows = dict(enumerate(zip(starts, ends)))
    verdict_s = sum(e - s for s, e in windows.values())
    out["trace.unattributed_share"] = share(spans.unattributed(tracer.spans, windows), verdict_s)
    out["trace.overhead_share"] = share(traced_s - untraced_s, untraced_s)
    out["trace.errors"] = sum(tracer.errors.values())
    out["trace.spans"] = len(tracer.spans)
    return out


def unit_of(name: str) -> str:
    """Unit of a metric, from its name: the suffix of its last part, or
    ``s`` for the by-size time splits such as ``self_s.m16``."""
    stat = name.split(".")[-2] if ".self_s." in name else name.split(".")[-1]
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_per_s", "1/s"), ("_share", "share"), ("_s", "s")):
        if stat.endswith(suffix):
            return unit
    return "count"


def write_spans(path: Path, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with path.open("w") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "verdict", "m"], "names": names}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps([index[s[0]], s[1], s[2], s[3], s[4], s[5]]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        # each workload in its own process, so peak_rss_mb is its own
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    make_block = block_maker(args.workload, args.seed)
    if args.setup_only:
        print(digest(make_block(0)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}")

    detail = {}
    if args.trace:
        untraced, block_digests = run_blocks(make_block, args.seconds / 2)
        tracer = spans.Tracer()
        names = tracer.install()
        try:
            traced, replayed = run_blocks(make_block, args.seconds, tracer=tracer, blocks=len(block_digests))
        finally:
            tracer.uninstall()
        wall = [sum(sum(r.durations()) for r in recs) for recs in (untraced, traced)]
        values = per_layer(tracer, names, traced, *wall)
        notes = {"trace.overhead_share": f"{len(block_digests)} blocks: {wall[0]} s untraced, {wall[1]} s traced"}
        records = untraced + traced
        wanted = spec["per_layer"]
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", tracer)
        deterministic = replayed == block_digests
    else:
        setup = Setup(args)
        setup.measure()
        records, block_digests = run_blocks(make_block, args.seconds, after_block=setup.after_block, calibrate=True)
        while len(setup.times) < SETUP_RUNS:
            setup.measure()
        values, notes, detail = end_to_end(records, setup.times)
        wanted = spec["end_to_end"]
        deterministic = setup.digests == {block_digests[0]}
    input_sha256 = hashlib.sha256("".join(block_digests).encode()).hexdigest()

    failed = [(kind, *r.failures[j]) for r in records for j, kind in enumerate(r.kinds) if j in r.failures]
    attempted = sum(len(r.kinds) for r in records)
    print(f"{len(block_digests)} blocks, input sha256 {input_sha256} (block 0: {block_digests[0]})")
    print(f"{attempted} verdicts, {len(failed)} failed{' (both passes)' if args.trace else ''}")
    for kind, error, key in failed[:20]:
        print(f"FAILED {kind} input {key}: {error}")
    if not deterministic:
        print("FAILED input generation is not deterministic: the same block had two digests")
    shown = [m["name"] for m in wanted] + ([] if args.trace else ["failed_share"])
    for name in shown:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {values.get(name)} {unit_of(name)}{note}")
    for name, value in detail.get("unscaled", {}).items():
        print(f"{name}: {value} {unit_of(name)}  (as timed, not scaled)")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    kinds: dict = {}
    for r in records:
        for kind, d in zip(r.kinds, r.durations()):
            kinds.setdefault(kind, []).append(d)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "input_sha256": input_sha256,
              "block_sha256": block_digests, "env": env, "values": values, "notes": notes, **detail,
              "kinds": {k: {"verdicts": len(v), "median_ms": statistics.median(v) * 1e3, "total_s": sum(v)}
                        for k, v in sorted(kinds.items())},
              "failures": [{"kind": kind, "input": key, "error": error} for kind, error, key in failed]}
    path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"all values: {path.relative_to(ROOT)}")
    result = {
        "correct": not failed and deterministic,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
