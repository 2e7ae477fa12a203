"""Tests of the benchmark harness itself (not of pathlab).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent, verdict=0, tag=None):
    return [name, start, end, parent, verdict, tag]


def test_self_time_of_nested_spans():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    table = spans.summarize(tree, {"root": 1, "a": 1, "leaf": 1, "b": 1}, {})
    assert table["root"]["self_s"] == 3.0 and table["root"]["total_s"] == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [span("root", 0.0, 10.0, -1), span("x", 1.0, 5.0, 0), span("y", 3.0, 7.0, 0), span("z", 9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] of the parent: 6 + 1
    assert spans.self_times(tree)[0] == 3.0


def test_wrapped_calls_record_nested_spans_and_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap(inner, "m.inner")

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap(outer, "m.outer")
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_inner(-1)
    with tracer.paused():
        traced_inner(5)
    table = spans.summarize(tracer.spans, tracer.calls, tracer.errors)
    # outer spans ticks 0..5, its two children 1..2 and 3..4
    assert table["m.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0, "errors": 0}
    assert table["m.inner"]["calls"] == 3 and table["m.inner"]["errors"] == 1
    assert table["m.inner"]["self_s"] == 3.0


def test_unattributed_time_is_verdict_time_outside_top_spans():
    tree = [span("f", 1.0, 3.0, -1, verdict=0), span("g", 2.0, 2.5, 0, verdict=0)]
    assert spans.unattributed(tree, {0: (0.0, 4.0), 1: (4.0, 5.0)}) == 3.0


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert run.tail_percentile(200) == 95 and run.tail_percentile(1000) == 99
    assert run.tail_percentile(630) == 98 and run.tail_percentile(45) == 75
    assert run.percentile([float(i) for i in range(1, 201)], 95) == (190.0, 10)


def test_units_follow_metric_names():
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert run.unit_of(metric["name"]) == metric["unit"], metric


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section, capsys):
    code = run.main(["--workload", "algebra", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["shifts.best_shift.calls"]["value"] == 0


def test_wrong_golden_fails_verdicts(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "GOLDEN_OVERLAP_PSI", 2)
    records, digests = run.run_blocks(workloads.tradeoff_blocks(0, tmp_path), seconds=0, calibrate=True)
    values, _, _ = run.end_to_end(records, [1.0])
    assert len(digests) == 1 and values["failed_share"] > 0
    assert {records[0].kinds[j] for j in records[0].failures} == {"tradeoff.overlap", "tradeoff.cli"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_blocks_have_one_shape_and_depend_only_on_seed_and_index(name, tmp_path):
    make = workloads.WORKLOADS[name](5, tmp_path)
    first, second = make(0), make(1)
    assert Counter(v.kind for v in first) == Counter(v.kind for v in second)
    assert run.digest(first) != run.digest(second)
    assert run.digest(workloads.WORKLOADS[name](5, tmp_path)(1)) == run.digest(second)


def block_records(blocks, calibrations=None):
    """BlockRecords with the given verdict times; block b's calibration takes
    calibrations[b] times NOMINAL_S (1 by default)."""
    records = []
    for b, durations in enumerate(blocks):
        record = run.BlockRecord(["k"] * len(durations))
        record.starts.extend([0.0] * len(durations))
        record.ends.extend(durations)
        slow = calibrations[b] if calibrations else 1.0
        record.calibrations.extend([slow * calibration.NOMINAL_S, 0.5 * calibration.NOMINAL_S, 9.0])
        records.append(record)
    return records


def test_each_block_is_scaled_by_its_own_calibration_after_the_warm_up():
    work = [0.001 * (1 + j % 3) for j in range(30)]
    blocks = [[10 * d for d in work], work, [4 * d for d in work], [4 * d for d in work]]
    values, notes, detail = run.end_to_end(block_records(blocks, [10.0, 1.0, 4.0, 4.0]), [0.5, 0.2, 0.3])
    assert detail["per_block"]["verdicts_per_s"] == pytest.approx([30 / sum(work)] * 3)
    assert values["verdicts_per_s"] == pytest.approx(30 / sum(work))
    assert values["verdict_p50_ms"] == pytest.approx(2.0)
    assert detail["unscaled"]["raw_verdicts_per_s"] == pytest.approx(30 / (4 * sum(work)))
    assert values["setup_s"] == 0.3
    assert values["failed_share"] == 0.0
    assert notes["verdict_tail_ms"].startswith("p50")


def test_a_slower_program_reads_slower_after_scaling():
    work = [0.001 * (1 + j % 3) for j in range(30)]
    slow_kind = [d * (2 if j == 0 else 1) for j, d in enumerate(work)]
    base, _, _ = run.end_to_end(block_records([work, work, [3 * d for d in work]], [1, 1, 3]), [1.0])
    slower, _, _ = run.end_to_end(block_records([slow_kind, slow_kind, [3 * d for d in slow_kind]], [1, 1, 3]), [1.0])
    doubled, _, _ = run.end_to_end(block_records([[2 * d for d in work]] * 3), [1.0])
    assert slower["verdicts_per_s"] < base["verdicts_per_s"]
    assert doubled["verdict_p50_ms"] == pytest.approx(2 * base["verdict_p50_ms"])


def test_a_machine_twice_as_slow_reads_the_same():
    work = [0.001 * (1 + j % 3) for j in range(30)]
    blocks = [work, work, [3 * d for d in work]]
    base, _, _ = run.end_to_end(block_records(blocks, [1, 1, 3]), [0.4])
    slow, _, _ = run.end_to_end(block_records([[2 * d for d in ds] for ds in blocks], [2, 2, 6]), [0.8])
    for name in ("verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms"):
        assert slow[name] == pytest.approx(base[name]), name
    assert slow["setup_s"] == 0.8


def test_calibration_uses_no_pathlab_code():
    for module in (calibration, calibration.oracles):
        for value in vars(module).values():
            origin = getattr(value, "__module__", None) or getattr(value, "__name__", "")
            assert not str(origin).startswith("pathlab"), (module.__name__, value)
    assert calibration.measure() > 0
