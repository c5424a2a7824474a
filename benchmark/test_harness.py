"""Tests of the benchmark harness: the tail rule, calibrated time, span self
time, seeded inputs, and each output check rejecting a deliberately corrupted
output.

    python -m pytest -q benchmark/test_harness.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from gathersim import cli  # noqa: E402

SETTING1 = {"horizon": 900.0, "uplink_power": 2.0, "downlink_power": 1.0}


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def edit(path: Path, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(change(lines)), encoding="utf-8")


def replace_field(line: str, index: int, value: str) -> str:
    parts = line.rstrip("\n").split(",")
    parts[index] = value
    return ",".join(parts) + "\n"


# --- tail rule -------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 20, 25, 37, 60, 100, 101, 999, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    p, value = stats.tail(xs)
    assert value == stats.percentile(xs, p)
    assert sum(1 for x in xs if x > value) >= 10
    if p < 100:
        higher = stats.percentile(xs, p + 1)
        assert sum(1 for x in xs if x > higher) < 10


def test_tail_examples():
    assert stats.tail(list(range(1, 101))) == (90, 90)
    assert stats.tail(list(range(1, 21))) == (50, 10)
    assert stats.tail([3.0, 1.0, 2.0]) == (100, 3.0)


# --- calibrated time -------------------------------------------------------


def test_calibrated_time_cancels_a_host_slowdown():
    k = calibration.KERNEL_S
    walls, kernels = [1.0, 3.0], [k, k, 3 * k]
    assert calibration.calibrated(walls, kernels) == pytest.approx([1.0, 1.5])
    slow = calibration.calibrated([2 * w for w in walls], [2 * t for t in kernels])
    assert slow == pytest.approx([1.0, 1.5])


def test_calibrated_time_needs_a_kernel_on_either_side():
    with pytest.raises(ValueError):
        calibration.calibrated([1.0, 2.0], [0.1, 0.1])


def test_calibration_kernel_is_deterministic():
    assert calibration.kernel() == calibration.kernel()


# --- spans and self time ---------------------------------------------------


def test_self_time_subtracts_nested_children():
    S = spans.Span
    tree = [
        S("a", 0.0, 10.0, -1, 1),
        S("b", 1.0, 4.0, 0, 1),
        S("c", 2.0, 3.0, 1, 1),
        S("b", 5.0, 6.0, 0, 1),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_rejects_child_outside_parent():
    S = spans.Span
    with pytest.raises(ValueError):
        spans.self_times([S("a", 0.0, 1.0, -1, 1), S("b", 0.5, 2.0, 0, 1)])


def test_tracer_records_parent_and_operation():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: 2 * inner(x) + inner(x))
    tracer.op = 7
    assert outer(1) == 6
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7),
    ]
    # outer spans ticks 0..5, each inner one tick
    assert spans.self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}


def test_installed_tracer_times_modules_and_restores_them(tmp_path):
    import gathersim.protocol as protocol

    original = protocol.accumulate_mse
    tracer = spans.Tracer()
    with tracer.installed():
        assert protocol.accumulate_mse is not original
        run_cli(["simulate", str(ROOT / "scenarios" / "setting1.yaml"), "--out", str(tmp_path)])
    assert protocol.accumulate_mse is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "scenario.parse", "scenario.validate", "protocol.run_trial",
            "estimation.accumulate_mse", "estimation.fuse", "dynamics.observed_rows",
            "dynamics.step_targets", "protocol.csv_write"} <= names
    root = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in root] == ["cli.main"]
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(root[0].end - root[0].start)
    assert tracer.counters["events"] > 0 and tracer.counters["csv_bytes"] > 0


# --- seeded inputs ----------------------------------------------------------


def test_scale_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.build("scale", 5, tmp_path / "a")
    b = workloads.build("scale", 5, tmp_path / "b")
    for inv_a, inv_b in zip(a.cycle, b.cycle):
        assert Path(inv_a.args[1]).read_bytes() == Path(inv_b.args[1]).read_bytes()
    other = workloads.build("scale", 6, tmp_path / "c")
    assert [i.key for i in other.cycle] != [i.key for i in a.cycle]


def test_scale_structure_check_rejects_bad_layouts():
    centers, targets = workloads.scale_layout(1)
    workloads.check_scale_structure(centers, workloads.SCALE_RADIUS, targets)
    with pytest.raises(ValueError, match="three"):  # diagonal neighbours overlap too
        workloads.check_scale_structure(centers, 15.0, targets)
    with pytest.raises(ValueError, match="observe no target"):
        workloads.check_scale_structure(centers, workloads.SCALE_RADIUS, targets[:5])


# --- simulate outputs ---------------------------------------------------------


@pytest.fixture
def simulated(tmp_path):
    out = tmp_path / "sim"
    stdout = run_cli(["simulate", str(ROOT / "scenarios" / "setting1.yaml"), "--out", str(out)])
    checks.check_simulate(out, stdout, **SETTING1)
    return out, stdout


def test_component_both_cancelled_and_sent_is_rejected(simulated):
    out, stdout = simulated

    def cancel_a_sent_component(lines):
        tx = next(line for line in lines if ",TX_START," in line).rstrip("\n").split(",")
        first_target = tx[4].split(";")[0]
        return lines + [",".join([tx[0], "CANCEL", tx[2], tx[3], first_target, "1", ""]) + "\n"]

    edit(out / "events.csv", cancel_a_sent_component)
    with pytest.raises(CheckError, match="ends 2 times"):
        checks.check_simulate(out, stdout, **SETTING1)


def test_component_that_never_ends_is_rejected(simulated):
    out, stdout = simulated
    edit(out / "events.csv", lambda lines: [line for line in lines if ",TX_START," not in line])
    with pytest.raises(CheckError, match="ends 0 times"):
        checks.check_simulate(out, stdout, **SETTING1)


def test_power_charge_not_matching_events_is_rejected(simulated):
    out, stdout = simulated
    edit(out / "power.csv", lambda lines: lines[:2] + [replace_field(lines[2], 2, "1.0")] + lines[3:])
    with pytest.raises(CheckError, match="uplink"):
        checks.check_simulate(out, stdout, **SETTING1)


def test_decreasing_mse_integral_is_rejected(simulated):
    out, stdout = simulated
    edit(out / "mse.csv", lambda lines: lines[:-1] + [replace_field(lines[-1], 2, "0.0")])
    with pytest.raises(CheckError, match="decreases"):
        checks.check_simulate(out, stdout, **SETTING1)


def test_printed_time_average_must_match_integral(simulated):
    out, stdout = simulated
    with pytest.raises(CheckError, match="printed"):
        checks.check_simulate(out, stdout.replace("time_avg_mse=", "time_avg_mse=1"), **SETTING1)


# --- region outputs -------------------------------------------------------------

REGION = {"set_size": 2, "n_cells": 4}


@pytest.fixture
def region(tmp_path):
    out = tmp_path / "region"
    stdout = run_cli(["region", "--setsize", "2", "--x-grid", "0.05,0.95", "--y-grid", "0.25,10",
                      "--trials", "40", "--seed", "3", "--out", str(out)])
    checks.check_region(out, stdout, **REGION)
    return out, stdout


def test_region_g_must_equal_closed_form(region):
    out, stdout = region
    edit(out / "region.csv", lambda lines: lines[:2] + [replace_field(lines[2], 3, "0.125")] + lines[3:])
    with pytest.raises(CheckError, match="advantage_poly"):
        checks.check_region(out, stdout, **REGION)


def test_region_sign_disagreement_is_rejected(region):
    out, stdout = region

    def flip_means(lines):
        return lines[:2] + [
            replace_field(line, 5, repr(-float(line.split(",")[5]))) for line in lines[2:]
        ]

    edit(out / "region.csv", flip_means)
    with pytest.raises(CheckError, match="sign agreement"):
        checks.check_region(out, stdout, **REGION)
