"""The names the benchmark wraps from outside the package must keep resolving,
and its output checks must accept what the program writes.

`benchmark/spans.py` and `benchmark/run.py` patch module attributes by name
and read fields of trial results, and `benchmark/checks.py` imports from the
package and parses the CSVs, so a refactor that renames one of them or
changes an output breaks the benchmark. These checks catch that in the test
suite instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import gathersim.cli
import gathersim.experiments
from gathersim.cli import main
from gathersim.protocol import EventLog, PowerLedger, draw_inputs, run_trial
from gathersim.scenario import load_scenario

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    spans = _load("spans")
    for module, attr, _ in spans.PATCH_POINTS:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name)), f"{module}.{attr}"


def test_wrapped_call_shapes():
    # the task counter calls _run_tasks(tasks, worker, jobs) positionally, and
    # the CSV byte counter reads the path from the last positional argument
    assert list(inspect.signature(gathersim.experiments._run_tasks).parameters) == [
        "tasks", "worker", "jobs",
    ]
    for to_csv in (EventLog.to_csv, PowerLedger.to_csv):
        assert list(inspect.signature(to_csv).parameters) == ["self", "path"]


def test_trial_events_carry_kind_and_size(minimal_path):
    scn = load_scenario(minimal_path)
    records = run_trial(scn, draw_inputs(scn)).events.records
    assert records
    for r in records:
        assert isinstance(r.kind, str) and isinstance(r.size, int)


def test_region_trials_all_log_events(monkeypatch):
    # model_counts in benchmark/run.py wraps experiments.run_trial, reads the
    # event records of every trial and divides by the number of calls; an
    # unobserved trial's records come from a rerun that bypasses the wrapper
    calls, logged = [], []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        result = run_trial(*args, **kwargs)
        logged.append(len(result.events.records))
        return result

    monkeypatch.setattr(gathersim.experiments, "run_trial", counting)
    gathersim.experiments.region_experiment(2, [0.3, 0.7], [1.0], trials=3)
    assert len(calls) == len(logged) == 3 * (2 + 1)  # trials x (FB per cell + one shared NF)
    assert all(logged)
    assert logged == [len(run_trial(*args, **dict(kwargs, observe=True)).events.records)
                      for args, kwargs in calls]


def test_simulate_runs_one_logged_trial(monkeypatch, setting1_path, tmp_path):
    # on the scale workload model_counts wraps cli.run_trial and divides the
    # event count by the number of calls, dumps included
    logged = []

    def counting(*args, **kwargs):
        result = run_trial(*args, **kwargs)
        logged.append(len(result.events.records))
        return result

    monkeypatch.setattr(gathersim.cli, "run_trial", counting)
    assert main([
        "simulate", str(setting1_path), "--out", str(tmp_path),
        "--dump-trajectory", "--dump-structure",
    ]) == 0
    assert len(logged) == 1 and logged[0] > 0
    assert (tmp_path / "trajectory.csv").exists()


def test_checks_imports_resolve():
    tree = ast.parse((BENCHMARK / "checks.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gathersim")
        for alias in node.names
    }
    assert {("gathersim.analytics", "AdvantageParams"), ("gathersim.analytics", "advantage_poly")} <= imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("args", [
    ["--seed", "1"],
    ["--seed", "2"],
    ["--override", "protocol.backoff_interval=200"],
])
def test_check_simulate_accepts_setting1(setting1_path, tmp_path, capsys, args):
    scn = load_scenario(setting1_path)
    assert main(["simulate", str(setting1_path), "--out", str(tmp_path), *args]) == 0
    _load("checks").check_simulate(
        tmp_path, capsys.readouterr().out, horizon=scn.protocol.horizon,
        uplink_power=scn.costs.uplink_power, downlink_power=scn.costs.downlink_power,
    )
