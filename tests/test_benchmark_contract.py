"""The names the benchmark wraps from outside the package must keep resolving.

`benchmark/spans.py` and `benchmark/run.py` patch module attributes by name
and read fields of trial results, so a refactor that renames one of them
breaks the benchmark. These checks catch that in the test suite instead.
"""

import importlib.util
import inspect
from pathlib import Path

import gathersim.experiments
from gathersim.protocol import EventLog, PowerLedger, run_trial
from gathersim.scenario import load_scenario

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    spans = _spans_module()
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
    records = run_trial(load_scenario(minimal_path)).events.records
    assert records
    for r in records:
        assert isinstance(r.kind, str) and isinstance(r.size, int)
