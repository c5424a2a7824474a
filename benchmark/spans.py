"""Spans recorded around the program's public functions, from outside it.

A wrapper has to go on the name the caller looks up at call time: the engine
in `protocol` imported `accumulate_mse`, `fuse`, `step_targets`,
`observed_rows` and `validate` into its own namespace, and `cli` and
`experiments` imported `run_trial` into theirs. So the patch for
`estimation.accumulate_mse` goes on `gathersim.protocol.accumulate_mse`.
Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pickle
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional

HARNESS = "harness"

# (module, attribute the caller looks up, span name)
PATCH_POINTS = (
    ("gathersim.cli", "main", "cli.main"),
    ("yaml", "safe_load", "scenario.parse"),
    ("gathersim.cli", "scenario_from_dict", "scenario.parse"),
    ("gathersim.scenario", "scenario_from_dict", "scenario.parse"),
    ("gathersim.cli", "validate_scenario", "scenario.validate"),
    ("gathersim.scenario", "validate", "scenario.validate"),
    ("gathersim.experiments", "validate", "scenario.validate"),
    ("gathersim.protocol", "validate", "scenario.validate"),
    ("gathersim.cli", "run_trial", "protocol.run_trial"),
    ("gathersim.experiments", "run_trial", "protocol.run_trial"),
    ("gathersim.protocol", "accumulate_mse", "estimation.accumulate_mse"),
    ("gathersim.protocol", "fuse", "estimation.fuse"),
    ("gathersim.protocol", "step_targets", "dynamics.step_targets"),
    ("gathersim.protocol", "observed_rows", "dynamics.observed_rows"),
    ("gathersim.protocol", "EventLog.to_csv", "protocol.csv_write"),
    ("gathersim.protocol", "PowerLedger.to_csv", "protocol.csv_write"),
    ("gathersim.cli", "trace_to_csv", "protocol.csv_write"),
    ("gathersim.geometry", "collaborative_sets", "geometry.collaborative_sets"),
    ("gathersim.geometry", "membership", "geometry.membership"),
    ("gathersim.experiments", "run_paired_trial", "experiments.run_paired_trial"),
    ("gathersim.experiments", "region_experiment", "experiments.aggregate"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # harness operation (CLI invocation) the span belongs to


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def patched(replacements):
    """Set each (module, attribute) to `make(original)` and restore on exit."""
    saved = []
    try:
        for module, attr, make in replacements:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Tracer:
    """Keeps spans in memory; `op` is set by the harness before each call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recording a span named `name`; `after(args, result)`
        runs once the span has closed."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_tasks(self, run_tasks):
        """Count the tasks handed to the dispatcher and their pickled bytes,
        timed as harness work so it stays out of the caller's self time."""
        count = self.wrap(HARNESS, lambda tasks: sum(len(pickle.dumps(t)) for t in tasks))

        @functools.wraps(run_tasks)
        def wrapper(tasks, worker, jobs):
            self.counters["pool.tasks"] += len(tasks)
            self.counters["pool.task_bytes"] += count(tasks)
            return run_tasks(tasks, worker, jobs)

        return wrapper

    def installed(self):
        """Context manager that puts every wrapper in place."""
        counters = self.counters

        def after(name):
            if name == "protocol.run_trial":
                return lambda args, result: counters.update(events=len(result.events.records))
            if name == "geometry.collaborative_sets":
                return lambda args, result: counters.update(sets_found=len(result))
            if name == "protocol.csv_write":
                return lambda args, result: counters.update(csv_bytes=os.path.getsize(args[-1]))
            return None

        replacements = [
            (module, attr, lambda fn, name=name: self.wrap(name, fn, after(name)))
            for module, attr, name in PATCH_POINTS
        ]
        replacements.append(("gathersim.experiments", "_run_tasks", self._count_tasks))
        return patched(replacements)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the time its children cover.

    Raises ValueError when a child does not lie inside its parent, since the
    self times would then not add up to the traced wall time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                raise ValueError(f"span {s.name} is not nested inside {p.name}")
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, covered in zip(spans, child_time):
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,op\n")
        for s in spans:
            fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.op}\n")
