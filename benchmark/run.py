#!/usr/bin/env python3
"""gathersim benchmark.

    python3 benchmark/run.py --workload {region,scale} --seed N --seconds S --trace {0,1}

Run from the repository root. The program is driven only through
`gathersim.cli.main([...])`, called in this process on inputs generated from
the seed. With --trace 0 the invocations repeat for S seconds untraced and
the last stdout line reports the end-to-end metrics, with times in calibrated
seconds (see calibration.py); with --trace 1 a fixed
reference set of invocations runs untraced and then traced, and the last line
reports the per-module metrics. Every invocation's outputs are checked, and
a run record (output digests, exact model counts, versions) is written under
.bench_run/records/. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
SETUP_PROBES = 7


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import `gathersim.cli` from this checkout's src/ and nowhere else."""
    package = ROOT / "src" / "gathersim"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no gathersim package at {package}")
    sys.path.insert(0, str(package.parent))
    import gathersim.cli

    if Path(gathersim.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported gathersim from {gathersim.__file__}, not {package}")
    return gathersim.cli


@dataclass
class Pass:
    """Invocations run back to back, each timed around `cli.main`."""

    walls: list[float] = field(default_factory=list)  # seconds per invocation
    ops: list[int] = field(default_factory=list)  # operations per invocation
    kernels: list[float] = field(default_factory=list)  # calibration kernel seconds, if timed
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # the whole loop, checks included
    failures: list[str] = field(default_factory=list)

    def speed(self, walls) -> tuple[float, list[float]]:
        """(operations per second, ms per operation of each invocation)."""
        return self.attempted / sum(walls), [1000.0 * w / n for w, n in zip(walls, self.ops)]


def outputs_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_pass(
    cli, invocations, jobs: int, out: Path, digests: dict, seconds=None, tracer=None, calibrate=False
) -> Pass:
    """Run invocations until they end or `seconds` have passed.

    With `calibrate`, the calibration kernel is timed before every
    invocation and once after the last (see calibration.py).

    An invocation fails when `cli.main` raises or returns non-zero, when a
    check on its outputs fails, or when its outputs differ from an earlier
    invocation with the same input key.
    """
    result = Pass()
    start = time.perf_counter()
    for inv in invocations:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        shutil.rmtree(out, ignore_errors=True)
        if calibrate:
            result.kernels.append(calibration.time_kernel())
        if tracer is not None:
            tracer.op += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(inv.argv(out, jobs))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a crash is a failed operation, not a failed benchmark
            rc = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        result.walls.append(wall)
        result.ops.append(inv.ops)
        result.attempted += inv.ops
        problem = None
        if rc != 0:
            problem = f"exit {rc!r}: {stderr.getvalue().strip()[-300:]}"
        else:
            try:
                inv.check(out, stdout.getvalue())
                digest = outputs_digest(out)
                if digests.setdefault(inv.key, digest) != digest:
                    problem = "outputs differ from an earlier invocation with the same input"
            except Exception as e:  # malformed output fails the check, whatever it raises
                problem = f"{type(e).__name__}: {e}"
        if problem is not None:
            result.failed += inv.ops
            result.failures.append(f"{inv.key}: {problem}")
    if calibrate:
        result.kernels.append(calibration.time_kernel())
    result.wall = time.perf_counter() - start
    return result


def model_counts(cli, workload, out: Path, digests: dict) -> tuple[Pass, dict]:
    """Run one cycle at jobs=1 and count the event kinds of every trial."""
    counts: Counter = Counter()

    def counting(run_trial):
        @functools.wraps(run_trial)
        def wrapper(*args, **kwargs):
            result = run_trial(*args, **kwargs)
            counts["trials"] += 1
            for r in result.events.records:
                counts["events"] += 1
                if r.kind in ("TRIGGER", "CANCEL", "DROP"):
                    counts[r.kind.lower() + "_components"] += r.size
            return result

        return wrapper

    with spans.patched(
        [("gathersim.cli", "run_trial", counting), ("gathersim.experiments", "run_trial", counting)]
    ):
        record = run_pass(cli, workload.cycle, 1, out, digests)
    triggered = counts["trigger_components"]
    model = {
        **{k: counts[k] for k in ("trials", "events", "trigger_components", "cancel_components", "drop_components")},
        "events_per_trial": counts["events"] / counts["trials"],
        "cancel_frac": counts["cancel_components"] / triggered if triggered else 0.0,
        "drop_frac": counts["drop_components"] / triggered if triggered else 0.0,
    }
    return record, model


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the point where it has
    imported the program and written the workload inputs, several times,
    and the start-up calibration times around them."""
    calibration.time_startup()  # warm-up: the first spawn in a run is often slower
    times, startups = [], [calibration.time_startup()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
        times.append(float(proc.stdout.split()[-1]) - start)
        startups.append(calibration.time_startup())
    return times, startups


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def per_layer_metrics(tracer, traced: Pass, plain: Pass, parallel, pool_jobs: int, model: dict) -> tuple[dict, dict]:
    """Per-module metrics of the traced pass, and how its wall time splits."""
    selfs = spans.self_times(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    trial_ms = [1000.0 * (s.end - s.start) for s in tracer.spans if s.name == "protocol.run_trial"]
    c = tracer.counters
    program_self = sum(v for k, v in selfs.items() if k != spans.HARNESS)
    tail_p, tail_ms = stats.tail(trial_ms) if trial_ms else (None, 0.0)

    def self_s(name):
        return selfs.get(name, 0.0)

    metrics = {
        "protocol.run_trial.calls": calls["protocol.run_trial"],
        "protocol.run_trial.self_s": self_s("protocol.run_trial"),
        "protocol.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "protocol.trial_ms_tail": tail_ms,
        "protocol.events_per_trial": model["events_per_trial"],
        "protocol.us_per_event": 1000.0 * sum(trial_ms) / c["events"] if c["events"] else 0.0,
        "protocol.csv_write.self_s": self_s("protocol.csv_write"),
        "protocol.csv_bytes": c["csv_bytes"],
        "protocol.cancel_frac": model["cancel_frac"],
        "protocol.drop_frac": model["drop_frac"],
        "estimation.accumulate_mse.calls": calls["estimation.accumulate_mse"],
        "estimation.accumulate_mse.self_s": self_s("estimation.accumulate_mse"),
        "estimation.fuse.calls": calls["estimation.fuse"],
        "estimation.fuse.self_s": self_s("estimation.fuse"),
        "dynamics.step_targets.calls": calls["dynamics.step_targets"],
        "dynamics.step_targets.self_s": self_s("dynamics.step_targets"),
        "dynamics.observed_rows.calls": calls["dynamics.observed_rows"],
        "dynamics.observed_rows.self_s": self_s("dynamics.observed_rows"),
        "scenario.parse.self_s": self_s("scenario.parse"),
        "scenario.validate.calls": calls["scenario.validate"],
        "scenario.validate.self_s": self_s("scenario.validate"),
        "geometry.collaborative_sets.self_s": self_s("geometry.collaborative_sets"),
        "geometry.sets_found": c["sets_found"],
        "geometry.membership.calls": calls["geometry.membership"],
        "geometry.membership.self_s": self_s("geometry.membership"),
        "experiments.run_paired_trial.calls": calls["experiments.run_paired_trial"],
        "experiments.run_paired_trial.self_s": self_s("experiments.run_paired_trial"),
        "experiments.aggregate.self_s": self_s("experiments.aggregate"),
        "experiments.pool.tasks": c["pool.tasks"],
        "experiments.pool.task_bytes": c["pool.task_bytes"],
        "experiments.parallel_efficiency": (
            sum(plain.walls) / (pool_jobs * sum(parallel.walls)) if parallel is not None else 0.0
        ),
        "cli.main.self_s": self_s("cli.main"),
        "harness.self_s": traced.wall - program_self,
        "trace.wall_s": traced.wall,
        "trace_overhead_frac": traced.wall / plain.wall - 1.0,
    }
    accounting = {
        "traced_wall_s": traced.wall,
        "module_self_s": {k: v for k, v in sorted(selfs.items()) if k != spans.HARNESS},
        "harness_s": traced.wall - program_self,
        "trial_tail_percentile": tail_p,
        "trials_timed": len(trial_ms),
        "spans": len(tracer.spans),
    }
    return metrics, accounting


def run(args) -> dict:
    cli = load_cli()
    import numpy

    base = WORK / args.workload
    workload = workloads.build(args.workload, args.seed, base / "inputs")
    out = base / "out"
    digests: dict[str, str] = {}
    passes: list[Pass] = []
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": 1, "pool_jobs": workload.pool_jobs,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
        "src_sha256": src_digest(),
    }

    # one cycle at jobs=1 counts the model events and warms caches before timing
    record_pass, model = model_counts(cli, workload, out, digests)
    passes.append(record_pass)
    calibration.time_kernel()

    if args.trace == 0:
        setup, startups = setup_times(args.workload, args.seed)
        timed = run_pass(cli, workload.sequence(), 1, out, digests, seconds=args.seconds, calibrate=True)
        passes.append(timed)
        ops_per_s, op_ms = timed.speed(calibration.calibrated(timed.walls, timed.kernels))
        raw_ops_per_s, raw_op_ms = timed.speed(timed.walls)
        tail_p, tail_ms = stats.tail(op_ms)
        metrics = {
            "ops_per_s": ops_per_s,
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": tail_ms,
            "setup_s": statistics.median(calibration.calibrated(setup, startups, calibration.STARTUP_S)),
            "peak_rss_mb": peak_rss_mb(),
        }
        record.update(
            op_samples=len(op_ms), op_tail_percentile=tail_p, op_ms_samples=op_ms,
            wall_clock={
                "ops_per_s": raw_ops_per_s,
                "op_ms_p50": statistics.median(raw_op_ms),
                "op_ms_tail": stats.tail(raw_op_ms)[1],
                "setup_s": statistics.median(setup),
                "op_ms_samples": raw_op_ms,
                "setup_samples_s": setup,
            },
            calibration_s={"kernel": timed.kernels, "startup": startups},
        )
    else:
        reference = workload.reference()
        parallel = None
        if workload.pool_jobs:
            parallel = run_pass(cli, reference, workload.pool_jobs, out, digests)
            passes.append(parallel)
        plain = run_pass(cli, reference, 1, out, digests)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_pass(cli, reference, 1, out, digests, tracer=tracer)
        passes += [plain, traced]
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        spans.write_spans(tracer.spans, WORK / "spans" / f"{args.workload}-seed{args.seed}.csv")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace == 1:
        metrics, record["trace_accounting"] = per_layer_metrics(
            tracer, traced, plain, parallel, workload.pool_jobs, model
        )
        metrics["error_rate"] = failed / attempted
    record.update(
        outputs_sha256=hashlib.sha256(
            "".join(digests[inv.key] for inv in workload.cycle if inv.key in digests).encode()
        ).hexdigest(),
        outputs_by_input=dict(digests),
        model_counts=model,
        attempted=attempted,
        failed=failed,
        failures=[f for p in passes for f in p.failures][:20],
    )
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("record " + json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def with_units(metrics: dict, trace: int) -> dict:
    """Attach units from BENCHMARK.json, which must list exactly these metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            load_cli()
            workloads.build(args.workload, args.seed, WORK / args.workload / "probe")
            print(time.perf_counter())
            return 0
        result = run(args)
        result["metrics"] = with_units(result["metrics"], args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
