"""The two benchmark workloads: seeded inputs and the invocations they run.

Every workload is a cycle of distinct CLI invocations whose inputs derive
from the workload seed; a run repeats the cycle until its time is up. A
repeated invocation must reproduce the outputs of its first occurrence.

- region: `gathersim region` for set sizes 2 and 3 on the default 10 x 10
  (x, y) grid. Trials are tiny, so per-trial fixed cost weighs most, on top
  of the event engine. The only workload with a process pool to time.
- scale: `gathersim simulate --dump-structure --dump-trajectory` on a
  generated 64-sensor, 1000-target field. It reaches the YAML parser,
  collaborative-set enumeration and CSV writing, which Monte Carlo runs never
  touch.
"""

from __future__ import annotations

import functools
import itertools
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import checks

# Paired trials per grid cell in one invocation: enough that the region
# sign-agreement check holds on every seed (see checks.check_region).
REGION_TRIALS = 40
REGION_SET_SIZES = (2, 3)
# Timed passes run region at jobs=1: at jobs=2 on a 2-CPU VM its throughput
# spread over ten seeds exceeded the benchmark's bound. The traced mode still
# times the pool at this size, for experiments.parallel_efficiency.
REGION_POOL_JOBS = 2

# Distinct inputs per cycle, and invocations in the fixed reference set the
# traced mode runs (a whole number of cycles, so its counts repeat exactly).
CYCLE_SEEDS = {"region": 1, "scale": 3}
REFERENCE_OPS = {"region": 6, "scale": 9}

SCALE_GRID = 8
SCALE_SPACING = 20.0
SCALE_RADIUS = 14.0
SCALE_TARGETS = 1000
SCALE_SIZE = SCALE_GRID * SCALE_SPACING
# setting-1 protocol, dynamics and costs over nine sampling steps: about
# 3.6k events per trial. The backoff interval is shorter than the sampling
# period, so no transmission is dropped or still pending at the horizon.
SCALE_PROTOCOL = {
    "sampling_period": 150.0,
    "backoff_interval": 40.0,
    "uplink_delay": 2.0,
    "downlink_delay": 1.0,
    "trigger_threshold": 2.0,
    "noise_std": 0.1,
    "horizon": 1350.0,
}
SCALE_DYNAMICS = {"move_step": 3.0, "move_period": 150.0, "move_probability": 0.5}
SCALE_COSTS = {"uplink_power": 2.0, "downlink_power": 1.0}

WORKLOAD_NAMES = ("region", "scale")


@dataclass(frozen=True)
class Invocation:
    """One call of `gathersim.cli.main` and how to check what it wrote."""

    args: tuple[str, ...]  # argv without --out and --jobs
    ops: int  # paired trials it runs, or 1 for a simulate
    key: str  # equal keys must give byte-identical outputs
    takes_jobs: bool
    check: Callable[[Path, str], None]  # (output directory, captured stdout)

    def argv(self, out: Path, jobs: int) -> list[str]:
        argv = [*self.args, "--out", str(out)]
        if self.takes_jobs:
            argv += ["--jobs", str(jobs)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Invocation, ...]
    pool_jobs: int = 0  # pool size the traced mode also times; 0: no pool

    def sequence(self) -> Iterator[Invocation]:
        return itertools.cycle(self.cycle)

    def reference(self) -> list[Invocation]:
        return list(itertools.islice(self.sequence(), REFERENCE_OPS[self.name]))


def derived_seeds(seed: int, name: str, count: int) -> list[int]:
    salt = WORKLOAD_NAMES.index(name)
    return [int(v) for v in np.random.SeedSequence([seed, salt]).generate_state(count)]


def build(name: str, seed: int, inputs: Path) -> Workload:
    """Write the workload's inputs under `inputs` and return its cycle."""
    seeds = derived_seeds(seed, name, CYCLE_SEEDS[name])
    if name == "region":
        cycle = tuple(
            Invocation(
                args=("region", "--setsize", str(k), "--trials", str(REGION_TRIALS), "--seed", str(s)),
                ops=10 * REGION_TRIALS, key=f"region-{k}-{s}", takes_jobs=True,
                check=functools.partial(checks.check_region, set_size=k, n_cells=100),
            )
            for s in seeds
            for k in REGION_SET_SIZES
        )
        return Workload(name, cycle, pool_jobs=REGION_POOL_JOBS)
    if name == "scale":
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        check = functools.partial(
            checks.check_simulate, horizon=SCALE_PROTOCOL["horizon"], **SCALE_COSTS
        )
        cycle = []
        for s in seeds:
            path = inputs / f"scale-{s}.yaml"
            write_scale_scenario(path, s)
            cycle.append(
                Invocation(
                    args=("simulate", str(path), "--dump-structure", "--dump-trajectory"),
                    ops=1, key=f"scale-{s}", takes_jobs=False, check=check,
                )
            )
        return Workload(name, tuple(cycle))
    raise ValueError(f"unknown workload {name!r}")


def scale_layout(seed: int):
    """Sensor centers on an 8 x 8 grid and uniformly placed targets."""
    offset = SCALE_SPACING / 2.0
    centers = [
        (offset + SCALE_SPACING * col, offset + SCALE_SPACING * row)
        for row in range(SCALE_GRID)
        for col in range(SCALE_GRID)
    ]
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.0, SCALE_SIZE, size=(SCALE_TARGETS, 2))
    # the environment is (0, size]: move an exact 0 onto the far edge
    targets[targets <= 0.0] = SCALE_SIZE
    return centers, targets


def check_scale_structure(centers, radius: float, targets: np.ndarray) -> None:
    """Raise ValueError unless the largest collaborative set has size 2 and
    every sensor observes at least one target.

    Disks overlap when their centers are closer than 2 * radius. Three disks
    can share a point only if all three pairs overlap, so a triangle-free
    overlap graph with at least one edge means the largest set has size 2.
    The centers lie inside the convex field, so every overlap reaches into it.
    """
    n = len(centers)
    c = np.asarray(centers)
    d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    overlap = (d < 2.0 * radius) & ~np.eye(n, dtype=bool)
    if not overlap.any():
        raise ValueError("no two sensor disks overlap")
    adj = overlap.astype(np.int64)
    if np.trace(adj @ adj @ adj) != 0:
        raise ValueError("three sensor disks overlap pairwise")
    d2 = (targets[:, None, 0] - c[None, :, 0]) ** 2 + (targets[:, None, 1] - c[None, :, 1]) ** 2
    seen = (d2 <= radius * radius).any(axis=0)
    if not seen.all():
        raise ValueError(f"sensors {np.nonzero(~seen)[0].tolist()} observe no target")


def write_scale_scenario(path: Path, seed: int) -> None:
    centers, targets = scale_layout(seed)
    check_scale_structure(centers, SCALE_RADIUS, targets)
    lines = [f"environment: {{width: {SCALE_SIZE!r}, height: {SCALE_SIZE!r}}}", "sensors:"]
    for i, (x, y) in enumerate(centers):
        lines.append(f"  - {{id: {i}, center: [{x!r}, {y!r}], radius: {SCALE_RADIUS!r}}}")
    lines.append("targets:")
    for i, (x, y) in enumerate(targets):
        lines.append(f"  - {{id: {i}, position: [{float(x)!r}, {float(y)!r}]}}")
    for section, values in (
        ("protocol", SCALE_PROTOCOL), ("dynamics", SCALE_DYNAMICS), ("costs", SCALE_COSTS)
    ):
        lines.append(f"{section}:")
        lines.extend(f"  {k}: {v!r}" for k, v in values.items())
    lines += ["architecture: FB", f"seed: {seed}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
