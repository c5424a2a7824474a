"""Fixed calibration work that measures how fast the host runs right now.

On a shared cloud VM the same invocation can take 0.8 s or 1.6 s, depending
on what else the host runs; such regimes last from seconds to minutes. The
timed pass runs a kernel before every invocation and once after the last,
and scales each invocation's wall time by the host speed the kernel measured
on either side of it. A wall time is thereby expressed in calibrated seconds:
seconds at the host speed where the kernel takes `KERNEL_S`.

Start-up does not slow with the kernel when the host slows, so the set-up
probes are calibrated the same way by a different yardstick: a fresh
interpreter that imports numpy and PyYAML, the program's third-party
dependencies (`time_startup`), which takes `STARTUP_S` at the calibrated
speed.

The kernel lives here, not in the program, so no change to the program can
change it. It resembles the event engine: a heap of timed events, frozen
dataclass records, small numpy arrays and a numpy Generator. It makes no
reference cycles and runs with the cyclic garbage collector off, so objects
the program leaves alive do not slow it.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# Median duration of `kernel()` on a 2-vCPU KVM guest of an Intel Xeon
# (family 6, model 207), Python 3.11, numpy 2.4; it sets the scale of a
# calibrated second.
KERNEL_S = 0.107
TRIALS = 240
# Median duration of `time_startup()` on the same guest.
STARTUP_S = 0.14
STARTUP_ARGV = ("-c", "import time, numpy, yaml; print(time.perf_counter())")

_SAMPLE, _SEND = 0, 1


@dataclass(frozen=True, slots=True)
class _Record:
    time: float
    kind: int
    sensor: int
    targets: tuple[int, ...]


@dataclass(frozen=True)
class _Estimate:
    values: np.ndarray
    time: float


def _trial(seed: int, sensors: int = 3, targets: int = 3, steps: int = 5) -> float:
    """One small event-driven tracking trial; returns its squared-error integral."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.0, 20.0, size=(targets, 2))
    estimate = _Estimate(np.zeros((targets, 2)), 0.0)
    queue = [(200.0 * k, _SAMPLE, -1) for k in range(steps)]
    heapq.heapify(queue)
    log = []
    error = 0.0
    while queue:
        now, kind, sensor = heapq.heappop(queue)
        if kind == _SAMPLE:
            truth = truth + rng.normal(0.0, 1.0, size=truth.shape)
            for s in range(sensors):
                measured = truth + rng.normal(0.0, 0.1, size=truth.shape)
                deviation = np.abs(measured - estimate.values).max(axis=1)
                triggered = tuple(int(i) for i in np.nonzero(deviation > 0.5)[0])
                if triggered:
                    log.append(_Record(now, kind, s, triggered))
                    heapq.heappush(queue, (now + float(rng.uniform(0.0, 40.0)), _SEND, s))
        else:
            error += (now - estimate.time) * float(((truth - estimate.values) ** 2).sum())
            estimate = replace(estimate, values=truth.copy(), time=now)
            log.append(_Record(now, kind, sensor, ()))
    return error + len(log)


def kernel() -> float:
    return sum(_trial(seed) for seed in range(TRIALS))


def time_kernel() -> float:
    """Seconds one `kernel()` takes now, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_startup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported numpy
    and PyYAML.

    The child reads the clock itself (perf_counter is CLOCK_MONOTONIC, shared
    by every process on the host), as the set-up probes do: waiting for a
    child with a timeout polls in sleeps of up to 50 ms, too coarse to time.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *STARTUP_ARGV], check=True, capture_output=True, text=True, timeout=60
    )
    return float(proc.stdout.split()[-1]) - start


def calibrated(walls: Sequence[float], kernels: Sequence[float], kernel_s: float = KERNEL_S) -> list[float]:
    """Scale wall time `walls[i]` by the host speed around it.

    `kernels[i]` and `kernels[i + 1]` are the calibration times measured just
    before and just after `walls[i]`; their mean is the local host speed.
    `kernel_s` is the calibration time at the calibrated speed.
    """
    if len(kernels) != len(walls) + 1:
        raise ValueError("need one kernel time before each wall time and one after the last")
    return [
        wall * kernel_s / (0.5 * (before + after))
        for wall, before, after in zip(walls, kernels, kernels[1:])
    ]
