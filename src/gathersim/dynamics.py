"""Target motion and noisy sensor measurements.

Targets follow a lazy random walk: once per move period each target jumps a
fixed step length in a uniformly random direction with probability
move_probability, otherwise it holds position. Jumps reflect off the
environment boundary. A confined target instead redraws its direction until
the jump stays inside its confinement disk, keeping the step length intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .scenario import DynamicsParams, Environment, Point, Scenario, SensorSpec

_MAX_DIRECTION_DRAWS = 256


@dataclass(frozen=True)
class WorldState:
    """Ground-truth positions of all targets."""

    positions: np.ndarray  # shape (n_targets, 2), row i belongs to target_ids[i]
    target_ids: tuple[int, ...]
    environment: Environment
    confinements: tuple[Optional[tuple[Point, float]], ...]


def initial_world(scenario: Scenario) -> WorldState:
    targets = sorted(scenario.targets, key=lambda t: t.id)
    positions = np.array([t.position for t in targets], dtype=float)
    confinements = tuple(
        (t.confine_center, t.confine_radius) if t.confined else None for t in targets
    )
    return WorldState(
        positions=positions,
        target_ids=tuple(t.id for t in targets),
        environment=scenario.environment,
        confinements=confinements,
    )


def reflect(value: float, bound: float) -> float:
    """Fold a coordinate into (0, bound] by mirror reflection."""
    r = value % (2.0 * bound)
    if r > bound:
        r = 2.0 * bound - r
    if r == 0.0:
        # exact-boundary folds land on the excluded edge; nudge inward
        r = min(1e-9 * bound, bound * 0.5)
    return r


def _confined_jump(x: float, y: float, step: float, center: Point, radius: float, rng) -> Point:
    cx, cy = center
    for _ in range(_MAX_DIRECTION_DRAWS):
        theta = rng.random() * 2.0 * math.pi
        nx = x + step * math.cos(theta)
        ny = y + step * math.sin(theta)
        if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius:
            return (nx, ny)
    # fallback: jump straight toward the confinement center
    d = math.hypot(cx - x, cy - y)
    if d > 0:
        nx = x + step * (cx - x) / d
        ny = y + step * (cy - y) / d
    else:
        nx, ny = x + step, y
    if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius:
        return (nx, ny)
    return (x, y)


def step_targets(state: WorldState, params: DynamicsParams, rng) -> WorldState:
    """Advance every target by one move period. Returns a new WorldState."""
    pos = state.positions.copy()
    env = state.environment
    for i in range(pos.shape[0]):
        if rng.random() >= params.move_probability:
            continue
        if params.move_step == 0.0:
            continue
        conf = state.confinements[i]
        if conf is not None:
            pos[i] = _confined_jump(pos[i, 0], pos[i, 1], params.move_step, conf[0], conf[1], rng)
        else:
            theta = rng.random() * 2.0 * math.pi
            nx = pos[i, 0] + params.move_step * math.cos(theta)
            ny = pos[i, 1] + params.move_step * math.sin(theta)
            pos[i] = (reflect(nx, env.width), reflect(ny, env.height))
    return replace(state, positions=pos)


def observed_rows(positions: np.ndarray, sensor: SensorSpec) -> np.ndarray:
    """Row indices of targets inside the sensor's observation disk."""
    d2 = (positions[:, 0] - sensor.center[0]) ** 2 + (positions[:, 1] - sensor.center[1]) ** 2
    return np.nonzero(d2 <= sensor.radius * sensor.radius)[0]


def measure(positions: np.ndarray, rows: np.ndarray, noise_std: float, rng) -> np.ndarray:
    """Noisy positions of the given target rows, shape (len(rows), 2).

    Noise is zero-mean Gaussian with the given standard deviation applied
    independently per coordinate.
    """
    return positions[rows] + noise_std * rng.standard_normal((len(rows), 2))
