"""Target motion and noisy sensor measurements.

Targets follow a lazy random walk: once per move period each target jumps a
fixed step length in a uniformly random direction with probability
move_probability, otherwise it holds position. Jumps reflect off the
environment boundary. A confined target instead redraws its direction until
the jump stays inside its confinement disk, keeping the step length intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import DynamicsParams, Environment, Point, Scenario

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


def step_targets(state: WorldState, params: DynamicsParams, rng) -> WorldState:
    """Advance every target by one move period. Returns a new WorldState.

    A target draws one uniform to decide whether it moves, then one per direction
    tried, in `rng.random(k)` blocks used in scalar-draw order. k counts the targets
    from the current one on: the draws still certain to come (this draw and one
    decision per later target), so the stream is consumed exactly as by scalar draws.
    A block of one is a scalar draw, which costs about half as much.
    """
    pos = state.positions.tolist()
    env = state.environment
    p, step = params.move_probability, params.move_step
    n = len(pos)
    u = []  # the uniforms drawn ahead, the next to use last
    for i, conf in enumerate(state.confinements):
        if not u:
            u = rng.random(n - i).tolist()[::-1] if i < n - 1 else [rng.random()]
        if u.pop() >= p or step == 0.0:
            continue
        x, y = pos[i]
        if conf is None:  # one direction, folded back into the environment
            if not u:
                u = rng.random(n - i).tolist()[::-1] if i < n - 1 else [rng.random()]
            theta = u.pop() * 2.0 * math.pi
            pos[i] = (reflect(x + step * math.cos(theta), env.width),
                      reflect(y + step * math.sin(theta), env.height))
            continue
        (cx, cy), radius = conf
        for _ in range(_MAX_DIRECTION_DRAWS):  # only a confined target redraws
            if not u:
                u = rng.random(n - i).tolist()[::-1] if i < n - 1 else [rng.random()]
            theta = u.pop() * 2.0 * math.pi
            nx = x + step * math.cos(theta)
            ny = y + step * math.sin(theta)
            if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius:
                pos[i] = (nx, ny)
                break
        else:  # no direction kept it in its disk: straight toward the center, if that does
            d = math.hypot(cx - x, cy - y)
            nx, ny = (x + step * (cx - x) / d, y + step * (cy - y) / d) if d > 0 else (x + step, y)
            pos[i] = (nx, ny) if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius else (x, y)
    return WorldState(np.array(pos, dtype=float), state.target_ids, env, state.confinements)


def observed_rows(
    positions: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(sensor index, target row) of every target inside a sensor's observation
    disk, ordered by sensor index and then by row.

    `centers` has shape (n_sensors, 2) and `radii` shape (n_sensors,).
    `positions` has shape (n_targets, 2), or (n_steps, n_targets, 2) for
    (step, sensor index, target row) ordered by step first.
    """
    # x and y as separate contiguous (sensor, row) planes: unit-stride passes
    dx = positions[..., None, :, 0] - centers[:, 0, None]
    dy = positions[..., None, :, 1] - centers[:, 1, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.nonzero(dx <= (radii * radii)[:, None])


def measure(positions: np.ndarray, rows: np.ndarray, noise_std: float, rng) -> np.ndarray:
    """Noisy positions of the given target rows, shape (len(rows), 2).

    Noise is zero-mean Gaussian with the given standard deviation applied
    independently per coordinate, drawn row by row, x before y.
    """
    return positions[rows] + noise_std * rng.standard_normal((len(rows), 2))
