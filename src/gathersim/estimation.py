"""Central-unit fusion and mean-squared-error accounting.

The central unit keeps one estimate per target. Measurements carried by
packets are tagged with the sampling step they were taken at; measurements of
the same target from the same step are averaged, a newer step replaces the
estimate outright, and stale steps are discarded. The error metric is the
time integral of the mean squared estimation error, extended piecewise
constantly between events.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .scenario import Point

# fields with fewer targets are scored in plain Python: from 8 elements up,
# np.add.reduce sums pairwise and its result can differ in the last bit
SMALL_FIELD = 8


class EstimatorState:
    """Per-target fused value, fusion count and epoch bookkeeping.

    `fuse` keeps each target's current estimate in `estimates`, by the row
    `row` gives its id. Without a default point they are a list that holds
    None for a target not yet measured, which the engine reads for its
    echoes; such a state cannot score. With one (normally the environment
    centroid), targets never seen are scored against it, so the metric is
    defined from time zero: a list of (x, y) tuples below `SMALL_FIELD`
    targets, an (n, 2) array from there up. Steps are >= 0, so an epoch of
    -1 marks a target with no estimate yet.
    """

    def __init__(self, target_ids, default_point: Point | None = None):
        self.row = {tid: i for i, tid in enumerate(target_ids)}
        n = len(target_ids)
        self._sums = [(0.0, 0.0)] * n
        self._counts = [0] * n
        self._epochs = [-1] * n
        if default_point is None:
            self.estimates = [None] * n
        elif 0 < n < SMALL_FIELD:  # an empty field keeps numpy's nan score
            self.estimates = [(float(default_point[0]), float(default_point[1]))] * n
        else:
            self.estimates = np.full((n, 2), default_point, dtype=float)

    def mean_squared_error(self, positions) -> float:
        """The error against the (n, 2) truth array, or a small field's `tolist()` of it."""
        estimates = self.estimates
        if type(estimates) is list:
            if type(positions) is not list:
                positions = positions.tolist()
            # below SMALL_FIELD elements np.add.reduce adds left to right, so
            # this sum is bit-identical to the array expression below
            total = 0.0
            for (ex, ey), (px, py) in zip(estimates, positions):
                dx = ex - px
                dy = ey - py
                total += dx * dx + dy * dy
            return total / len(estimates)
        diff = estimates - positions
        sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        # np.mean's own sum and division (nan for no targets), without its overhead
        return float(np.add.reduce(sq) / len(sq))


def fuse(state: EstimatorState, components, step: int) -> None:
    """Fuse a fully received uplink packet, whose (target id, (x, y) tuple)
    `components` were all measured at `step`, into the central estimates.
    A step's first measurement of a target becomes its estimate as it is
    (v / 1 is v, bit for bit); a later one from the same step gives the
    running mean; one older than the current estimate is stale and dropped."""
    row_of, estimates = state.row, state.estimates
    sums, counts, epochs = state._sums, state._counts, state._epochs
    for tid, value in components:
        row = row_of[tid]
        if step == epochs[row]:
            c = counts[row] = counts[row] + 1
            sx, sy = sums[row] = (sums[row][0] + value[0], sums[row][1] + value[1])
            estimates[row] = (sx / c, sy / c)
        elif step > epochs[row]:
            counts[row] = 1
            epochs[row] = step
            sums[row] = estimates[row] = value


class EstimatorTrace:
    """Time series of instantaneous MSE and its running integral. Only the
    integral is computed up front; the `rows` of (time, error, integral so
    far) are built on first read, which only `trace_to_csv` and tests do."""

    def __init__(self, times, errors, integral: float):
        self.times, self.errors, self.integral = times, errors, integral

    @cached_property
    def rows(self) -> list[tuple[float, float, float]]:
        rows, integral, last = [], 0.0, 0.0
        for t, inst in zip(self.times, self.errors):
            dt = t - last
            if dt > 0:
                last += dt
                integral += dt * inst
                rows.append((last, inst, integral))
        return rows


def accumulate_mse(times, errors) -> EstimatorTrace:
    """Integrate the error from time zero to each of `times` in turn, holding
    the matching entry of `errors` over the interval that ends there.

    `protocol.score_trial` passes one trial's series: the time of every event
    the engine handled and of every move, in queue order, then the horizon,
    each paired with the error in force just before it, which it recomputes
    only after a fusion or a move. An interval ends at `last + dt`, which
    rounding can put one ulp past `t`; a later time equal to `t` then adds
    nothing. Times that go back further raise ValueError.
    """
    integral = last = 0.0
    for t, inst in zip(times, errors):
        dt = t - last
        if dt > 0:
            integral += dt * inst
            last += dt
        elif dt < 0 and math.nextafter(t, math.inf) < last:
            raise ValueError("times must be nondecreasing")
    return EstimatorTrace(times, errors, integral)
