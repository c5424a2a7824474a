"""Central-unit fusion and mean-squared-error accounting.

The central unit keeps one estimate per target. Measurements carried by
packets are tagged with the sampling step they were taken at; measurements of
the same target from the same step are averaged, a newer step replaces the
estimate outright, and stale steps are discarded. The error metric is the
time integral of the mean squared estimation error, extended piecewise
constantly between events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import Point

# fields with fewer targets are scored in plain Python: from 8 elements up,
# np.add.reduce sums pairwise and its result can differ in the last bit
SMALL_FIELD = 8


class EstimatorState:
    """Per-target fused value, fusion count and epoch bookkeeping.

    Targets never seen are scored against `default_point` (normally the
    environment centroid) so the metric is defined from time zero. The
    bookkeeping lives in Python lists, and `absorb` keeps the current
    estimates up to date for `mean_squared_error`: a list of (x, y) tuples
    below `SMALL_FIELD` targets, an (n, 2) array from there up. Steps are
    >= 0, so an epoch of -1 marks a target with no estimate yet.
    """

    def __init__(self, target_ids, default_point: Point):
        self._row = {tid: i for i, tid in enumerate(target_ids)}
        n = len(target_ids)
        self._sums = [[0.0, 0.0] for _ in range(n)]
        self._counts = [0] * n
        self._epochs = [-1] * n
        if 0 < n < SMALL_FIELD:  # an empty field keeps numpy's nan score
            self._estimates = [(float(default_point[0]), float(default_point[1]))] * n
        else:
            self._estimates = np.full((n, 2), default_point, dtype=float)

    def estimate(self, target_id: int) -> Point | None:
        row = self._row[target_id]
        if self._epochs[row] < 0:
            return None
        sx, sy = self._sums[row]
        c = self._counts[row]
        return (sx / c, sy / c)

    def fusion_count(self, target_id: int) -> int:
        return self._counts[self._row[target_id]]

    def absorb(self, target_id: int, value: Point, step: int) -> None:
        """Fold one measurement into the estimate under the epoch rules; a
        measurement older than the current estimate is stale and dropped."""
        row = self._row[target_id]
        sums = self._sums[row]
        if step == self._epochs[row]:
            sums[0] += value[0]
            sums[1] += value[1]
            self._counts[row] += 1
        elif step > self._epochs[row]:
            sums[0] = value[0]
            sums[1] = value[1]
            self._counts[row] = 1
            self._epochs[row] = step
        else:
            return
        c = self._counts[row]
        self._estimates[row] = (sums[0] / c, sums[1] / c)

    def mean_squared_error(self, positions: np.ndarray) -> float:
        estimates = self._estimates
        if type(estimates) is list:
            # below SMALL_FIELD elements np.add.reduce adds left to right, so
            # this sum is bit-identical to the array expression below
            total = 0.0
            for (ex, ey), (px, py) in zip(estimates, positions.tolist()):
                dx = ex - px
                dy = ey - py
                total += dx * dx + dy * dy
            return total / len(estimates)
        diff = estimates - positions
        sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        # np.mean's own sum and division (nan for no targets), without its overhead
        return float(np.add.reduce(sq) / len(sq))


def fuse(state: EstimatorState, packet) -> None:
    """Fuse a fully received uplink packet into the central estimate."""
    for tid, value in packet.components:
        state.absorb(tid, value, packet.step)


@dataclass
class EstimatorTrace:
    """Time series of instantaneous MSE and its running integral."""

    rows: list[tuple[float, float, float]] = field(default_factory=list)
    integral: float = 0.0
    last_time: float = 0.0

    def time_average(self, horizon: float) -> float:
        return self.integral / horizon


def accumulate_mse(trace: EstimatorTrace, times, errors) -> None:
    """Extend the error integral to each of `times` in turn, holding the
    matching entry of `errors` over the interval that ends there.

    The engine passes one trial's series in a single call: the time of every
    event it handles and then the horizon, each paired with the error in force
    just before it. It recomputes the error with
    `EstimatorState.mean_squared_error` only when the estimate (fusion) or the
    truth (a move) changes.
    """
    integral = trace.integral
    last = trace.last_time
    rows = trace.rows
    try:
        for t, inst in zip(times, errors):
            dt = t - last
            if dt < 0:
                raise ValueError("dt must be nonnegative")
            now = last + dt
            if dt > 0:
                integral += dt * inst
                rows.append((now, inst, integral))
            last = now
    finally:
        trace.integral = integral
        trace.last_time = last
