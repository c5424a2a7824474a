"""Central-unit fusion and mean-squared-error accounting.

The central unit keeps one estimate per target. Measurements carried by
packets are tagged with the sampling step they were taken at; measurements of
the same target from the same step are averaged, a newer step replaces the
estimate outright, and stale steps are discarded. The error metric is the
time integral of the mean squared estimation error, extended piecewise
constantly between events; `protocol.score_trial` computes the error.
"""

from __future__ import annotations

import math
from functools import cached_property


class EstimatorState:
    """Per-target fused value, fusion count and epoch bookkeeping.

    `fuse` keeps each target's current estimate in `estimates`, by the row
    `row` gives its id: None for a target not yet measured, else an (x, y)
    tuple, which the engine reads for its echoes and records for the scorer.
    `row`, the caller's map of target ids to rows 0..n-1, is only read, so the
    trials of a draw layout share it. Steps are >= 0, so an epoch of -1 marks
    a target with no estimate yet.
    """

    def __init__(self, row):
        self.row = row
        n = len(row)
        self.estimates = [None] * n
        self._sums = [(0.0, 0.0)] * n
        self._counts = [0] * n
        self._epochs = [-1] * n


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
