"""Acceptance criteria: the simulator agrees with the closed forms in value.

Criterion 1. On assumption-1 cells (every set member schedules the same
packet of c collaborative components at each of the trial's sampling steps),
the mean power saved by feedback, NF minus FB in units of the downlink cost,
equals steps * c * g(x, y, M) within three standard errors.

Criterion 2. On the same cells, the mean number of informed sensors per
step, classified from the FB event log, equals `expected_informed(x, M)`
within three standard errors.

Criterion 4. At a small trial count, the empirical sign of the power gap
agrees with the closed form on at least 95 % of the non-boundary cells of the
default region grid.
"""

from dataclasses import replace

import numpy as np
import pytest
from scripted_cases import classify_step

from gathersim.analytics import expected_informed
from gathersim.experiments import (
    mean_se,
    region_agreement,
    region_cells,
    region_experiment,
    trial_seed,
)
from gathersim.protocol import draw_inputs, run_trial

STEPS = 5  # region_cells sets the horizon to five sampling periods
COLLABORATIVE = 3  # collaborative targets in the region_cells layout
TRIALS = 150
X_VALUES = [0.05, 0.5, 0.9]


@pytest.mark.parametrize("set_size", [2, 3])
def test_power_gap_matches_closed_form(set_size):
    # the gap is affine in y through the informed count, so the cells of one x
    # share a z-score and two y values per x suffice
    points = region_experiment(set_size, X_VALUES, [0.5, 4.0], TRIALS, seed=0)
    for p in points:
        expected = STEPS * COLLABORATIVE * p.g
        assert abs(p.empirical_mean - expected) <= 3.0 * p.empirical_se, (
            f"M={set_size} x={p.x} y={p.y}: mean {p.empirical_mean:.3f} "
            f"+- {p.empirical_se:.3f}, closed form {expected:.3f}"
        )


@pytest.mark.parametrize("set_size", [2, 3])
def test_informed_count_matches_closed_form(set_size):
    # the cells region_experiment(set_size, X_VALUES, ...) runs, FB trials only
    base, backoffs = region_cells(set_size, X_VALUES, seed=0)
    full = [frozenset(range(set_size))]

    def informed_per_step(trial):
        log = run_trial(trial, draw_inputs(trial)).events
        sets = (c for k in range(STEPS) for c in classify_step(trial, log, full, k))
        return sum(len(c.informed) for c in sets) / STEPS

    for x, backoff in zip(X_VALUES, backoffs):
        cell = replace(base, protocol=replace(base.protocol, backoff_interval=backoff))
        mean, se = mean_se(np.array([
            informed_per_step(replace(cell, seed=trial_seed(cell.seed, i))) for i in range(TRIALS)
        ]))
        expected = expected_informed(x, set_size)
        assert abs(mean - expected) <= 3.0 * se, (
            f"M={set_size} x={x}: mean {mean:.3f} +- {se:.3f}, closed form {expected:.3f}"
        )


@pytest.mark.parametrize("set_size", [2, 3])
def test_region_signs_agree_at_small_trial_count(set_size):
    # the region command's default grid, 0.05:0.95:10 by 0.25:10:10
    xs = [0.05 + i * 0.9 / 9 for i in range(10)]
    ys = [0.25 + i * 9.75 / 9 for i in range(10)]
    frac, agree, considered = region_agreement(region_experiment(set_size, xs, ys, 20, seed=0))
    assert considered >= 50
    assert frac >= 0.95, f"M={set_size}: {agree}/{considered} non-boundary cells agree"
