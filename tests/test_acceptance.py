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

import pytest

from gathersim.analytics import expected_informed
from gathersim.experiments import (
    DOWNLINK_DELAY,
    UPLINK_DELAY,
    RunningStats,
    assumption1_scenario,
    region_agreement,
    region_experiment,
    trial_seed,
)
from gathersim.protocol import classify_step, run_trial

STEPS = 5  # region_experiment runs each trial for five sampling periods
COLLABORATIVE = 3  # collaborative targets in every region_experiment cell
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
    lead_delay = COLLABORATIVE * (UPLINK_DELAY + DOWNLINK_DELAY)
    sampling = max(200.0, lead_delay / min(X_VALUES) + lead_delay + 10.0)
    base = assumption1_scenario(
        set_size, COLLABORATIVE, 0, sampling_period=sampling, horizon=STEPS * sampling, seed=0
    )
    full = [frozenset(range(set_size))]
    for x in X_VALUES:
        cell = replace(base, protocol=replace(base.protocol, backoff_interval=lead_delay / x))
        stats = RunningStats()
        for i in range(TRIALS):
            log = run_trial(replace(cell, seed=trial_seed(cell.seed, i))).events
            informed = sum(len(c.informed) for k in range(STEPS) for c in classify_step(log, full, k))
            stats.add(informed / STEPS)
        expected = expected_informed(x, set_size)
        assert abs(stats.mean - expected) <= 3.0 * stats.stderr, (
            f"M={set_size} x={x}: mean {stats.mean:.3f} +- {stats.stderr:.3f}, "
            f"closed form {expected:.3f}"
        )


@pytest.mark.parametrize("set_size", [2, 3])
def test_region_signs_agree_at_small_trial_count(set_size):
    # the region command's default grid, 0.05:0.95:10 by 0.25:10:10
    xs = [0.05 + i * 0.9 / 9 for i in range(10)]
    ys = [0.25 + i * 9.75 / 9 for i in range(10)]
    frac, agree, considered = region_agreement(region_experiment(set_size, xs, ys, 20, seed=0))
    assert considered >= 50
    assert frac >= 0.95, f"M={set_size}: {agree}/{considered} non-boundary cells agree"
