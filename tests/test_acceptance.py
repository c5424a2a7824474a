"""Acceptance criteria: the simulator agrees with the closed forms in value.

Criterion 1. On assumption-1 cells (every set member schedules the same
packet of c collaborative components at each of the trial's sampling steps),
the mean power saved by feedback, NF minus FB in units of the downlink cost,
equals steps * c * g(x, y, M) within three standard errors.
"""

import pytest

from gathersim.experiments import region_experiment

STEPS = 5  # region_experiment runs each trial for five sampling periods
COLLABORATIVE = 3  # collaborative targets in every region_experiment cell
TRIALS = 150


@pytest.mark.parametrize("set_size", [2, 3])
def test_power_gap_matches_closed_form(set_size):
    # the gap is affine in y through the informed count, so the cells of one x
    # share a z-score and two y values per x suffice
    points = region_experiment(
        set_size, [0.05, 0.5, 0.9], [0.5, 4.0], TRIALS, seed=0
    )
    for p in points:
        expected = STEPS * COLLABORATIVE * p.g
        assert abs(p.empirical_mean - expected) <= 3.0 * p.empirical_se, (
            f"M={set_size} x={p.x} y={p.y}: mean {p.empirical_mean:.3f} "
            f"+- {p.empirical_se:.3f}, closed form {expected:.3f}"
        )
