import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scripted_cases import PAIRWISE, fusion_count

from gathersim.estimation import EstimatorState, accumulate_mse, fuse
from gathersim.experiments import assumption1_scenario
from gathersim.protocol import EventLog, TrialInputs, TrialResult, score_trial
from gathersim.scenario import Environment


def test_two_measurements_average():
    state = EstimatorState({0: 0})
    fuse(state, [(0, (1.0, 2.0))], 0)
    fuse(state, [(0, (3.0, 6.0))], 0)
    assert state.estimates[0] == (2.0, 4.0)
    assert fusion_count(state, 0) == 2


def test_first_measurement_exact():
    state = EstimatorState({0: 0})
    fuse(state, [(0, (1.25, -0.5))], 0)
    assert state.estimates[0] == (1.25, -0.5)
    assert fusion_count(state, 0) == 1


def test_a_state_without_default_point_holds_none_until_measured():
    # the engine's state: a first measurement is stored as it is (v / 1 is v)
    state = EstimatorState({4: 0, 7: 1})
    assert state.estimates == [None, None] and state._epochs == [-1, -1]
    value = (1.25, -0.5)
    fuse(state, [(7, value)], 3)
    assert state.estimates[state.row[7]] is value
    assert state.estimates[state.row[4]] is None and state._epochs[state.row[4]] < 0


def test_epoch_replacement_and_reset():
    state = EstimatorState({0: 0})
    fuse(state, [(0, (1.0, 1.0))], 0)
    fuse(state, [(0, (2.0, 2.0))], 0)
    fuse(state, [(0, (10.0, 10.0))], 1)
    assert state.estimates[0] == (10.0, 10.0)
    assert fusion_count(state, 0) == 1


def test_stale_epoch_discarded():
    state = EstimatorState({0: 0})
    fuse(state, [(0, (10.0, 10.0))], 2)
    fuse(state, [(0, (0.0, 0.0))], 1)
    assert state.estimates[0] == (10.0, 10.0)
    assert fusion_count(state, 0) == 1


def test_fused_variance_shrinks_like_sample_mean():
    # fusing m same-epoch measurements must reproduce the sample-mean variance
    rng = np.random.default_rng(123)
    m, sigma, reps = 3, 0.5, 100_000
    values = []
    for _ in range(reps):
        state = EstimatorState({0: 0})
        for j in range(m):
            v = (sigma * rng.standard_normal(), sigma * rng.standard_normal())
            fuse(state, [(0, v)], 0)
        values.append(state.estimates[0])
    arr = np.array(values)
    var = arr.var(axis=0, ddof=1)
    expected = sigma * sigma / m
    assert abs(var[0] - expected) / expected < 0.05
    assert abs(var[1] - expected) / expected < 0.05


@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=2, max_size=8),
       st.integers(0, 1000))
@settings(max_examples=100)
def test_order_independence_within_epoch(values, seed):
    state_a = EstimatorState({0: 0})
    for i, v in enumerate(values):
        fuse(state_a, [(0, v)], 0)
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    state_b = EstimatorState({0: 0})
    for i, v in enumerate(shuffled):
        fuse(state_b, [(0, v)], 0)
    ax, ay = state_a.estimates[0]
    bx, by = state_b.estimates[0]
    assert math.isclose(ax, bx, rel_tol=0, abs_tol=1e-12 * max(1.0, abs(ax)))
    assert math.isclose(ay, by, rel_tol=0, abs_tol=1e-12 * max(1.0, abs(ay)))


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


# squared errors from 1e-12 to 1e12, so small terms can vanish in a large sum
SQUARE = st.builds(lambda m, e: m * 10.0**e, st.floats(0.0, 10.0), st.integers(-12, 12))


@given(st.lists(SQUARE, min_size=1, max_size=PAIRWISE - 1))
@settings(max_examples=300)
def test_left_to_right_mean_is_numpy_mean_below_cutoff(sq):
    # why the reference engine's layouts below PAIRWISE targets test one order
    mine = left_to_right(sq) / len(sq)
    numpy = float(np.add.reduce(np.array(sq)) / len(sq))
    assert mine.hex() == numpy.hex()


def test_numpy_sums_pairwise_from_cutoff():
    # why the reference engine splits its layouts at PAIRWISE targets: from
    # 8 elements numpy's sum, and so the scorer's, is pairwise
    sq = [0.1] * PAIRWISE
    assert PAIRWISE == 8
    assert float(np.add.reduce(np.array(sq))) == 0.8
    assert left_to_right(sq) == 0.7999999999999999


COORD = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-6, 6))


@given(st.lists(st.tuples(COORD, COORD, COORD, COORD), min_size=1, max_size=PAIRWISE + 2))
@settings(max_examples=100)
def test_mean_squared_error_is_numpy_expression_bitwise(rows):
    # estimates and truth of mixed magnitude, below and from the cutoff: the
    # scorer's error once every target is fused at the trial's one event
    n = len(rows)
    scenario = replace(assumption1_scenario(2, 1, 1, seed=0), environment=Environment(20.0, 20.0))
    positions = np.array([(px, py) for _, _, px, py in rows])
    inputs = TrialInputs((), tuple(range(n)), dict(zip(range(n), range(n))), (), (), (positions,), ())
    fusions = {0: [(row, (ex, ey)) for row, (ex, ey, _, _) in enumerate(rows)]}
    trace = score_trial(scenario, inputs, TrialResult(EventLog(), 0, 0, [1.0, 2.0], fusions))
    diff = np.array([(ex, ey) for ex, ey, _, _ in rows]) - positions
    want = float(np.add.reduce(diff[:, 0] ** 2 + diff[:, 1] ** 2) / n)
    assert trace.errors[-1].hex() == want.hex()


def test_integral_zero_for_perfect_estimate():
    trace = accumulate_mse([5.0], [0.0])
    assert trace.integral == 0.0


def test_integral_known_increment():
    trace = accumulate_mse([2.0], [3.0**2 + 4.0**2])
    assert trace.integral == 50.0  # error vector (3,4): 25 per unit time


def test_unseen_target_scored_against_default_point():
    # the scorer's default point is the environment's centroid, (10, 10) here
    scenario = replace(assumption1_scenario(2, 1, 1, seed=0), environment=Environment(20.0, 20.0))
    inputs = TrialInputs((), (0,), {0: 0}, (), (), (np.array([[13.0, 14.0]]),), ())
    trace = score_trial(scenario, inputs, TrialResult(EventLog(), 0, 0, [1.0], {}))
    assert trace.integral == 25.0


def test_integral_additivity():
    inst = 3.0**2 + 4.0**2
    one = accumulate_mse([8.0], [inst])
    split = accumulate_mse([3.0, 8.0], [inst, inst])
    assert abs(one.integral - split.integral) < 1e-12
    assert one.rows[-1][0] == split.rows[-1][0]  # both end at the same time


def test_negative_dt_rejected():
    with pytest.raises(ValueError):
        accumulate_mse([-1.0], [0.0])
    with pytest.raises(ValueError):
        accumulate_mse([5.0, 3.0], [1.0, 1.0])


def test_time_repeated_after_a_rounded_interval_end_adds_nothing():
    # the interval ending at t2 ends at t1 + (t2 - t1), one ulp past t2
    t1, t2 = 11.237982727094128, 77.64878301769166
    assert t1 + (t2 - t1) > t2
    once = accumulate_mse([t1, t2, 90.0], [1.0, 2.0, 3.0])
    twice = accumulate_mse([t1, t2, t2, 90.0], [1.0, 2.0, 5.0, 3.0])
    assert twice.integral == once.integral and twice.rows == once.rows


def test_feedback_wins_mse_in_paired_trials():
    # accuracy-advantage regime: threshold/noise = 20, unique components exist
    from gathersim.experiments import assumption1_scenario, paired_grid

    scn = assumption1_scenario(3, 2, 2, backoff_interval=30.0, seed=909)
    trials = 500
    (cell,) = paired_grid(scn, [scn.protocol.backoff_interval], trials, 1)
    wins = np.count_nonzero(cell.fb_mse <= cell.nf_mse + 1e-12)
    assert wins / trials >= 0.95
