import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gathersim import analytics
from gathersim.analytics import (
    AdvantageParams,
    MseAdvantageParams,
    advantage_poly,
    expected_informed,
    feasibility,
    mse_advantage,
    mse_bounds,
    power_diff,
    raster_region,
)
from gathersim.scenario import ScenarioError


# ---------------------------------------------------------------- power_diff

def test_power_diff_worked_example():
    assert power_diff([2], [2], [3], 2, 1) == 6


def test_power_diff_no_informed_is_pure_loss():
    assert power_diff([2, 1], [0, 0], [3, 2], 2, 1) == -(2 * 3 + 1 * 2)


def test_power_diff_no_collaborative_components():
    assert power_diff([0, 0], [1, 1], [3, 2], 5, 3) == 0


def test_power_diff_integer_exactness():
    big = 10**12
    assert power_diff([big], [2], [3], big, 1) == big * (2 * (big + 1) - 3)
    assert isinstance(power_diff([1], [1], [2], 2, 1), int)
    exact = power_diff([1], [1], [2], Fraction(1, 3), Fraction(1, 7))
    assert exact == Fraction(1, 3) + Fraction(1, 7) - 2 * Fraction(1, 7)


def test_power_diff_rejects_informed_at_or_above_size():
    with pytest.raises(ValueError):
        power_diff([1], [3], [3], 1, 1)
    with pytest.raises(ValueError):
        power_diff([1], [4], [3], 1, 1)
    with pytest.raises(ValueError):
        power_diff([1, 1], [0], [2, 2], 1, 1)


# --------------------------------------------------------- expected_informed

def test_expected_informed_endpoints():
    for m in range(2, 7):
        assert expected_informed(0.0, m) == m - 1
        assert expected_informed(1.0, m) == 0.0


def test_expected_informed_known_values():
    assert expected_informed(0.5, 2) == 0.25
    assert math.isclose(expected_informed(0.3, 3), 1.127)


def test_expected_informed_clamps_large_ratio():
    assert expected_informed(1.7, 4) == 0.0


def test_expected_informed_rejects_bad_input():
    with pytest.raises(ValueError):
        expected_informed(0.5, 1)
    with pytest.raises(ValueError):
        expected_informed(-0.1, 3)


def test_expected_informed_decreasing_scan():
    for m in (2, 3, 5):
        xs = np.linspace(0.0, 1.0, 1000)
        vals = [expected_informed(float(x), m) for x in xs]
        assert vals[0] == m - 1
        assert vals[-1] == 0.0
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ oracle agreement

def oracle_informed(x: float, set_size: int, samples: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of the expected informed count, with standard error.

    Draws unit-uniform backoffs, takes the lowest-index minimum as lead, and
    counts sensors whose backoff exceeds the lead's by more than x. This is
    the independent check for `expected_informed`.
    """
    if set_size < 2:
        raise ValueError(f"set size must be >= 2 (got {set_size})")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    b = rng.random((samples, set_size))
    lead_vals = b.min(axis=1)
    informed = (b > (lead_vals + x)[:, None]).sum(axis=1)
    mean = float(informed.mean())
    if samples == 1:
        return mean, 0.0
    se = float(informed.std(ddof=1) / math.sqrt(samples))
    return mean, se


def test_oracle_informed_zero_ratio_is_exact():
    mean, se = oracle_informed(0.0, 4, 2000, np.random.default_rng(0))
    assert mean == 3.0
    assert se == 0.0


def test_oracle_informed_ratio_at_least_one_is_zero():
    mean, se = oracle_informed(1.0, 3, 2000, np.random.default_rng(0))
    assert mean == 0.0 and se == 0.0
    mean, se = oracle_informed(2.5, 3, 2000, np.random.default_rng(0))
    assert mean == 0.0


def test_oracle_matches_closed_form():
    mean, se = oracle_informed(0.3, 3, 10**6, np.random.default_rng(42))
    assert abs(mean - 1.127) < 3 * se


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_informed(0.5, 1, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        oracle_informed(0.5, 2, 0, np.random.default_rng(0))


# ------------------------------------------------------------------ thresholds

def test_feasibility_values():
    assert feasibility(3) == 0.5
    assert feasibility(2) == 1.0
    assert feasibility(101) == 0.01


def test_feasibility_rejects_small_sets():
    with pytest.raises(ValueError):
        feasibility(1)


def test_advantage_poly_at_zero_delay():
    for m in (2, 3, 4):
        for y in (0.2, 1.0, 3.0):
            g = advantage_poly(AdvantageParams(0.0, y, m))
            assert math.isclose(g, (m - 1) * y - 1.0)


def test_advantage_poly_at_full_delay_is_exact():
    for m in (2, 3, 4, 7):
        for y in (0.3, 1.0, 2.7, 9.99):
            assert advantage_poly(AdvantageParams(1.0, y, m)) == -float(m)


def test_advantage_poly_worked_example():
    assert math.isclose(advantage_poly(AdvantageParams(0.2, 2.0, 3)), 1.224)


def test_advantage_poly_domain():
    with pytest.raises(ValueError):
        advantage_poly(AdvantageParams(1.2, 1.0, 3))
    with pytest.raises(ValueError):
        advantage_poly(AdvantageParams(0.5, 1.0, 1))
    for y in (math.nan, 0.0, -5.0, math.inf):
        with pytest.raises(ValueError, match="AdvantageParams.y: must be"):
            advantage_poly(AdvantageParams(0.3, y, 3))


@given(
    x=st.floats(0.0, 1.0),
    up=st.floats(0.05, 20.0),
    down=st.floats(0.05, 20.0),
    collab=st.integers(1, 50),
    m=st.integers(2, 8),
)
@settings(max_examples=300)
def test_poly_sign_equals_expected_power_difference(x, up, down, collab, m):
    # substituting the expected informed count into the per-step difference
    # must equal collab * down * g(x, up/down, m)
    expected = power_diff([collab], [expected_informed(x, m)], [m], up, down)
    g = advantage_poly(AdvantageParams(x, up / down, m))
    assert math.isclose(expected, collab * down * g, rel_tol=1e-9, abs_tol=1e-9)


def test_feasibility_consistent_with_poly_at_zero():
    for m in (2, 3, 4, 5):
        for y in np.linspace(0.05, 5.0, 100):
            y = float(y)
            if abs(y - feasibility(m)) < 1e-9:
                continue
            g = advantage_poly(AdvantageParams(0.0, y, m))
            assert (g > 0) == (y > feasibility(m))


# ---------------------------------------------------------------- mse formulas

def test_mse_advantage_worked_example():
    thr, ok = mse_advantage(MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1))
    assert math.isclose(thr, math.sqrt(149.0))
    assert ok


def test_mse_advantage_threshold_zero():
    thr, ok = mse_advantage(MseAdvantageParams(1.0, 0.5, 1.0, 2.0, 1))
    assert thr == 0.0
    assert ok


def test_mse_advantage_vanishing_noise():
    thr, ok = mse_advantage(MseAdvantageParams(2.0, 1e-12, 150.0, 2.0, 1))
    assert ok


def test_mse_advantage_noiseless():
    # threshold/noise is infinite at sigma = 0, above any finite threshold
    thr, ok = mse_advantage(MseAdvantageParams(2.0, 0.0, 150.0, 2.0, 1))
    assert math.isclose(thr, math.sqrt(149.0))
    assert ok
    with pytest.raises(ValueError):
        mse_advantage(MseAdvantageParams(2.0, -0.1, 150.0, 2.0, 1))


def test_mse_advantage_rejects_nonpositive():
    with pytest.raises(ValueError):
        mse_advantage(MseAdvantageParams(0.0, 0.1, 150.0, 2.0, 1))
    with pytest.raises(ValueError):
        mse_advantage(MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 0))


@pytest.mark.parametrize("field", ["trigger_threshold", "noise_std", "sampling_period", "uplink_delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mse_advantage_rejects_non_finite(field, value):
    # a NaN passes every `<= 0` check, so finiteness is checked on its own
    params = replace(MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1), **{field: value})
    with pytest.raises(ValueError, match="finite"):
        mse_advantage(params)


def test_mse_bounds_worked_example():
    gain, loss = mse_bounds([1], [1], [2], MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1))
    assert math.isclose(gain, 8.02)
    assert math.isclose(loss, 1.5)
    assert gain > loss


def test_mse_bounds_zero_informed():
    gain, loss = mse_bounds([3, 2], [0, 0], [3, 2], MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1))
    assert gain == 0.0
    assert loss == 0.0


def test_mse_bounds_rejects_a_negative_count():
    # the same per-set check as power_diff
    for counts in (([-1], [0], [2]), ([1], [-1], [2])):
        with pytest.raises(ScenarioError, match=r"counts\[0\]: must be >= 0"):
            mse_bounds(*counts, MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1))
        with pytest.raises(ScenarioError, match=r"counts\[0\]: must be >= 0"):
            power_diff(*counts, 1, 1)


@pytest.mark.parametrize("call", [
    lambda: expected_informed(0.5, 1),
    lambda: expected_informed(-0.1, 3),
    lambda: feasibility(1),
    lambda: advantage_poly(AdvantageParams(0.3, math.inf, 3)),
    lambda: mse_advantage(MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 0)),
    lambda: power_diff([1], [2], [2], 1, 1),
    lambda: mse_bounds([1], [0, 0], [2], MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1)),
    lambda: analytics.approx_network_advantage([], y=1.0),
])
def test_parameter_errors_are_scenario_errors(call):
    with pytest.raises(ScenarioError):
        call()


def test_mse_bounds_rejects_full_informed():
    with pytest.raises(ValueError):
        mse_bounds([1], [2], [2], MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1))


def test_mse_bounds_tight_at_threshold():
    # when the ratio sits exactly on the threshold, the gain bound equals the
    # loss-side chain with the per-set factor i/(m(m-i)) relaxed to i
    sampling, uplink, unique = 150.0, 2.0, 1
    sigma = 0.1
    eps = sigma * math.sqrt(2 * sampling / (uplink * unique) - 1.0)
    collab, informed, size = [2], [1], [3]
    gain, loss = mse_bounds(collab, informed, size, MseAdvantageParams(eps, sigma, sampling, uplink, unique))
    relaxed_loss = 2.0 * sampling * sigma**2 * sum(
        i * c for i, c in zip(informed, collab)
    )
    assert math.isclose(gain, relaxed_loss, rel_tol=1e-12)
    assert loss <= relaxed_loss + 1e-12


# -------------------------------------------------------------------- raster

def test_raster_pair_at_unit_cost_never_advantageous():
    points = raster_region(2, np.linspace(0.0, 1.0, 11), [1.0])
    assert all(not p.theory_advantage for p in points)


def test_raster_cheap_downlink_small_delay_advantageous():
    (point,) = raster_region(3, [0.01], [10.0])
    assert point.theory_advantage


def test_raster_full_delay_never_advantageous():
    points = raster_region(4, [1.0], np.linspace(0.1, 10.0, 25))
    assert all(not p.theory_advantage for p in points)
    assert all(p.g == -4.0 for p in points)


def test_raster_clamps_large_ratios():
    (point,) = raster_region(3, [1.6], [5.0])
    assert point.g == -3.0
    assert not point.theory_advantage


# ------------------------------------------------------------- approximation

def test_approx_params_exact_under_symmetry():
    from gathersim.experiments import assumption1_scenario

    scn = assumption1_scenario(3, 3, 0, backoff_interval=30.0)
    estimates = analytics.approx_params(scn)
    assert len(estimates) == 3
    for est in estimates:
        assert math.isclose(est.delay_estimate, 9.0)
        assert math.isclose(est.delay_ratio, 0.3)
        assert math.isclose(est.set_size_estimate, 3.0)


def test_approx_params_excludes_isolated_sensor():
    from gathersim.scenario import (
        Architecture,
        CostParams,
        DynamicsParams,
        Environment,
        ProtocolParams,
        Scenario,
        SensorSpec,
        TargetSpec,
    )

    scn = Scenario(
        environment=Environment(50.0, 50.0),
        sensors=(
            SensorSpec(0, (10.0, 10.0), 6.0),
            SensorSpec(1, (18.0, 10.0), 6.0),
            SensorSpec(2, (40.0, 40.0), 5.0),
        ),
        targets=(TargetSpec(0, (14.0, 10.0)), TargetSpec(1, (40.0, 40.0))),
        protocol=ProtocolParams(100.0, 30.0, 2.0, 1.0, 2.0, 0.1, 500.0),
        dynamics=DynamicsParams(3.0, 100.0, 0.5),
        costs=CostParams(2.0, 1.0),
        architecture=Architecture.FB,
        seed=3,
    )
    estimates = analytics.approx_params(scn)
    assert [e.sensor_id for e in estimates] == [0, 1]


def test_approx_network_advantage_votes():
    from gathersim.experiments import assumption1_scenario

    scn = assumption1_scenario(3, 3, 0, backoff_interval=30.0)
    estimates = analytics.approx_params(scn)
    frac, verdict = analytics.approx_network_advantage(estimates, y=5.0)
    assert frac == 1.0 and verdict
    frac, verdict = analytics.approx_network_advantage(estimates, y=0.1)
    assert frac == 0.0 and not verdict
    with pytest.raises(ValueError):
        analytics.approx_network_advantage([], y=1.0)
