"""Every closed form and trial-harness entry point rejects a non-finite or
out-of-range parameter with a ScenarioError that names the parameter."""

import inspect
import math
import re
from dataclasses import fields, replace

import pytest

from gathersim import analytics, experiments
from gathersim.analytics import AdvantageParams, MseAdvantageParams
from gathersim.scenario import ScenarioError

MSE = MseAdvantageParams(2.0, 0.1, 150.0, 2.0, 1)
MSE_OUT_OF_RANGE = dict(trigger_threshold=0.0, noise_std=-0.1, sampling_period=0.0,
                        uplink_delay=0.0, min_unique=0)
GRID_BASE = experiments.assumption1_scenario(2, 2, 0, sampling_period=40.0, horizon=160.0)
ESTIMATES = analytics.approx_params(experiments.assumption1_scenario(3, 3, 0))
PER_SET = dict(collaborative_counts=[1], informed_counts=[1], set_sizes=[2])
PER_SET_OUT_OF_RANGE = dict(collaborative_counts=-1, informed_counts=-1, set_sizes=1)
HUGE = 10**400  # an integer past float range

# (entry point, valid keyword arguments, one out-of-range value per parameter)
CALLS = [
    (analytics.expected_informed, dict(x=0.3, set_size=3), dict(x=-0.1, set_size=1)),
    (analytics.feasibility, dict(set_size=3), dict(set_size=1)),
    (analytics.power_diff, dict(PER_SET, uplink_power=2.0, downlink_power=1.0),
     dict(PER_SET_OUT_OF_RANGE, uplink_power=0.0, downlink_power=0.0)),
    (analytics.mse_bounds, dict(PER_SET, params=MSE), PER_SET_OUT_OF_RANGE),
    (analytics.approx_network_advantage, dict(estimates=ESTIMATES, y=2.0, delay_scale=1.0),
     dict(y=0.0, delay_scale=0.0)),
    (experiments.paired_grid, dict(base=GRID_BASE, backoff_intervals=[30.0], trials=1, jobs=1),
     dict(backoff_intervals=0.0, trials=0, jobs=0)),
    (experiments.assumption1_scenario,
     dict(set_size=3, collaborative_targets=3, unique_targets=0),
     dict(set_size=1, collaborative_targets=0, unique_targets=-1, backoff_interval=0.0,
          sampling_period=0.0, horizon=0.0, noise_std=-0.1, move_probability=1.5, seed=2.5)),
    (experiments.region_cells, dict(set_size=2, x_values=[0.5], seed=0),
     dict(set_size=1, x_values=0.0, seed=2.5)),
    (analytics.raster_region, dict(set_size=2, x_values=[0.5], y_values=[1.0]),
     dict(set_size=1, x_values=-0.1, y_values=0.0)),
]

# (entry point taking one record, a valid record, one out-of-range value per field)
RECORD_CALLS = [
    (analytics.advantage_poly, AdvantageParams(0.3, 2.0, 3), dict(x=1.5, y=0.0, set_size=1)),
    (analytics.mse_advantage, MSE, MSE_OUT_OF_RANGE),
    (lambda params: analytics.mse_bounds([1], [1], [2], params), MSE, MSE_OUT_OF_RANGE),
]

# raster_region checks its grids under the closed form's names and its set size
# as the record field; paired_grid's base scenario, mse_bounds' record and the
# vote's estimates are covered elsewhere
LABELS = {(analytics.raster_region, "x_values"): "x", (analytics.raster_region, "y_values"): "y",
          (analytics.raster_region, "set_size"): "AdvantageParams.set_size"}
UNLISTED = {"base", "params", "estimates"}


def case_id(*parts):
    return "-".join("HUGE" if part is HUGE else str(part) for part in parts)


def cases():
    for call, valid, out_of_range in CALLS:
        assert set(out_of_range) == set(inspect.signature(call).parameters) - UNLISTED
        for name, bad in out_of_range.items():
            listed = isinstance(valid.get(name), list)
            label = LABELS.get((call, name), name) + ("[0]" if listed else "")
            for value in (math.nan, math.inf, -math.inf, bad, True, "a", HUGE):
                kwargs = dict(valid, **{name: [value] if listed else value})
                yield pytest.param(call, kwargs, label, id=case_id(call.__name__, name, value))
    for k, (call, record, out_of_range) in enumerate(RECORD_CALLS):
        assert set(out_of_range) == {f.name for f in fields(record)}
        for name, bad in out_of_range.items():
            label = f"{type(record).__name__}.{name}"
            for value in (math.nan, math.inf, -math.inf, bad, True, "a", HUGE):
                kwargs = dict(params=replace(record, **{name: value}))
                yield pytest.param(call, kwargs, label, id=case_id(f"record{k}", label, value))


@pytest.mark.parametrize("call, kwargs, label", cases())
def test_a_bad_parameter_is_a_scenario_error_naming_it(call, kwargs, label):
    with pytest.raises(ScenarioError, match=rf"(^|; ){re.escape(label)}: must be"):
        call(**kwargs)
