"""gathersim: simulate and analyze feedback vs no-feedback data gathering
for multi-target state estimation over a shared sensor field."""

from .analytics import (
    AdvantageParams,
    AdvantagePoint,
    MseAdvantageParams,
    advantage_poly,
    expected_informed,
    feasibility,
    mse_advantage,
    mse_bounds,
    power_diff,
    raster_region,
)
from .experiments import (
    assumption1_scenario,
    region_experiment,
    run_paired_trial,
    run_sweep,
)
from .protocol import run_trial
from .scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
    ProtocolParams,
    Scenario,
    ScenarioError,
    SensorSpec,
    TargetSpec,
    load_scenario,
    validate,
)

__version__ = "0.1.0"
