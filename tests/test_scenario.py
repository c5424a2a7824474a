import dataclasses

import pytest
import yaml
from hypothesis import given, strategies as st

from gathersim.scenario import (
    MAX_STEPS,
    Architecture,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)


def test_minimal_file_loads(minimal_path):
    scn = load_scenario(minimal_path)
    assert scn.architecture is Architecture.NF
    assert len(scn.sensors) == 1
    assert len(scn.targets) == 1
    assert validate(scn) == []


def test_setting1_values_field_for_field(setting1_path):
    scn = load_scenario(setting1_path)
    assert scn.environment.width == 50.0
    assert scn.environment.height == 50.0
    assert len(scn.targets) == 15
    assert scn.protocol.sampling_period == 150.0
    assert scn.protocol.noise_std == 0.1
    assert scn.protocol.trigger_threshold == 2.0
    assert scn.protocol.uplink_delay == 2.0
    assert scn.protocol.downlink_delay == 1.0
    assert scn.dynamics.move_step == 3.0
    assert scn.dynamics.move_period == 150.0
    assert scn.dynamics.move_probability == 0.5
    assert scn.costs.downlink_power == 1.0


def test_zero_radius_names_the_field(tmp_path, minimal_path):
    data = yaml.safe_load(minimal_path.read_text())
    data["sensors"][0]["radius"] = 0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError, match=r"SensorSpec\[0\]\.radius"):
        load_scenario(bad)


def test_parse_error(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("environment: [1, 2")
    with pytest.raises(ScenarioError, match="parse"):
        load_scenario(bad)


def test_validate_move_probability(setting1_path):
    scn = load_scenario(setting1_path)
    bad = dataclasses.replace(
        scn, dynamics=dataclasses.replace(scn.dynamics, move_probability=1.5)
    )
    violations = validate(bad)
    assert len(violations) == 1
    assert "move_probability" in violations[0]


def test_validate_duplicate_sensor_ids(setting1_path):
    scn = load_scenario(setting1_path)
    sensors = list(scn.sensors)
    sensors[1] = dataclasses.replace(sensors[1], id=0)
    bad = dataclasses.replace(scn, sensors=tuple(sensors))
    violations = validate(bad)
    assert len(violations) == 1
    assert "unique" in violations[0]


def test_validate_is_pure(setting1_path):
    scn = load_scenario(setting1_path)
    bad = dataclasses.replace(
        scn, dynamics=dataclasses.replace(scn.dynamics, move_probability=-1.0)
    )
    assert validate(bad) == validate(bad)


def test_round_trip(tmp_path, setting1_path, minimal_path):
    for path in (setting1_path, minimal_path):
        scn = load_scenario(path)
        out = tmp_path / f"rt_{path.name}"
        save_scenario(scn, out)
        assert load_scenario(out) == scn


def test_round_trip_with_confinement(tmp_path):
    from gathersim.experiments import assumption1_scenario

    scn = assumption1_scenario(3, 3, 0, 9.0, 2.0, 1.0)
    out = tmp_path / "conf.yaml"
    save_scenario(scn, out)
    assert load_scenario(out) == scn


@given(
    width=st.floats(1.0, 500.0),
    period=st.floats(0.5, 1e4),
    sigma=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**63 - 1),
)
def test_round_trip_random_values(tmp_path_factory, width, period, sigma, seed):
    data = {
        "environment": {"width": width, "height": width},
        "sensors": [{"id": 0, "center": [width / 2, width / 2], "radius": width / 4}],
        "targets": [{"id": 0, "position": [width / 2, width / 2]}],
        "protocol": {
            "sampling_period": period,
            "backoff_interval": period / 2,
            "uplink_delay": 1.0,
            "downlink_delay": 0.5,
            "trigger_threshold": 1.0,
            "noise_std": sigma,
            "horizon": period * 4,
        },
        "dynamics": {"move_step": 1.0, "move_period": period, "move_probability": 0.5},
        "costs": {"uplink_power": 2.0, "downlink_power": 1.0},
        "architecture": "FB",
        "seed": seed,
    }
    scn = scenario_from_dict(data)
    assert validate(scn) == []
    assert scenario_from_dict(scenario_to_dict(scn)) == scn


def test_missing_section():
    data = {
        "environment": {"width": 1, "height": 1},
        "sensors": [{"id": 0, "center": [0.5, 0.5], "radius": 0.2}],
        "targets": [{"id": 0, "position": [0.5, 0.5]}],
    }
    with pytest.raises(ScenarioError, match="missing section 'protocol'"):
        scenario_from_dict(data)


def test_validate_bounds_the_step_count(setting1_path):
    scn = load_scenario(setting1_path)  # sampling and move periods are both 150

    def violations(horizon, sampling_period=150.0):
        protocol = dataclasses.replace(
            scn.protocol, horizon=horizon, sampling_period=sampling_period
        )
        return validate(dataclasses.replace(scn, protocol=protocol))

    assert violations(150.0 * MAX_STEPS) == []
    over = violations(150.0 * (MAX_STEPS + 1))
    assert [v.split(" must")[0] for v in over] == [
        "ProtocolParams.horizon: horizon / ProtocolParams.sampling_period",
        "ProtocolParams.horizon: horizon / DynamicsParams.move_period",
    ]
    (only,) = violations(150.0 * (MAX_STEPS + 1), sampling_period=300.0)
    assert "DynamicsParams.move_period must be <= 100000" in only


def test_overrides_and_seed(setting1_path):
    scn = load_scenario(setting1_path, ["protocol.backoff_interval=60", "architecture=NF"], seed=5)
    assert scn.protocol.backoff_interval == 60.0
    assert scn.architecture is Architecture.NF
    assert scn.seed == 5
    with pytest.raises(ScenarioError, match="could not parse override"):
        load_scenario(setting1_path, ["protocol.horizon=["])
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(setting1_path, ["protocol.nope=3"])
