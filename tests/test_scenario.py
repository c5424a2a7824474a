import dataclasses

import pytest
import yaml
from hypothesis import given, strategies as st

from gathersim import scenario
from gathersim.scenario import (
    MAX_STEPS,
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
    load_sweep_spec,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)

SECTIONS = {
    "environment": Environment,
    "protocol": ProtocolParams,
    "dynamics": DynamicsParams,
    "costs": CostParams,
}
PARAMETERS = [(key, f.name) for key, cls in SECTIONS.items() for f in dataclasses.fields(cls)]
# one out-of-bounds value per field; every other field must be > 0
BAD_VALUES = {"noise_std": -0.1, "move_probability": 1.5}


def setting1_data(setting1_path) -> dict:
    return yaml.safe_load(setting1_path.read_text())


@pytest.mark.parametrize("section,name", PARAMETERS)
def test_missing_parameter_is_named(setting1_path, section, name):
    data = setting1_data(setting1_path)
    del data[section][name]
    with pytest.raises(ScenarioError, match=rf"^{section}\.{name}: missing$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("section,name", PARAMETERS)
def test_out_of_bounds_parameter_is_the_only_violation(setting1_path, section, name):
    data = setting1_data(setting1_path)
    data[section][name] = BAD_VALUES.get(name, 0)
    (violation,) = validate(scenario_from_dict(data))
    assert violation.startswith(f"{SECTIONS[section].__name__}.{name}: must be ")


@pytest.mark.parametrize(
    "path",
    [("protocol",), ("dynamics",), ("costs",), ("environment",), ("sensors", 1), ("targets", 2),
     ("targets", 2, "confine"), ()],
)
def test_unknown_key_is_named(setting1_path, path):
    data = setting1_data(setting1_path)
    data["targets"][2]["confine"] = {"center": [25.0, 8.0], "radius": 4.0}
    node = data
    for key in path:
        node = node[key]
    node["idle_power"] = 3.0
    with pytest.raises(ScenarioError, match=r"unknown keys \['idle_power'\]"):
        scenario_from_dict(data)


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


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(scenarios_dir, setting1_path, tmp_path):
    assert scenario._LOADER is yaml.CSafeLoader
    saved = tmp_path / "saved.yaml"
    save_scenario(load_scenario(setting1_path), saved)
    paths = sorted(scenarios_dir.glob("*.yaml")) + [saved]
    assert "setting1_sweep.yaml" in [p.name for p in paths]
    for path in paths:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert isinstance(fast, dict)
        assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))


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

    scn = assumption1_scenario(3, 3, 0)
    out = tmp_path / "conf.yaml"
    save_scenario(scn, out)
    assert load_scenario(out) == scn


numbers = st.floats(allow_nan=False)
points = st.tuples(numbers, numbers)


def params(cls):
    return st.builds(cls, **{f.name: numbers for f in dataclasses.fields(cls)})


@st.composite
def scenarios(draw):
    n_sensors = draw(st.integers(1, 4))
    confine = st.one_of(st.none(), st.tuples(points, numbers))
    targets = [
        TargetSpec(i, draw(points), *(draw(confine) or (None, None)))
        for i in range(draw(st.integers(1, 5)))
    ]
    return Scenario(
        environment=draw(params(Environment)),
        sensors=tuple(SensorSpec(i, draw(points), draw(numbers)) for i in range(n_sensors)),
        targets=tuple(targets),
        protocol=draw(params(ProtocolParams)),
        dynamics=draw(params(DynamicsParams)),
        costs=draw(params(CostParams)),
        architecture=draw(st.sampled_from(Architecture)),
        seed=draw(st.integers(-(2**63), 2**64)),
    )


@given(scn=scenarios())
def test_round_trip_random_values(scn):
    # through YAML text too, so every float survives the dump and the loader
    text = yaml.safe_dump(scenario_to_dict(scn), sort_keys=False)
    assert scenario_from_dict(scenario_to_dict(scn)) == scn
    assert scenario_from_dict(yaml.load(text, Loader=scenario._LOADER)) == scn


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


def test_non_finite_values_are_named_as_such(setting1_path):
    scn = load_scenario(setting1_path)
    endless = dataclasses.replace(scn.protocol, horizon=float("inf"))
    assert validate(dataclasses.replace(scn, protocol=endless)) == [
        "ProtocolParams.horizon: must be finite (got inf)"
    ]
    sensors = (dataclasses.replace(scn.sensors[0], radius=float("nan")), *scn.sensors[1:])
    assert validate(dataclasses.replace(scn, sensors=sensors)) == [
        "SensorSpec[0].radius: must be finite (got nan)"
    ]


def test_load_sweep_spec(scenarios_dir, setting1_path):
    spec = scenarios_dir / "setting1_sweep.yaml"
    base, backoffs, uplink_powers, trials = load_sweep_spec(spec)
    assert base == load_scenario(setting1_path)
    assert len(backoffs) == 11 and len(uplink_powers) == 4
    assert all(isinstance(v, float) for v in backoffs + uplink_powers)
    base, *_, trials = load_sweep_spec(spec, trials=3, seed=9)
    assert (base.seed, trials) == (9, 3)


def test_overrides_and_seed(setting1_path):
    scn = load_scenario(setting1_path, ["protocol.backoff_interval=60", "architecture=NF"], seed=5)
    assert scn.protocol.backoff_interval == 60.0
    assert scn.architecture is Architecture.NF
    assert scn.seed == 5
    with pytest.raises(ScenarioError, match="could not parse override"):
        load_scenario(setting1_path, ["protocol.horizon=["])
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(setting1_path, ["protocol.nope=3"])
