"""Scenario configuration: typed parameters, validation, and YAML load/save.

A Scenario is one concrete simulation point (one backoff interval, one cost
pair, one architecture). Sweep spec files are parsed here too, and the sweeps
themselves run in `experiments`. All values use abstract time/length/power
units. All YAML input is parsed here, and every parse or shape error is raised
as a ScenarioError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Optional

import yaml

Point = tuple[float, float]

# Largest horizon / sampling_period or horizon / move_period that `validate` accepts: a
# trial keeps every step and move in its event queue and power ledger from the start.
MAX_STEPS = 100_000


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files and sweep specs, and
    for out-of-range run parameters anywhere in the library."""


class Architecture(str, Enum):
    FB = "FB"  # central unit broadcasts feedback after each fused packet
    NF = "NF"  # uplink only


@dataclass(frozen=True)
class Environment:
    """Rectangular region (0, width] x (0, height]."""

    width: float
    height: float

    def contains(self, point: Point) -> bool:
        x, y = point
        return 0.0 < x <= self.width and 0.0 < y <= self.height

    @property
    def centroid(self) -> Point:
        return (self.width / 2.0, self.height / 2.0)


@dataclass(frozen=True)
class SensorSpec:
    """A static sensor observing the disk of given radius around its center."""

    id: int
    center: Point
    radius: float


@dataclass(frozen=True)
class TargetSpec:
    """A tracked target and, optionally, a disk it is confined to while moving."""

    id: int
    position: Point
    confine_center: Optional[Point] = None
    confine_radius: Optional[float] = None

    @property
    def confined(self) -> bool:
        return self.confine_center is not None and self.confine_radius is not None


@dataclass(frozen=True)
class ProtocolParams:
    """Timing and triggering parameters of the data-gathering protocol.

    Delays are per packet component. The backoff interval may exceed the
    sampling period; transmissions that have not started by the next sampling
    instant are dropped.
    """

    sampling_period: float
    backoff_interval: float
    uplink_delay: float
    downlink_delay: float
    trigger_threshold: float
    noise_std: float
    horizon: float


@dataclass(frozen=True)
class CostParams:
    """Per-component power charges for uplink transmissions and feedback."""

    uplink_power: float
    downlink_power: float

    @property
    def cost_ratio(self) -> float:
        """Uplink power divided by downlink power (the y-axis of region maps)."""
        return self.uplink_power / self.downlink_power


@dataclass(frozen=True)
class DynamicsParams:
    """Lazy random walk: every move_period, each target jumps move_step with
    probability move_probability in a uniformly random direction."""

    move_step: float
    move_period: float
    move_probability: float


@dataclass(frozen=True)
class Scenario:
    environment: Environment
    sensors: tuple[SensorSpec, ...]
    targets: tuple[TargetSpec, ...]
    protocol: ProtocolParams
    dynamics: DynamicsParams
    costs: CostParams
    architecture: Architecture
    seed: int


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# Every numeric field of a parameter section must be finite and > 0, except
# these: field name -> (rule as printed, test).
_BOUNDS = {
    # noiseless scenarios are legitimate test points
    "noise_std": (">= 0", lambda v: v >= 0),
    "move_probability": ("within [0, 1]", lambda v: 0.0 <= v <= 1.0),
}
_POSITIVE = ("> 0", lambda v: v > 0)


@functools.cache
def _rules(cls) -> tuple:
    return tuple((f.name, *_BOUNDS.get(f.name, _POSITIVE)) for f in fields(cls))


def _broken(value, rule: str, ok) -> Optional[str]:
    """The rule `value` breaks ("finite" before `rule`), or None."""
    if not _is_finite_number(value):
        return "finite"
    return None if ok(value) else rule


def _bad_params(part) -> list[str]:
    """Violations of one parameter section's fields, in field order."""
    out = []
    for name, rule, ok in _rules(type(part)):
        value = getattr(part, name)
        broken = _broken(value, rule, ok)
        if broken:
            out.append(f"{type(part).__name__}.{name}: must be {broken} (got {value!r})")
    return out


def validate(scenario: Scenario) -> list[str]:
    """Return an order-stable list of violated invariants; empty when valid.

    Pure: the same scenario always yields the identical list.
    """
    env = scenario.environment
    out = _bad_params(env)

    if len(scenario.sensors) < 1:
        out.append("Scenario.sensors: at least one sensor is required")
    if len(scenario.targets) < 1:
        out.append("Scenario.targets: at least one target is required")

    env_ok = not out

    for i, s in enumerate(scenario.sensors):
        broken = _broken(s.radius, *_POSITIVE)
        if broken:
            out.append(f"SensorSpec[{i}].radius: must be {broken} (got {s.radius!r})")
        if env_ok and not env.contains(s.center):
            out.append(f"SensorSpec[{i}].center: must lie inside the environment")
    ids = [s.id for s in scenario.sensors]
    if sorted(ids) != list(range(len(ids))):
        out.append("SensorSpec.id: ids must be unique and 0-based contiguous")

    tids = [t.id for t in scenario.targets]
    if len(set(tids)) != len(tids):
        out.append("TargetSpec.id: ids must be unique")
    for i, t in enumerate(scenario.targets):
        if env_ok and not env.contains(t.position):
            out.append(f"TargetSpec[{i}].position: must lie inside the environment")
        if t.confined:
            cx, cy = t.confine_center
            r = t.confine_radius
            broken = _broken(r, *_POSITIVE)
            if broken:
                out.append(f"TargetSpec[{i}].confine_radius: must be {broken}")
            elif env_ok and not (env.contains((cx - r, cy - r)) and env.contains((cx + r, cy + r))):
                out.append(f"TargetSpec[{i}].confine: disk must fit inside the environment")

    for part in (scenario.protocol, scenario.dynamics, scenario.costs):
        out += _bad_params(part)

    horizon = scenario.protocol.horizon
    for name, period in (("ProtocolParams.sampling_period", scenario.protocol.sampling_period),
                         ("DynamicsParams.move_period", scenario.dynamics.move_period)):
        if _is_finite_number(horizon) and _is_finite_number(period) and period > 0:
            if horizon / period > MAX_STEPS:
                out.append(f"ProtocolParams.horizon: horizon / {name} must be <= {MAX_STEPS} "
                           f"(got {horizon / period:.6g})")

    if not isinstance(scenario.seed, int) or isinstance(scenario.seed, bool):
        out.append(f"Scenario.seed: must be an integer (got {scenario.seed!r})")

    return out


def _float(value, where: str) -> float:
    # numeric strings pass (YAML reads `1e3` as a string); booleans do not
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{where}: must be a number (got {value!r})")


def _point(raw, where: str) -> Point:
    if (not isinstance(raw, (list, tuple))) or len(raw) != 2:
        raise ScenarioError(f"{where}: expected a 2-element [x, y] list")
    return (_float(raw[0], where), _float(raw[1], where))


def check_keys(mapping: dict, allowed, where: str) -> None:
    """Raise ScenarioError naming every key of `mapping` outside `allowed`."""
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}; allowed: {', '.join(allowed)}")


def _entry(raw, allowed, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: must be a mapping")
    check_keys(raw, allowed, where)
    return raw


def _num(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ScenarioError(f"{where}.{key}: missing")
    return _float(section[key], f"{where}.{key}")


def _params(cls, data: dict, key: str):
    """The parameter section `data[key]` as a `cls`: every field a required number."""
    if key not in data:
        raise ScenarioError(f"missing section {key!r}")
    section = data[key]
    if not isinstance(section, dict):
        raise ScenarioError(f"section {key!r} must be a mapping")
    names = [f.name for f in fields(cls)]
    check_keys(section, names, key)
    return cls(*(_num(section, name, key) for name in names))


def num_list(section: dict, key: str, where: str) -> tuple[float, ...]:
    """`section[key]` as a nonempty tuple of floats."""
    raw = section.get(key)
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{where}.{key}: must be a nonempty list of numbers")
    return tuple(_float(v, f"{where}.{key}[{i}]") for i, v in enumerate(raw))


def int_field(section: dict, key: str, default: int, where: str) -> int:
    """`section[key]`, or `default` when absent; bools are not integers."""
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: must be an integer (got {value!r})")
    return value


def _mappings(data: dict, key: str, allowed) -> list[dict]:
    """`data[key]` as a list of mappings whose keys all lie in `allowed`."""
    raw = data.get(key)
    if not isinstance(raw, list):
        raise ScenarioError(f"section {key!r} must be a list")
    return [_entry(item, allowed, f"{key}[{i}]") for i, item in enumerate(raw)]


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a parsed config tree. Does not validate invariants."""
    check_keys(data, [f.name for f in fields(Scenario)], "scenario")
    env = _params(Environment, data, "environment")

    sensors = []
    for i, s in enumerate(_mappings(data, "sensors", ("id", "center", "radius"))):
        sensors.append(
            SensorSpec(
                id=int_field(s, "id", i, f"sensors[{i}]"),
                center=_point(s.get("center"), f"sensors[{i}].center"),
                radius=_num(s, "radius", f"sensors[{i}]"),
            )
        )

    targets = []
    for i, t in enumerate(_mappings(data, "targets", ("id", "position", "confine"))):
        cc, cr = None, None
        if t.get("confine") is not None:
            confine = _entry(t["confine"], ("center", "radius"), f"targets[{i}].confine")
            cc = _point(confine.get("center"), f"targets[{i}].confine.center")
            cr = _num(confine, "radius", f"targets[{i}].confine")
        targets.append(
            TargetSpec(
                id=int_field(t, "id", i, f"targets[{i}]"),
                position=_point(t.get("position"), f"targets[{i}].position"),
                confine_center=cc,
                confine_radius=cr,
            )
        )

    protocol = _params(ProtocolParams, data, "protocol")
    dynamics = _params(DynamicsParams, data, "dynamics")
    costs = _params(CostParams, data, "costs")

    arch_raw = data.get("architecture")
    if not isinstance(arch_raw, str) or arch_raw.upper() not in ("FB", "NF"):
        raise ScenarioError(f"architecture: must be 'FB' or 'NF' (got {arch_raw!r})")
    architecture = Architecture(arch_raw.upper())

    seed = data.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"seed: must be an integer (got {seed!r})")

    return Scenario(
        environment=env,
        sensors=tuple(sensors),
        targets=tuple(targets),
        protocol=protocol,
        dynamics=dynamics,
        costs=costs,
        architecture=architecture,
        seed=seed,
    )


def _target_to_dict(t: TargetSpec) -> dict:
    entry: dict = {"id": t.id, "position": list(t.position)}
    if t.confined:
        entry["confine"] = {"center": list(t.confine_center), "radius": t.confine_radius}
    return entry


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "environment": asdict(scenario.environment),
        "sensors": [
            {"id": s.id, "center": list(s.center), "radius": s.radius}
            for s in scenario.sensors
        ],
        "targets": [_target_to_dict(t) for t in scenario.targets],
        "protocol": asdict(scenario.protocol),
        "dynamics": asdict(scenario.dynamics),
        "costs": asdict(scenario.costs),
        "architecture": scenario.architecture.value,
        "seed": scenario.seed,
    }


# libyaml's scanner and parser when PyYAML was built with them; the constructor
# and resolver are the same Python code either way, so values are identical.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str, where: str):
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as e:
        raise ScenarioError(f"could not parse {where}: {e}") from e


def read_mapping(path) -> dict:
    """Parse a YAML file whose top level must be a mapping."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _parse_yaml(fh.read(), f"file {path}")
    if not isinstance(data, dict):
        raise ScenarioError(f"top level of {path} must be a mapping")
    return data


def _apply_overrides(data: dict, overrides) -> None:
    """Set each `dotted.path=value` in place; values are parsed as YAML."""
    for ov in overrides:
        if "=" not in ov:
            raise ScenarioError(f"override {ov!r} is not of the form path=value")
        path, raw_value = ov.split("=", 1)
        keys = path.split(".")
        node = data
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                raise ScenarioError(f"override path {path!r} does not exist")
            node = node[key]
        if keys[-1] not in node:
            raise ScenarioError(f"override path {path!r} does not exist")
        node[keys[-1]] = _parse_yaml(raw_value, f"override {ov!r}")


def checked_scenario(data: dict, overrides, seed: Optional[int]) -> Scenario:
    """Apply overrides and a seed to a parsed scenario tree, then build and
    validate the Scenario. Raises ScenarioError listing every violation."""
    _apply_overrides(data, overrides)
    if seed is not None:
        data["seed"] = seed
    scenario = scenario_from_dict(data)
    violations = validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))
    return scenario


def load_scenario(path, overrides=(), seed: Optional[int] = None) -> Scenario:
    """Load, parse and validate a scenario file, after applying `overrides`
    (`dotted.path=value` strings) and, when given, a replacement seed."""
    return checked_scenario(read_mapping(path), overrides, seed)


SWEEP_KEYS = ("scenario", "backoff_intervals", "uplink_powers", "trials")


def load_sweep_spec(
    path, trials: Optional[int] = None, seed: Optional[int] = None
) -> tuple[Scenario, tuple[float, ...], tuple[float, ...], int]:
    """A sweep spec file as `experiments.run_sweep`'s (base, backoff intervals,
    uplink powers, trials); `trials` and `seed`, when given, replace the spec's."""
    data = read_mapping(path)
    check_keys(data, SWEEP_KEYS, "sweep spec")
    base = data.get("scenario")
    if isinstance(base, str):
        base = read_mapping(Path(path).parent / base)
    elif not isinstance(base, dict):
        raise ScenarioError("sweep spec needs 'scenario': a path or an inline mapping")
    return (
        checked_scenario(base, (), seed),
        num_list(data, "backoff_intervals", "sweep spec"),
        num_list(data, "uplink_powers", "sweep spec"),
        int_field(data, "trials", 1, "sweep spec") if trials is None else trials,
    )


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)
