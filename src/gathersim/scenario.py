"""Scenario configuration: typed parameters, validation, and YAML load/save.

A Scenario is one concrete simulation point (one backoff interval, one cost
pair, one architecture). Parameter sweeps live in `experiments`, never here.
All values use abstract time/length/power units. All YAML input is parsed
here, and every parse or shape error is raised as a ScenarioError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import yaml

Point = tuple[float, float]

# Largest horizon / sampling_period or horizon / move_period that `validate` accepts: a
# trial keeps every step and move in its event queue and power ledger from the start.
MAX_STEPS = 100_000


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files."""


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


def validate(scenario: Scenario) -> list[str]:
    """Return an order-stable list of violated invariants; empty when valid.

    Pure: the same scenario always yields the identical list.
    """
    out: list[str] = []
    env = scenario.environment

    if not (_is_finite_number(env.width) and env.width > 0):
        out.append(f"Environment.width: must be > 0 (got {env.width!r})")
    if not (_is_finite_number(env.height) and env.height > 0):
        out.append(f"Environment.height: must be > 0 (got {env.height!r})")

    if len(scenario.sensors) < 1:
        out.append("Scenario.sensors: at least one sensor is required")
    if len(scenario.targets) < 1:
        out.append("Scenario.targets: at least one target is required")

    env_ok = not out

    for i, s in enumerate(scenario.sensors):
        if not (_is_finite_number(s.radius) and s.radius > 0):
            out.append(f"SensorSpec[{i}].radius: must be > 0 (got {s.radius!r})")
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
            if not (_is_finite_number(r) and r > 0):
                out.append(f"TargetSpec[{i}].confine_radius: must be > 0")
            elif env_ok and not (
                cx - r > 0 and cx + r <= env.width and cy - r > 0 and cy + r <= env.height
            ):
                out.append(f"TargetSpec[{i}].confine: disk must fit inside the environment")

    p = scenario.protocol
    for name in ("sampling_period", "backoff_interval", "uplink_delay",
                 "downlink_delay", "trigger_threshold", "horizon"):
        v = getattr(p, name)
        if not (_is_finite_number(v) and v > 0):
            out.append(f"ProtocolParams.{name}: must be > 0 (got {v!r})")
    # noise_std 0 is allowed: noiseless scenarios are legitimate test points
    if not (_is_finite_number(p.noise_std) and p.noise_std >= 0):
        out.append(f"ProtocolParams.noise_std: must be >= 0 (got {p.noise_std!r})")

    d = scenario.dynamics
    if not (_is_finite_number(d.move_step) and d.move_step > 0):
        out.append(f"DynamicsParams.move_step: must be > 0 (got {d.move_step!r})")
    if not (_is_finite_number(d.move_period) and d.move_period > 0):
        out.append(f"DynamicsParams.move_period: must be > 0 (got {d.move_period!r})")
    if not (_is_finite_number(d.move_probability) and 0.0 <= d.move_probability <= 1.0):
        out.append(
            f"DynamicsParams.move_probability: must be within [0, 1] (got {d.move_probability!r})"
        )

    for name, period in (("ProtocolParams.sampling_period", p.sampling_period),
                         ("DynamicsParams.move_period", d.move_period)):
        if _is_finite_number(p.horizon) and _is_finite_number(period) and period > 0:
            if p.horizon / period > MAX_STEPS:
                out.append(f"ProtocolParams.horizon: horizon / {name} must be <= {MAX_STEPS} "
                           f"(got {p.horizon / period:.6g})")

    c = scenario.costs
    if not (_is_finite_number(c.uplink_power) and c.uplink_power > 0):
        out.append(f"CostParams.uplink_power: must be > 0 (got {c.uplink_power!r})")
    if not (_is_finite_number(c.downlink_power) and c.downlink_power > 0):
        out.append(f"CostParams.downlink_power: must be > 0 (got {c.downlink_power!r})")

    if not isinstance(scenario.seed, int) or isinstance(scenario.seed, bool):
        out.append(f"Scenario.seed: must be an integer (got {scenario.seed!r})")

    return out


def _float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: must be a number (got {value!r})") from None


def _point(raw, where: str) -> Point:
    if (not isinstance(raw, (list, tuple))) or len(raw) != 2:
        raise ScenarioError(f"{where}: expected a 2-element [x, y] list")
    return (_float(raw[0], where), _float(raw[1], where))


def _section(data: dict, key: str) -> dict:
    if key not in data:
        raise ScenarioError(f"missing section {key!r}")
    val = data[key]
    if not isinstance(val, dict):
        raise ScenarioError(f"section {key!r} must be a mapping")
    return val


def _num(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ScenarioError(f"{where}.{key}: missing")
    return _float(section[key], f"{where}.{key}")


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


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a parsed config tree. Does not validate invariants."""
    env_d = _section(data, "environment")
    env = Environment(_num(env_d, "width", "environment"), _num(env_d, "height", "environment"))

    raw_sensors = data.get("sensors")
    if not isinstance(raw_sensors, list):
        raise ScenarioError("section 'sensors' must be a list")
    sensors = []
    for i, s in enumerate(raw_sensors):
        if not isinstance(s, dict):
            raise ScenarioError(f"sensors[{i}]: must be a mapping")
        sensors.append(
            SensorSpec(
                id=int_field(s, "id", i, f"sensors[{i}]"),
                center=_point(s.get("center"), f"sensors[{i}].center"),
                radius=_num(s, "radius", f"sensors[{i}]"),
            )
        )

    raw_targets = data.get("targets")
    if not isinstance(raw_targets, list):
        raise ScenarioError("section 'targets' must be a list")
    targets = []
    for i, t in enumerate(raw_targets):
        if not isinstance(t, dict):
            raise ScenarioError(f"targets[{i}]: must be a mapping")
        confine = t.get("confine")
        cc, cr = None, None
        if confine is not None:
            if not isinstance(confine, dict):
                raise ScenarioError(f"targets[{i}].confine: must be a mapping")
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

    p = _section(data, "protocol")
    protocol = ProtocolParams(
        sampling_period=_num(p, "sampling_period", "protocol"),
        backoff_interval=_num(p, "backoff_interval", "protocol"),
        uplink_delay=_num(p, "uplink_delay", "protocol"),
        downlink_delay=_num(p, "downlink_delay", "protocol"),
        trigger_threshold=_num(p, "trigger_threshold", "protocol"),
        noise_std=_num(p, "noise_std", "protocol"),
        horizon=_num(p, "horizon", "protocol"),
    )

    d = _section(data, "dynamics")
    dynamics = DynamicsParams(
        move_step=_num(d, "move_step", "dynamics"),
        move_period=_num(d, "move_period", "dynamics"),
        move_probability=_num(d, "move_probability", "dynamics"),
    )

    c = _section(data, "costs")
    costs = CostParams(
        uplink_power=_num(c, "uplink_power", "costs"),
        downlink_power=_num(c, "downlink_power", "costs"),
    )

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


def scenario_to_dict(scenario: Scenario) -> dict:
    data: dict = {
        "environment": {
            "width": scenario.environment.width,
            "height": scenario.environment.height,
        },
        "sensors": [
            {"id": s.id, "center": list(s.center), "radius": s.radius}
            for s in scenario.sensors
        ],
        "targets": [],
        "protocol": {
            "sampling_period": scenario.protocol.sampling_period,
            "backoff_interval": scenario.protocol.backoff_interval,
            "uplink_delay": scenario.protocol.uplink_delay,
            "downlink_delay": scenario.protocol.downlink_delay,
            "trigger_threshold": scenario.protocol.trigger_threshold,
            "noise_std": scenario.protocol.noise_std,
            "horizon": scenario.protocol.horizon,
        },
        "dynamics": {
            "move_step": scenario.dynamics.move_step,
            "move_period": scenario.dynamics.move_period,
            "move_probability": scenario.dynamics.move_probability,
        },
        "costs": {
            "uplink_power": scenario.costs.uplink_power,
            "downlink_power": scenario.costs.downlink_power,
        },
        "architecture": scenario.architecture.value,
        "seed": scenario.seed,
    }
    for t in scenario.targets:
        entry: dict = {"id": t.id, "position": list(t.position)}
        if t.confined:
            entry["confine"] = {"center": list(t.confine_center), "radius": t.confine_radius}
        data["targets"].append(entry)
    return data


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


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)
