"""Scenario configuration: typed parameters, validation, and YAML loading.

A Scenario is one concrete simulation point (one backoff interval, one cost
pair, one architecture). Sweep spec files are parsed here too, and the sweeps
themselves run in `experiments`. All values use abstract time/length/power
units. All YAML input is parsed here, and every parse or shape error is raised
as a ScenarioError.
"""

from __future__ import annotations

import functools
import math
import numbers
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


def _number_error(v) -> Optional[str]:
    """None for a real, non-bool number whose float is finite; else what `v` must be."""
    # float and int before the slower numbers.Real
    if type(v) is not float and (isinstance(v, bool) or not isinstance(v, (int, numbers.Real))):
        return "a number"
    try:
        return None if math.isfinite(v) else "finite"
    except OverflowError:  # an integer past float range
        return "finite"


def _is_integer(v) -> bool:
    return type(v) is int or isinstance(v, numbers.Integral)  # int before the slower ABC


def _at_least(lo, integer: bool = False) -> tuple:
    test = (lambda v: _is_integer(v) and v >= lo) if integer else (lambda v: v >= lo)
    return ("an integer " * integer + f">= {lo}", test)  # numbers are checked first


_INTEGER = ("an integer", _is_integer)

# The one table of legal values of scenario sections, closed-form records and
# the harness's named arguments: each must be a finite number (see `_number_error`)
# and > 0, except these: name -> (rule as printed, test). A `Record.field` key
# overrides a field's name.
_BOUNDS = {
    "noise_std": _at_least(0),  # noiseless scenarios are legitimate test points
    "move_probability": ("within [0, 1]", lambda v: 0 <= v <= 1),
    "x": _at_least(0),  # a delay ratio above 1 informs no sensor
    "AdvantageParams.x": ("within [0, 1]", lambda v: 0 <= v <= 1),
    # set sizes count sensors, but the per-sensor vote's polynomial takes fractional ones
    "set_size": _at_least(2, integer=True),
    "set_sizes": _at_least(2, integer=True),
    "AdvantageParams.set_size": _at_least(2),
    "collaborative_counts": _at_least(0),
    "informed_counts": _at_least(0),
    "min_unique": _at_least(1),
    "collaborative_targets": _at_least(1, integer=True),
    "unique_targets": _at_least(0, integer=True),
    "trials": _at_least(1, integer=True),
    "jobs": _at_least(1, integer=True),
    "seed": _INTEGER,
    "SensorSpec.id": _at_least(0, integer=True),  # `validate` also wants them 0..n-1
    "TargetSpec.id": _INTEGER,
    "coordinate": ("any number", lambda v: True),  # `validate` places points
}
_POSITIVE = ("> 0", lambda v: v > 0)


def _broken(value, rule: tuple) -> Optional[str]:
    """What `value` must be to keep `rule` (a finite number first), or None when it does."""
    return _number_error(value) or (None if rule[1](value) else rule[0])


def _violation(label: str, value, rule: tuple) -> list[str]:
    """`label`'s message when `value` breaks `rule`, else nothing."""
    broken = _broken(value, rule)
    return [f"{label}: must be {broken} (got {value!r})"] if broken else []


def _point_violations(label: str, point) -> list[str]:
    """Violations of an [x, y] point: its shape, then each coordinate."""
    if not isinstance(point, (list, tuple)) or len(point) != 2:
        return [f"{label}: must be an [x, y] pair (got {point!r})"]
    rule = _BOUNDS["coordinate"]
    if not (_broken(point[0], rule) or _broken(point[1], rule)):
        return []  # the common case, without formatting labels
    return _violation(f"{label}[0]", point[0], rule) + _violation(f"{label}[1]", point[1], rule)


@functools.cache
def _rules(cls) -> tuple:
    labels = [(f.name, f"{cls.__name__}.{f.name}") for f in fields(cls)]
    return tuple((name, label, _BOUNDS.get(label) or _BOUNDS.get(name, _POSITIVE))
                 for name, label in labels)


def _bad_params(part) -> list[str]:
    """Violations of one parameter record's fields, in field order."""
    return [v for name, label, rule in _rules(type(part))
            for v in _violation(label, getattr(part, name), rule)]


def check(*records, **values) -> None:
    """Raise a ScenarioError listing every `_BOUNDS` rule that the fields of the
    parameter `records` or the named `values` (lists element by element) break."""
    out = [v for part in records for v in _bad_params(part)]
    for name, value in values.items():
        rule = _BOUNDS.get(name, _POSITIVE)
        for label, item in ([(f"{name}[{k}]", v) for k, v in enumerate(value)]
                            if isinstance(value, (list, tuple)) else [(name, value)]):
            out += _violation(label, item, rule)
    if out:
        raise ScenarioError("; ".join(out))


def validate(scenario: Scenario) -> list[str]:
    """Return an order-stable list of violated invariants; empty when valid.

    Pure: the same scenario always yields the identical list. A field value of
    the wrong type is listed like any other violation, not raised.
    """
    env = scenario.environment
    out = _bad_params(env)

    if len(scenario.sensors) < 1:
        out.append("Scenario.sensors: at least one sensor is required")
    if len(scenario.targets) < 1:
        out.append("Scenario.targets: at least one target is required")

    env_ok = not out

    for i, s in enumerate(scenario.sensors):
        bad = _point_violations(f"SensorSpec[{i}].center", s.center)
        out += bad + _violation(f"SensorSpec[{i}].radius", s.radius, _POSITIVE)
        if env_ok and not bad and not env.contains(s.center):
            out.append(f"SensorSpec[{i}].center: must lie inside the environment")
    rule = _BOUNDS["SensorSpec.id"]
    bad = [v for i, s in enumerate(scenario.sensors) if _broken(s.id, rule)
           for v in _violation(f"SensorSpec[{i}].id", s.id, rule)]
    out += bad
    ids = [s.id for s in scenario.sensors]
    if not bad and sorted(ids) != list(range(len(ids))):
        out.append("SensorSpec.id: ids must be unique and 0-based contiguous")

    rule = _BOUNDS["TargetSpec.id"]
    bad = [v for i, t in enumerate(scenario.targets) if _broken(t.id, rule)
           for v in _violation(f"TargetSpec[{i}].id", t.id, rule)]
    out += bad
    tids = [t.id for t in scenario.targets]
    if not bad and len(set(tids)) != len(tids):
        out.append("TargetSpec.id: ids must be unique")
    for i, t in enumerate(scenario.targets):
        bad = _point_violations(f"TargetSpec[{i}].position", t.position)
        out += bad
        if env_ok and not bad and not env.contains(t.position):
            out.append(f"TargetSpec[{i}].position: must lie inside the environment")
        if t.confined:
            bad = (_point_violations(f"TargetSpec[{i}].confine_center", t.confine_center)
                   + _violation(f"TargetSpec[{i}].confine_radius", t.confine_radius, _POSITIVE))
            out += bad
            if not bad and env_ok:
                (cx, cy), r = t.confine_center, t.confine_radius
                if not (env.contains((cx - r, cy - r)) and env.contains((cx + r, cy + r))):
                    out.append(f"TargetSpec[{i}].confine: disk must fit inside the environment")

    for part in (scenario.protocol, scenario.dynamics, scenario.costs):
        out += _bad_params(part)

    horizon = scenario.protocol.horizon
    for name, period in (("ProtocolParams.sampling_period", scenario.protocol.sampling_period),
                         ("DynamicsParams.move_period", scenario.dynamics.move_period)):
        if not (_number_error(horizon) or _number_error(period)) and period > 0:
            if horizon / period > MAX_STEPS:
                out.append(f"ProtocolParams.horizon: horizon / {name} must be <= {MAX_STEPS} "
                           f"(got {horizon / period:.6g})")

    return out + _violation("Scenario.seed", scenario.seed, _BOUNDS["seed"])


def _number(value):
    """`value` as a float when it is a real non-bool number or a numeric string
    (YAML reads `1e3` as a string); any other value as read, for `validate`."""
    if not isinstance(value, bool) and isinstance(value, (float, int, str, numbers.Real)):
        try:
            return float(value)
        except (ValueError, OverflowError):  # not numeric, or an integer past float range
            pass
    return value


def _point(raw, where: str) -> Point:
    if (not isinstance(raw, (list, tuple))) or len(raw) != 2:
        raise ScenarioError(f"{where}: expected a 2-element [x, y] list")
    return (_number(raw[0]), _number(raw[1]))


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


def _required(section: dict, key: str, where: str):
    if key not in section:
        raise ScenarioError(f"{where}.{key}: missing")
    return section[key]


def _params(cls, data: dict, key: str):
    """The parameter section `data[key]` as a `cls`: every field a required scalar."""
    if key not in data:
        raise ScenarioError(f"missing section {key!r}")
    section = data[key]
    if not isinstance(section, dict):
        raise ScenarioError(f"section {key!r} must be a mapping")
    names = [f.name for f in fields(cls)]
    check_keys(section, names, key)
    return cls(*(_number(_required(section, name, key)) for name in names))


def _mappings(data: dict, key: str, allowed) -> list[dict]:
    """`data[key]` as a list of mappings whose keys all lie in `allowed`."""
    raw = data.get(key)
    if not isinstance(raw, list):
        raise ScenarioError(f"section {key!r} must be a list")
    return [_entry(item, allowed, f"{key}[{i}]") for i, item in enumerate(raw)]


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a parsed config tree. Checks only its shape (mappings,
    lists, [x, y] points, known and required keys); `validate` checks every value."""
    check_keys(data, [f.name for f in fields(Scenario)], "scenario")
    env = _params(Environment, data, "environment")

    # entry ids default to the list index
    sensors = [
        SensorSpec(s.get("id", i), _point(s.get("center"), f"sensors[{i}].center"),
                   _number(_required(s, "radius", f"sensors[{i}]")))
        for i, s in enumerate(_mappings(data, "sensors", ("id", "center", "radius")))
    ]

    targets = []
    for i, t in enumerate(_mappings(data, "targets", ("id", "position", "confine"))):
        cc, cr = None, None
        if t.get("confine") is not None:
            confine = _entry(t["confine"], ("center", "radius"), f"targets[{i}].confine")
            cc = _point(confine.get("center"), f"targets[{i}].confine.center")
            cr = _number(_required(confine, "radius", f"targets[{i}].confine"))
        position = _point(t.get("position"), f"targets[{i}].position")
        targets.append(TargetSpec(t.get("id", i), position, cc, cr))

    protocol = _params(ProtocolParams, data, "protocol")
    dynamics = _params(DynamicsParams, data, "dynamics")
    costs = _params(CostParams, data, "costs")

    arch_raw = data.get("architecture")
    if not isinstance(arch_raw, str) or arch_raw.upper() not in ("FB", "NF"):
        raise ScenarioError(f"architecture: must be 'FB' or 'NF' (got {arch_raw!r})")
    architecture = Architecture(arch_raw.upper())

    return Scenario(
        environment=env,
        sensors=tuple(sensors),
        targets=tuple(targets),
        protocol=protocol,
        dynamics=dynamics,
        costs=costs,
        architecture=architecture,
        seed=data.get("seed"),
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


def load_sweep_spec(path, trials: Optional[int] = None, seed: Optional[int] = None) -> tuple:
    """A sweep spec file as `experiments.run_sweep`'s (base, backoff intervals,
    uplink powers, trials); `trials` and `seed`, when given, replace the spec's.
    The base scenario is validated here, and `run_sweep` checks the grids and trials."""
    data = read_mapping(path)
    check_keys(data, SWEEP_KEYS, "sweep spec")
    base = data.get("scenario")
    if isinstance(base, str):
        base = read_mapping(Path(path).parent / base)
    elif not isinstance(base, dict):
        raise ScenarioError("sweep spec needs 'scenario': a path or an inline mapping")
    base = checked_scenario(base, (), seed)
    grids = []
    for key in ("backoff_intervals", "uplink_powers"):
        if not isinstance(data.get(key), list):
            raise ScenarioError(f"sweep spec.{key}: must be a list")
        grids.append(tuple(map(_number, data[key])))
    return (base, *grids, data.get("trials", 1) if trials is None else trials)
