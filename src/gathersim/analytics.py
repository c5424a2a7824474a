"""Closed-form power and accuracy comparisons between the two architectures.

Conventions used throughout:

* ``x`` (delay ratio): the lead sensor's propagation delay divided by the
  backoff interval. Small x means feedback lands early enough to cancel most
  redundant transmissions.
* ``y`` (cost ratio): per-component uplink power divided by per-component
  downlink power. Large y means feedback broadcasts are comparatively cheap.

With backoffs uniform on the interval and identical packet sizes inside a
collaborative set of size M, the expected number of informed (cancelling)
sensors is x**M - M*x + (M - 1). The per-step power difference (no-feedback
minus feedback) for one set with c collaborative components and i informed
sensors is c*(i*(up + down) - M*down); substituting the expected informed
count and normalizing by the downlink cost gives the advantage polynomial
g(x, y, M) = (1+y)*x**M - M*(1+y)*x + (M-1)*y - 1, positive exactly when the
feedback architecture is cheaper on average. A positive g is attainable for
some x only when y exceeds 1/(M-1), the feasibility threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import geometry
from .scenario import Scenario, ScenarioError, check


@dataclass(frozen=True)
class AdvantageParams:
    """One point of the (delay ratio, cost ratio, set size) space."""

    x: float  # lead propagation delay / backoff interval
    y: float  # uplink power / downlink power
    set_size: int  # sensors in the collaborative set; the vote passes fractional sizes


@dataclass(frozen=True)
class MseAdvantageParams:
    """The accuracy condition's inputs; the shared field names take `ProtocolParams`' rules."""

    trigger_threshold: float
    noise_std: float
    sampling_period: float
    uplink_delay: float
    min_unique: int  # smallest unique-component count among informed sensors

    @property
    def noise_ratio(self) -> float:
        """trigger_threshold / noise_std; infinite for noiseless sensors."""
        if self.noise_std == 0:
            return math.inf
        return self.trigger_threshold / self.noise_std


@dataclass(frozen=True)
class AdvantagePoint:
    """Theoretical and (optionally) empirical verdict at one grid cell."""

    x: float
    y: float
    set_size: int
    g: float
    theory_advantage: bool
    empirical_mean: Optional[float] = None
    empirical_se: Optional[float] = None

    @property
    def empirical_advantage(self) -> Optional[bool]:
        if self.empirical_mean is None:
            return None
        return self.empirical_mean > 0

    @property
    def boundary(self) -> Optional[bool]:
        """Statistically indistinguishable from zero (|mean| < 2 SE)."""
        if self.empirical_mean is None or self.empirical_se is None:
            return None
        return abs(self.empirical_mean) < 2.0 * self.empirical_se


def _per_set(collaborative_counts: Sequence, informed_counts: Sequence, set_sizes: Sequence,
             *records, **values):
    """(collaborative, informed, set size) per set, checked with `records` and `values`."""
    if not (len(collaborative_counts) == len(informed_counts) == len(set_sizes)):
        raise ScenarioError("per-set sequences must have equal length")
    check(*records, collaborative_counts=list(collaborative_counts),
          informed_counts=list(informed_counts), set_sizes=list(set_sizes), **values)
    sets = list(zip(collaborative_counts, informed_counts, set_sizes))
    for c, i, m in sets:
        if i >= m:
            raise ScenarioError(f"informed count {i} must be below set size {m}")
    return sets


def power_diff(
    collaborative_counts: Sequence,
    informed_counts: Sequence,
    set_sizes: Sequence,
    uplink_power,
    downlink_power,
):
    """Per-step power saved by feedback, summed over collaborative sets.

    For each set: c * (i*(up + down) - M*down). Exact for integer inputs
    (plain Python arithmetic, no float conversion).
    """
    total = 0
    for c, i, m in _per_set(collaborative_counts, informed_counts, set_sizes,
                            uplink_power=uplink_power, downlink_power=downlink_power):
        total += c * (i * (uplink_power + downlink_power) - m * downlink_power)
    return total


def expected_informed(x: float, set_size: int) -> float:
    """Expected informed-sensor count for uniform backoffs, given delay ratio x.

    Equals set_size - 1 at x = 0 (everyone but the lead hears the feedback in
    time) and falls to 0 at x = 1; ratios above 1 clamp to 0.
    """
    check(x=x, set_size=set_size)
    if x > 1.0:
        return 0.0
    return x**set_size - set_size * x + (set_size - 1)


def feasibility(set_size: int) -> float:
    """Cost-ratio threshold above which feedback can be cheaper at all."""
    check(set_size=set_size)
    return 1.0 / (set_size - 1)


def advantage_poly(params: AdvantageParams) -> float:
    """Evaluate g(x, y, M); feedback is power-advantageous on average iff g > 0.

    Grouped as g = y*(x**M - M*x + M - 1) + (x**M - M*x - 1) so the value is
    exactly -M at x = 1 for every y.
    """
    check(params)
    x, m = params.x, params.set_size
    xm = x**m
    base = xm - m * x
    return params.y * (base + m - 1) + base - 1


def mse_advantage(params: MseAdvantageParams) -> tuple[float, bool]:
    """Threshold on trigger-threshold-to-noise ratio for an accuracy advantage.

    Returns (threshold, satisfied): feedback is accuracy-advantageous when
    trigger_threshold / noise_std exceeds
    sqrt(max(0, 2*sampling_period / (uplink_delay * min_unique) - 1)).
    With noise_std = 0 the ratio is infinite and the condition always holds,
    since the threshold is finite.
    """
    check(params)
    ratio = 2.0 * params.sampling_period / (params.uplink_delay * params.min_unique)
    threshold = math.sqrt(max(0.0, ratio - 1.0))
    return threshold, params.noise_ratio > threshold


def mse_bounds(
    collaborative_counts: Sequence,
    informed_counts: Sequence,
    set_sizes: Sequence,
    params: MseAdvantageParams,
) -> tuple[float, float]:
    """Lower bound on the accuracy gain and upper bound on the accuracy loss.

    Gain: faster delivery of fresh unique components, at least
    (eps^2 + sigma^2) * min_unique * uplink_delay * sum_i informed*collab.
    Loss: fewer redundant fusions, at most
    2*sampling_period * sigma^2 * sum_i (1/(M-i) - 1/M) * collab.
    """
    cancelled = 0.0
    variance_term = 0.0
    for c, i, m in _per_set(collaborative_counts, informed_counts, set_sizes, params):
        cancelled += i * c
        variance_term += (1.0 / (m - i) - 1.0 / m) * c
    eps2 = params.trigger_threshold**2 + params.noise_std**2
    gain_lower = eps2 * params.min_unique * params.uplink_delay * cancelled
    loss_upper = 2.0 * params.sampling_period * variance_term * params.noise_std**2
    return gain_lower, loss_upper


def raster_region(set_size: int, x_values: Sequence[float], y_values: Sequence[float]) -> list[AdvantagePoint]:
    """Theoretical verdict over a grid. Delay ratios above 1 clamp to the
    x = 1 value, which is never advantageous."""
    check(x=list(x_values), y=list(y_values))
    out = []
    for x in x_values:
        gx = min(float(x), 1.0)
        for y in y_values:
            g = advantage_poly(AdvantageParams(x=gx, y=float(y), set_size=set_size))
            out.append(
                AdvantagePoint(
                    x=float(x), y=float(y), set_size=set_size, g=g, theory_advantage=g > 0,
                )
            )
    return out


@dataclass(frozen=True)
class SensorAdvantageEstimate:
    """Heuristic per-sensor parameters for layouts with uneven packet sizes."""

    sensor_id: int
    delay_estimate: float  # expected propagation delay, time units
    delay_ratio: float  # delay_estimate / backoff interval
    set_size_estimate: float  # mean size of collaborative sets containing the sensor


def approx_params(scenario: Scenario) -> list[SensorAdvantageEstimate]:
    """Estimate each sensor's delay ratio and effective set size.

    The expected packet size is the number of targets the sensor observes at
    the scenario's initial layout; the expected feedback size is the
    collaborative subset of those, so the delay estimate is exact for
    symmetric layouts. The set-size estimate is the mean size of the
    collaborative sets containing the sensor, weighted by how many targets
    each set currently holds (unweighted when none holds any). Sensors
    belonging to no collaborative set are excluded.
    """
    structure = geometry.initial_structure(scenario)
    proto = scenario.protocol
    out = []
    for s in sorted(scenario.sensors, key=lambda s: s.id):
        containing = [cs for cs in structure.sets if s.id in cs.members]
        if not containing:
            continue
        # every target the sensor observes with others lies in one of `containing`
        n_collab = sum(cs.collaborative_count for cs in containing)
        n_total = structure.unique_counts.get(s.id, 0) + n_collab
        delay = n_total * proto.uplink_delay + n_collab * proto.downlink_delay
        if n_collab > 0:
            size_est = sum(len(cs.members) * cs.collaborative_count for cs in containing) / n_collab
        else:
            size_est = sum(len(cs.members) for cs in containing) / len(containing)
        out.append(
            SensorAdvantageEstimate(
                sensor_id=s.id,
                delay_estimate=delay,
                delay_ratio=delay / proto.backoff_interval,
                set_size_estimate=size_est,
            )
        )
    return out


def sensor_advantage(est: SensorAdvantageEstimate, y: float, delay_scale: float) -> float:
    """g at one sensor's estimated cell, its delay ratio scaled by `delay_scale`."""
    x = min(est.delay_ratio * delay_scale, 1.0)
    # fractional set sizes are meaningful here: the polynomial extends smoothly
    return advantage_poly(AdvantageParams(x=x, y=y, set_size=max(2.0, est.set_size_estimate)))


def approx_network_advantage(
    estimates: Sequence[SensorAdvantageEstimate],
    y: float,
    delay_scale: float = 1.0,
) -> tuple[float, bool]:
    """Fraction of sensors whose estimated cell is advantageous, and the
    majority verdict (fraction >= 0.5). `delay_scale` rescales every sensor's
    delay ratio, which maps a common-axis x value onto per-sensor ratios."""
    if not estimates:
        raise ScenarioError("no sensor belongs to any collaborative set")
    check(y=y, delay_scale=delay_scale)
    votes = sum(1 for est in estimates if sensor_advantage(est, y, delay_scale) > 0)
    frac = votes / len(estimates)
    return frac, frac >= 0.5
