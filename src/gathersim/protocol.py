"""Discrete-event engine for one simulation trial.

Per sampling step, every sensor measures its visible targets and schedules the
components whose measured value deviates from the value it believes the
central unit holds by more than the trigger threshold. Triggered sensors draw
a uniform backoff and transmit all scheduled components in one packet whose
duration grows with its component count. Under the feedback architecture the
central unit answers every fused packet with a broadcast echoing the
collaborative components just fused; sensors whose transmission has not yet
started cancel scheduled components that agree with the echo. Power is charged
per component: uplink to the transmitter, feedback to the sensor whose packet
elicited it (everyone else overhears for free).

Event ordering at equal timestamps: target moves, then transmission ends, then
feedback arrivals, then sampling, then transmission starts; within one kind,
the lower sensor id first, then the event scheduled first. A transmission
scheduled exactly at a feedback arrival is therefore not cancelled, and one
scheduled exactly at the next sampling instant is dropped. Components still
scheduled when the run ends are dropped at the horizon, so every triggered
component ends in exactly one TX_START, CANCEL or DROP.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .dynamics import initial_world, measure, observed_rows, step_targets
from .estimation import SMALL_FIELD, EstimatorState, EstimatorTrace, accumulate_mse, fuse
from .scenario import Architecture, CostParams, Scenario, ScenarioError, validate

CENTRAL = -1  # sensor id used for central-unit rows in logs

# event codes in heap entries; their order breaks ties at equal times
_MOVE, _TX_END, _FEEDBACK_END, _SAMPLE, _TX_START = range(5)


def write_csv(path, kind: str, header: str, lines: Iterable[str]) -> None:
    """Write the schema line for `kind`, the column header, then `lines` (each ending in \\n)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# gathersim-csv v1 {kind}\n{header}\n")
        fh.writelines(lines)


class EventRecord(NamedTuple):
    time: float
    kind: str
    step: int
    sensor: int
    targets: tuple[int, ...]
    size: int
    value: Optional[float] = None


@dataclass
class EventLog:
    """A trial's events: `rows` of plain tuples in `EventRecord` field order,
    which `records` names in place on first read; an unread log names none."""

    rows: list[tuple] = field(default_factory=list)

    @cached_property
    def records(self) -> list[EventRecord]:
        rows, new = self.rows, tuple.__new__  # skips the NamedTuple constructor's argument handling
        for k, r in enumerate(rows):  # one row at a time: never two copies of the log
            rows[k] = new(EventRecord, r)
        return rows

    def to_csv(self, path) -> None:
        write_csv(path, "events", "time,kind,step,sensor,targets,size,value", (
            f"{r.time!r},{r.kind},{r.step},{r.sensor},{';'.join(map(str, r.targets))},"
            f"{r.size},{'' if r.value is None else repr(r.value)}\n"
            for r in self.records
        ))


class PowerLedger(NamedTuple):
    """A trial's power charges per (step, sensor), read off its event log:
    each TX_START size at the uplink cost to its sender, each FEEDBACK_START
    size at the downlink cost to the sensor whose packet elicited it."""

    events: EventLog
    costs: CostParams
    n_sensors: int

    def to_csv(self, path) -> None:
        records, n = self.events.records, self.n_sensors
        n_steps = sum(r.kind == "SAMPLE" for r in records)
        counts = [[0, 0] for _ in range(n_steps * n)]  # (uplink, downlink) at step * n + sensor
        for r in records:
            if r.kind == "TX_START":
                counts[r.step * n + r.sensor][0] += r.size
            elif r.kind == "FEEDBACK_START":
                counts[r.step * n + r.sensor][1] += r.size
        up_cost, down_cost = self.costs.uplink_power, self.costs.downlink_power
        write_csv(path, "power", "step,sensor,uplink,downlink", (
            f"{k // n},{k % n},{up * up_cost!r},{down * down_cost!r}\n"
            for k, (up, down) in enumerate(counts)
        ))


def trace_to_csv(trace: EstimatorTrace, path) -> None:
    write_csv(path, "mse", "time,mse_instant,mse_integral", (
        f"{t!r},{inst!r},{integral!r}\n" for t, inst, integral in trace.rows
    ))


class TrialResult(NamedTuple):
    """A trial's event log, its uplink and downlink component totals, and its error trace."""

    events: EventLog
    uplink: int
    downlink: int
    trace: EstimatorTrace


class TrialInputs(NamedTuple):
    """One trial's random inputs, drawn by `draw_inputs` and replayed by `run_trial`.

    `steps[k]` is sampling step k's (observations, collaborative ids,
    observed-target count, backoff uniforms by sensor id before scaling by
    the interval); the observations are the columns (sensor index, target id,
    measured x, measured y), in noise-draw order: by sensor index, then by
    ascending target id: `run_trial` logs its id tuples sorted without sorting them."""

    key: tuple  # input_key of the scenario they were drawn for
    target_ids: tuple[int, ...]
    sample_times: tuple[float, ...]
    move_times: tuple[float, ...]
    positions: tuple[np.ndarray, ...]  # before any move, then after each move
    steps: tuple[tuple, ...]


def input_key(scenario: Scenario) -> tuple:
    """Every field the draws depend on, so scenarios with equal keys draw equal
    inputs; backoff interval, delays, threshold, costs and architecture do not."""
    p = scenario.protocol
    return (scenario.environment, scenario.sensors, scenario.targets, scenario.dynamics,
            p.sampling_period, p.horizon, p.noise_std, scenario.seed)


def _times(period: float, first: int, horizon: float) -> tuple[float, ...]:
    """first*period, (first+1)*period, ... while short of the horizon."""
    multiples = (k * period for k in itertools.count(first))
    return tuple(itertools.takewhile(lambda t: t < horizon - 1e-12, multiples))


def draw_inputs(scenario: Scenario, *, checked: bool = False) -> TrialInputs:
    """Draw target motion, observations, noise and backoff uniforms from three
    seeded streams, each consumed in the order the README states. Raises
    ScenarioError for an invalid scenario unless the caller has `checked` it."""
    violations = [] if checked else validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))
    proto = scenario.protocol
    base = np.random.SeedSequence(scenario.seed & 0xFFFFFFFFFFFFFFFF)
    # the generators np.random.default_rng builds, without its call overhead
    motion_rng, noise_rng, backoff_rng = (
        np.random.Generator(np.random.PCG64(s)) for s in base.spawn(3)
    )
    sample_times = _times(proto.sampling_period, 0, proto.horizon)
    move_times = _times(scenario.dynamics.move_period, 1, proto.horizon)
    world = initial_world(scenario)
    positions = [world.positions]
    for _ in move_times:
        world = step_targets(world, scenario.dynamics, motion_rng)
        positions.append(world.positions)
    # validated ids are 0..n-1, so row i holds sensor i
    specs = sorted(scenario.sensors, key=lambda s: s.id)
    centers = np.array([s.center for s in specs], dtype=float)
    radii = np.array([s.radius for s in specs], dtype=float)
    tids = world.target_ids
    steps = []
    for t in sample_times:
        pos = positions[bisect.bisect_right(move_times, t)]  # a move at t comes first
        owners, rows = observed_rows(pos, centers, radii)
        counts = np.bincount(rows, minlength=len(tids)).tolist()
        values = measure(pos, rows, proto.noise_std, noise_rng)
        # columns, not one tuple per observation: fewer objects for the cyclic GC to track
        observations = (owners.tolist(), [tids[r] for r in rows.tolist()],
                        values[:, 0].tolist(), values[:, 1].tolist())
        steps.append((
            tuple(map(tuple, observations)),
            tuple(tid for tid, c in zip(tids, counts) if c >= 2),
            len(counts) - counts.count(0),
            tuple(backoff_rng.random(len(specs)).tolist()),
        ))
    return TrialInputs(
        input_key(scenario), tids, sample_times, move_times, tuple(positions), tuple(steps)
    )


def run_trial(scenario: Scenario, inputs: Optional[TrialInputs] = None) -> TrialResult:
    """Simulate one trial over [0, horizon] and return its log, power totals and trace.

    `inputs` (drawn here when None) may come from any scenario with the same
    `input_key`, so both architectures and every backoff interval can replay
    one draw.
    """
    if inputs is None:
        inputs = draw_inputs(scenario)
    elif inputs.key != input_key(scenario):
        raise ValueError("inputs were drawn for a scenario with different draws")

    proto = scenario.protocol
    fb = scenario.architecture == Architecture.FB
    n_sensors = len(scenario.sensors)
    sensor_ids = range(n_sensors)
    eps = proto.trigger_threshold
    horizon = proto.horizon
    interval = proto.backoff_interval
    uplink_delay, downlink_delay = proto.uplink_delay, proto.downlink_delay
    tids = inputs.target_ids
    steps = inputs.steps
    # a small field is scored from lists, converted here once per move
    truths = [p.tolist() for p in inputs.positions] if len(tids) < SMALL_FIELD else inputs.positions
    positions = truths[0]
    estimator = EstimatorState(tids, scenario.environment.centroid)
    score, estimate = estimator.mean_squared_error, estimator.estimate
    log = EventLog()
    record = log.rows.append

    # per-sensor protocol state, indexed by sensor id: the last value each
    # sensor knows the central unit holds per target, and its scheduled but
    # unstarted components with their start time (read only while some are
    # pending). Every SAMPLE drops what the previous step left unstarted, so
    # pending components always belong to the current step.
    acknowledged: list[dict[int, tuple[float, float]]] = [{} for _ in sensor_ids]
    pending: list[dict[int, tuple[float, float]]] = [{} for _ in sensor_ids]
    start_time = [0.0] * n_sensors
    step = -1  # the current sampling step
    n_steps = len(inputs.sample_times)
    uplink = downlink = 0  # components sent and fed back

    # entries (time, order code, sensor id, seq, payload): seq is unique, so
    # the first four fields decide the pop order and payloads never compare
    heap: list[tuple] = [(t, _SAMPLE, 0, k, k) for k, t in enumerate(inputs.sample_times)]
    heap += [(t, _MOVE, 0, n_steps + i, i) for i, t in enumerate(inputs.move_times)]
    heapq.heapify(heap)
    seq = len(heap)
    push, pop = heapq.heappush, heapq.heappop

    def drop_pending(t: float, step: int) -> None:
        for i in sensor_ids:
            if pending[i]:
                dropped = tuple(pending[i])
                record((t, "DROP", step, i, dropped, len(dropped), None))
                pending[i] = {}

    collab: frozenset[int] = frozenset()  # collaborative targets of the current step
    # the error in force before each handled event, integrated in one call at
    # the end; it changes only when a fusion (TX_END) or a move does
    times: list[float] = []
    errors: list[float] = []
    add_time, add_error = times.append, errors.append
    inst = score(positions)
    while heap:
        t, order, sid, _, payload = pop(heap)
        if t > horizon:
            break
        add_time(t)
        add_error(inst)
        if order == _SAMPLE:
            drop_pending(t, step)  # stale unstarted transmissions are superseded by this step
            step = payload
            observations, collab_ids, observed, uniforms = steps[step]
            collab = frozenset(collab_ids)
            record((t, "SAMPLE", step, CENTRAL, collab_ids, observed, None))
            scheduled: list[dict[int, tuple[float, float]]] = [{} for _ in sensor_ids]
            for idx, tid, vx, vy in zip(*observations):
                ack = acknowledged[idx].get(tid)
                if ack is None or math.hypot(vx - ack[0], vy - ack[1]) > eps:
                    scheduled[idx][tid] = (vx, vy)
            for i, comps in enumerate(scheduled):
                if not comps:
                    continue
                b = uniforms[i] * interval
                pending[i] = comps
                start_time[i] = t + b
                ids = tuple(comps)
                record((t, "TRIGGER", step, i, ids, len(ids), None))
                record((t, "BACKOFF_SET", step, i, ids, len(ids), float(b)))
                push(heap, (t + b, _TX_START, i, seq, step))
                seq += 1
        elif order == _TX_START:
            comps = pending[sid]
            if payload != step or not comps:
                continue  # dropped or fully cancelled in the meantime
            # `comps` leaves `pending` here, so no cancel or drop touches the packet
            tgt = tuple(comps)
            n = len(tgt)
            echo_ids = tuple(filter(collab.__contains__, tgt)) if fb else ()
            pending[sid] = {}
            uplink += n
            record((t, "TX_START", step, sid, tgt, n, None))
            push(heap, (t + n * uplink_delay, _TX_END, sid, seq, (step, comps, tgt, echo_ids)))
            seq += 1
        elif order == _TX_END:
            sent, comps, tgt, echo_ids = payload  # the packet's step, maybe before the current one
            record((t, "TX_END", sent, sid, tgt, len(tgt), None))
            fuse(estimator, comps.items(), sent)
            acknowledged[sid].update(comps)
            if echo_ids:
                echo = tuple(zip(echo_ids, map(estimate, echo_ids)))
                m = len(echo)
                downlink += m
                record((t, "FEEDBACK_START", sent, sid, echo_ids, m, None))
                arrival = t + m * downlink_delay
                push(heap, (arrival, _FEEDBACK_END, sid, seq, (sent, echo_ids, echo)))
                seq += 1
            inst = score(positions)
        elif order == _FEEDBACK_END:
            sent, echo_ids, echo = payload
            record((t, "FEEDBACK_END", sent, sid, echo_ids, len(echo), None))
            # only sensors with a scheduled-but-unstarted transmission react; a
            # transmission starting exactly now counts as started (no cancel)
            for i in sensor_ids:
                comps = pending[i]
                if not comps or start_time[i] <= t:
                    continue
                for tid, value in echo:
                    own = comps.get(tid)
                    if own is None:
                        continue
                    if math.hypot(own[0] - value[0], own[1] - value[1]) <= eps:
                        del comps[tid]
                        acknowledged[i][tid] = value
                        record((t, "CANCEL", step, i, (tid,), 1, None))
        else:  # _MOVE
            positions = truths[payload + 1]
            inst = score(positions)
    add_time(horizon)
    add_error(inst)
    trace = accumulate_mse(times, errors)
    # components still scheduled at the horizon would start after it
    drop_pending(horizon, step)
    return TrialResult(log, uplink, downlink, trace)
