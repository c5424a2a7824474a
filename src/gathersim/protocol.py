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
feedback arrivals, then sampling, then transmission starts. A transmission
scheduled exactly at a feedback arrival is therefore not cancelled, and one
scheduled exactly at the next sampling instant is dropped. Components still
scheduled when the run ends are dropped at the horizon, so every triggered
component ends in exactly one TX_START, CANCEL or DROP.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .dynamics import initial_world, measure, observed_rows, step_targets
from .estimation import EstimatorState, EstimatorTrace, accumulate_mse, fuse
from .scenario import Architecture, CostParams, ProtocolParams, Scenario, ScenarioError, validate

CENTRAL = -1  # sensor id used for central-unit rows in logs

# queue ordering for simultaneous events
_MOVE, _TX_END, _FEEDBACK_END, _SAMPLE, _TX_START = range(5)

BackoffSchedule = Callable[[int, int], Optional[float]]


def write_csv(path, kind: str, header: str, lines: Iterable[str]) -> None:
    """Write the schema line for `kind`, the column header, then `lines` (each ending in \\n)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# gathersim-csv v1 {kind}\n{header}\n")
        fh.writelines(lines)


@dataclass(frozen=True, slots=True)
class EventRecord:
    time: float
    kind: str
    step: int
    sensor: int
    targets: tuple[int, ...]
    size: int
    value: Optional[float] = None


@dataclass
class EventLog:
    architecture: Architecture
    protocol: ProtocolParams
    records: list[EventRecord] = field(default_factory=list)

    def append(self, **kw) -> None:
        self.records.append(EventRecord(**kw))

    def of_kind(self, kind: str) -> list[EventRecord]:
        return [r for r in self.records if r.kind == kind]

    def at_step(self, step: int, kind: Optional[str] = None) -> list[EventRecord]:
        return [
            r
            for r in self.records
            if r.step == step and (kind is None or r.kind == kind)
        ]

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)

    def to_csv(self, path) -> None:
        write_csv(path, "events", "time,kind,step,sensor,targets,size,value", (
            f"{r.time!r},{r.kind},{r.step},{r.sensor},{';'.join(map(str, r.targets))},"
            f"{r.size},{'' if r.value is None else repr(r.value)}\n"
            for r in self.records
        ))


@dataclass(frozen=True)
class Packet:
    """One uplink transmission: all components a sensor sends for a step."""

    sensor_id: int
    step: int
    components: tuple[tuple[int, tuple[float, float]], ...]
    collaborative: frozenset[int]  # target ids observed by >= 2 sensors this step
    duration: float


class PowerLedger:
    """Per-step, per-sensor uplink/downlink component counts and charges.

    `counts[step, sensor]` holds the (uplink, downlink) component counts.
    Charges are counts times the per-component costs, computed on Python
    ints, so they are exact whenever the costs are integers.
    """

    def __init__(self, costs: CostParams, n_sensors: int, n_steps: int):
        self.costs = costs
        self.counts = np.zeros((n_steps, n_sensors, 2), dtype=np.int64)

    def add_uplink(self, step: int, sensor: int, components: int) -> None:
        self.counts[step, sensor, 0] += components

    def add_downlink(self, step: int, sensor: int, components: int) -> None:
        self.counts[step, sensor, 1] += components

    def uplink_components(self) -> int:
        return int(self.counts[:, :, 0].sum())

    def downlink_components(self) -> int:
        return int(self.counts[:, :, 1].sum())

    def charge(self, up: int, down: int):
        return up * self.costs.uplink_power + down * self.costs.downlink_power

    def total_power(self):
        return self.charge(self.uplink_components(), self.downlink_components())

    def normalized_total_power(self) -> float:
        """Total power divided by the per-component uplink cost."""
        return self.total_power() / self.costs.uplink_power

    def to_csv(self, path) -> None:
        up_cost, down_cost = self.costs.uplink_power, self.costs.downlink_power
        write_csv(path, "power", "step,sensor,uplink,downlink", (
            f"{step},{sensor},{up * up_cost!r},{down * down_cost!r}\n"
            for step, per_sensor in enumerate(self.counts.tolist())
            for sensor, (up, down) in enumerate(per_sensor)
        ))


def power_at_step(ledger: PowerLedger, step: int):
    """Total power charged to the given sampling step, both directions."""
    n_steps = ledger.counts.shape[0]
    if step < 0 or step >= n_steps:
        raise IndexError(f"step {step} outside 0..{n_steps - 1}")
    return ledger.charge(*ledger.counts[step].sum(axis=0).tolist())


def trace_to_csv(trace: EstimatorTrace, path) -> None:
    write_csv(path, "mse", "time,mse_instant,mse_integral", (
        f"{t!r},{inst!r},{integral!r}\n" for t, inst, integral in trace.rows
    ))


class SensorRuntime:
    """Mutable per-sensor protocol state for one trial."""

    __slots__ = ("id", "spec", "acknowledged", "pending", "pending_step", "start_time")

    def __init__(self, spec):
        self.id = spec.id
        self.spec = spec
        self.acknowledged: dict[int, tuple[float, float]] = {}
        self.pending: dict[int, tuple[float, float]] = {}
        self.pending_step: int = -1
        self.start_time: Optional[float] = None


class TrialResult(NamedTuple):
    events: EventLog
    power: PowerLedger
    trace: EstimatorTrace


def run_trial(
    scenario: Scenario,
    backoff_schedule: Optional[BackoffSchedule] = None,
    trajectory_out: Optional[list] = None,
) -> TrialResult:
    """Simulate one trial over [0, horizon] and return log, ledger and trace.

    `backoff_schedule(step, sensor_id)` may force backoff values for scripted
    runs; returning None falls back to the uniform draw. Randomness comes from
    three seeded streams (motion, measurement noise, backoff) so paired runs
    of both architectures see identical trajectories and identical draws.
    """
    violations = validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))

    proto = scenario.protocol
    fb = scenario.architecture == Architecture.FB
    # validated ids are 0..n-1, so sensors[i] has id i
    sensors = [SensorRuntime(s) for s in sorted(scenario.sensors, key=lambda s: s.id)]
    n_sensors = len(sensors)
    eps = proto.trigger_threshold
    horizon = proto.horizon

    base = np.random.SeedSequence(scenario.seed & 0xFFFFFFFFFFFFFFFF)
    motion_rng, noise_rng, backoff_rng = (np.random.default_rng(s) for s in base.spawn(3))

    world = initial_world(scenario)
    tids = world.target_ids
    estimator = EstimatorState(tids, scenario.environment.centroid)
    trace = EstimatorTrace()

    sample_times = []
    k = 0
    while k * proto.sampling_period < horizon - 1e-12:
        sample_times.append(k * proto.sampling_period)
        k += 1
    move_times = []
    m = 1
    while m * scenario.dynamics.move_period < horizon - 1e-12:
        move_times.append(m * scenario.dynamics.move_period)
        m += 1

    log = EventLog(architecture=scenario.architecture, protocol=proto)
    ledger = PowerLedger(costs=scenario.costs, n_sensors=n_sensors, n_steps=len(sample_times))

    def record_positions(t: float) -> None:
        if trajectory_out is not None:
            for tid, (x, y) in zip(tids, world.positions.tolist()):
                trajectory_out.append((t, tid, x, y))

    record_positions(0.0)

    heap: list[tuple] = []
    seq = 0

    def push(time: float, order: int, key: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, order, key, seq, kind, payload))
        seq += 1

    for step, t in enumerate(sample_times):
        push(t, _SAMPLE, 0, "SAMPLE", step)
    for i, t in enumerate(move_times):
        push(t, _MOVE, 0, "MOVE", i)

    collab: frozenset[int] = frozenset()  # collaborative targets of the current step

    def drop_pending(t: float) -> None:
        for s in sensors:
            if s.pending:
                dropped = tuple(sorted(s.pending))
                log.append(
                    time=t, kind="DROP", step=s.pending_step, sensor=s.id,
                    targets=dropped, size=len(dropped),
                )
                s.pending.clear()
                s.start_time = None

    def handle_sample(t: float, step: int) -> None:
        nonlocal collab
        drop_pending(t)  # stale unstarted transmissions are superseded by this step
        observed = [observed_rows(world.positions, s.spec) for s in sensors]
        counts = np.zeros(len(tids), dtype=np.int64)
        for rows in observed:
            counts[rows] += 1
        collab = frozenset(tids[i] for i in np.nonzero(counts >= 2)[0])
        n_observed = int(np.count_nonzero(counts))
        log.append(
            time=t, kind="SAMPLE", step=step, sensor=CENTRAL,
            targets=tuple(sorted(collab)), size=n_observed,
        )

        draws = backoff_rng.random(n_sensors)
        for idx, s in enumerate(sensors):
            rows = observed[idx]
            values = measure(world.positions, rows, proto.noise_std, noise_rng)
            scheduled: dict[int, tuple[float, float]] = {}
            for row, (vx, vy) in zip(rows.tolist(), values.tolist()):
                tid = tids[row]
                ack = s.acknowledged.get(tid)
                if ack is None or math.hypot(vx - ack[0], vy - ack[1]) > eps:
                    scheduled[tid] = (vx, vy)
            if not scheduled:
                continue
            b = None
            if backoff_schedule is not None:
                b = backoff_schedule(step, s.id)
            if b is None:
                b = float(draws[idx]) * proto.backoff_interval
            elif not (0.0 <= b <= proto.backoff_interval):
                raise ValueError(
                    f"forced backoff {b} for sensor {s.id} outside [0, {proto.backoff_interval}]"
                )
            s.pending = scheduled
            s.pending_step = step
            s.start_time = t + b
            sched_ids = tuple(sorted(scheduled))
            log.append(
                time=t, kind="TRIGGER", step=step, sensor=s.id,
                targets=sched_ids, size=len(sched_ids),
            )
            log.append(
                time=t, kind="BACKOFF_SET", step=step, sensor=s.id,
                targets=sched_ids, size=len(sched_ids), value=float(b),
            )
            push(t + b, _TX_START, s.id, "TX_START", step)

    def handle_tx_start(t: float, sensor: SensorRuntime, step: int) -> None:
        # a pending transmission always belongs to the current step: every
        # SAMPLE drops what the previous step left unstarted
        if sensor.pending_step != step or not sensor.pending:
            return  # dropped or fully cancelled in the meantime
        comps = tuple(sorted(sensor.pending.items()))
        n = len(comps)
        packet = Packet(
            sensor_id=sensor.id, step=step, components=comps,
            collaborative=frozenset(tid for tid, _ in comps if tid in collab),
            duration=n * proto.uplink_delay,
        )
        sensor.pending.clear()
        sensor.start_time = None
        ledger.add_uplink(step, sensor.id, n)
        tgt = tuple(tid for tid, _ in comps)
        log.append(time=t, kind="TX_START", step=step, sensor=sensor.id, targets=tgt, size=n)
        push(t + packet.duration, _TX_END, sensor.id, "TX_END", packet)

    def handle_tx_end(t: float, sensor: SensorRuntime, packet: Packet) -> None:
        tgt = tuple(tid for tid, _ in packet.components)
        log.append(
            time=t, kind="TX_END", step=packet.step, sensor=sensor.id,
            targets=tgt, size=len(packet.components),
        )
        fuse(estimator, packet)
        for tid, value in packet.components:
            sensor.acknowledged[tid] = value
        if fb and packet.collaborative:
            echo = tuple(
                (tid, estimator.estimate(tid))
                for tid, _ in packet.components
                if tid in packet.collaborative
            )
            m_count = len(echo)
            ledger.add_downlink(packet.step, sensor.id, m_count)
            log.append(
                time=t, kind="FEEDBACK_START", step=packet.step, sensor=sensor.id,
                targets=tuple(tid for tid, _ in echo), size=m_count,
            )
            push(
                t + m_count * proto.downlink_delay, _FEEDBACK_END, sensor.id,
                "FEEDBACK_END", (packet.step, sensor.id, echo),
            )

    def handle_feedback_end(t: float, payload) -> None:
        step, elicitor, echo = payload
        log.append(
            time=t, kind="FEEDBACK_END", step=step, sensor=elicitor,
            targets=tuple(tid for tid, _ in echo), size=len(echo),
        )
        # only sensors with a scheduled-but-unstarted transmission react; a
        # transmission starting exactly now counts as started (no cancel)
        for s in sensors:
            if not s.pending or s.start_time is None or s.start_time <= t:
                continue
            for tid, value in echo:
                own = s.pending.get(tid)
                if own is None:
                    continue
                if math.hypot(own[0] - value[0], own[1] - value[1]) <= eps:
                    del s.pending[tid]
                    s.acknowledged[tid] = value
                    log.append(
                        time=t, kind="CANCEL", step=s.pending_step, sensor=s.id,
                        targets=(tid,), size=1,
                    )

    # the error changes only when a fusion (TX_END) or a move does
    inst = estimator.mean_squared_error(world.positions)
    while heap:
        t, order, key, _, kind, payload = heapq.heappop(heap)
        if t > horizon:
            break
        accumulate_mse(trace, inst, t - trace.last_time)
        if kind == "SAMPLE":
            handle_sample(t, payload)
        elif kind == "TX_START":
            handle_tx_start(t, sensors[key], payload)
        elif kind == "TX_END":
            handle_tx_end(t, sensors[key], payload)
            inst = estimator.mean_squared_error(world.positions)
        elif kind == "FEEDBACK_END":
            handle_feedback_end(t, payload)
        elif kind == "MOVE":
            world = step_targets(world, scenario.dynamics, motion_rng)
            record_positions(t)
            inst = estimator.mean_squared_error(world.positions)
    accumulate_mse(trace, inst, horizon - trace.last_time)
    # components still scheduled at the horizon would start after it
    drop_pending(horizon)

    return TrialResult(events=log, power=ledger, trace=trace)


@dataclass(frozen=True)
class SetClassification:
    """How one collaborative set behaved at one sampling step."""

    members: frozenset[int]
    lead: int
    informed: frozenset[int]
    uninformed: frozenset[int]
    lead_delay: float


def classify_step(log: EventLog, sets: list[frozenset[int]], step: int) -> list[SetClassification]:
    """Partition each collaborative set at a step into lead/informed/uninformed.

    The lead minimizes backoff plus propagation delay (lowest id on ties); a
    sensor is informed when its backoff exceeds the lead's backoff plus the
    lead's actual propagation delay. Only sensors triggered at the step take
    part; sets with no triggered member yield no entry.
    """
    if log.architecture != Architecture.FB:
        raise ValueError("classification is defined for feedback-architecture logs only")
    samples = log.at_step(step, "SAMPLE")
    if not samples:
        raise IndexError(f"no sampling step {step} in this log")
    collab = frozenset(samples[-1].targets)
    proto = log.protocol
    backoffs = {r.sensor: r for r in log.at_step(step, "BACKOFF_SET")}
    tx_sizes = {r.sensor: r.size for r in log.at_step(step, "TX_START")}
    fb_sizes = {r.sensor: r.size for r in log.at_step(step, "FEEDBACK_START")}

    out: list[SetClassification] = []
    for members in sorted(sets, key=lambda fs: (len(fs), tuple(sorted(fs)))):
        triggered = sorted(j for j in members if j in backoffs)
        if not triggered:
            continue

        def scheduled_delay(j: int) -> float:
            rec = backoffs[j]
            m = sum(1 for tid in rec.targets if tid in collab)
            return rec.size * proto.uplink_delay + m * proto.downlink_delay

        lead = min(triggered, key=lambda j: (backoffs[j].value + scheduled_delay(j), j))
        if lead in tx_sizes:
            lead_delay = (
                tx_sizes[lead] * proto.uplink_delay
                + fb_sizes.get(lead, 0) * proto.downlink_delay
            )
        else:
            lead_delay = scheduled_delay(lead)
        cutoff = backoffs[lead].value + lead_delay
        informed = frozenset(j for j in triggered if j != lead and backoffs[j].value > cutoff)
        uninformed = frozenset(j for j in triggered if j != lead and j not in informed)
        out.append(
            SetClassification(
                members=members, lead=lead, informed=informed,
                uninformed=uninformed, lead_delay=lead_delay,
            )
        )
    return out
