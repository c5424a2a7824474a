"""The event engine against a reference engine, record for record.

`reference_trial` below is the engine as it was written before its loop was
flattened: one closure per event kind, a `SensorRuntime` object per sensor,
`EventRecord(...)` for every record, a `Packet` per transmission with its
components sorted, an int64 numpy ledger incremented per packet, `fuse` once
per received packet, each estimate read as its sum over its count, the error
integrated and a trace row added at every event, and the error scored with
numpy's pairwise sum whatever the field size. `run_trial` must give the same
records and power totals, record at each TX_END the (row, estimate) pairs the
reference holds right after fusing that packet (a stale component's pair
holds the newer estimate), and `score_trial` on its result must give the
same trace and the same error in force before every handled event and move,
compared with `==`, on every input the strategies below reach: both
architectures, backoffs forced in the drawn inputs, packets dropped at the
next sample, packets that end after it, moves at a sample or a packet's end,
and fields below and from 8 targets up, where numpy's sum turns pairwise.
On the forced cases, the power.csv that `PowerLedger` reads off the records
must hold the reference ledger's charges cell by cell. An unobserved run
must give the same totals, refuse to be scored, and make the same records
on first read.
"""

import heapq
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scripted_cases import PAIRWISE, forced_inputs

from gathersim.estimation import EstimatorState, fuse
from gathersim.experiments import assumption1_scenario
from gathersim.protocol import (
    CENTRAL, EventRecord, PowerLedger, draw_inputs, run_trial, score_trial,
)
from gathersim.scenario import Architecture, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_MOVE, _TX_END, _FEEDBACK_END, _SAMPLE, _TX_START = range(5)


class Packet(NamedTuple):
    """One uplink transmission: all components a sensor sends for a step."""

    sensor_id: int
    step: int
    components: tuple[tuple[int, tuple[float, float]], ...]
    # ids of the components observed by >= 2 sensors this step, in component order
    collaborative: tuple[int, ...]
    duration: float


class SensorRuntime:
    """Mutable per-sensor protocol state for one trial."""

    def __init__(self, sensor_id):
        self.id = sensor_id
        self.acknowledged = {}
        self.pending = {}
        self.pending_step = -1
        self.start_time = None


class ReferenceTrace:
    """The error trace as the engine once kept it, extended event by event,
    and the (time, error in force) of every handled event and of the horizon."""

    def __init__(self):
        self.rows = []
        self.integral = 0.0
        self.last_time = 0.0
        self.series = []


class ReferenceResult(NamedTuple):
    records: list
    counts: np.ndarray  # int64, (uplink, downlink) components at [step, sensor]
    trace: ReferenceTrace
    fusions: list  # (time, [(row, estimate) per component]) of every TX_END
    stale: int  # components fused after a newer step's measurement of their target


def fused_mean(estimator, tid):
    """A target's fused sum over its count, None before its first measurement:
    the estimate as the engine once computed it on every read."""
    row = estimator.row[tid]
    if estimator._epochs[row] < 0:
        return None
    sx, sy = estimator._sums[row]
    c = estimator._counts[row]
    return (sx / c, sy / c)


def numpy_mse(estimator, target_ids, default_point, positions):
    """The error as the engine once scored it for every field: numpy's sum."""
    estimates = np.array(
        [fused_mean(estimator, tid) or default_point for tid in target_ids], dtype=float
    )
    diff = estimates - positions
    sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
    return float(np.add.reduce(sq) / len(sq))


def integrate(trace, inst, dt):
    """One event's step of the error integral. The reference's own heap
    hands it nondecreasing times, so a negative dt is rounding: the previous
    step's end, last_time + dt, landed one ulp past this event's time."""
    if dt > 0:
        now = trace.last_time + dt
        trace.integral += dt * inst
        trace.rows.append((now, inst, trace.integral))
        trace.last_time = now


def reference_trial(scenario, inputs) -> ReferenceResult:
    proto = scenario.protocol
    fb = scenario.architecture == Architecture.FB
    sensors = [SensorRuntime(i) for i in range(len(scenario.sensors))]
    eps = proto.trigger_threshold
    horizon = proto.horizon
    tids = inputs.target_ids
    positions = inputs.positions[0]
    default_point = scenario.environment.centroid
    estimator = EstimatorState({tid: i for i, tid in enumerate(tids)})
    trace = ReferenceTrace()
    records = []
    fusions = []
    stale = 0
    counts = np.zeros((len(inputs.sample_times), len(sensors), 2), dtype=np.int64)

    def log(*fields):
        records.append(EventRecord(*fields))

    heap = []
    seq = 0

    def push(time, order, key, payload):
        nonlocal seq
        heapq.heappush(heap, (time, order, key, seq, payload))
        seq += 1

    for step, t in enumerate(inputs.sample_times):
        push(t, _SAMPLE, 0, step)
    for i, t in enumerate(inputs.move_times):
        push(t, _MOVE, 0, i)

    collab = frozenset()

    def drop_pending(t):
        for s in sensors:
            if s.pending:
                dropped = tuple(sorted(s.pending))
                log(t, "DROP", s.pending_step, s.id, dropped, len(dropped))
                s.pending.clear()
                s.start_time = None

    def handle_sample(t, step):
        nonlocal collab
        drop_pending(t)
        observations, collab_ids, observed, uniforms = inputs.steps[step]
        collab = frozenset(collab_ids)
        log(t, "SAMPLE", step, CENTRAL, collab_ids, observed)
        scheduled = [{} for _ in sensors]
        for idx, tid, vx, vy in zip(*observations):
            ack = sensors[idx].acknowledged.get(tid)
            if ack is None or math.hypot(vx - ack[0], vy - ack[1]) > eps:
                scheduled[idx][tid] = (vx, vy)
        for s, pending, draw in zip(sensors, scheduled, uniforms):
            if not pending:
                continue
            b = draw * proto.backoff_interval
            s.pending = pending
            s.pending_step = step
            s.start_time = t + b
            sched_ids = tuple(sorted(pending))
            log(t, "TRIGGER", step, s.id, sched_ids, len(sched_ids))
            log(t, "BACKOFF_SET", step, s.id, sched_ids, len(sched_ids), float(b))
            push(t + b, _TX_START, s.id, step)

    def handle_tx_start(t, sensor, step):
        if sensor.pending_step != step or not sensor.pending:
            return
        comps = tuple(sorted(sensor.pending.items()))
        n = len(comps)
        tgt = tuple(tid for tid, _ in comps)
        packet = Packet(
            sensor.id, step, comps, tuple(tid for tid in tgt if tid in collab),
            n * proto.uplink_delay,
        )
        sensor.pending.clear()
        sensor.start_time = None
        counts[step, sensor.id, 0] += n
        log(t, "TX_START", step, sensor.id, tgt, n)
        push(t + packet.duration, _TX_END, sensor.id, packet)

    def handle_tx_end(t, sensor, packet):
        nonlocal stale
        tgt = tuple(tid for tid, _ in packet.components)
        log(t, "TX_END", packet.step, sensor.id, tgt, len(tgt))
        stale += sum(estimator._epochs[estimator.row[tid]] > packet.step for tid in tgt)
        fuse(estimator, packet.components, packet.step)
        fusions.append((t, [(estimator.row[tid], fused_mean(estimator, tid)) for tid in tgt]))
        sensor.acknowledged.update(packet.components)
        if fb and packet.collaborative:
            echo = tuple((tid, fused_mean(estimator, tid)) for tid in packet.collaborative)
            m_count = len(echo)
            counts[packet.step, sensor.id, 1] += m_count
            log(t, "FEEDBACK_START", packet.step, sensor.id, packet.collaborative, m_count)
            push(
                t + m_count * proto.downlink_delay, _FEEDBACK_END, sensor.id,
                (packet.step, sensor.id, echo),
            )

    def handle_feedback_end(t, payload):
        step, elicitor, echo = payload
        log(t, "FEEDBACK_END", step, elicitor, tuple(tid for tid, _ in echo), len(echo))
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
                    log(t, "CANCEL", s.pending_step, s.id, (tid,), 1)

    inst = numpy_mse(estimator, tids, default_point, positions)
    while heap:
        t, order, key, _, payload = heapq.heappop(heap)
        if t > horizon:
            break
        trace.series.append((t, inst))
        integrate(trace, inst, t - trace.last_time)
        if order == _SAMPLE:
            handle_sample(t, payload)
        elif order == _TX_START:
            handle_tx_start(t, sensors[key], payload)
        elif order == _TX_END:
            handle_tx_end(t, sensors[key], payload)
            inst = numpy_mse(estimator, tids, default_point, positions)
        elif order == _FEEDBACK_END:
            handle_feedback_end(t, payload)
        else:
            positions = inputs.positions[payload + 1]
            inst = numpy_mse(estimator, tids, default_point, positions)
    trace.series.append((horizon, inst))
    integrate(trace, inst, horizon - trace.last_time)
    drop_pending(horizon)
    return ReferenceResult(records, counts, trace, fusions, stale)


def assert_power_csv_matches(scenario, result, counts):
    """power.csv, read off `result`'s records, holds the charges of the
    reference ledger `counts` in every (step, sensor) cell, in row order."""
    up_cost, down_cost = scenario.costs.uplink_power, scenario.costs.downlink_power
    want = [
        f"{step},{sensor},{up * up_cost!r},{down * down_cost!r}"
        for step, per_sensor in enumerate(counts.tolist())
        for sensor, (up, down) in enumerate(per_sensor)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "power.csv"
        PowerLedger(result.events, scenario.costs, len(scenario.sensors)).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# gathersim-csv v1 power", "step,sensor,uplink,downlink"]
    assert lines[2:] == want


def assert_engine_matches_reference(scenario, inputs, power_csv=False):
    got = run_trial(scenario, inputs)
    lean = run_trial(scenario, inputs, observe=False)
    assert (lean.uplink, lean.downlink, lean.clock, lean.fusions) == (got.uplink, got.downlink, None, None)
    with pytest.raises(ValueError, match="needs an observed run"):
        score_trial(scenario, inputs, lean)
    assert "rows" not in vars(lean.events)  # until the first read reruns the trial, observed
    assert lean.events.rows == got.events.rows and lean.events.records is lean.events.rows
    trace = score_trial(scenario, inputs, got)
    want = reference_trial(scenario, inputs)
    assert got.events.records == want.records
    # same field types too (an int size printed as 3.0 would change the CSV)
    assert list(map(repr, got.events.records)) == list(map(repr, want.records))
    assert type(got.uplink) is int and type(got.downlink) is int
    assert got.uplink == int(want.counts[:, :, 0].sum())
    assert got.downlink == int(want.counts[:, :, 1].sum())
    if power_csv:
        assert_power_csv_matches(scenario, got, want.counts)
    assert [(got.clock[k], pairs) for k, pairs in got.fusions.items()] == want.fusions
    assert trace.rows == want.trace.rows
    assert trace.integral == want.trace.integral
    # a row is added whenever the clock moves, so the last one ends where the reference's clock stopped
    assert (trace.rows[-1][0] if trace.rows else 0.0) == want.trace.last_time
    # equal-time entries add nothing to the integral, so only this series shows their order
    assert list(zip(trace.times, trace.errors)) == want.trace.series
    return want


# (set size, collaborative targets, unique targets per sensor) of every
# feasible assumption-1 layout with up to 3 of each, by field size: from 8
# elements np.add.reduce sums pairwise, below it adds left to right
LAYOUTS = [(m, c, u) for m in (2, 3) for c in (1, 2, 3) for u in (0, 1, 2, 3)]
SMALL = [lay for lay in LAYOUTS if lay[1] + lay[0] * lay[2] < PAIRWISE]
LARGE = [lay for lay in LAYOUTS if lay[1] + lay[0] * lay[2] >= PAIRWISE]


def field(layout, sampling, periods, noise_std, move_probability, seed, move_fraction):
    """An assumption-1 field (every target confined) with a horizon of
    `periods` sampling periods and moves every `move_fraction` of one."""
    scn = assumption1_scenario(
        *layout, sampling_period=sampling, horizon=periods * sampling, noise_std=noise_std,
        move_probability=move_probability, seed=seed,
    )
    return replace(scn, dynamics=replace(scn.dynamics, move_period=sampling * move_fraction))


def fields(layouts):
    """Fields whose move period is shorter than, equal to or longer than the sampling period."""
    return st.builds(
        field, st.sampled_from(layouts), st.sampled_from([20.0, 45.0]), st.sampled_from([3.0, 4.5]),
        st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.5, 1.0]), st.integers(0, 2**64 - 1),
        st.sampled_from([0.4, 1.0, 1.5]),
    )


# a packet of one step ends after the next step's packet for one of its
# targets was fused, at 0.9 and 1.3 of the sampling period: a stale component,
# which the strategies reach only by chance (about one cell in a hundred)
STALE = field((3, 2, 3), 20.0, 4.5, 0.0, 0.5, 14423459597668054633, 0.4)


def with_forced_backoffs(inputs):
    """`inputs` with every other sensor-step's backoff uniform forced to a
    multiple of 1/4, so zero, full-interval and tied backoffs occur; the
    other sensor-steps keep their draws."""
    steps = tuple(
        (*step[:3], tuple(
            u if (k + i) % 2 else ((3 * k + i) % 5) / 4 for i, u in enumerate(step[3])
        ))
        for k, step in enumerate(inputs.steps)
    )
    return inputs._replace(steps=steps)


def check_cells(scenario, backoff_fractions, forced):
    """Both architectures at each backoff interval, replaying one draw."""
    inputs = draw_inputs(scenario)
    if forced:
        inputs = with_forced_backoffs(inputs)
    for fraction in backoff_fractions:
        interval = fraction * scenario.protocol.sampling_period
        for arch in (Architecture.FB, Architecture.NF):
            cell = replace(
                scenario, architecture=arch,
                protocol=replace(scenario.protocol, backoff_interval=interval),
            )
            assert_engine_matches_reference(cell, inputs, power_csv=forced)


# 1.3 of the sampling period starts some packets after the next sample (DROP
# rows) and ends others after it (carry-over)
BACKOFF_FRACTIONS = st.lists(
    st.sampled_from([0.05, 0.4, 0.9, 1.3]), min_size=2, max_size=3, unique=True
)


@given(scenario=fields(SMALL), backoff_fractions=BACKOFF_FRACTIONS, forced=st.booleans())
@settings(max_examples=60)
def test_engine_matches_reference_on_small_fields(scenario, backoff_fractions, forced):
    check_cells(scenario, backoff_fractions, forced)


@given(scenario=fields(LARGE), backoff_fractions=BACKOFF_FRACTIONS, forced=st.booleans())
@example(scenario=STALE, backoff_fractions=[0.9, 1.3], forced=False)
@settings(max_examples=30)
def test_engine_matches_reference_on_large_fields(scenario, backoff_fractions, forced):
    check_cells(scenario, backoff_fractions, forced)


@given(
    name=st.sampled_from(["minimal.yaml", "setting1.yaml"]),
    seed=st.integers(0, 2**63 - 1),
    backoff_fractions=BACKOFF_FRACTIONS,
    forced=st.booleans(),
)
@example(name="setting1.yaml", seed=2, backoff_fractions=[200.0 / 150.0, 40.0 / 150.0], forced=False)
@settings(max_examples=20)
def test_engine_matches_reference_on_scenario_files(name, seed, backoff_fractions, forced):
    # minimal: one sensor, one target; setting1: overlapping sets of four
    # sensors with unique components, 15 targets
    check_cells(load_scenario(SCENARIOS / name, seed=seed), backoff_fractions, forced)


def test_reference_cases_reach_drop_carry_over_and_cancel():
    # the strategies' parameters do reach the paths the engine must get right
    scn = assumption1_scenario(3, 3, 0, sampling_period=20.0, horizon=90.0, seed=4)
    inputs = draw_inputs(scn)
    kinds = set()
    for fraction in (0.4, 1.3):
        cell = replace(scn, protocol=replace(scn.protocol, backoff_interval=fraction * 20.0))
        records = assert_engine_matches_reference(cell, inputs).records
        kinds |= {r.kind for r in records}
        sample_times = {r.step: r.time for r in records if r.kind == "SAMPLE"}
        if fraction > 1:
            assert any(
                r.kind in ("TX_END", "FEEDBACK_END") and r.step + 1 in sample_times
                and r.time > sample_times[r.step + 1]
                for r in records
            )
    assert {"DROP", "CANCEL", "FEEDBACK_END"} <= kinds


def test_reference_cases_reach_a_stale_component():
    # the example fuses a stale component in FB at both backoffs and in NF at
    # 1.3, and the engine records the newer estimate for it
    inputs = draw_inputs(STALE)
    stale = {}
    for fraction in (0.9, 1.3):
        for arch in Architecture:
            cell = replace(STALE, architecture=arch,
                           protocol=replace(STALE.protocol, backoff_interval=fraction * 20.0))
            stale[fraction, arch] = assert_engine_matches_reference(cell, inputs).stale
    assert {key for key, count in stale.items() if count} == {
        (0.9, Architecture.FB), (1.3, Architecture.FB), (1.3, Architecture.NF)
    }


def test_packets_ending_at_a_move_are_scored_after_it():
    # all three sensors start their 3-component packets at backoff 4, so each
    # ends at 4 + 3 * 2 = 10, the first move; the engine knows no moves, so
    # the scorer alone puts the move first, as the reference's heap does
    scn = assumption1_scenario(3, 3, 0, backoff_interval=8.0, sampling_period=20.0,
                               horizon=60.0, noise_std=0.5, seed=7)
    scn = replace(scn, dynamics=replace(scn.dynamics, move_period=10.0))
    inputs = forced_inputs(scn, {0: (4.0, 4.0, 4.0)})
    assert inputs.move_times[0] == 10.0
    for arch in Architecture:
        records = assert_engine_matches_reference(replace(scn, architecture=arch), inputs).records
        assert [r.time for r in records if r.kind == "TX_END" and r.step == 0] == [10.0] * 3


@given(name=st.sampled_from(["minimal.yaml", "setting1.yaml"]), seed=st.integers(0, 2**63 - 1),
       arch=st.sampled_from(list(Architecture)))
@settings(max_examples=10)
def test_log_records_and_trace_rows_are_built_on_first_read(name, seed, arch):
    # a trial whose caller reads only its totals and integral builds neither
    scn = replace(load_scenario(SCENARIOS / name, seed=seed), architecture=arch)
    inputs = draw_inputs(scn)
    got = run_trial(scn, inputs)
    trace = score_trial(scn, inputs, got)
    assert "records" not in vars(got.events) and "rows" not in vars(trace)
    assert got.events.rows and {type(r) for r in got.events.rows} == {tuple}
    want = reference_trial(scn, inputs)
    records, rows = got.events.records, trace.rows
    assert {type(r) for r in records} == {EventRecord}
    assert records == want.records and rows == want.trace.rows
    assert got.events.records is records and trace.rows is rows
    assert got.events.rows is records  # named in place: one copy of the log, not two
