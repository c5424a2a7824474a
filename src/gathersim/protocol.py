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

Event ordering at equal timestamps: target moves (which only `score_trial`
reads), then transmission ends, then feedback arrivals, then sampling, then
transmission starts; within one kind, the lower sensor id first, then the
event scheduled first. A transmission scheduled exactly at a feedback arrival
is therefore not cancelled, and one scheduled exactly at the next sampling
instant is dropped. Components still scheduled when the run ends are dropped
at the horizon, so every triggered component ends in exactly one TX_START,
CANCEL or DROP.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import geometry
from .dynamics import WorldState, initial_world, measure, observed_rows, step_targets
from .estimation import EstimatorState, EstimatorTrace, accumulate_mse, fuse
from .scenario import Architecture, CostParams, DynamicsParams, Scenario, ScenarioError, check, validate

CENTRAL = -1  # sensor id used for central-unit rows in logs

# event codes in heap entries; their order breaks ties at equal times, and
# the horizon comes after every other event at its time
_TX_END, _FEEDBACK_END, _SAMPLE, _TX_START, _HORIZON = range(5)


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


class EventLog:
    """A trial's events: `rows` of plain tuples in `EventRecord` field order,
    which `records` names in place on first read (the CSV writers read
    `rows`, so only the tests and the benchmark's counting pass name them).
    An unobserved trial's log makes its rows on first read, by a `rerun`."""

    def __init__(self, rerun: Optional[Callable[[], "TrialResult"]] = None):
        if rerun is None:
            self.rows = []  # shadows the cached property: the engine appends here
        self._rerun = rerun

    @cached_property
    def rows(self) -> list[tuple]:
        return self._rerun().events.rows

    @cached_property
    def records(self) -> list[EventRecord]:
        rows, new = self.rows, tuple.__new__  # skips the NamedTuple constructor's argument handling
        for k, r in enumerate(rows):  # one row at a time: never two copies of the log
            rows[k] = new(EventRecord, r)
        return rows

    def to_csv(self, path) -> None:
        # rows share their id tuples (TRIGGER with BACKOFF_SET, TX_START with
        # TX_END, FEEDBACK_START with FEEDBACK_END): join each one once
        targets = cache(lambda ids: ";".join(map(str, ids)))
        write_csv(path, "events", "time,kind,step,sensor,targets,size,value", (
            f"{t!r},{kind},{step},{sensor},{targets(ids)},{size},{'' if value is None else repr(value)}\n"
            for t, kind, step, sensor, ids, size, value in self.rows
        ))


class PowerLedger(NamedTuple):
    """A trial's power charges per (step, sensor), read off its event log:
    each TX_START size at the uplink cost to its sender, each FEEDBACK_START
    size at the downlink cost to the sensor whose packet elicited it."""

    events: EventLog
    costs: CostParams
    n_sensors: int

    def to_csv(self, path) -> None:
        rows, n = self.events.rows, self.n_sensors
        n_steps = sum(r[1] == "SAMPLE" for r in rows)
        counts = [[0, 0] for _ in range(n_steps * n)]  # (uplink, downlink) at step * n + sensor
        for _, kind, step, sensor, _, size, _ in rows:
            if kind == "TX_START":
                counts[step * n + sensor][0] += size
            elif kind == "FEEDBACK_START":
                counts[step * n + sensor][1] += size
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
    """A trial's event log, its uplink and downlink component totals, the time
    of every entry its queue handled (the horizon last), and, by the index of
    each TX_END in `clock`, the (row, estimate) pairs that fusing its packet
    left for the packet's targets (a stale component's pair holds the newer
    estimate); None for both if the trial was not observed."""

    events: EventLog
    uplink: int
    downlink: int
    clock: Optional[list[float]]
    fusions: Optional[dict[int, list[tuple[int, tuple[float, float]]]]]


def input_key(scenario: Scenario) -> tuple:
    """Every field the draws depend on, so scenarios with equal keys draw equal
    inputs; backoff interval, delays, threshold, costs and architecture do not.
    The seed comes last: a `DrawLayout` keys the rest."""
    p = scenario.protocol
    return (scenario.environment, scenario.sensors, scenario.targets, scenario.dynamics,
            p.sampling_period, p.horizon, p.noise_std, scenario.seed)


def _times(period: float, first: int, horizon: float) -> tuple[float, ...]:
    """first*period, (first+1)*period, ... while short of the horizon by more
    than 4 ulps of it, so a multiple that rounding puts just below the horizon
    counts as the horizon at every horizon size."""
    end = horizon - 4 * math.ulp(horizon)
    multiples = (k * period for k in itertools.count(first))
    return tuple(itertools.takewhile(end.__gt__, multiples))


class DrawLayout(NamedTuple):
    """What every trial drawn for one scenario shares, whatever its seed:
    built once by `draw_layout`, drawn from by `draw_trial`."""

    key: tuple  # input_key of the scenario without its seed
    world: WorldState  # the targets before any move (its positions are read-only)
    rows: dict[int, int]  # the row of each target id in `world`
    dynamics: DynamicsParams
    noise_std: float
    sample_times: tuple[float, ...]
    move_times: tuple[float, ...]
    moves_before: tuple[int, ...]  # moves made by each sample time: a move at t comes first
    centers: np.ndarray  # row i holds sensor id i's center
    radii: np.ndarray


class TrialInputs(NamedTuple):
    """One trial's random inputs, drawn by `draw_trial` and replayed by `run_trial`.

    `steps[k]` is sampling step k's (observations, collaborative ids,
    observed-target count, backoff uniforms by sensor id before scaling by
    the interval); the observations are the columns (sensor index, target id,
    measured x, measured y), in noise-draw order: by sensor index, then by
    ascending target id: `run_trial` logs its id tuples sorted without sorting them."""

    layout: DrawLayout  # the one they were drawn from, itself: the home of their key, ids, rows and times
    seed: int
    positions: tuple[np.ndarray, ...]  # before any move, then after each move
    steps: tuple[tuple, ...]


def draw_layout(scenario: Scenario, *, checked: bool = False) -> DrawLayout:
    """The layout `scenario`'s trials draw from at any seed. Raises
    ScenarioError for an invalid scenario unless the caller has `checked` it."""
    violations = [] if checked else validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))
    proto = scenario.protocol
    sample_times = _times(proto.sampling_period, 0, proto.horizon)
    move_times = _times(scenario.dynamics.move_period, 1, proto.horizon)
    world = initial_world(scenario)
    world.positions.flags.writeable = False  # every trial's inputs hold this array
    # validated ids are 0..n-1, so row i holds sensor i
    specs = sorted(scenario.sensors, key=lambda s: s.id)
    return DrawLayout(
        input_key(scenario)[:-1], world, {tid: i for i, tid in enumerate(world.target_ids)},
        scenario.dynamics, proto.noise_std,
        sample_times, move_times, tuple(bisect.bisect_right(move_times, t) for t in sample_times),
        np.array([s.center for s in specs], dtype=float), np.array([s.radius for s in specs], dtype=float),
    )


def draw_trial(layout: DrawLayout, seed: int) -> TrialInputs:
    """Draw target motion, observations, noise and backoff uniforms at `seed`
    from three seeded streams, each consumed in the order the README states:
    the inputs of `layout`'s scenario at that seed.

    Backoff uniforms come in one draw per trial. Observations and their
    noise come in one pass per group of whole steps holding at most
    `geometry.SCAN_CELLS` (sensor, target) pairs, so a small field's trial
    takes one pass. Either way each stream yields what one draw per step
    would."""
    entropy = seed & 0xFFFFFFFFFFFFFFFF
    # SeedSequence(entropy).spawn(3) and np.random.default_rng, without their call overhead
    motion_rng, noise_rng, backoff_rng = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(k,))))
        for k in range(3)
    )
    world = layout.world
    positions = [world.positions]
    for _ in layout.move_times:
        world = step_targets(world, layout.dynamics, motion_rng)
        positions.append(world.positions)
    centers, radii = layout.centers, layout.radii
    tids = world.target_ids
    n = len(tids)
    at = [positions[m] for m in layout.moves_before]
    uniforms = backoff_rng.random((len(at), len(centers))).tolist()
    per_pass = max(1, geometry.SCAN_CELLS // max(1, len(centers) * n))
    steps = []
    for k in range(0, len(at), per_pass):
        group = at[k:k + per_pass]
        group = np.concatenate(group).reshape(len(group), n, 2)  # (step, target row, x/y)
        # (step in group, sensor index, target row), ordered by step, sensor, then row
        st, owners, r = observed_rows(group, centers, radii)
        rows = st * n + r
        xs, ys = measure(group.reshape(-1, 2), rows, layout.noise_std, noise_rng).T.tolist()
        # columns, not one tuple per observation: fewer objects for the cyclic GC to track
        sensors, targets = tuple(owners.tolist()), tuple([tids[i] for i in r.tolist()])
        counts = np.bincount(rows, minlength=len(group) * n).tolist()
        hi = 0
        for j in range(len(group)):
            c = counts[j * n:(j + 1) * n]  # observers per target: the step's observations sum them
            lo, hi = hi, hi + sum(c)
            steps.append((
                (sensors[lo:hi], targets[lo:hi], tuple(xs[lo:hi]), tuple(ys[lo:hi])),
                tuple(tid for tid, m in zip(tids, c) if m >= 2),
                n - c.count(0),
                tuple(uniforms[k + j]),
            ))
    return TrialInputs(layout, seed, tuple(positions), tuple(steps))


def draw_inputs(scenario: Scenario, *, checked: bool = False) -> TrialInputs:
    """`scenario`'s trial inputs: `draw_trial` from its `draw_layout` at its
    seed. Raises ScenarioError for an invalid scenario unless the caller has
    `checked` it."""
    return draw_trial(draw_layout(scenario, checked=checked), scenario.seed)


def run_trial(scenario: Scenario, inputs: TrialInputs, *, checked: bool = False,
              observe: bool = True) -> TrialResult:
    """Simulate one trial over [0, horizon]; `score_trial` reads its error off the result.

    `inputs` may come from any scenario with the same `input_key`, so both
    architectures and every backoff interval can replay one draw. Raises
    ValueError for inputs drawn for another key, and ScenarioError for an
    invalid protocol, the one parameter record outside the key that the
    engine reads, unless the caller has `checked` both. An FB
    or observed run fuses every received packet, once; FB echoes read the
    fused estimates. An unobserved run (`observe=False`) keeps only the
    uplink and downlink totals: no clock or fusions, so it cannot be scored,
    and a log that runs the trial again, observed, when first read.

    An unobserved run also charges, but does not queue, every echo that no
    pending sensor can hear: one that arrives neither before the latest start
    of the current step's pending sensors nor after the next sampling instant
    (the horizon after the last). The rule is exact. Sensors become pending
    only at a SAMPLE, with their start times fixed there; a start equal to the
    arrival counts as started; and a FEEDBACK_END sorts before a SAMPLE at its
    time, so an echo that arrives at the next sample meets this step's sensors.
    """
    if not checked:
        if (*inputs.layout.key, inputs.seed) != input_key(scenario):
            raise ValueError("inputs were drawn for a scenario with different draws")
        check(scenario.protocol)

    proto = scenario.protocol
    fb = scenario.architecture == Architecture.FB
    eps = proto.trigger_threshold
    horizon = proto.horizon
    interval = proto.backoff_interval
    uplink_delay, downlink_delay = proto.uplink_delay, proto.downlink_delay
    steps, sample_times = inputs.steps, inputs.layout.sample_times
    hypot = math.hypot
    if observe:
        log = EventLog()
        record = log.rows.append
        clock, fusions = [], {}  # see TrialResult
        tick = clock.append
    fuses = fb or observe
    if fuses:
        estimator = EstimatorState(inputs.layout.rows)
        row_of, estimates = estimator.row, estimator.estimates

    # per-sensor protocol state: the last value each sensor knows the central
    # unit holds per target, by sensor id; and, for the sensors scheduled at
    # the current step in ascending id order, their unstarted components
    # (emptied by cancels) and start time. Every SAMPLE drops what the
    # previous step left unstarted before it schedules its own.
    acknowledged: list[dict[int, tuple[float, float]]] = [{} for _ in scenario.sensors]
    pending: dict[int, dict[int, tuple[float, float]]] = {}
    start_time = [0.0] * len(scenario.sensors)
    step = -1  # the current sampling step
    n_steps = len(sample_times)
    uplink = downlink = 0  # components sent and fed back

    # entries (time, order code, sensor id, seq, payload): seq is unique and
    # grows with each push, so the first four fields decide the pop order and
    # payloads never compare. The queue holds only the next SAMPLE, which each
    # SAMPLE pushes; no other entry has its order code, so none ties with it,
    # and the pop order is the one of queueing every SAMPLE up front.
    heap: list[tuple] = [(horizon, _HORIZON, 0, 0, None)]
    push, pop = heapq.heappush, heapq.heappop
    if n_steps:
        push(heap, (sample_times[0], _SAMPLE, 0, 1, 0))
    seq = 2

    def drop_pending(t: float, step: int) -> None:
        if observe:
            for i, comps in pending.items():
                if comps:
                    record((t, "DROP", step, i, tuple(comps), len(comps), None))
        pending.clear()

    collab: frozenset[int] = frozenset()  # collaborative targets of the current step
    while True:
        t, order, sid, _, payload = pop(heap)
        if observe:
            tick(t)
        if order == _SAMPLE:
            if pending:
                drop_pending(t, step)  # stale unstarted transmissions are superseded by this step
            step = payload
            next_sample = horizon
            if step + 1 < n_steps:
                next_sample = sample_times[step + 1]
                push(heap, (next_sample, _SAMPLE, 0, seq, step + 1))
                seq += 1
            observations, collab_ids, observed, uniforms = steps[step]
            if fb:
                collab = frozenset(collab_ids)
            if observe:
                record((t, "SAMPLE", step, CENTRAL, collab_ids, observed, None))
            # the observations come by sensor in id order, so one pass groups them
            i = -1
            for idx, tid, vx, vy in zip(*observations):
                ack = acknowledged[idx].get(tid)
                if ack is None or hypot(vx - ack[0], vy - ack[1]) > eps:
                    if idx != i:
                        i = idx
                        comps = pending[i] = {}
                    comps[tid] = (vx, vy)
            for i, comps in pending.items():
                b = uniforms[i] * interval
                start_time[i] = t + b
                if observe:
                    ids = tuple(comps)
                    record((t, "TRIGGER", step, i, ids, len(ids), None))
                    record((t, "BACKOFF_SET", step, i, ids, len(ids), float(b)))
                push(heap, (t + b, _TX_START, i, seq, step))
                seq += 1
            last_start = max(map(start_time.__getitem__, pending), default=t)
        elif order == _TX_START:
            if payload != step:
                continue  # dropped at a later sample
            # `comps` leaves `pending` here, so no cancel or drop touches the packet
            comps = pending.pop(sid)
            if not comps:
                continue  # fully cancelled
            tgt = tuple(comps)
            n = len(tgt)
            echo_ids = ()
            if fb:  # a packet whose targets are all collaborative echoes its own tuple
                echo_ids = tgt if collab.issuperset(tgt) else tuple(filter(collab.__contains__, tgt))
            uplink += n
            if observe:
                record((t, "TX_START", step, sid, tgt, n, None))
            push(heap, (t + n * uplink_delay, _TX_END, sid, seq, (step, comps, tgt, echo_ids)))
            seq += 1
        elif order == _TX_END:
            sent, comps, tgt, echo_ids = payload  # the packet's step, maybe before the current one
            if observe:
                record((t, "TX_END", sent, sid, tgt, len(tgt), None))
            if fuses:
                fuse(estimator, comps.items(), sent)
                if observe:
                    rows = map(row_of.__getitem__, tgt)
                    fusions[len(clock) - 1] = [(r, estimates[r]) for r in rows]
            acknowledged[sid].update(comps)
            if echo_ids:
                m = len(echo_ids)
                downlink += m
                if observe:
                    record((t, "FEEDBACK_START", sent, sid, echo_ids, m, None))
                arrival = t + m * downlink_delay
                # unobserved, queue only an echo that a pending sensor can hear (see the docstring)
                if observe or arrival < last_start or arrival > next_sample:
                    echo = [(tid, estimates[row_of[tid]]) for tid in echo_ids]
                    push(heap, (arrival, _FEEDBACK_END, sid, seq, (sent, echo_ids, echo)))
                    seq += 1
        elif order == _FEEDBACK_END:
            sent, echo_ids, echo = payload
            if observe:
                record((t, "FEEDBACK_END", sent, sid, echo_ids, len(echo), None))
            # only sensors with a scheduled-but-unstarted transmission react; a
            # transmission starting exactly now counts as started (no cancel)
            for i, comps in pending.items():
                if not comps or start_time[i] <= t:
                    continue
                for tid, value in echo:
                    own = comps.get(tid)
                    if own is None:
                        continue
                    if hypot(own[0] - value[0], own[1] - value[1]) <= eps:
                        del comps[tid]
                        acknowledged[i][tid] = value
                        if observe:
                            record((t, "CANCEL", step, i, (tid,), 1, None))
        else:  # _HORIZON: later events fall outside the run
            break
    # components still scheduled at the horizon would start after it
    if pending:
        drop_pending(horizon, step)
    if not observe:  # the same trial, observed, makes the log on first read
        return TrialResult(EventLog(partial(run_trial, scenario, inputs, checked=True)),
                           uplink, downlink, None, None)
    return TrialResult(log, uplink, downlink, clock, fusions)


def nf_ignores_backoff(scenario: Scenario, layout: DrawLayout) -> bool:
    """Whether no backoff up to `scenario`'s interval can change NF's counts
    on `layout`'s draws: after every sample, a packet of every target at the
    full interval starts before the next sample (the horizon after the last)
    and ends no later, summed in `run_trial`'s order. Rounding is monotone, so
    no shorter backoff or packet ends later. Then no packet is dropped and
    each ends by the next sample, where its TX_END sorts first."""
    p, times = scenario.protocol, layout.sample_times
    longest = len(scenario.targets) * p.uplink_delay
    return all(t + p.backoff_interval < nxt and (t + p.backoff_interval) + longest <= nxt
               for t, nxt in zip(times, (*times[1:], p.horizon)))


def score_trial(inputs: TrialInputs, trial: TrialResult) -> EstimatorTrace:
    """The error trace of `trial`, run on `inputs`: the estimates each of its
    fusions left, written in turn over the centroid of the layout's
    environment, and the drawn moves merged into its clock, a move before any
    event at its time, as the queue would pop them. Fuses nothing itself. Raises
    ValueError for an unobserved trial, which kept neither.

    The array `sq` keeps each target's squared error, with the bits of
    `diff[:, 0] ** 2 + diff[:, 1] ** 2`: a fusion rewrites its rows, a move
    all of them. The error is numpy's own (pairwise) sum of `sq` over the
    target count, one arithmetic at every field size."""
    if trial.clock is None:
        raise ValueError("score_trial needs an observed run: run_trial(..., observe=True)")
    n = len(inputs.layout.rows)
    cx, cy = inputs.layout.world.environment.centroid
    xs, ys = [cx] * n, [cy] * n  # the current estimates, by row
    positions, get_fusion = inputs.positions, trial.fusions.get
    reduce = np.add.reduce

    def moved(j):
        tx, ty = positions[j].T.tolist()
        sq = [(ex - px) * (ex - px) + (ey - py) * (ey - py) for ex, ey, px, py in zip(xs, ys, tx, ty)]
        return tx, ty, np.array(sq)

    moves = (*inputs.layout.move_times, math.inf)
    times, errors = [], []
    add_time, add_error = times.append, errors.append
    tx, ty, sq = moved(0)
    inst = float(reduce(sq) / n)
    j = 0  # moves made so far
    for k, t in enumerate(trial.clock):
        while moves[j] <= t:
            add_time(moves[j])
            add_error(inst)
            j += 1
            tx, ty, sq = moved(j)
            inst = float(reduce(sq) / n)
        add_time(t)
        add_error(inst)
        fusion = get_fusion(k)
        if fusion is not None:
            for r, (ex, ey) in fusion:
                xs[r], ys[r] = ex, ey
                dx, dy = ex - tx[r], ey - ty[r]
                sq[r] = dx * dx + dy * dy
            inst = float(reduce(sq) / n)
    return accumulate_mse(times, errors)
