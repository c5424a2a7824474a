"""The engine's fast paths against straightforward reference implementations.

Each reference below does the same arithmetic the simple way:
numpy arrays for the estimator, an (n, 2) estimates array and numpy's own
sum for the scorer, one distance test and one noise draw per sensor for the
sampling step, one distance test per sensor for membership, a per-target
numpy-scalar loop for target motion, one trajectory line at a time
for the trajectory dump, draws made in event-time order as the
engine once made them inside its loop, and a trial on its own cell's draw
for one on another cell's. The fast paths must
give exactly the same floats (compared with `==`, not a tolerance) and leave
every random generator in the same state, since the golden CSVs and the
paired-trial streams rest on that.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scripted_cases import fusion_count

from gathersim import geometry
from gathersim.cli import _trajectory_snapshots
from gathersim.dynamics import WorldState, initial_world, measure, observed_rows, reflect, step_targets
from gathersim.estimation import EstimatorState, fuse
from gathersim.experiments import assumption1_scenario
from gathersim.geometry import membership
from gathersim.protocol import (
    EventLog, TrialInputs, TrialResult, draw_inputs, draw_layout, draw_trial, input_key, run_trial, score_trial,
)
from gathersim.scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
    Point,
    ProtocolParams,
    Scenario,
    SensorSpec,
    TargetSpec,
)

# up to 40 targets, plus one large field
TARGET_COUNTS = st.one_of(st.integers(0, 40), st.just(1000))
COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class ReferenceEstimator:
    """EstimatorState on numpy arrays."""

    def __init__(self, n):
        self.sums = np.zeros((n, 2))
        self.counts = np.zeros(n, dtype=np.int64)
        self.epochs = np.full(n, -1, dtype=np.int64)
        self.valid = np.zeros(n, dtype=bool)

    def absorb(self, row, value, step):
        if self.valid[row] and self.epochs[row] == step:
            self.sums[row] += value
            self.counts[row] += 1
        elif not self.valid[row] or step > self.epochs[row]:
            self.sums[row] = value
            self.counts[row] = 1
            self.epochs[row] = step
            self.valid[row] = True

    def estimate(self, row):
        if not self.valid[row]:
            return None
        c = self.counts[row]
        return (self.sums[row, 0] / c, self.sums[row, 1] / c)


@given(
    n=TARGET_COUNTS,
    # (target draw, value, step): steps 0-3 give same-step averaging,
    # replacement by a newer step and stale drops
    ops=st.lists(st.tuples(st.integers(0, 10**6), st.tuples(COORD, COORD), st.integers(0, 3)), max_size=30),
)
@example(n=3, ops=[(0, (1.0, 2.0), 0), (0, (3.0, 6.0), 0), (0, (0.5, 0.5), 0)])
@settings(max_examples=200)
def test_estimator_matches_reference(n, ops):
    fast = EstimatorState(dict(zip(range(n), range(n))))
    ref = ReferenceEstimator(n)
    for draw, value, step in ops if n else ():
        row = draw % n
        fuse(fast, [(row, value)], step)
        ref.absorb(row, value, step)
        assert tuple(fast.estimates[row]) == ref.estimate(row)
        assert fusion_count(fast, row) == ref.counts[row]
    # a target never measured has no epoch and no estimate yet
    for row in range(n):
        assert (fast._epochs[row] < 0) == (ref.estimate(row) is None) == (fast.estimates[row] is None)


def mixed(rng, shape):
    """Coordinates of either sign from 1e-6 to 1e7 in size, so small squared
    errors can vanish in a large sum."""
    return rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-6, 7, shape)


@given(
    # every size up to 40 (left to right below 8, eight accumulators from
    # there), both sides of the 128-element pairwise split, and a large field
    n=st.sampled_from([*range(1, 41), 127, 128, 129, 1000]),
    seed=st.integers(0, 2**32 - 1),
    events=st.integers(0, 30),
    moves=st.integers(0, 4),
)
@example(n=127, seed=0, events=30, moves=4)
@example(n=128, seed=1, events=30, moves=4)
@example(n=129, seed=2, events=30, moves=4)
@example(n=1000, seed=3, events=30, moves=4)
@settings(max_examples=150)
def test_score_trial_is_numpy_mean_of_squared_errors(n, seed, events, moves):
    # a hand-built trial: fusions of random (row, estimate) pairs at random
    # events, and moves between events or at an event's own time
    rng = np.random.default_rng(seed)
    width, height = rng.uniform(1.0, 10.0, 2) * 10.0 ** rng.integers(-3, 7, 2)
    horizon = 100.0
    clock = [*sorted(rng.uniform(0.0, horizon, events).tolist()), horizon]
    move_times = tuple(sorted(rng.choice([*clock, *rng.uniform(0.0, horizon, moves)], moves).tolist()))
    positions = tuple(mixed(rng, (n, 2)) for _ in range(moves + 1))
    fusions = {
        k: [(r, tuple(mixed(rng, 2).tolist())) for r in rng.choice(n, rng.integers(1, 7)).tolist()]
        for k in range(events) if rng.random() < 0.6
    }
    scenario = replace(assumption1_scenario(2, 1, 1, seed=0), environment=Environment(width, height))
    inputs = TrialInputs((), tuple(range(n)), dict(zip(range(n), range(n))), (), move_times, positions, ())
    trace = score_trial(scenario, inputs, TrialResult(EventLog(), 0, 0, clock, fusions))

    estimates = np.full((n, 2), (width / 2.0, height / 2.0))

    def error(j):
        diff = estimates - positions[j]
        return float(np.add.reduce(diff[:, 0] ** 2 + diff[:, 1] ** 2) / n)

    want, j, inst = [], 0, error(0)
    for k, t in enumerate(clock):
        while j < moves and move_times[j] <= t:
            want.append((move_times[j], inst.hex()))
            j += 1
            inst = error(j)
        want.append((t, inst.hex()))
        if k in fusions:
            for r, value in fusions[k]:
                estimates[r] = value
            inst = error(j)
    assert [(t, e.hex()) for t, e in zip(trace.times, trace.errors)] == want


def reference_measurements(positions, sensors, noise_std, rng):
    """The sampling step per sensor, in id order: a distance test and a noise
    draw for the rows it observes."""
    out = []
    for spec in sensors:
        d2 = (positions[:, 0] - spec.center[0]) ** 2 + (positions[:, 1] - spec.center[1]) ** 2
        rows = np.nonzero(d2 <= spec.radius * spec.radius)[0]
        out.append((rows, positions[rows] + noise_std * rng.standard_normal((len(rows), 2))))
    return out


SENSOR = st.tuples(st.floats(-10.0, 60.0), st.floats(-10.0, 60.0), st.floats(0.0, 30.0))


@given(
    n=TARGET_COUNTS,
    seed=st.integers(0, 2**32 - 1),
    sensors=st.lists(SENSOR, min_size=1, max_size=6),
    noise_std=st.sampled_from([0.0, 0.1, 2.5]),
)
# a sensor that observes nothing between two that observe something, and a
# target exactly on a disk boundary
@example(n=3, seed=0, sensors=[(0.0, 0.0, 1000.0), (500.0, 500.0, 1.0), (0.0, 0.0, 1000.0)], noise_std=0.1)
@settings(max_examples=200)
def test_sampling_step_matches_per_sensor_loop(n, seed, sensors, noise_std):
    positions = np.random.default_rng(seed).uniform(0.0, 50.0, size=(n, 2))
    if n:
        cx, cy, r = sensors[0]
        positions[0] = (cx + r, cy)
    specs = [SensorSpec(i, (cx, cy), r) for i, (cx, cy, r) in enumerate(sensors)]
    rng_fast, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    owners, rows = observed_rows(
        positions, np.array([s.center for s in specs]), np.array([s.radius for s in specs])
    )
    values = measure(positions, rows, noise_std, rng_fast)
    expected = reference_measurements(positions, specs, noise_std, rng_ref)

    for i, (ref_rows, ref_values) in enumerate(expected):
        mine = owners == i
        assert np.array_equal(rows[mine], ref_rows)
        assert np.array_equal(values[mine], ref_values)
    assert len(rows) == sum(len(r) for r, _ in expected)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


def reference_membership(scenario, positions):
    """Membership by one distance test per sensor, in scenario order; with
    no targets every set is empty."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    tids = [t.id for t in scenario.targets]
    obs = {tid: set() for tid in tids}
    for s in scenario.sensors:
        d2 = (pos[:, 0] - s.center[0]) ** 2 + (pos[:, 1] - s.center[1]) ** 2
        for row in np.nonzero(d2 <= s.radius * s.radius)[0]:
            obs[tids[row]].add(s.id)
    return {tid: frozenset(obs[tid]) for tid in tids}


def layout(sensors, positions, target_ids):
    return Scenario(
        environment=Environment(50.0, 50.0),
        sensors=tuple(sensors),
        targets=tuple(TargetSpec(tid, p) for tid, p in zip(target_ids, positions)),
        protocol=ProtocolParams(10.0, 5.0, 1.0, 0.5, 1.0, 0.1, 100.0),
        dynamics=DynamicsParams(1.0, 10.0, 0.5),
        costs=CostParams(1.0, 1.0),
        architecture=Architecture.FB,
        seed=0,
    )


@st.composite
def layouts(draw):
    """Sensors listed out of id order, and 0-12 targets, each either anywhere
    or on the rightmost or lowest point of some sensor's disk."""
    disks = draw(st.lists(SENSOR, min_size=1, max_size=6))
    sensor_ids = draw(st.permutations(range(len(disks))))
    sensors = [SensorSpec(j, (cx, cy), r) for j, (cx, cy, r) in zip(sensor_ids, disks)]
    positions = []
    for _ in range(draw(st.integers(0, 12))):
        cx, cy, r = draw(st.sampled_from(disks))
        on_edge = st.sampled_from([(cx + r, cy), (cx, cy - r)])
        anywhere = st.tuples(st.floats(-10.0, 60.0), st.floats(-10.0, 60.0))
        positions.append(draw(on_edge | anywhere))
    return layout(sensors, positions, draw(st.permutations(range(len(positions)))))


# (13, 14) and (15, 10) lie exactly on the first disk, (19, 10) on the second
@example(scenario=layout(
    [SensorSpec(1, (10.0, 10.0), 5.0), SensorSpec(0, (16.0, 10.0), 3.0)],
    [(13.0, 14.0), (15.0, 10.0), (19.0, 10.0), (30.0, 30.0)], [2, 0, 3, 1],
))
@given(scenario=layouts())
@settings(max_examples=200)
def test_membership_matches_per_sensor_loop(scenario):
    positions = [t.position for t in scenario.targets]
    assert membership(scenario, positions) == reference_membership(scenario, positions)


_MAX_DIRECTION_DRAWS = 256  # the library's cap on a confined target's direction draws


# a confined jump with one scalar draw per direction tried
def _confined_jump(x: float, y: float, step: float, center: Point, radius: float, rng) -> Point:
    cx, cy = center
    for _ in range(_MAX_DIRECTION_DRAWS):
        theta = rng.random() * 2.0 * math.pi
        nx = x + step * math.cos(theta)
        ny = y + step * math.sin(theta)
        if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius:
            return (nx, ny)
    # fallback: jump straight toward the confinement center
    d = math.hypot(cx - x, cy - y)
    if d > 0:
        nx = x + step * (cx - x) / d
        ny = y + step * (cy - y) / d
    else:
        nx, ny = x + step, y
    if (nx - cx) ** 2 + (ny - cy) ** 2 <= radius * radius:
        return (nx, ny)
    return (x, y)


def reference_step_targets(state, params, rng):
    """The motion step on numpy scalars, returning through dataclasses.replace."""
    pos = state.positions.copy()
    env = state.environment
    for i in range(pos.shape[0]):
        if rng.random() >= params.move_probability:
            continue
        if params.move_step == 0.0:
            continue
        conf = state.confinements[i]
        if conf is not None:
            pos[i] = _confined_jump(pos[i, 0], pos[i, 1], params.move_step, conf[0], conf[1], rng)
        else:
            theta = rng.random() * 2.0 * math.pi
            nx = pos[i, 0] + params.move_step * math.cos(theta)
            ny = pos[i, 1] + params.move_step * math.sin(theta)
            pos[i] = (reflect(nx, env.width), reflect(ny, env.height))
    return replace(state, positions=pos)


# every direction of a 30 jump leaves a radius-5 disk, so target 0 makes all 256
# direction draws, refilling a block of 2 as it goes, and then takes the fallback
@example(n=2, seed=0, move_step=30.0, move_probability=1.0, confined=True)
# decisions only: no target moves, or a move has zero length
@example(n=5, seed=0, move_step=3.0, move_probability=0.0, confined=True)
@example(n=5, seed=0, move_step=0.0, move_probability=1.0, confined=True)
# a block runs out between two of a confined target's direction draws, and a later draw is kept
@example(n=3, seed=0, move_step=3.0, move_probability=1.0, confined=True)
# a free target's direction draw refills a block of one
@example(n=1, seed=0, move_step=3.0, move_probability=1.0, confined=False)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    move_step=st.sampled_from([0.0, 0.5, 3.0, 30.0]),
    move_probability=st.sampled_from([0.0, 0.5, 1.0]),
    confined=st.booleans(),
)
@settings(max_examples=100)
def test_step_targets_matches_reference(n, seed, move_step, move_probability, confined):
    env = Environment(50.0, 40.0)
    positions = np.random.default_rng(seed).uniform(0.0, 40.0, size=(n, 2))
    confinements = tuple(
        ((float(x), float(y)), 5.0) if confined and i % 2 == 0 else None
        for i, (x, y) in enumerate(positions.tolist())
    )
    state = WorldState(positions, tuple(range(n)), env, confinements)
    params = DynamicsParams(move_step, 10.0, move_probability)
    rng_fast, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(3):
        fast = step_targets(state, params, rng_fast)
        ref = reference_step_targets(state, params, rng_ref)
        assert np.array_equal(fast.positions.view(np.int64), ref.positions.view(np.int64))
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        state = fast


def reference_trajectory_lines(inputs):
    """The trajectory dump one `stamp + tail` line at a time."""
    tids, positions = inputs.target_ids, inputs.positions
    tails = [f",{tid},{x!r},{y!r}\n" for tid, (x, y) in zip(tids, positions[0].tolist())]
    yield from ("0.0" + tail for tail in tails)
    for t, prev, pos in zip(inputs.move_times, positions, positions[1:]):
        moved = np.flatnonzero((pos.view(np.int64) != prev.view(np.int64)).any(axis=1))
        for i, (x, y) in zip(moved.tolist(), pos[moved].tolist()):
            tails[i] = f",{tids[i]},{x!r},{y!r}\n"
        stamp = repr(t)
        yield from (stamp + tail for tail in tails)


@st.composite
def trajectories(draw):
    """Inputs of 1-6 targets with 0-4 moves, in which a row keeps its bits,
    flips between 0.0 and -0.0, or takes a new value."""
    n = draw(st.integers(1, 6))
    value = st.sampled_from([0.0, -0.0, 1.5, 1e-300]) | COORD
    rows = [[draw(value), draw(value)] for _ in range(n)]
    positions = [np.array(rows)]
    for _ in range(draw(st.integers(0, 4))):
        change = {"keep": lambda v: v, "flip": lambda v: -v if v == 0.0 else v,
                  "new": lambda v: draw(value)}
        rows = [[change[draw(st.sampled_from(sorted(change)))](v) for v in row] for row in rows]
        positions.append(np.array(rows))
    times = sorted(draw(st.sets(st.floats(1.0, 1e4), min_size=len(positions) - 1,
                                max_size=len(positions) - 1)))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    ids = tuple(sorted(ids))
    return TrialInputs((), ids, dict(zip(ids, range(n))), (), tuple(times), tuple(positions), ())


# no move at all: the horizon is within one move period
@example(inputs=TrialInputs((), (0, 1), {0: 0, 1: 1}, (), (), (np.array([[0.0, -0.0], [2.5, 3.0]]),), ()))
# every row flips the sign of its zeros, then stays put
@example(inputs=TrialInputs((), (3,), {3: 0}, (), (10.0, 20.0),
                            tuple(np.array(r) for r in ([[0.0, -0.0]], [[-0.0, 0.0]], [[-0.0, 0.0]])), ()))
@given(inputs=trajectories())
@settings(max_examples=150)
def test_trajectory_snapshots_join_the_line_by_line_dump(inputs):
    snapshots = list(_trajectory_snapshots(inputs))
    assert len(snapshots) == len(inputs.positions)
    assert "".join(snapshots) == "".join(reference_trajectory_lines(inputs))


@st.composite
def replay_scenarios(draw):
    """Assumption-1 layouts (every target confined) whose move period is
    shorter than, equal to or longer than the sampling period."""
    sampling = draw(st.sampled_from([20.0, 45.0]))
    scn = assumption1_scenario(
        draw(st.integers(2, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 1)),
        sampling_period=sampling,
        horizon=draw(st.sampled_from([3.0, 4.5])) * sampling,
        noise_std=draw(st.sampled_from([0.0, 0.5, 2.0])),
        move_probability=draw(st.sampled_from([0.5, 1.0])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    move_period = sampling * draw(st.sampled_from([0.4, 1.0, 1.5]))
    return replace(scn, dynamics=replace(scn.dynamics, move_period=move_period))


def reference_draws(scenario):
    """The draws in event-time order, a move before a sample at the same
    instant, as the engine made them inside its event loop: a list of
    ("move", positions) and ("sample", (sensor ids, target ids, measured x,
    measured y), collaborative ids, observed count, backoff uniforms)
    entries."""
    base = np.random.SeedSequence(scenario.seed & 0xFFFFFFFFFFFFFFFF)
    motion_rng, noise_rng, backoff_rng = (np.random.default_rng(s) for s in base.spawn(3))
    proto = scenario.protocol
    events = []
    end = proto.horizon - 4 * math.ulp(proto.horizon)  # instants this close to the horizon are not drawn
    k = 0
    while k * proto.sampling_period < end:
        events.append((k * proto.sampling_period, 1))
        k += 1
    m = 1
    while m * scenario.dynamics.move_period < end:
        events.append((m * scenario.dynamics.move_period, 0))
        m += 1
    world = initial_world(scenario)
    specs = sorted(scenario.sensors, key=lambda s: s.id)
    out = []
    for _, is_sample in sorted(events):
        if not is_sample:
            world = step_targets(world, scenario.dynamics, motion_rng)
            out.append(("move", world.positions))
            continue
        observations, seen = [], {}
        for spec in specs:
            for row in range(len(world.target_ids)):
                dx, dy = world.positions[row] - spec.center
                if dx * dx + dy * dy <= spec.radius * spec.radius:
                    observations.append((spec.id, world.target_ids[row]))
                    seen[world.target_ids[row]] = seen.get(world.target_ids[row], 0) + 1
        rows = [world.target_ids.index(tid) for _, tid in observations]
        noise = noise_rng.standard_normal((len(rows), 2))
        values = [world.positions[r] + proto.noise_std * n for r, n in zip(rows, noise)]
        out.append((
            "sample",
            (tuple(i for i, _ in observations), tuple(tid for _, tid in observations),
             tuple(x for x, _ in values), tuple(y for _, y in values)),
            tuple(sorted(tid for tid, c in seen.items() if c >= 2)),
            len(seen),
            tuple(backoff_rng.random(len(specs))),
        ))
    return out


def assert_draws_match_reference(scenario, inputs):
    moves = iter(inputs.positions[1:])
    steps = iter(inputs.steps)
    for kind, *drawn in reference_draws(scenario):
        if kind == "move":
            assert np.array_equal(next(moves), drawn[0])
        else:
            assert next(steps) == tuple(drawn)
    assert next(moves, None) is None and next(steps, None) is None


@given(scenario=replay_scenarios())
@settings(max_examples=60)
def test_draw_inputs_matches_in_loop_order(scenario):
    assert_draws_match_reference(scenario, draw_inputs(scenario))


# its one target starts on the disk's edge, so some steps see it and some do not
STRAY = layout([SensorSpec(0, (10.0, 10.0), 5.0)], [(15.0, 10.0)], [0])


def test_stray_reaches_steps_that_observe_nothing():
    observed = [count for _, _, count, _ in draw_inputs(STRAY).steps]
    assert 0 in observed and 1 in observed


@example(scenario=layout([SensorSpec(0, (10.0, 10.0), 5.0)], [], []), steps_per_pass=3)  # no targets
@example(scenario=STRAY, steps_per_pass=3)
@example(scenario=STRAY, steps_per_pass=1)
@given(scenario=layouts() | replay_scenarios(), steps_per_pass=st.integers(1, 4))
@settings(max_examples=80)
def test_observation_passes_of_grouped_steps_match_in_loop_order(scenario, steps_per_pass):
    # one observed_rows pass per `steps_per_pass` steps (the last may hold
    # fewer), where the default bound puts every step of these small fields
    # in one pass; the draw checks no scenario, so a field may hold no target
    pairs = len(scenario.sensors) * len(scenario.targets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "SCAN_CELLS", steps_per_pass * pairs)
        inputs = draw_inputs(scenario, checked=True)
    assert_draws_match_reference(scenario, inputs)


@st.composite
def grid_bases(draw):
    """`layouts()` with some targets confined (to disks narrower or wider
    than a move step), or assumption-1 layouts, whose targets all are; over
    one or three sampling steps, with moves before, at or after the samples,
    or no move."""
    scn = draw(layouts() | replay_scenarios())
    if not any(t.confined for t in scn.targets):
        radii = st.sampled_from([None, 0.5, 4.0])  # below the move step of 1: no direction stays inside
        scn = replace(scn, targets=tuple(
            t if r is None else replace(t, confine_center=t.position, confine_radius=r)
            for t, r in ((t, draw(radii)) for t in scn.targets)))
    period = scn.protocol.sampling_period
    horizon = period * draw(st.sampled_from([0.5, 1.0, 2.5]))
    move_period = period * draw(st.sampled_from([0.4, 1.0, 3.0]))
    return replace(scn, protocol=replace(scn.protocol, horizon=horizon),
                   dynamics=replace(scn.dynamics, move_period=move_period))


@given(base=grid_bases(), seeds=st.lists(st.integers(-2**63, 2**64 - 1), min_size=1, max_size=3))
@settings(max_examples=60)
def test_a_trial_drawn_from_a_shared_layout_is_its_own_draw(base, seeds):
    # a grid builds one layout and draws every trial from it at the trial's
    # seed; that trial must be the scenario's own draw at that seed, field
    # by field, its key included
    layout = draw_layout(base, checked=True)
    assert len(layout.sample_times) in (1, 3)
    for seed in seeds:
        got, want = draw_trial(layout, seed), draw_inputs(replace(base, seed=seed), checked=True)
        assert got.key == want.key == input_key(replace(base, seed=seed))
        assert (got.target_ids, got.sample_times, got.move_times) == (
            want.target_ids, want.sample_times, want.move_times)
        assert len(got.positions) == len(want.positions) == len(got.move_times) + 1
        for mine, theirs in zip(got.positions, want.positions):
            assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
        assert got.steps == want.steps


def run_observed(scenario, inputs):
    result = run_trial(scenario, inputs)
    rows = score_trial(scenario, inputs, result).rows
    return result.events.records, (result.uplink, result.downlink), rows


@given(
    scenario=replay_scenarios(),
    # 1.3 of the sampling period starts some packets after the next sample
    # (DROP rows) and ends others after it (carry-over)
    backoff_fractions=st.lists(
        st.sampled_from([0.05, 0.4, 0.9, 1.3]), min_size=2, max_size=3, unique=True
    ),
)
@settings(max_examples=60)
def test_replayed_inputs_match_drawing_run(scenario, backoff_fractions):
    shared = draw_inputs(scenario)
    for fraction in backoff_fractions:
        interval = fraction * scenario.protocol.sampling_period
        for arch in (Architecture.FB, Architecture.NF):
            cell = replace(
                scenario, architecture=arch,
                protocol=replace(scenario.protocol, backoff_interval=interval),
            )
            replayed = run_observed(cell, shared)
            drawn = run_observed(cell, draw_inputs(cell))
            assert replayed[0] == drawn[0]
            assert replayed[1] == drawn[1]
            assert replayed[2] == drawn[2]


def test_replay_cases_reach_drop_and_carry_over():
    # the backoff fractions above the sampling period do reach both paths
    scn = assumption1_scenario(3, 3, 0, sampling_period=20.0, horizon=90.0, seed=4)
    shared = draw_inputs(scn)
    cell = replace(scn, protocol=replace(scn.protocol, backoff_interval=26.0))
    records = run_trial(cell, inputs=shared).events.records
    sample_times = {r.step: r.time for r in records if r.kind == "SAMPLE"}
    assert any(r.kind == "DROP" for r in records)
    assert any(
        r.kind in ("TX_END", "FEEDBACK_END") and r.step + 1 in sample_times
        and r.time > sample_times[r.step + 1]
        for r in records
    )
    assert records == run_trial(cell, draw_inputs(cell)).events.records
