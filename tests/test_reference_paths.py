"""The engine's fast paths against straightforward reference implementations.

Each reference below does the same arithmetic the simple way:
numpy arrays and `np.mean` for the estimator, one distance test and one
noise draw per sensor for the sampling step, one distance test per sensor
for membership, a per-target numpy-scalar loop for target motion, draws
made in event-time order as the engine once made them inside its loop, and
a trial on its own cell's draw for one on another cell's. The fast paths must
give exactly the same floats (compared with `==`, not a tolerance) and leave
every random generator in the same state, since the golden CSVs and the
paired-trial streams rest on that.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scripted_cases import fusion_count

from gathersim.dynamics import WorldState, initial_world, measure, observed_rows, reflect, step_targets
from gathersim.estimation import EstimatorState, fuse
from gathersim.experiments import assumption1_scenario
from gathersim.geometry import membership
from gathersim.protocol import draw_inputs, run_trial, score_trial
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

# up to 40 targets, plus one size past numpy's 8- and 128-element pairwise-sum blocks
TARGET_COUNTS = st.one_of(st.integers(0, 40), st.just(1000))
COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class ReferenceEstimator:
    """EstimatorState on numpy arrays, scored with np.mean."""

    def __init__(self, n, default_point):
        self.default_point = default_point
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

    def mean_squared_error(self, positions):
        c = np.maximum(self.counts, 1)
        est = self.sums / c[:, None]
        est = np.where(self.valid[:, None], est, np.array(self.default_point))
        diff = est - positions
        return float(np.mean(diff[:, 0] ** 2 + diff[:, 1] ** 2))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@given(
    n=TARGET_COUNTS,
    seed=st.integers(0, 2**32 - 1),
    # (target draw, value, step): steps 0-3 give same-step averaging,
    # replacement by a newer step and stale drops
    ops=st.lists(st.tuples(st.integers(0, 10**6), st.tuples(COORD, COORD), st.integers(0, 3)), max_size=30),
)
@example(n=3, seed=0, ops=[(0, (1.0, 2.0), 0), (0, (3.0, 6.0), 0), (0, (0.5, 0.5), 0)])
@settings(max_examples=200)
def test_estimator_matches_reference(n, seed, ops):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-100.0, 100.0, size=(n, 2))
    default = (25.0, 25.0)
    fast = EstimatorState(range(n), default)
    ref = ReferenceEstimator(n, default)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # no targets: both give nan
        assert same_float(fast.mean_squared_error(positions), ref.mean_squared_error(positions))
        for draw, value, step in ops if n else ():
            row = draw % n
            fuse(fast, [(row, value)], step)
            ref.absorb(row, value, step)
            assert tuple(fast.estimates[row]) == ref.estimate(row)
            assert fusion_count(fast, row) == ref.counts[row]
            assert fast.mean_squared_error(positions) == ref.mean_squared_error(positions)
    # a target never measured has no epoch yet, and is scored at the default point
    for row in range(n):
        assert (fast._epochs[row] < 0) == (ref.estimate(row) is None)
        if ref.estimate(row) is None:
            assert tuple(fast.estimates[row]) == default


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
        assert np.array_equal(fast.positions, ref.positions)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        state = fast


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
    k = 0
    while k * proto.sampling_period < proto.horizon - 1e-12:
        events.append((k * proto.sampling_period, 1))
        k += 1
    m = 1
    while m * scenario.dynamics.move_period < proto.horizon - 1e-12:
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


@given(scenario=replay_scenarios())
@settings(max_examples=60)
def test_draw_inputs_matches_in_loop_order(scenario):
    inputs = draw_inputs(scenario)
    moves = iter(inputs.positions[1:])
    steps = iter(inputs.steps)
    for kind, *drawn in reference_draws(scenario):
        if kind == "move":
            assert np.array_equal(next(moves), drawn[0])
        else:
            assert next(steps) == tuple(drawn)
    assert next(moves, None) is None and next(steps, None) is None


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
