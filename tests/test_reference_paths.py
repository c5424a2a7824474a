"""The engine's fast paths against straightforward reference implementations.

Each reference below does the same arithmetic the simple way:
numpy arrays and `np.mean` for the estimator, one distance test and one
noise draw per sensor for the sampling step, one distance test per sensor
for membership, and a per-target numpy-scalar loop for target motion. The
fast paths must give exactly the same floats (compared with `==`, not a
tolerance) and leave every random generator in the same state, since the
golden CSVs and the paired-trial streams rest on that.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gathersim.dynamics import WorldState, _confined_jump, measure, observed_rows, reflect, step_targets
from gathersim.estimation import EstimatorState
from gathersim.geometry import membership
from gathersim.scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
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
            fast.absorb(row, value, step)
            ref.absorb(row, value, step)
            assert fast.estimate(row) == ref.estimate(row)
            assert fast.fusion_count(row) == ref.counts[row]
            assert fast.mean_squared_error(positions) == ref.mean_squared_error(positions)


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
