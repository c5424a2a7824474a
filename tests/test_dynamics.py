import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gathersim import dynamics
from gathersim.dynamics import WorldState, initial_world, measure, observed_rows, reflect, step_targets
from gathersim.scenario import DynamicsParams, Environment, SensorSpec

ENV = Environment(50.0, 50.0)


def world(positions, confinements=None):
    pos = np.array(positions, dtype=float)
    n = pos.shape[0]
    return WorldState(
        positions=pos,
        target_ids=tuple(range(n)),
        environment=ENV,
        confinements=confinements or (None,) * n,
    )


def test_probability_zero_holds_position():
    w = world([(10.0, 10.0), (30.0, 40.0)])
    out = step_targets(w, DynamicsParams(3.0, 10.0, 0.0), np.random.default_rng(0))
    assert np.array_equal(out.positions, w.positions)


def test_zero_step_holds_position():
    w = world([(10.0, 10.0)])
    out = step_targets(w, DynamicsParams(0.0, 10.0, 1.0), np.random.default_rng(0))
    assert np.array_equal(out.positions, w.positions)


def test_mean_displacement_matches_step_length():
    # Monte Carlo over the implemented kernel: jumps always have length 3
    rng = np.random.default_rng(42)
    n = 100_000
    w = world([(25.0, 25.0)] * 1)
    params = DynamicsParams(3.0, 10.0, 1.0)
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        out = step_targets(w, params, rng)
        d = math.hypot(out.positions[0, 0] - 25.0, out.positions[0, 1] - 25.0)
        total += d
        total_sq += d * d
    mean = total / n
    se = math.sqrt(max(0.0, total_sq / n - mean * mean) / n)
    assert abs(mean - 3.0) <= 3.0 * se + 1e-12


@given(
    x=st.floats(0.001, 49.999),
    y=st.floats(0.001, 49.999),
    step=st.floats(0.1, 200.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200)
def test_reflection_keeps_positions_inside(x, y, step, seed):
    w = world([(x, y)])
    out = step_targets(w, DynamicsParams(step, 10.0, 1.0), np.random.default_rng(seed))
    px, py = out.positions[0]
    assert 0.0 < px <= 50.0
    assert 0.0 < py <= 50.0


def test_reflect_folds():
    assert reflect(-1.0, 10.0) == 1.0
    assert reflect(11.0, 10.0) == 9.0
    assert reflect(25.0, 10.0) == 5.0
    assert 0.0 < reflect(20.0, 10.0) <= 10.0  # exact multiple of the period


def test_confined_targets_stay_inside_and_move_full_step():
    conf = ((25.0, 25.0), 5.0)
    w = world([(27.0, 25.0)], confinements=(conf,))
    rng = np.random.default_rng(3)
    params = DynamicsParams(3.0, 10.0, 1.0)
    for _ in range(500):
        out = step_targets(w, params, rng)
        d_center = math.hypot(out.positions[0, 0] - 25.0, out.positions[0, 1] - 25.0)
        moved = math.hypot(out.positions[0, 0] - w.positions[0, 0], out.positions[0, 1] - w.positions[0, 1])
        assert d_center <= 5.0 + 1e-9
        assert abs(moved - 3.0) < 1e-9
        w = out


def rows_of(positions, sensor):
    owners, rows = observed_rows(positions, np.array([sensor.center]), np.array([sensor.radius]))
    assert not owners.any()
    return rows


def oracle_rows(positions, centers, radii):
    """Per-pair Python test, in (sensor, row) order."""
    return [
        (k, i)
        for k, ((cx, cy), r) in enumerate(zip(centers.tolist(), radii.tolist()))
        for i, (px, py) in enumerate(positions.tolist())
        if (px - cx) ** 2 + (py - cy) ** 2 <= r * r
    ]


def observed_pairs(positions, centers, radii):
    owners, rows = observed_rows(positions, centers, radii)
    return list(zip(owners.tolist(), rows.tolist()))


# whole numbers put targets exactly on disk edges (3-4-5 triangles) often
coord = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 100.0))


@given(
    sensors=st.lists(st.tuples(coord, coord, st.one_of(st.integers(0, 10).map(float), st.floats(0.0, 40.0))), min_size=1, max_size=70),
    targets=st.lists(st.tuples(coord, coord), max_size=200),
)
@settings(max_examples=100)
def test_observed_rows_matches_per_pair_oracle(sensors, targets):
    centers = np.array([s[:2] for s in sensors], dtype=float)
    radii = np.array([s[2] for s in sensors], dtype=float)
    positions = np.array(targets, dtype=float).reshape(-1, 2)
    assert observed_pairs(positions, centers, radii) == oracle_rows(positions, centers, radii)


def test_observed_rows_edge_and_blind_sensor():
    # (6, 8) lies exactly on the edge of the disk at (3, 4) with radius 5:
    # d^2 == r^2 == 25. The disk at (50, 50) sees nothing.
    centers = np.array([(3.0, 4.0), (50.0, 50.0), (6.0, 8.0)])
    radii = np.array([5.0, 1.0, 0.5])
    positions = np.array([(6.0, 8.0), (3.0, 9.0000001), (3.0, 4.0)])
    expected = [(0, 0), (0, 2), (2, 0)]
    assert oracle_rows(positions, centers, radii) == expected
    assert observed_pairs(positions, centers, radii) == expected


def test_measure_noiseless_is_exact():
    w = world([(10.0, 10.0), (40.0, 40.0)])
    sensor = SensorSpec(0, (10.0, 10.0), 5.0)
    rows = rows_of(w.positions, sensor)
    out = measure(w.positions, rows, 0.0, np.random.default_rng(0))
    assert rows.tolist() == [0]
    assert out.tolist() == [[10.0, 10.0]]


def test_measure_count_equals_targets_in_region():
    rng = np.random.default_rng(11)
    positions = rng.uniform(1.0, 49.0, size=(20, 2))
    w = world([tuple(p) for p in positions])
    sensor = SensorSpec(0, (25.0, 25.0), 12.0)
    inside = sum(1 for p in positions if math.hypot(p[0] - 25.0, p[1] - 25.0) <= 12.0)
    rows = rows_of(w.positions, sensor)
    assert len(measure(w.positions, rows, 0.1, rng)) == inside


def test_noise_standard_deviation():
    w = world([(25.0, 25.0)])
    sensor = SensorSpec(0, (25.0, 25.0), 5.0)
    rng = np.random.default_rng(5)
    rows = rows_of(w.positions, sensor)
    draws = np.array([measure(w.positions, rows, 0.1, rng)[0] for _ in range(50_000)])
    stds = (draws - 25.0).std(axis=0, ddof=1)
    assert 0.099 <= stds[0] <= 0.101
    assert 0.099 <= stds[1] <= 0.101


def test_seed_determinism():
    w = world([(10.0, 10.0), (30.0, 20.0)])
    params = DynamicsParams(3.0, 10.0, 0.5)
    a, b = w, w
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    for _ in range(50):
        a = step_targets(a, params, rng_a)
        b = step_targets(b, params, rng_b)
        assert np.array_equal(a.positions, b.positions)


def test_initial_world_orders_by_target_id(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    w = initial_world(scn)
    assert w.target_ids == tuple(range(15))
    assert w.positions.shape == (15, 2)
