import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gathersim import geometry
from gathersim.geometry import GeometryError
from gathersim.scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
    ProtocolParams,
    Scenario,
    ScenarioError,
    SensorSpec,
    TargetSpec,
)


def make_scenario(sensors, targets, size=12.0):
    return Scenario(
        environment=Environment(size, size),
        sensors=tuple(SensorSpec(i, c, r) for i, (c, r) in enumerate(sensors)),
        targets=tuple(TargetSpec(i, p) for i, p in enumerate(targets)),
        protocol=ProtocolParams(10.0, 5.0, 1.0, 0.5, 1.0, 0.1, 100.0),
        dynamics=DynamicsParams(1.0, 10.0, 0.5),
        costs=CostParams(1.0, 1.0),
        architecture=Architecture.FB,
        seed=0,
    )


# Three mutually overlapping disks with a triple-overlap region, plus seven
# targets placed so the membership pattern is known from plain distance checks.
FIG_SENSORS = [((4.0, 4.0), 2.5), ((8.0, 4.0), 2.5), ((6.0, 7.5), 2.5)]
FIG_TARGETS = [
    (2.5, 3.2),   # only sensor 0
    (3.0, 5.2),   # only sensor 0
    (9.5, 4.5),   # only sensor 1
    (6.0, 9.5),   # only sensor 2
    (6.0, 3.5),   # sensors 0 and 1
    (7.0, 5.75),  # sensors 1 and 2
    (6.0, 5.2),   # all three
]
FIG_EXPECTED_MEMBERSHIP = [
    {0}, {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2},
]


def brute_membership(sensors, target):
    return {
        i
        for i, (c, r) in enumerate(sensors)
        if math.hypot(target[0] - c[0], target[1] - c[1]) <= r
    }


def test_constructed_layout_memberships_verified_independently():
    # distance oracle first: the constructed coordinates must realize the plan
    for target, expected in zip(FIG_TARGETS, FIG_EXPECTED_MEMBERSHIP):
        assert brute_membership(FIG_SENSORS, target) == expected


def test_membership_trivials():
    scn = make_scenario([((3.0, 3.0), 1.0), ((4.0, 3.0), 1.0)], [(3.0, 3.0), (3.5, 3.0)])
    members = geometry.membership(scn, [t.position for t in scn.targets])
    assert 0 in members[0]  # target at a sensor's center
    assert members[1] == {0, 1}  # midpoint of unit disks 1 apart


def test_membership_disjoint_disks():
    scn = make_scenario([((3.0, 3.0), 1.0), ((6.0, 3.0), 1.0)], [(4.5, 3.0), (3.2, 3.0)])
    members = geometry.membership(scn, [t.position for t in scn.targets])
    for group in members.values():
        assert not ({0, 1} <= group)


def test_collaborative_sets_two_overlapping():
    scn = make_scenario([((3.0, 3.0), 1.0), ((4.0, 3.0), 1.0)], [(3.0, 3.0)])
    assert geometry.collaborative_sets(scn) == [frozenset({0, 1})]


def test_collaborative_sets_thin_lens_held_by_a_target():
    # the lens is 0.01 wide, between two grid columns; a target inside it
    # still makes the pair a collaborative set
    sensors = [((10.0, 10.0), 10.0), ((29.99, 10.0), 10.0)]
    assert geometry.collaborative_sets(make_scenario(sensors, [(19.995, 10.0)], size=50.0)) == [
        frozenset({0, 1})
    ]
    assert geometry.collaborative_sets(make_scenario(sensors, [(5.0, 5.0)], size=50.0)) == []


def test_collaborative_sets_at_the_reach_boundary():
    # the disks touch at the single point (3, 5), which no grid cell center
    # hits, so they form a set exactly when a target sits there
    touching = [((2.0, 5.0), 1.0), ((5.0, 5.0), 2.0)]
    assert geometry.collaborative_sets(make_scenario(touching, [(3.0, 5.0)])) == [frozenset({0, 1})]
    assert geometry.collaborative_sets(make_scenario(touching, [(3.0, 6.0)])) == []
    # 1e-6 apart: inside the reach bound, but past nonempty's own rejection
    apart = [((2.0, 5.0), 1.0), ((5.000001, 5.0), 2.0)]
    for target in [(3.0, 5.0), (3.0000005, 5.0), (3.000001, 5.0), (4.0, 5.0)]:
        assert geometry.collaborative_sets(make_scenario(apart, [target])) == []


def test_collaborative_sets_square_lattice():
    # spacing 20 and radius 14: row and column neighbours overlap, diagonal
    # neighbours (28.28 apart) do not, and no three disks share a point
    sensors = [((10.0 + 20.0 * (i % 8), 10.0 + 20.0 * (i // 8)), 14.0) for i in range(64)]
    expected = sorted(
        [frozenset({i, i + 1}) for i in range(64) if i % 8 < 7]
        + [frozenset({i, i + 8}) for i in range(56)],
        key=sorted,
    )
    sets = geometry.collaborative_sets(make_scenario(sensors, [(1.0, 1.0)], size=160.0))
    assert len(expected) == 112
    assert sets == expected


def test_collaborative_sets_disjoint():
    scn = make_scenario([((3.0, 3.0), 1.0), ((6.0, 3.0), 1.0)], [(3.0, 3.0)])
    assert geometry.collaborative_sets(scn) == []


def test_collaborative_sets_three_disk_layout():
    scn = make_scenario(FIG_SENSORS, FIG_TARGETS)
    sets = geometry.collaborative_sets(scn)
    assert sets == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    ]


def total_components(structure):
    return sum(structure.unique_counts.values()) + sum(s.collaborative_count for s in structure.sets)


def test_component_counts_constructed_example():
    scn = make_scenario(FIG_SENSORS, FIG_TARGETS)
    members = geometry.membership(scn, FIG_TARGETS)
    structure = geometry.component_counts(members, geometry.collaborative_sets(scn))
    assert structure.unique_counts == {0: 2, 1: 1, 2: 1}
    counts = {s.members: s.collaborative_count for s in structure.sets}
    assert counts[frozenset({0, 1})] == 1
    assert counts[frozenset({1, 2})] == 1
    assert counts[frozenset({0, 1, 2})] == 1
    assert counts[frozenset({0, 2})] == 0
    assert total_components(structure) == 7


def test_component_counts_no_targets():
    scn = make_scenario(FIG_SENSORS, [(2.5, 3.2)])
    structure = geometry.component_counts({}, geometry.collaborative_sets(scn))
    assert structure.unique_counts == {}
    assert all(s.collaborative_count == 0 for s in structure.sets)


def test_component_counts_single_sensor():
    targets = [(5.0, 5.0), (5.5, 5.0), (5.0, 5.5), (4.5, 5.0), (5.0, 4.5)]
    scn = make_scenario([((5.0, 5.0), 2.0)], targets)
    members = geometry.membership(scn, targets)
    structure = geometry.component_counts(members, geometry.collaborative_sets(scn))
    assert structure.unique_counts == {0: 5}
    assert structure.sets == ()


def test_component_counts_missing_set_raises():
    with pytest.raises(GeometryError):
        geometry.component_counts({0: frozenset({0, 1})}, [])


def _random_layout(rng, n_sensors, env=30.0):
    while True:
        centers = rng.uniform(8.0, env - 8.0, size=(n_sensors, 2))
        radii = rng.uniform(5.0, 10.0, size=n_sensors)
        ok = True
        for i in range(n_sensors):
            for j in range(i + 1, n_sensors):
                d = math.hypot(*(centers[i] - centers[j]))
                if abs(d - (radii[i] + radii[j])) < 0.5:
                    ok = False
        if ok:
            return [((centers[i, 0], centers[i, 1]), radii[i]) for i in range(n_sensors)]


def test_conservation_random_configurations():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        n_sensors = int(rng.integers(1, 5))
        sensors = _random_layout(rng, n_sensors)
        targets = [tuple(p) for p in rng.uniform(0.5, 29.5, size=(10, 2))]
        scn = make_scenario(sensors, targets, size=30.0)
        members = geometry.membership(scn, targets)
        structure = geometry.component_counts(members, geometry.collaborative_sets(scn))
        observed = sum(1 for g in members.values() if g)
        assert total_components(structure) == observed


def test_monotonicity_adding_sensor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sensors = _random_layout(rng, 3)
        scn3 = make_scenario(sensors, [(15.0, 15.0)], size=30.0)
        extra = _random_layout(rng, 1)
        scn4 = make_scenario(sensors + extra, [(15.0, 15.0)], size=30.0)
        assert len(geometry.collaborative_sets(scn4)) >= len(geometry.collaborative_sets(scn3))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_conservation_property(seed):
    rng = np.random.default_rng(seed)
    sensors = _random_layout(rng, int(rng.integers(1, 4)))
    targets = [tuple(p) for p in rng.uniform(0.5, 29.5, size=(6, 2))]
    scn = make_scenario(sensors, targets, size=30.0)
    members = geometry.membership(scn, targets)
    structure = geometry.component_counts(members, geometry.collaborative_sets(scn))
    assert total_components(structure) == sum(1 for g in members.values() if g)


def dense_grid_sets(scenario):
    """Reference enumeration: decide every group by scanning all cell centers
    of the grid over its bounding box, clipped to the environment."""
    resolution = geometry.GRID_STEP
    env = scenario.environment
    sensors = sorted(scenario.sensors, key=lambda s: s.id)
    by_id = {s.id: s for s in sensors}
    ids = [s.id for s in sensors]

    def nonempty(group):
        lo_x = max(max(by_id[j].center[0] - by_id[j].radius for j in group), 0.0)
        hi_x = min(min(by_id[j].center[0] + by_id[j].radius for j in group), env.width)
        lo_y = max(max(by_id[j].center[1] - by_id[j].radius for j in group), 0.0)
        hi_y = min(min(by_id[j].center[1] + by_id[j].radius for j in group), env.height)
        if lo_x >= hi_x or lo_y >= hi_y:
            return False
        i0 = max(0, math.ceil(lo_x / resolution - 0.5))
        i1 = math.floor(hi_x / resolution - 0.5)
        k0 = max(0, math.ceil(lo_y / resolution - 0.5))
        k1 = math.floor(hi_y / resolution - 0.5)
        if i1 < i0 or k1 < k0:
            return False
        xs = (np.arange(i0, i1 + 1) + 0.5) * resolution
        ys = (np.arange(k0, k1 + 1) + 0.5) * resolution
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        mask = np.ones(gx.shape, dtype=bool)
        for j in group:
            s = by_id[j]
            mask &= (gx - s.center[0]) ** 2 + (gy - s.center[1]) ** 2 <= s.radius * s.radius
            if not mask.any():
                return False
        return bool(mask.any())

    alive = set()
    for size in range(2, len(ids) + 1):
        for group in itertools.combinations(ids, size):
            fs = frozenset(group)
            if (size == 2 or all(fs - {j} in alive for j in group)) and nonempty(group):
                alive.add(fs)
    return alive


def reference_sets(scenario):
    """Dense-grid groups plus every >= 2-subset of a target's observer group."""
    sets = dense_grid_sets(scenario)
    members = geometry.membership(scenario, [t.position for t in scenario.targets])
    for group in members.values():
        for size in range(2, len(group) + 1):
            sets.update(frozenset(c) for c in itertools.combinations(sorted(group), size))
    return sorted(sets, key=lambda fs: (len(fs), sorted(fs)))


@st.composite
def layouts(draw):
    """2-7 sensors with centers near or outside the field edge; some sensors
    sit at a near-tangent gap from an earlier one, making lenses thinner than
    the grid or disks that only touch."""
    size = draw(st.floats(5.0, 20.0))
    sensors = []
    for i in range(draw(st.integers(2, 7))):
        radius = draw(st.floats(0.5, 6.0))
        if i and draw(st.booleans()):
            (cx, cy), other = sensors[draw(st.integers(0, i - 1))]
            gap = draw(st.sampled_from([-0.07, -0.01, 0.0, 0.001]))
            angle = draw(st.floats(0.0, 2 * math.pi))
            d = other + radius + gap
            center = (cx + d * math.cos(angle), cy + d * math.sin(angle))
        else:
            center = (draw(st.floats(-2.0, size + 2.0)), draw(st.floats(-2.0, size + 2.0)))
        sensors.append((center, radius))
    targets = draw(st.lists(st.tuples(st.floats(0.01, size), st.floats(0.01, size)),
                            min_size=1, max_size=3))
    return make_scenario(sensors, targets, size=size)


@given(layouts())
@settings(max_examples=150)
def test_collaborative_sets_match_dense_grid_reference(scn):
    assert geometry.collaborative_sets(scn) == reference_sets(scn)


def test_block_scan_matches_the_dense_grid_reference(monkeypatch):
    # blocks of 16 cells split every group scan across many blocks
    monkeypatch.setattr(geometry, "SCAN_CELLS", 16)
    rng = np.random.default_rng(5)
    for _ in range(10):
        size = float(rng.uniform(5.0, 12.0))
        disks = rng.uniform([0.0, 0.0, 0.5], [size, size, size / 2], (5, 3)).tolist()
        scn = make_scenario([((x, y), r) for x, y, r in disks], [(0.01, 0.01)], size=size)
        assert geometry.collaborative_sets(scn) == reference_sets(scn)


def test_pair_cell_test_agrees_with_numpy_on_a_disk_edge(monkeypatch):
    # disk 0's edge passes through the cell center c in float arithmetic
    # (d * d == r * r), and disk 1 overlaps it 0.01 deep along the same line,
    # so c is the lens's only cell. With radius r, the pair's own cell test must
    # accept c, as the numpy test does, and scan nothing; one ulp smaller, it must
    # reject c and leave the verdict to the scan, which finds no cell.
    cells, scans = geometry._cells, []
    monkeypatch.setattr(geometry, "_cells", lambda a, b: scans.append((a, b)) or cells(a, b))
    checked = 0
    for i, k in itertools.product(range(100, 106), repeat=2):
        cx, cy = (i + 0.5) * geometry.GRID_STEP, (k + 0.5) * geometry.GRID_STEP
        ax, ay = cx - 1.8, cy - 2.4
        d2 = (cx - ax) * (cx - ax) + (cy - ay) * (cy - ay)
        r = math.sqrt(d2)
        if r * r != d2 or math.nextafter(r, 0.0) ** 2 == d2:
            continue
        checked += 1
        for radius, inside in ((r, True), (math.nextafter(r, 0.0), False)):
            x, y = np.array([cx]), np.array([cy])
            assert bool(((x - ax) ** 2 + (y - ay) ** 2 <= radius * radius)[0]) is inside
            scn = make_scenario([((ax, ay), radius), ((cx + 0.6 * 2.99, cy + 0.8 * 2.99), 3.0)],
                                [(0.5, 0.5)], size=20.0)
            scans.clear()
            sets = geometry.collaborative_sets(scn)
            assert sets == ([frozenset({0, 1})] if inside else []) == reference_sets(scn)
            assert (scans == []) is inside
    assert checked >= 10


def test_group_scan_memory_is_bounded():
    # three disks share a region that holds no target, so the triple is
    # scanned; one grid over its 3600 x 3600-cell bounding box took 279 MB
    w = 200.0
    disks = [((0.45 * w, 0.5 * w), 0.45 * w), ((0.55 * w, 0.5 * w), 0.45 * w),
             ((0.5 * w, 0.55 * w), 0.45 * w)]
    scn = make_scenario(disks, [(1.0, 1.0)], size=w)
    tracemalloc.start()
    try:
        sets = geometry.collaborative_sets(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets == [frozenset(s) for s in ({0, 1}, {0, 2}, {1, 2}, {0, 1, 2})]
    assert peak < 16 * 2**20


def test_enumeration_stops_past_max_sets(monkeypatch):
    # eight co-located sensors: every one of the 2**8 - 9 groups of two or more is a set
    ring = [((6.0 + 0.1 * math.cos(a), 6.0 + 0.1 * math.sin(a)), 3.0)
            for a in np.linspace(0.0, 2 * math.pi, 8, endpoint=False).tolist()]
    scn = make_scenario(ring, [(6.0, 6.0)])
    assert len(geometry.collaborative_sets(scn)) == 247
    monkeypatch.setattr(geometry, "MAX_SETS", 247)
    assert len(geometry.collaborative_sets(scn)) == 247
    monkeypatch.setattr(geometry, "MAX_SETS", 246)
    with pytest.raises(ScenarioError, match="MAX_SETS = 246"):
        geometry.collaborative_sets(scn)
