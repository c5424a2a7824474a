import math
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gathersim import geometry
from gathersim.experiments import (
    RunningStats,
    SweepSpec,
    assumption1_scenario,
    region_agreement,
    region_experiment,
    run_sweep,
    trial_seed,
)
from gathersim.protocol import run_trial
from gathersim.scenario import Architecture


def test_assumption1_layout_delays():
    scn = assumption1_scenario(3, 3, 0, 9.0, 2.0, 1.0)
    assert scn.protocol.uplink_delay == 2.0
    assert scn.protocol.downlink_delay == 1.0
    members = geometry.membership(scn, [t.position for t in scn.targets])
    structure = geometry.component_counts(members, geometry.collaborative_sets(scn))
    full = frozenset({0, 1, 2})
    counts = {s.members: s.collaborative_count for s in structure.sets}
    assert counts[full] == 3
    assert structure.unique_counts == {}
    # every sensor schedules 3 components: delay = 3*2 + 3*1 = 9
    n = counts[full]
    assert n * scn.protocol.uplink_delay + n * scn.protocol.downlink_delay == 9.0


def test_assumption1_derives_delays_at_two_to_one():
    scn = assumption1_scenario(3, 3, 0, 18.0)
    assert math.isclose(scn.protocol.uplink_delay, 4.0)
    assert math.isclose(scn.protocol.downlink_delay, 2.0)


def test_assumption1_two_sensors_two_components_each():
    scn = assumption1_scenario(2, 1, 1, 5.0, 2.0, 1.0, noise_std=1e-9, move_probability=0.0)
    res = run_trial(scn, backoff_schedule=lambda k, s: float(s))
    sizes = [r.size for r in res.events.at_step(0, "TX_START")]
    assert sizes == [2, 2]


def test_assumption1_rejects_bad_requests():
    with pytest.raises(ValueError):
        assumption1_scenario(1, 3, 0, 9.0)
    with pytest.raises(ValueError):
        assumption1_scenario(3, 0, 0, 9.0)
    with pytest.raises(ValueError):
        assumption1_scenario(3, 3, 0, 9.0, 2.0, 2.0)  # delays inconsistent
    with pytest.raises(ValueError):
        assumption1_scenario(4, 2, 1, 9.0)  # pockets cannot host moving targets


def test_paired_seed_coupling_log_equality():
    # noiseless paired runs must agree on sampling and backoff events exactly
    scn = assumption1_scenario(3, 3, 0, 9.0, 2.0, 1.0, backoff_interval=30.0,
                               noise_std=0.0, seed=555)
    seed = trial_seed(scn.seed, 4)
    fb = run_trial(replace(scn, architecture=Architecture.FB, seed=seed))
    nf = run_trial(replace(scn, architecture=Architecture.NF, seed=seed))
    for kind in ("SAMPLE", "BACKOFF_SET"):
        assert fb.events.of_kind(kind) == nf.events.of_kind(kind)


def test_paired_trajectories_identical():
    scn = assumption1_scenario(3, 3, 0, 9.0, 2.0, 1.0, backoff_interval=30.0, seed=3)
    traj_fb: list = []
    traj_nf: list = []
    run_trial(replace(scn, architecture=Architecture.FB), trajectory_out=traj_fb)
    run_trial(replace(scn, architecture=Architecture.NF), trajectory_out=traj_nf)
    assert traj_fb == traj_nf


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
@settings(max_examples=100)
def test_running_stats_matches_direct_formulas(values):
    stats = RunningStats()
    for v in values:
        stats.add(v)
    assert stats.n == len(values)
    assert math.isclose(stats.mean, statistics.fmean(values), rel_tol=1e-9, abs_tol=1e-6)
    se = statistics.stdev(values) / math.sqrt(len(values))
    # the one-pass variance loses about eps * sum(v**2) to cancellation
    cancellation = math.sqrt(1e-14 * sum(v * v for v in values) / len(values))
    assert math.isclose(stats.stderr, se, rel_tol=1e-6, abs_tol=cancellation + 1e-12)


def test_region_cell_spot_check():
    points = region_experiment(3, [0.2], [2.0], trials=150, seed=11)
    (point,) = points
    assert point.theory_advantage
    assert math.isclose(point.g, 1.224)
    assert point.empirical_mean > 0
    assert not point.boundary


def test_region_rejects_zero_ratio_and_trials():
    with pytest.raises(ValueError):
        region_experiment(3, [0.0, 0.5], [1.0], trials=5)
    with pytest.raises(ValueError):
        region_experiment(3, [0.5], [1.0], trials=0)


def test_region_agreement_ignores_boundary_cells():
    from gathersim.analytics import AdvantagePoint

    points = [
        AdvantagePoint(0.1, 1.0, 3, 0.5, True, empirical_mean=4.0, empirical_se=0.1),
        AdvantagePoint(0.2, 1.0, 3, -0.5, False, empirical_mean=-3.0, empirical_se=0.1),
        AdvantagePoint(0.3, 1.0, 3, 0.1, True, empirical_mean=0.05, empirical_se=1.0),
    ]
    frac, agree, considered = region_agreement(points)
    assert (agree, considered) == (2, 2)
    assert frac == 1.0


def sweep_spec(scn, trials=3):
    return SweepSpec(
        base=scn,
        backoff_intervals=(10.0, 30.0),
        uplink_powers=(1.0, 2.0),
        trials=trials,
    )


def test_run_sweep_row_count_and_normalization(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    result = run_sweep(sweep_spec(scn), jobs=1)
    assert len(result.rows) == 2 * 2 * 2
    nf_rows = [r for r in result.rows if r.architecture == "NF"]
    # no-feedback power is downlink-free, so normalization leaves it equal
    # across uplink costs
    by_tb = {}
    for r in nf_rows:
        by_tb.setdefault(r.backoff_interval, set()).add(r.mean_power_norm)
    for vals in by_tb.values():
        assert len(vals) == 1


def test_run_sweep_parallel_matches_serial(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    serial = run_sweep(sweep_spec(scn, trials=4), jobs=1)
    parallel = run_sweep(sweep_spec(scn, trials=4), jobs=4)
    assert len(serial.rows) == len(parallel.rows)
    for a, b in zip(serial.rows, parallel.rows):
        assert a == b


def test_sweep_spec_validation(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    with pytest.raises(ValueError):
        SweepSpec(scn, (), (1.0,), 1).check()
    with pytest.raises(ValueError):
        SweepSpec(scn, (1.0,), (1.0,), 0).check()

