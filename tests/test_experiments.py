import concurrent.futures
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scripted_cases import forced_inputs

from gathersim import experiments, geometry
from gathersim.experiments import (
    assumption1_scenario,
    mean_se,
    region_agreement,
    region_experiment,
    run_sweep,
    trial_seed,
)
from gathersim.protocol import draw_inputs, run_trial
from gathersim.scenario import Architecture, ScenarioError


def test_assumption1_layout_delays():
    scn = assumption1_scenario(3, 3, 0)
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


def test_assumption1_two_sensors_two_components_each():
    scn = assumption1_scenario(2, 1, 1, noise_std=1e-9, move_probability=0.0)
    res = run_trial(scn, inputs=forced_inputs(scn, {0: (0.0, 1.0)}))
    sizes = [r.size for r in res.events.records if r.kind == "TX_START" and r.step == 0]
    assert sizes == [2, 2]


def test_assumption1_rejects_bad_requests():
    with pytest.raises(ValueError):
        assumption1_scenario(1, 3, 0)
    with pytest.raises(ValueError):
        assumption1_scenario(3, 0, 0)
    with pytest.raises(ValueError):
        assumption1_scenario(4, 2, 1)  # pockets cannot host moving targets


def test_trial_seeds_of_different_bases_are_independent():
    # under seed XOR i, bases 0-7 over 8 trials all had the seed set {0..7}
    seeds = [[trial_seed(base, i) for i in range(500)] for base in range(8)]
    assert len(set().union(*seeds)) == 8 * 500
    first = {tuple(draw_inputs(replace(GRID_BASE, seed=s[0])).steps[0][3]) for s in seeds}
    assert len(first) == 8  # trial 0's backoff uniforms differ between bases
    assert trial_seed(-1, 0) == trial_seed(2**64 - 1, 0)  # negative bases wrap like draw_inputs


def test_paired_seed_coupling_log_equality():
    # noiseless paired runs must agree on sampling and backoff events exactly
    scn = assumption1_scenario(3, 3, 0, backoff_interval=30.0, noise_std=0.0, seed=555)
    seed = trial_seed(scn.seed, 4)
    fb = run_trial(replace(scn, architecture=Architecture.FB, seed=seed))
    nf = run_trial(replace(scn, architecture=Architecture.NF, seed=seed))
    for kind in ("SAMPLE", "BACKOFF_SET"):
        assert [r for r in fb.events.records if r.kind == kind] == [
            r for r in nf.events.records if r.kind == kind
        ]


def test_paired_trajectories_identical():
    scn = assumption1_scenario(3, 3, 0, backoff_interval=30.0, seed=3)
    fb = draw_inputs(replace(scn, architecture=Architecture.FB))
    nf = draw_inputs(replace(scn, architecture=Architecture.NF))
    assert fb.move_times == nf.move_times
    assert len(fb.positions) == len(nf.positions) > 1
    assert all(map(np.array_equal, fb.positions, nf.positions))


def offset_values(offset, steps):
    return [offset + 0.1 * k for k in steps]


@given(st.builds(offset_values, st.floats(-1e6, 1e6),
                 st.lists(st.integers(-1000, 1000), min_size=2, max_size=60)
                 .filter(lambda ks: len(set(ks)) > 1)))
@example(offset_values(1e6, range(10)))  # the one-pass SE read 0.095811, exact 0.095743
@settings(max_examples=200)
def test_mean_se_matches_exact_fractions(values):
    # values that spread by at least 0.1 around a common offset of up to 1e6:
    # a one-pass variance cancels there, a two-pass one does not
    exact = [Fraction(v) for v in values]
    n = len(exact)
    mean = sum(exact) / n
    se = math.sqrt(sum((v - mean) ** 2 for v in exact) / (n - 1) / n)
    got_mean, got_se = mean_se(np.array(values))
    # a sum's rounding error scales with the values' magnitude, not their mean's
    assert math.isclose(got_mean, mean, rel_tol=1e-12, abs_tol=1e-12 * max(map(abs, values)))
    assert math.isclose(got_se, se, rel_tol=1e-12)


def test_mean_se_of_one_value_has_zero_se():
    assert mean_se(np.array([2.5])) == (2.5, 0.0)


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


def sweep_grid(scn, trials=3):
    """run_sweep's arguments for a 2 x 2 grid over `scn`."""
    return scn, (10.0, 30.0), (1.0, 2.0), trials


def test_run_sweep_row_count_and_normalization(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    rows = run_sweep(*sweep_grid(scn), jobs=1)
    assert len(rows) == 2 * 2 * 2
    nf_rows = [r for r in rows if r.architecture == "NF"]
    # no-feedback power is downlink-free, so normalization leaves it equal
    # across uplink costs
    by_tb = {}
    for r in nf_rows:
        by_tb.setdefault(r.backoff_interval, set()).add(r.mean_power_norm)
    for vals in by_tb.values():
        assert len(vals) == 1


# numpy sums 8 or more values pairwise rather than one by one, so 9 trials
# reach the reduction the golden sweeps' 3 trials do not
@pytest.mark.parametrize("trials, jobs", [(4, 4), (9, 2)])
def test_run_sweep_parallel_matches_serial(setting1_path, trials, jobs):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    serial = run_sweep(*sweep_grid(scn, trials=trials), jobs=1)
    parallel = run_sweep(*sweep_grid(scn, trials=trials), jobs=jobs)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a == b


def test_sweep_spec_validation(setting1_path):
    from gathersim.scenario import load_scenario

    scn = load_scenario(setting1_path)
    with pytest.raises(ValueError):
        run_sweep(scn, (), (1.0,), 1)
    with pytest.raises(ValueError):
        run_sweep(scn, (1.0,), (), 1)
    with pytest.raises(ValueError):
        run_sweep(scn, (1.0,), (1.0,), 0)


def test_run_sweep_validates_each_backoff_and_each_cost_once(monkeypatch):
    checks = []
    validate = experiments.validate
    monkeypatch.setattr(experiments, "validate", lambda s: checks.append(s) or validate(s))
    backoffs = tuple(float(b) for b in range(5, 60, 5))  # 11, some above the sampling period
    costs = (1.0, 2.0, 3.0, 4.0)
    rows = run_sweep(GRID_BASE, backoffs, costs, 1)
    assert len(checks) == len(backoffs) + len(costs) == 15
    assert len(rows) == 2 * len(backoffs) * len(costs)
    assert {s.costs.uplink_power for s in checks} == set(costs)
    assert {s.protocol.backoff_interval for s in checks} == set(backoffs)  # base's 30.0 among them


def test_run_sweep_rejects_an_invalid_cost_and_backoff():
    with pytest.raises(ScenarioError) as bad_cost:
        run_sweep(GRID_BASE, (4.0,), (1.0, 0.0), 1)
    assert str(bad_cost.value) == "CostParams.uplink_power: must be > 0 (got 0.0)"
    with pytest.raises(ScenarioError) as bad_backoff:
        run_sweep(GRID_BASE, (4.0, -1.0), (1.0,), 1)
    assert str(bad_backoff.value) == "backoff_intervals[1]: must be > 0 (got -1.0)"


@pytest.mark.parametrize("jobs, tasks, cpus, started", [
    (64, 3, 8, 3),  # capped at the task count
    (64, 100, 2, 2),  # capped at the CPU count
    (2, 100, 8, 2),
    (4, 1, 8, None),  # a single task runs in this process
    (8, 100, None, None),  # so does everything when the CPU count is unknown
    (0, 5, 8, None),
])
def test_run_tasks_caps_worker_processes(monkeypatch, jobs, tasks, cpus, started):
    pools = []

    class RecordingPool:
        """Records max_workers and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # _run_tasks imports the pool class when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    assert experiments._run_tasks(list(range(tasks)), str, jobs) == [str(i) for i in range(tasks)]
    assert pools == ([] if started is None else [started])


def reference_paired_grid(base, backoff_intervals, trials):
    """The grid as one task per (cell, trial), each paired trial drawing its
    own inputs."""
    cells = [replace(base, protocol=replace(base.protocol, backoff_interval=b))
             for b in backoff_intervals]
    trials_of = [[replace(s, seed=trial_seed(s.seed, i)) for i in range(trials)] for s in cells]
    return [[experiments.run_paired_trial(t, draw_inputs(t)) for t in ts] for ts in trials_of]


GRID_BASE = assumption1_scenario(2, 2, 0, sampling_period=40.0, horizon=160.0, seed=21)
GRID_BACKOFFS = (4.0, 25.0, 55.0)  # the last is above the sampling period


@pytest.mark.parametrize("jobs", [1, 2])
def test_paired_grid_matches_per_cell_trials(jobs):
    grid = experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 5, jobs)
    assert {column.dtype for cell in grid for column in cell} == {np.dtype(float)}
    # each cell's columns, read back one trial at a time
    assert [list(zip(*cell)) for cell in grid] == reference_paired_grid(GRID_BASE, GRID_BACKOFFS, 5)


def test_paired_grid_draws_once_per_trial_and_validates_each_cell_once(monkeypatch):
    draws, checks = [], []
    draw = experiments.draw_inputs
    validate = experiments.validate
    monkeypatch.setattr(experiments, "draw_inputs",
                        lambda s, **kw: draws.append(s) or draw(s, **kw))
    monkeypatch.setattr(experiments, "validate", lambda s: checks.append(s) or validate(s))
    experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 3, 1)
    assert [s.seed for s in draws] == [trial_seed(GRID_BASE.seed, i) for i in range(3)]
    assert [s.protocol.backoff_interval for s in checks] == list(GRID_BACKOFFS)


def test_paired_grid_rejects_an_invalid_cell():
    with pytest.raises(ScenarioError):
        experiments.paired_grid(GRID_BASE, (4.0, -1.0, 55.0), 1, 1)


@pytest.mark.parametrize("backoffs, trials, jobs, message", [
    ((), 1, 1, "backoff_intervals must be nonempty"),
    (GRID_BACKOFFS, 0, 1, "trials: must be an integer >= 1"),
    (GRID_BACKOFFS, 1, 0, "jobs: must be an integer >= 1"),
])
def test_paired_grid_rejects_a_bad_grid_before_any_trial(monkeypatch, backoffs, trials, jobs, message):
    monkeypatch.setattr(experiments, "draw_inputs", None)  # a drawn trial would fail here
    with pytest.raises(ScenarioError, match=message):
        experiments.paired_grid(GRID_BASE, backoffs, trials, jobs)


def test_assumption1_and_region_errors_are_scenario_errors():
    with pytest.raises(ScenarioError):
        assumption1_scenario(1, 3, 0)
    with pytest.raises(ScenarioError):
        experiments.region_cells(3, [0.0, 0.5], 0)
    with pytest.raises(ScenarioError, match="set_size: must be >= 2"):
        region_experiment(1, [0.5], [1.0], trials=1)
