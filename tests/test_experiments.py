import concurrent.futures
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scripted_cases import forced_inputs

from gathersim import experiments, geometry
from gathersim.experiments import (
    PairedOutcome,
    assumption1_scenario,
    mean_se,
    region_agreement,
    region_experiment,
    run_sweep,
    trial_seed,
)
from gathersim.protocol import draw_inputs, draw_layout, input_key, run_trial
from gathersim.scenario import MAX_TRIALS, Architecture, ScenarioError


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
    seeded = replace(scn, seed=trial_seed(scn.seed, 4))
    fb = run_trial(replace(seeded, architecture=Architecture.FB), draw_inputs(seeded))
    nf = run_trial(replace(seeded, architecture=Architecture.NF), draw_inputs(seeded))
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


@example(trials=1, ys=[1.0])
@given(
    trials=st.sampled_from([1, 2, 7, 40]),
    ys=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=5, unique=True),
)
@settings(max_examples=20, deadline=None)
def test_region_reduces_each_x_column_as_each_cell_alone(trials, ys):
    # one mean_se over a column's (y, trial) differences gives every cell's
    # numbers bit for bit
    xs = [0.3, 0.8]
    points = region_experiment(2, xs, ys, trials=trials, seed=5)
    base, backoffs = experiments.region_cells(2, xs, 5)
    grid = experiments.paired_grid(base, backoffs, trials, 1, score=False)
    for k, p in enumerate(points):
        mean, se = mean_se(grid[k // len(ys)].power_difference(p.y, 1.0))
        assert (p.empirical_mean, p.empirical_se) == (mean, se)
        assert type(mean) is float and type(se) is float


def test_region_reduction_memory_is_bounded(monkeypatch):
    # one (y, trial) array for all 400 y values of a 20000-trial column
    # would take 64 MB; the reduction takes a few y values at a time
    trials, xs, ys = 20000, [0.3, 0.8], np.linspace(0.25, 10.0, 400).tolist()
    rng = np.random.default_rng(3)
    columns = [rng.integers(0, 50, (3, trials)).astype(float) for _ in xs]
    grid = [PairedOutcome(fb, down, None, nf, None) for fb, down, nf in columns]
    monkeypatch.setattr(experiments, "paired_grid", lambda *args, **kw: grid)
    tracemalloc.start()
    try:
        points = region_experiment(2, xs, ys, trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for k, p in enumerate(points):
        assert (p.empirical_mean, p.empirical_se) == mean_se(grid[k // len(ys)].power_difference(p.y, 1.0))


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


def test_run_sweep_validates_one_cell_and_each_cost_once(monkeypatch):
    checks = []
    validate = experiments.validate
    monkeypatch.setattr(experiments, "validate", lambda s: checks.append(s) or validate(s))
    backoffs = tuple(float(b) for b in range(5, 60, 5))  # 11, some above the sampling period
    costs = (1.0, 2.0, 3.0, 4.0)
    rows = run_sweep(GRID_BASE, backoffs, costs, 1)
    assert len(rows) == 2 * len(backoffs) * len(costs)
    # the costs are checked as numbers, and only the grid's first cell is validated
    assert len(checks) == 1
    assert (checks[0].costs, checks[0].protocol.backoff_interval) == (GRID_BASE.costs, backoffs[0])


def test_run_sweep_rejects_an_invalid_cost_and_backoff(monkeypatch):
    monkeypatch.setattr(experiments, "draw_trial", lambda *args: pytest.fail("a trial was drawn"))
    with pytest.raises(ScenarioError) as bad_cost:
        run_sweep(GRID_BASE, (4.0,), (1.0, 0.0), 1)
    assert str(bad_cost.value) == "uplink_powers[1]: must be > 0 (got 0.0)"
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

    def pair(t):
        inputs, nf = draw_inputs(t), replace(t, architecture=Architecture.NF)
        return experiments.run_paired_trial(replace(t, architecture=Architecture.FB), nf, inputs,
                                            run_trial(nf, inputs))

    return [[pair(t) for t in ts] for ts in trials_of]


GRID_BASE = assumption1_scenario(2, 2, 0, sampling_period=40.0, horizon=160.0, seed=21)
GRID_BACKOFFS = (4.0, 25.0, 55.0)  # the last is above the sampling period


@pytest.mark.parametrize("jobs", [1, 2])
def test_paired_grid_matches_per_cell_trials(jobs):
    grid = experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 5, jobs)
    assert {column.dtype for cell in grid for column in cell} == {np.dtype(float)}
    # each cell's columns, read back one trial at a time
    assert [list(zip(*cell)) for cell in grid] == reference_paired_grid(GRID_BASE, GRID_BACKOFFS, 5)


def test_paired_grid_draws_once_per_trial_and_validates_one_cell(monkeypatch):
    layouts, draws, checks, runs = [], [], [], []
    layout_of, draw = experiments.draw_layout, experiments.draw_trial
    validate = experiments.validate
    monkeypatch.setattr(experiments, "draw_layout",
                        lambda s, **kw: layouts.append(s) or layout_of(s, **kw))
    monkeypatch.setattr(experiments, "draw_trial",
                        lambda layout, seed: draws.append(seed) or draw(layout, seed))
    monkeypatch.setattr(experiments, "validate", lambda s: checks.append(s) or validate(s))
    monkeypatch.setattr(experiments, "run_trial",
                        lambda s, inputs, **kw: runs.append(s) or run_trial(s, inputs, **kw))
    experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 3, 1)
    assert layouts == [GRID_BASE]  # one layout per grid, from the base
    assert draws == [trial_seed(GRID_BASE.seed, i) for i in range(3)]
    # the cells differ only in their checked intervals, so one stands for all
    assert [s.protocol.backoff_interval for s in checks] == [GRID_BACKOFFS[0]]
    # the trials replay each draw on the cells as built, with the base seed
    assert len(runs) == 3 * 2 * len(GRID_BACKOFFS)
    assert {s.seed for s in runs} == {GRID_BASE.seed}


@pytest.mark.parametrize("base, backoffs", [
    (GRID_BASE, GRID_BACKOFFS), experiments.region_cells(3, [0.1, 0.5, 2.0], 7),
])
def test_grid_cells_draw_what_the_base_draws(base, backoffs):
    # a trial's one draw replays on every cell, which no trial checks
    assert {input_key(cell) for cell in experiments._cells(base, backoffs)} == {input_key(base)}


def test_an_unscored_grid_has_the_same_power_columns_and_no_errors():
    scored = experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 4, 1)
    unscored = experiments.paired_grid(GRID_BASE, GRID_BACKOFFS, 4, 1, score=False)
    for s, u in zip(scored, unscored, strict=True):
        assert u.fb_mse is None and u.nf_mse is None
        for name in ("fb_uplink", "fb_downlink", "nf_uplink"):
            assert np.array_equal(getattr(u, name), getattr(s, name))


def test_region_runs_unscored_checked_trials(monkeypatch):
    # the map reads only power, paired_grid has checked every cell, and no
    # trial keeps an event log, clock or fusions it would never read
    calls = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda s, inputs, **kw: calls.append(kw) or run_trial(s, inputs, **kw))
    monkeypatch.setattr(experiments, "score_trial", None)  # a score would fail here
    region_experiment(2, [0.3, 0.7], [1.0], trials=2)
    assert calls == [dict(checked=True, observe=False)] * (2 * (2 + 1))  # trials x (FB per cell + one shared NF)


@pytest.mark.parametrize("set_size", [2, 3])
def test_a_region_grid_shares_nf_and_matches_per_cell_trials(set_size):
    base, backoffs = experiments.region_cells(set_size, [0.05, 0.3, 0.7, 0.95], 7)
    grid = experiments.paired_grid(base, backoffs, 6, 1, score=False)
    reference = reference_paired_grid(base, backoffs, 6)
    for cell, trials in zip(grid, reference, strict=True):
        assert cell.fb_mse is None and cell.nf_mse is None
        for name in ("fb_uplink", "fb_downlink", "nf_uplink"):
            assert getattr(cell, name).tolist() == [getattr(t, name) for t in trials]


def nf_runs_per_trial(monkeypatch, base, backoffs, score):
    """How many NF trials one trial of `paired_grid` runs."""
    archs = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda s, inputs, **kw: archs.append(s.architecture) or run_trial(s, inputs, **kw))
    experiments.paired_grid(base, backoffs, 2, 1, score=score)
    assert archs.count(Architecture.FB) == 2 * len(backoffs)
    return archs.count(Architecture.NF) / 2


@pytest.mark.parametrize("backoffs, score, runs", [
    (GRID_BACKOFFS[:2], False, 1),  # 25 + 2 * 2 < 40 and 120 + 29 < 160
    (GRID_BACKOFFS, False, 3),  # 55 > 40: a packet may start after the next sample
    (GRID_BACKOFFS[:2], True, 2),  # NF's error depends on timing
    (GRID_BACKOFFS, True, 3),
])
def test_an_unscored_grid_shares_nf_only_where_no_backoff_can_change_it(monkeypatch, backoffs, score, runs):
    assert nf_runs_per_trial(monkeypatch, GRID_BASE, backoffs, score) == runs


@pytest.mark.parametrize("horizon, backoff", [
    (160.0, 36.0),  # 36 + 2 * 2 == 40, the sampling period (and 120 + 40 == 160)
    (150.0, 26.0),  # 120 + 26 + 2 * 2 == 150, the horizon
])
def test_a_cell_shares_nf_up_to_the_bound_and_not_past_it(monkeypatch, horizon, backoff):
    # a packet ending at the next sample is acknowledged first: its TX_END sorts first
    base = replace(GRID_BASE, protocol=replace(GRID_BASE.protocol, horizon=horizon))
    assert nf_runs_per_trial(monkeypatch, base, (4.0, backoff), False) == 1
    assert nf_runs_per_trial(monkeypatch, base, (4.0, backoff + 1e-9), False) == 2


def test_a_cell_inside_the_real_bound_but_past_it_in_float_does_not_share_nf():
    # 6.699999999999995 + 2 * 0.3 < 7.3, yet the packet of both targets that
    # the largest uniform below 1 starts after sample 41 (299.3) starts at
    # 306.0 and ends at 306.6, after sample 42 (306.59999999999997); the
    # horizon lies past sample 42 plus that sum, as the real-number rule
    # also asked, and 2 ulps past 43 * 7.3, within the 4 ulps by which
    # `_times` must fall short of the horizon, so there is no sample 43
    tb, u, horizon = 6.699999999999995, 1 - 2**-53, 43 * 7.3 + 2 * math.ulp(43 * 7.3)
    base = assumption1_scenario(2, 2, 0, backoff_interval=tb, sampling_period=7.3, horizon=horizon, seed=3)
    cell = replace(base, architecture=Architecture.NF, protocol=replace(
        base.protocol, uplink_delay=0.3, trigger_threshold=1e-9))  # every component triggers
    assert tb + len(cell.targets) * 0.3 < 7.3
    inputs = forced_inputs(cell, {41: (u * tb, 0.0)})
    assert inputs.steps[41][3][0] == u
    records = run_trial(cell, inputs).events.records
    start, end = (r.time for r in records if r.step == 41 and r.sensor == 0 and r.kind in ("TX_START", "TX_END"))
    assert (start, end, inputs.sample_times[42:]) == (306.0, 306.6, (306.59999999999997,))
    assert not experiments._nf_ignores_backoff(cell, draw_layout(cell).sample_times)


@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 2), st.floats(20.0, 80.0),
       st.integers(1, 5), st.floats(0.0, 1.0), st.sampled_from([0.1, 1.0, 3.0]),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=4), st.integers(0, 2**32))
@example(2, 2, 0, 20.0, 2, 1.0, 1.0, [0.0, 0.875], 451)  # uplinks differ; a bound without the packet admits it
@settings(max_examples=40, deadline=None)
def test_nf_uplink_is_equal_across_cells_that_meet_the_bound(
        set_size, collaborative, unique, period, steps, tail, noise, fractions, seed):
    # cells whose interval plus longest packet fits in the sampling period
    # and before the horizon: NF's uplink is the same at every interval; the
    # intervals reach past the bound, for the rule to cut, and at least two
    # of them must meet it
    base = assumption1_scenario(set_size, collaborative, unique, sampling_period=period,
                                horizon=period * (steps + tail), noise_std=noise, seed=seed)
    longest = len(base.targets) * base.protocol.uplink_delay
    backoffs = [max(1.25 * f * (period - longest), 1e-3) for f in fractions]
    sample_times = draw_layout(base).sample_times
    cells = [c for c in experiments._cells(base, backoffs) if experiments._nf_ignores_backoff(c, sample_times)]
    assume(period > longest and len(cells) >= 2)
    inputs = draw_inputs(base)
    uplinks = {run_trial(replace(c, architecture=Architecture.NF), inputs).uplink for c in cells}
    assert len(uplinks) == 1


def test_paired_grid_rejects_an_invalid_cell():
    with pytest.raises(ScenarioError, match=r"^backoff_intervals\[1\]: must be > 0 \(got -1.0\)$"):
        experiments.paired_grid(GRID_BASE, (4.0, -1.0, 55.0), 1, 1)


def test_validating_one_cell_gives_the_message_of_every_cell():
    # violations outside the interval, over intervals on both sides of the
    # sampling period: the message is the de-duplicated union over the cells
    bad = replace(GRID_BASE, seed=2.5, dynamics=replace(GRID_BASE.dynamics, move_step=-1.0),
                  targets=(replace(GRID_BASE.targets[0], position=(80.0, 5.0)), *GRID_BASE.targets[1:]))
    backoffs = (4.0, 25.0, 55.0, 4.0)
    union = dict.fromkeys(v for cell in experiments._cells(bad, backoffs) for v in experiments.validate(cell))
    assert len(union) == 3
    with pytest.raises(ScenarioError) as raised:
        experiments.paired_grid(bad, backoffs, 2, 1)
    assert str(raised.value) == "; ".join(union)


@pytest.mark.parametrize("backoffs, trials, jobs, message", [
    ((), 1, 1, "backoff_intervals must be nonempty"),
    (GRID_BACKOFFS, 0, 1, r"trials: must be an integer within \[1, 1000000\]"),
    (GRID_BACKOFFS, 1, 0, "jobs: must be an integer >= 1"),
    (GRID_BACKOFFS, MAX_TRIALS + 1, 1, r"trials: must be an integer within \[1, 1000000\]"),
])
def test_paired_grid_rejects_a_bad_grid_before_any_trial(monkeypatch, backoffs, trials, jobs, message):
    monkeypatch.setattr(experiments, "draw_layout", None)  # a drawn trial would fail here
    monkeypatch.setattr(experiments, "draw_trial", None)
    with pytest.raises(ScenarioError, match=message):
        experiments.paired_grid(GRID_BASE, backoffs, trials, jobs)


def test_assumption1_and_region_errors_are_scenario_errors():
    with pytest.raises(ScenarioError):
        assumption1_scenario(1, 3, 0)
    with pytest.raises(ScenarioError):
        experiments.region_cells(3, [0.0, 0.5], 0)
    with pytest.raises(ScenarioError, match="set_size: must be >= 2"):
        region_experiment(1, [0.5], [1.0], trials=1)
