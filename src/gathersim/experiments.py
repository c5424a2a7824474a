"""Monte Carlo harness: paired-architecture trials, parameter sweeps and
advantage-region experiments.

Paired trials run both architectures from the same per-trial seed so target
trajectories, measurement noise and backoff draws coincide (common random
numbers). Power charges are pure bookkeeping over component counts, so one
simulated trial serves every cost grid point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import geometry
from .analytics import AdvantagePoint, check_raster, raster_points
from .protocol import (
    DrawLayout, TrialInputs, TrialResult, draw_layout, draw_trial, run_trial, score_trial, write_csv,
)
from .scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
    ProtocolParams,
    Scenario,
    ScenarioError,
    SensorSpec,
    TargetSpec,
    check,
    validate,
)


# Fixed protocol and motion parameters of the assumption-1 layouts.
UPLINK_DELAY = 2.0  # per component
DOWNLINK_DELAY = 1.0  # per component
TRIGGER_THRESHOLD = 2.0
MOVE_STEP = 3.0


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed of trial `trial_index` of a grid: one 64-bit word of
    SeedSequence([base seed mod 2**64, trial index]), so the trials of
    different base seeds share no seed."""
    entropy = [base_seed & 0xFFFFFFFFFFFFFFFF, trial_index]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class PairedOutcome(NamedTuple):
    """Component counts and time-averaged error of one paired trial, or of a
    grid cell's trials as float64 columns in trial order. Unscored trials and
    cells have None for both errors; their NF counts may come from one run
    that `paired_grid` shares between cells."""

    fb_uplink: float
    fb_downlink: float
    fb_mse: Optional[float]
    nf_uplink: float
    nf_mse: Optional[float]

    def power_difference(self, uplink_power: float, downlink_power: float):
        """No-feedback total power minus feedback total power (per trial for columns)."""
        return (
            self.nf_uplink - self.fb_uplink
        ) * uplink_power - self.fb_downlink * downlink_power


def mean_se(values: np.ndarray):
    """Mean of `values` along its last axis and its standard error: the sample
    SD (divisor n - 1), taken in two passes (mean, then squared deviations),
    over sqrt(n); 0 for one value. Floats for 1-D values, lists of one per
    row for 2-D values; a row's numbers equal those of the row alone."""
    mean = values.mean(axis=-1)
    n = values.shape[-1]
    se = values.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean.tolist(), se.tolist()


def run_paired_trial(fb: Scenario, nf: Scenario, inputs: TrialInputs, nf_run: TrialResult, *,
                     score: bool = True) -> PairedOutcome:
    """One trial's FB scenario `fb` run on `inputs`, that trial's one draw,
    paired with `nf_run`, NF scenario `nf`'s run on the same draw (the grid
    may share it between cells). The caller has validated both scenarios and
    checked that `inputs` suit them (`paired_grid` checks its cells once), so
    the FB run checks neither again.
    An unscored pair computes no error, and its outcome's errors are None;
    its FB run is unobserved, and `nf_run` may be too."""
    fb_run = run_trial(fb, inputs, checked=True, observe=score)
    horizon = fb.protocol.horizon
    fb_mse, nf_mse = ((score_trial(fb, inputs, fb_run).integral / horizon,
                       score_trial(nf, inputs, nf_run).integral / horizon) if score else (None, None))
    return PairedOutcome(fb_run.uplink, fb_run.downlink, fb_mse, nf_run.uplink, nf_mse)


@dataclass(frozen=True)
class SweepRow:
    backoff_interval: float
    uplink_power: float
    downlink_power: float
    architecture: str
    mean_power_norm: float
    se_power: float
    mean_mse: float
    se_mse: float
    trials: int


def _run_tasks(tasks, worker, jobs: int):
    """`worker` over `tasks`, results in task order for any worker count."""
    # the pool forks all max_workers at the first submit, so cap them here
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing

    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _cells(base: Scenario, backoff_intervals: Sequence[float]) -> list[Scenario]:
    """The base scenario at each backoff interval, in grid order. The cells
    differ from `base` only outside `input_key`, so a trial's draw from the
    base suits every cell."""
    return [replace(base, protocol=replace(base.protocol, backoff_interval=float(tb)))
            for tb in backoff_intervals]


def _nf_ignores_backoff(cell: Scenario, times: Sequence[float]) -> bool:
    """Whether no backoff up to `cell`'s interval can change NF's counts: after
    every sample at `times` (its layout's `sample_times`), a packet of every
    target at the full interval starts before the next sample (the horizon
    after the last) and ends no later, summed in the engine's order. Rounding
    is monotone, so no shorter backoff or packet ends later. Then no packet is
    dropped and each ends by the next sample, where its TX_END sorts first."""
    p = cell.protocol
    longest = len(cell.targets) * p.uplink_delay
    return all(t + p.backoff_interval < nxt and (t + p.backoff_interval) + longest <= nxt
               for t, nxt in zip(times, (*times[1:], p.horizon)))


def _grid_trial(layout: DrawLayout, seed: int, fbs, nfs, score: bool, i: int) -> list[PairedOutcome]:
    """Trial i of every cell, each replaying the trial's one draw, from the
    grid's `layout` at `trial_seed(seed, i)`: every scenario in `nfs` runs
    once, and cell k of `fbs` pairs with NF run k, or with the one run when
    `nfs` holds a single shared scenario."""
    inputs = draw_trial(layout, trial_seed(seed, i))
    nf_runs = [run_trial(nf, inputs, checked=True, observe=score) for nf in nfs]
    n = len(nfs)  # 1 when the cells share NF
    return [run_paired_trial(fb, nfs[k % n], inputs, nf_runs[k % n], score=score)
            for k, fb in enumerate(fbs)]


def paired_grid(
    base: Scenario, backoff_intervals: Sequence[float], trials: int, jobs: int, *,
    score: bool = True,
) -> list[PairedOutcome]:
    """Paired trials 0..trials-1 of `base` at every backoff interval (one grid cell each).

    Returns one PairedOutcome of float64 columns per interval, in trial order
    (component counts are exact as floats). Trial i is drawn once, from
    the base seed and i, and every cell replays that draw (common random
    numbers), so the outcomes do not depend on the worker count. A task is one
    trial index; the cells, which keep the base seed, and the base's
    `draw_layout`, built once, travel with the worker. Every interval, the
    trial count and the worker count are checked before any trial runs. The
    cells differ only in a checked interval, so validating one checks every
    cell, and every cell has the base's `input_key` (see `_cells`), so no
    trial checks its own. With `score=False` no trial is scored or
    observed (see `run_trial`), and each cell's `fb_mse` and `nf_mse` are
    None: a caller that reads only power pays only for power.
    If every cell of an unscored grid meets `_nf_ignores_backoff`, NF's counts
    are the same in every cell, so NF runs once per trial, at the first cell's
    interval, and pairs with every cell's FB. A scored grid runs NF per cell,
    since NF's error depends on timing.
    """
    if not backoff_intervals:
        raise ScenarioError("backoff_intervals must be nonempty")
    check(backoff_intervals=list(backoff_intervals), trials=trials, jobs=jobs)
    cells = _cells(base, backoff_intervals)
    violations = validate(cells[0])
    if violations:
        raise ScenarioError("; ".join(violations))
    layout = draw_layout(base, checked=True)
    fbs = [replace(cell, architecture=Architecture.FB) for cell in cells]
    shared = not score and all(_nf_ignores_backoff(cell, layout.sample_times) for cell in cells)
    nfs = [replace(cell, architecture=Architecture.NF) for cell in (cells[:1] if shared else cells)]
    worker = partial(_grid_trial, layout, base.seed, fbs, nfs, score)
    per_trial = _run_tasks(list(range(trials)), worker, jobs)
    grid = [PairedOutcome(*np.array(rows, dtype=float).T) for rows in zip(*per_trial)]
    return grid if score else [cell._replace(fb_mse=None, nf_mse=None) for cell in grid]


def run_sweep(base: Scenario, backoff_intervals: Sequence[float], uplink_powers: Sequence[float],
              trials: int, jobs: int = 1) -> list[SweepRow]:
    """Run paired trials of `base` over every (backoff interval, uplink cost)
    and aggregate power and error.

    The uplink costs are checked here, under `validate`'s rule for
    `CostParams.uplink_power`, and `paired_grid` validates the base once and
    checks the rest, all before any trial. Power is reported normalized by the
    uplink cost. Results are aggregated in (backoff, trial) order, so they are
    independent of worker count.
    """
    if not uplink_powers:
        raise ScenarioError("uplink_powers must be nonempty")
    check(uplink_powers=list(uplink_powers))
    grid = paired_grid(base, backoff_intervals, trials, jobs)

    down = base.costs.downlink_power
    rows = []
    for tb, cell in zip(backoff_intervals, grid):
        nf = mean_se(cell.nf_uplink) + mean_se(cell.nf_mse)
        fb_mse = mean_se(cell.fb_mse)
        for up in uplink_powers:
            fb = mean_se(cell.fb_uplink + cell.fb_downlink * down / up) + fb_mse
            for arch, stats in (("FB", fb), ("NF", nf)):
                rows.append(SweepRow(float(tb), float(up), float(down), arch, *stats, trials))
    return rows


def assumption1_scenario(
    set_size: int,
    collaborative_targets: int,
    unique_targets: int,
    *,
    backoff_interval: float = 30.0,
    sampling_period: float = 200.0,
    horizon: float = 900.0,
    noise_std: float = 0.1,
    move_probability: float = 1.0,
    seed: int = 0,
) -> Scenario:
    """Symmetric FB layout where every set member schedules identical packets.

    `set_size` sensors sit on a ring around the field center; their disks share
    a common overlap holding the collaborative targets, and each sensor owns an
    exclusive pocket holding its unique targets. Targets are confined so the
    structure persists while they move, every sensor always observes
    collaborative_targets + unique_targets components, and every sensor's
    propagation delay is UPLINK_DELAY per component plus DOWNLINK_DELAY per
    collaborative component. Both component costs are 1; other costs apply
    through `PairedOutcome.power_difference`, per trial or over a grid cell's
    columns. Geometrically infeasible requests (pockets that cannot fit or
    hold a moving target) are rejected.
    """
    check(set_size=set_size, collaborative_targets=collaborative_targets,
          unique_targets=unique_targets, backoff_interval=backoff_interval,
          sampling_period=sampling_period, horizon=horizon, noise_std=noise_std,
          move_probability=move_probability, seed=seed)

    center = (25.0, 25.0)
    env = Environment(50.0, 50.0)
    if unique_targets == 0:
        disk_radius, ring_radius = 22.0, 4.0
    else:
        disk_radius, ring_radius = 14.0, 6.0
    sensors = []
    centers = []
    for j in range(set_size):
        theta = 2.0 * math.pi * j / set_size
        cx = center[0] + ring_radius * math.cos(theta)
        cy = center[1] + ring_radius * math.sin(theta)
        centers.append((cx, cy))
        sensors.append(SensorSpec(id=j, center=(cx, cy), radius=disk_radius))

    overlap_radius = disk_radius - ring_radius - 1.0
    if move_probability > 0 and overlap_radius < MOVE_STEP + 0.2:
        raise ScenarioError("shared overlap too small for the requested move step")

    targets: list[TargetSpec] = []
    spread = min(1.5, overlap_radius / 3.0)
    for i in range(collaborative_targets):
        theta = 2.0 * math.pi * i / collaborative_targets
        targets.append(
            TargetSpec(
                id=i,
                position=(center[0] + spread * math.cos(theta), center[1] + spread * math.sin(theta)),
                confine_center=center,
                confine_radius=overlap_radius,
            )
        )

    if unique_targets > 0:
        pocket_dist = disk_radius - 5.0
        tid = collaborative_targets
        for j in range(set_size):
            theta = 2.0 * math.pi * j / set_size
            px = centers[j][0] + pocket_dist * math.cos(theta)
            py = centers[j][1] + pocket_dist * math.sin(theta)
            own_margin = disk_radius - math.hypot(px - centers[j][0], py - centers[j][1])
            other_margin = min(
                math.hypot(px - centers[i][0], py - centers[i][1]) - disk_radius
                for i in range(set_size)
                if i != j
            )
            pocket_radius = min(own_margin, other_margin) - 0.5
            needed = MOVE_STEP + 0.2 if move_probability > 0 else 0.3
            if pocket_radius < needed:
                raise ScenarioError(
                    f"exclusive pocket for sensor {j} infeasible "
                    f"(radius {pocket_radius:.2f}, need {needed:.2f})"
                )
            for i in range(unique_targets):
                phi = 2.0 * math.pi * i / unique_targets
                offset = min(1.0, pocket_radius / 2.0)
                targets.append(
                    TargetSpec(
                        id=tid,
                        position=(px + offset * math.cos(phi), py + offset * math.sin(phi)),
                        confine_center=(px, py),
                        confine_radius=pocket_radius,
                    )
                )
                tid += 1

    scenario = Scenario(
        environment=env,
        sensors=tuple(sensors),
        targets=tuple(targets),
        protocol=ProtocolParams(
            sampling_period=sampling_period,
            backoff_interval=backoff_interval,
            uplink_delay=UPLINK_DELAY,
            downlink_delay=DOWNLINK_DELAY,
            trigger_threshold=TRIGGER_THRESHOLD,
            noise_std=noise_std,
            horizon=horizon,
        ),
        dynamics=DynamicsParams(
            move_step=MOVE_STEP, move_period=sampling_period, move_probability=move_probability
        ),
        costs=CostParams(uplink_power=1.0, downlink_power=1.0),
        architecture=Architecture.FB,
        seed=seed,
    )

    # the construction must produce exactly the promised membership structure
    members = geometry.membership(scenario, [t.position for t in targets])
    full = frozenset(range(set_size))
    for t in targets:
        got = members[t.id]
        want_full = t.id < collaborative_targets
        if want_full and got != full:
            raise ScenarioError(f"collaborative target {t.id} observed by {sorted(got)}")
        if not want_full and len(got) != 1:
            raise ScenarioError(f"unique target {t.id} observed by {sorted(got)}")
    return scenario


def region_cells(
    set_size: int, x_values: Sequence[float], seed: int
) -> tuple[Scenario, list[float]]:
    """The region map's base scenario and one backoff interval per delay ratio.

    The base is the assumption-1 layout with three collaborative targets and
    no unique ones, so every sensor's propagation delay is the lead delay
    3 * UPLINK_DELAY + 3 * DOWNLINK_DELAY, and delay ratio x pins the backoff
    interval to lead delay / x. The sampling period fits the longest backoff
    plus the lead delay, and the horizon is five sampling periods.
    """
    xs = list(x_values)
    if not xs:
        raise ScenarioError("x_values must be nonempty")
    check(x_values=xs)
    xs = [float(x) for x in xs]
    collaborative = 3
    lead_delay = collaborative * UPLINK_DELAY + collaborative * DOWNLINK_DELAY
    sampling = max(200.0, lead_delay / min(xs) + lead_delay + 10.0)
    base = assumption1_scenario(
        set_size, collaborative, 0, sampling_period=sampling, horizon=5.0 * sampling, seed=seed
    )
    return base, [lead_delay / x for x in xs]


def region_experiment(
    set_size: int,
    x_values: Sequence[float],
    y_values: Sequence[float],
    trials: int,
    jobs: int = 1,
    *,
    seed: int = 0,
) -> list[AdvantagePoint]:
    """Empirical advantage map over (delay ratio, cost ratio) grid cells.

    The trials of each x run on `region_cells`; each cell's power difference
    is recomputed from the same trials' component counts with uplink power y
    and downlink power 1. Cells whose mean difference is within two standard
    errors of zero should be treated as boundary cells. The theory raster's
    parameters are checked first, so a bad set size or cost ratio fails
    before any trial; each point is built once, after the trials.
    """
    check_raster(set_size, x_values, y_values)
    base, backoffs = region_cells(set_size, x_values, seed)
    grid = paired_grid(base, backoffs, trials, jobs, score=False)
    ys = np.array([float(y) for y in y_values])[:, None]  # one row of differences per y
    rows = max(1, geometry.SCAN_CELLS // trials)  # y values per reduction of (y, trial) arrays
    stats = (pair for cell in grid for k in range(0, len(ys), rows)
             for pair in zip(*mean_se(cell.power_difference(ys[k:k + rows], 1.0))))
    return raster_points(set_size, x_values, y_values, stats)  # x-major, like the grid


def region_agreement(points: Sequence[AdvantagePoint]) -> tuple[float, int, int]:
    """(agreement fraction, agreeing cells, non-boundary cells)."""
    agree = 0
    considered = 0
    for p in points:
        if p.empirical_mean is None or p.boundary:
            continue
        considered += 1
        if p.empirical_advantage == p.theory_advantage:
            agree += 1
    frac = agree / considered if considered else float("nan")
    return frac, agree, considered


def sweep_to_csv(rows: Sequence[SweepRow], path) -> None:
    header = "T_b,dp_u,dp_d,arch,mean_power_norm,se_power,mean_mse,se_mse,trials"
    write_csv(path, "sweep", header, (
        f"{r.backoff_interval!r},{r.uplink_power!r},{r.downlink_power!r},"
        f"{r.architecture},{r.mean_power_norm!r},{r.se_power!r},"
        f"{r.mean_mse!r},{r.se_mse!r},{r.trials}\n"
        for r in rows
    ))


def region_to_csv(points: Sequence[AdvantagePoint], path) -> None:
    def line(p: AdvantagePoint) -> str:
        theo = "advantageous" if p.theory_advantage else "not-advantageous"
        mean = "" if p.empirical_mean is None else repr(p.empirical_mean)
        se = "" if p.empirical_se is None else repr(p.empirical_se)
        return f"{p.x!r},{p.y!r},{p.set_size},{p.g!r},{theo},{mean},{se}\n"

    write_csv(path, "region", "x,y,set_size,g,theoretical,empirical_mean,empirical_se",
              map(line, points))
