"""Command-line front end.

Subcommands: validate, simulate, sweep, region, analyze. Exit codes: 0 on
success, 1 for validation or parameter errors, 2 for I/O failures. The front
end turns flags into library calls and checks only which flags go together;
the library checks every value and raises a ScenarioError naming it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import analytics, experiments, geometry
from .protocol import PowerLedger, draw_inputs, run_trial, score_trial, trace_to_csv, write_csv
from .scenario import ScenarioError, check, load_scenario, load_sweep_spec
# not called here, but benchmark/spans.py wraps these names on this module
from .scenario import scenario_from_dict, validate as validate_scenario  # noqa: F401

JOBS_HELP = "worker processes (>= 1; capped at the task and CPU counts)"


def _out_dir(args) -> Path:
    raw = args.out or os.environ.get("GATHERSIM_OUTDIR") or "out"
    return Path(raw)


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse 'lo:hi:n' into n evenly spaced values, or a nonempty comma list
    of values. A count past the map's cell bound fails before any value is made."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: expected lo:hi:count (got {spec!r})")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        check(grid_cells=n)
        values = [lo] if n == 1 else [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    else:
        values = [float(v) for v in spec.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{name}: expected one or more values (got {spec!r})")
    return values


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"valid: {len(scenario.sensors)} sensors, {len(scenario.targets)} targets, "
          f"architecture {scenario.architecture.value}")
    return 0


def _trajectory_snapshots(inputs):
    """`time,target_id,x,y` lines of every target before any move and after
    each, one string (a time stamp before each target's tail) per snapshot.

    A target's `,id,x,y` tail is formatted once and again only at a move that
    changed its row. Rows are compared by their bits, so an unchanged tail is
    still the row's repr (0.0 and -0.0 are equal floats with different reprs).
    `validate` requires a target, so no snapshot is a bare stamp.
    """
    tids, positions = inputs.target_ids, inputs.positions
    tails = [f",{tid},{x!r},{y!r}\n" for tid, (x, y) in zip(tids, positions[0].tolist())]
    yield "0.0" + "0.0".join(tails)
    for t, prev, pos in zip(inputs.move_times, positions, positions[1:]):
        moved = np.flatnonzero((pos.view(np.int64) != prev.view(np.int64)).any(axis=1))
        for i, (x, y) in zip(moved.tolist(), pos[moved].tolist()):
            tails[i] = f",{tids[i]},{x!r},{y!r}\n"
        stamp = repr(t)
        yield stamp + stamp.join(tails)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic GC for a block that builds many objects but no cycle
    (reference counting frees them all), then restore the state it was in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_trial_to_csv(scenario, inputs, out: Path) -> str:
    """Run and score the trial, write events.csv, power.csv and mse.csv, and
    return the summary line. The result, its rows and the trace die on return."""
    result = run_trial(scenario, inputs, checked=True)
    trace = score_trial(scenario, inputs, result)
    costs = scenario.costs
    result.events.to_csv(out / "events.csv")
    PowerLedger(result.events, costs, len(scenario.sensors)).to_csv(out / "power.csv")
    trace_to_csv(trace, out / "mse.csv")
    rows = result.events.rows
    total_power = result.uplink * costs.uplink_power + result.downlink * costs.downlink_power
    return (
        f"architecture={scenario.architecture.value} "
        f"total_power_norm={total_power / costs.uplink_power!r} "
        f"time_avg_mse={trace.integral / scenario.protocol.horizon!r} "
        f"cancels={sum(r[5] for r in rows if r[1] == 'CANCEL')} "
        f"drops={sum(r[5] for r in rows if r[1] == 'DROP')} "
        f"events={len(rows)}"
    )


def cmd_simulate(args) -> int:
    # a large field's YAML nodes and trial rows are tens of thousands of GC-tracked objects
    with _gc_paused():
        scenario = load_scenario(args.scenario, args.override, args.seed)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    with _gc_paused():
        inputs = draw_inputs(scenario, checked=True)  # load_scenario has validated it
        summary = _run_trial_to_csv(scenario, inputs, out)
    # the dumps read only inputs and scenario; pausing over them too raised peak RSS
    if args.dump_trajectory:  # every move lies before the horizon
        write_csv(out / "trajectory.csv", "trajectory", "time,target_id,x,y",
                  _trajectory_snapshots(inputs))
    if args.dump_structure:
        structure = geometry.initial_structure(scenario)
        lines = [
            f"collaborative,{';'.join(map(str, sorted(cs.members)))},{cs.collaborative_count}\n"
            for cs in structure.sets
        ]
        lines += [f"unique,{sensor},{structure.unique_counts[sensor]}\n"
                  for sensor in sorted(structure.unique_counts)]
        write_csv(out / "structure.csv", "structure", "kind,members,count", lines)
    print(summary)
    return 0


def cmd_sweep(args) -> int:
    base, backoffs, uplink_powers, trials = load_sweep_spec(args.spec, args.trials, args.seed)
    rows = experiments.run_sweep(base, backoffs, uplink_powers, trials, jobs=args.jobs)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    experiments.sweep_to_csv(rows, out / "sweep.csv")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    if args.plot:
        from . import svgplot

        down = base.costs.downlink_power
        for dpu in uplink_powers:
            series = []
            for arch, color in (("FB", "#c0392b"), ("NF", "#7f8c8d")):
                pts = [
                    (r.mean_power_norm, r.mean_mse)
                    for r in rows
                    if r.architecture == arch and r.uplink_power == dpu
                ]
                series.append((arch, color, pts))
            svg = svgplot.line_chart(
                series,
                xlabel="total power (normalized by uplink cost)",
                ylabel="time-averaged MSE",
                title=f"uplink/downlink cost ratio y={dpu / down:.3g}",
            )
            path = out / f"sweep_y{dpu / down:.3g}.svg"
            path.write_text(svg, encoding="utf-8")
            print(f"wrote {path}")
    return 0


def cmd_region(args) -> int:
    try:
        xs = _parse_grid(args.x_grid, "--x-grid")
        ys = _parse_grid(args.y_grid, "--y-grid")
    except ValueError as e:
        raise ScenarioError(str(e)) from e
    # the library checks every value before anything is written
    if args.theory_only:
        points = analytics.raster_region(args.setsize, xs, ys)
    else:
        points = experiments.region_experiment(
            args.setsize, xs, ys, args.trials, jobs=args.jobs, seed=args.seed or 0
        )
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    experiments.region_to_csv(points, out / "region.csv")
    print(f"wrote {out / 'region.csv'} ({len(points)} cells)")
    if not args.theory_only:
        frac, agree, considered = experiments.region_agreement(points)
        print(
            f"theory/empirical agreement: {100.0 * frac:.1f}% "
            f"({agree}/{considered} non-boundary cells)"
        )
    if args.plot:
        from . import svgplot

        path = out / "region.svg"
        path.write_text(
            svgplot.region_map(points, title=f"advantage region, set size {args.setsize}"),
            encoding="utf-8",
        )
        print(f"wrote {path}")
    return 0


def _accuracy_line(*params) -> str:
    """The accuracy condition for MseAdvantageParams(*params), as one line."""
    params = analytics.MseAdvantageParams(*params)
    threshold, ok = analytics.mse_advantage(params)
    return (
        f"mse_ratio_threshold = {threshold:.6g} "
        f"(threshold/noise = {params.noise_ratio:.6g}: {'satisfied' if ok else 'not satisfied'})"
    )


def _scenario_lines(args) -> list[str]:
    scenario = load_scenario(args.scenario)
    estimates = analytics.approx_params(scenario)
    y = scenario.costs.cost_ratio
    lines = [f"cost ratio y = {y:.6g} (uplink/downlink)",
             "sensor  delay_est  delay_ratio  set_size_est  g  advantage"]
    for est in estimates:
        g = analytics.sensor_advantage(est, y, 1.0)
        lines.append(
            f"{est.sensor_id}  {est.delay_estimate:.6g}  {est.delay_ratio:.6g}  "
            f"{est.set_size_estimate:.6g}  {g:.6g}  {'yes' if g > 0 else 'no'}"
        )
    frac, verdict = analytics.approx_network_advantage(estimates, y)
    lines.append(f"network advantage vote: {frac:.6g} -> {'advantageous' if verdict else 'not-advantageous'}")
    p = scenario.protocol
    numin = 1 if args.numin is None else args.numin
    lines.append(_accuracy_line(p.trigger_threshold, p.noise_std, p.sampling_period, p.uplink_delay, numin))
    return lines


def _closed_form_lines(args) -> list[str]:
    if args.x is not None and args.setsize is None:
        raise ScenarioError("--x and --y need --setsize")
    missing = [n for n in ("ts", "dtu", "numin", "eps", "sigma") if getattr(args, n) is None]
    if 0 < len(missing) < 5:
        raise ScenarioError(f"--{missing[0]} is required for the accuracy condition")
    if args.setsize is None and missing:
        raise ScenarioError("analyze needs --setsize, accuracy parameters, or --scenario")
    lines = []
    if args.setsize is not None:
        thr = analytics.feasibility(args.setsize)
        lines.append(f"feasibility_threshold(set_size={args.setsize}) = {thr:.6g}")
        if args.x is not None:
            g = analytics.advantage_poly(analytics.AdvantageParams(args.x, args.y, args.setsize))
            lines.append(f"g(x={args.x:.6g}, y={args.y:.6g}, set_size={args.setsize}) = {g:.6g}")
            lines.append(f"verdict: {'advantageous' if g > 0 else 'not advantageous'}")
    if not missing:
        lines.append(_accuracy_line(args.eps, args.sigma, args.ts, args.dtu, args.numin))
    return lines


def cmd_analyze(args) -> int:
    closed_form = [f"--{n}" for n in ("setsize", "x", "y", "ts", "dtu", "eps", "sigma")
                   if getattr(args, n) is not None]
    if args.scenario and closed_form:
        raise ScenarioError(f"{', '.join(closed_form)} cannot be combined with --scenario")
    if (args.x is None) != (args.y is None):
        raise ScenarioError("--x and --y must be given together")
    # the library checks every value, and every line is computed before the
    # first is printed, so an error prints nothing
    print("\n".join(_scenario_lines(args) if args.scenario else _closed_form_lines(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gathersim",
        description="Simulate and analyze feedback vs no-feedback data-gathering architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run one trial, emit event/power/mse CSVs")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output directory (env GATHERSIM_OUTDIR, default ./out)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--override", action="append", default=[], metavar="PATH=VALUE",
                   help="override a config value, e.g. architecture=NF or protocol.backoff_interval=40")
    p.add_argument("--dump-trajectory", action="store_true")
    p.add_argument("--dump-structure", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a backoff/cost sweep from a sweep spec file")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--trials", type=int, default=None, help="override the spec's trial count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--plot", action="store_true", help="emit one SVG per cost ratio")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("region", help="advantage-region experiment over (x, y) grids")
    p.add_argument("--setsize", type=int, required=True)
    p.add_argument("--x-grid", default="0.05:0.95:10", help="lo:hi:count or comma list")
    p.add_argument("--y-grid", default="0.25:10:10")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--theory-only", action="store_true")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("analyze", help="evaluate the closed-form conditions")
    p.add_argument("--x", type=float, default=None, help="delay ratio")
    p.add_argument("--y", type=float, default=None, help="uplink/downlink cost ratio")
    p.add_argument("--setsize", type=int, default=None)
    p.add_argument("--ts", type=float, default=None, help="sampling period")
    p.add_argument("--dtu", type=float, default=None, help="per-component uplink delay")
    p.add_argument("--numin", type=int, default=None, help="minimum unique components")
    p.add_argument("--eps", type=float, default=None, help="trigger threshold")
    p.add_argument("--sigma", type=float, default=None, help="measurement noise std")
    p.add_argument("--scenario", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
