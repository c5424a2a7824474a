"""Command-line front end.

Subcommands: validate, simulate, sweep, region, analyze. Exit codes: 0 on
success, 1 for validation or parameter errors, 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import analytics, experiments, geometry, svgplot
from .protocol import PowerLedger, draw_inputs, run_trial, trace_to_csv, write_csv
from .scenario import (
    ScenarioError,
    check_keys,
    checked_scenario,
    int_field,
    load_scenario,
    num_list,
    read_mapping,
)
# not called here, but benchmark/spans.py wraps these names on this module
from .scenario import scenario_from_dict, validate as validate_scenario  # noqa: F401

SWEEP_KEYS = ("scenario", "backoff_intervals", "uplink_powers", "trials")
JOBS_HELP = "worker processes (>= 1; capped at the task and CPU counts)"


def _out_dir(args) -> Path:
    raw = args.out or os.environ.get("GATHERSIM_OUTDIR") or "out"
    return Path(raw)


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse 'lo:hi:n' into n evenly spaced values, or a nonempty comma list
    of finite values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: expected lo:hi:count (got {spec!r})")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError(f"{name}: count must be >= 1")
        values = [lo] if n == 1 else [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    else:
        values = [float(v) for v in spec.split(",") if v.strip()]
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"{name}: expected one or more finite values (got {spec!r})")
    return values


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"valid: {len(scenario.sensors)} sensors, {len(scenario.targets)} targets, "
          f"architecture {scenario.architecture.value}")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, args.override, args.seed)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    inputs = draw_inputs(scenario, checked=True)  # load_scenario has validated it
    result = run_trial(scenario, inputs=inputs)
    costs = scenario.costs
    result.events.to_csv(out / "events.csv")
    PowerLedger(result.events, costs, len(scenario.sensors)).to_csv(out / "power.csv")
    trace_to_csv(result.trace, out / "mse.csv")
    if args.dump_trajectory:  # every move lies before the horizon
        write_csv(out / "trajectory.csv", "trajectory", "time,target_id,x,y", (
            f"{t!r},{tid},{x!r},{y!r}\n"
            for t, pos in zip((0.0, *inputs.move_times), inputs.positions)
            for tid, (x, y) in zip(inputs.target_ids, pos.tolist())
        ))
    if args.dump_structure:
        structure = geometry.initial_structure(scenario)
        lines = [
            f"collaborative,{';'.join(map(str, sorted(cs.members)))},{cs.collaborative_count}\n"
            for cs in structure.sets
        ]
        lines += [f"unique,{sensor},{structure.unique_counts[sensor]}\n"
                  for sensor in sorted(structure.unique_counts)]
        write_csv(out / "structure.csv", "structure", "kind,members,count", lines)
    kinds = Counter(r.kind for r in result.events.records)
    total_power = result.uplink * costs.uplink_power + result.downlink * costs.downlink_power
    print(
        f"architecture={scenario.architecture.value} "
        f"total_power_norm={total_power / costs.uplink_power!r} "
        f"time_avg_mse={result.trace.time_average(scenario.protocol.horizon)!r} "
        f"cancels={kinds['CANCEL']} "
        f"drops={kinds['DROP']} "
        f"events={len(result.events.records)}"
    )
    return 0


def _load_sweep_spec(path: str, trials, seed) -> experiments.SweepSpec:
    data = read_mapping(path)
    check_keys(data, SWEEP_KEYS, "sweep spec")
    base = data.get("scenario")
    if isinstance(base, str):
        base = read_mapping(Path(path).parent / base)
    elif not isinstance(base, dict):
        raise ScenarioError("sweep spec needs 'scenario': a path or an inline mapping")
    return experiments.SweepSpec(
        base=checked_scenario(base, (), seed),
        backoff_intervals=num_list(data, "backoff_intervals", "sweep spec"),
        uplink_powers=num_list(data, "uplink_powers", "sweep spec"),
        trials=int_field(data, "trials", 1, "sweep spec") if trials is None else trials,
    )


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError("--jobs must be >= 1")
    spec = _load_sweep_spec(args.spec, args.trials, args.seed)
    rows = experiments.run_sweep(spec, jobs=args.jobs)  # checks the spec first
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    experiments.sweep_to_csv(rows, out / "sweep.csv")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    if args.plot:
        down = spec.base.costs.downlink_power
        for dpu in spec.uplink_powers:
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
    if args.jobs < 1:
        raise ScenarioError("--jobs must be >= 1")
    if args.setsize < 2:
        raise ScenarioError("--setsize must be >= 2")
    try:
        xs = _parse_grid(args.x_grid, "--x-grid")
        ys = _parse_grid(args.y_grid, "--y-grid")
    except ValueError as e:
        raise ScenarioError(str(e)) from e
    if min(xs) < 0 or (min(xs) == 0 and not args.theory_only):
        raise ScenarioError("--x-grid: delay ratios must be > 0 (>= 0 with --theory-only)")
    if min(ys) <= 0:
        raise ScenarioError("--y-grid: cost ratios must be > 0")
    if not args.theory_only and args.trials < 1:
        raise ScenarioError("--trials must be >= 1")
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    if args.theory_only:
        points = analytics.raster_region(args.setsize, xs, ys)
    else:
        points = experiments.region_experiment(
            args.setsize, xs, ys, args.trials, jobs=args.jobs, seed=args.seed or 0
        )
    experiments.region_to_csv(points, out / "region.csv")
    print(f"wrote {out / 'region.csv'} ({len(points)} cells)")
    if not args.theory_only:
        frac, agree, considered = experiments.region_agreement(points)
        print(
            f"theory/empirical agreement: {100.0 * frac:.1f}% "
            f"({agree}/{considered} non-boundary cells)"
        )
    if args.plot:
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
    try:
        threshold, ok = analytics.mse_advantage(params)
    except ValueError as e:
        raise ScenarioError(str(e)) from e
    return (
        f"mse_ratio_threshold = {threshold:.6g} "
        f"(threshold/noise = {params.noise_ratio:.6g}: {'satisfied' if ok else 'not satisfied'})"
    )


def _scenario_lines(args) -> list[str]:
    scenario = load_scenario(args.scenario)
    estimates = analytics.approx_params(scenario)
    if not estimates:
        raise ScenarioError("no sensor belongs to any collaborative set")
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
        if args.setsize < 2:
            raise ScenarioError("--setsize must be >= 2")
        thr = analytics.feasibility(args.setsize)
        lines.append(f"feasibility_threshold(set_size={args.setsize}) = {thr:.6g}")
        if args.x is not None:
            if not (0.0 <= args.x <= 1.0):
                raise ScenarioError("--x must be within [0, 1]")
            if not args.y > 0:
                raise ScenarioError("--y must be > 0")
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
    for name in ("x", "y", "ts", "dtu", "eps", "sigma"):
        if not math.isfinite(getattr(args, name) or 0):  # None stands for an absent flag
            raise ScenarioError(f"--{name} must be finite")
    # every line is computed before the first is printed, so an error prints nothing
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
