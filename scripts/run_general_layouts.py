#!/usr/bin/env python3
"""Approximate advantage regions for asymmetric layouts, checked empirically.

Sensors in general layouts schedule uneven packets, so the closed-form cell
verdicts only approximate the simulated outcome. For each layout this script
estimates per-sensor delay ratios and effective set sizes from the initial
geometry, votes a network-level verdict per grid cell, runs paired trials at
the matching backoff interval, and writes both verdicts side by side. The
comparison is qualitative; symmetric layouts agree more closely.
"""

import argparse
from pathlib import Path

from gathersim import analytics, experiments
from gathersim.protocol import write_csv
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


def _layout(seed: int, sensors, targets) -> Scenario:
    return Scenario(
        environment=Environment(50.0, 50.0),
        sensors=tuple(SensorSpec(i, c, r) for i, (c, r) in enumerate(sensors)),
        targets=tuple(TargetSpec(i, p) for i, p in enumerate(targets)),
        protocol=ProtocolParams(
            sampling_period=150.0,
            backoff_interval=40.0,
            uplink_delay=2.0,
            downlink_delay=1.0,
            trigger_threshold=2.0,
            noise_std=0.1,
            horizon=900.0,
        ),
        dynamics=DynamicsParams(move_step=3.0, move_period=150.0, move_probability=0.5),
        costs=CostParams(uplink_power=1.0, downlink_power=1.0),
        architecture=Architecture.FB,
        seed=seed,
    )


# Each layout passes its own fixed seed, so reruns reproduce the same trials.
LAYOUTS = {
    # clustered: one tight triple plus a wide loner, uneven packet sizes
    "asymmetric": _layout(
        1,
        [((14.0, 14.0), 10.0), ((22.0, 18.0), 9.0), ((16.0, 24.0), 8.0), ((38.0, 38.0), 11.0)],
        [(15.0, 17.0), (18.0, 19.0), (20.0, 15.0), (13.0, 22.0), (36.0, 36.0), (41.0, 40.0), (25.0, 30.0), (8.0, 10.0)],
    ),
    # near-symmetric pairs
    "symmetric_pairs": _layout(
        2,
        [((15.0, 25.0), 12.0), ((35.0, 25.0), 12.0)],
        [(25.0, 25.0), (24.0, 22.0), (26.0, 28.0), (10.0, 25.0), (40.0, 25.0), (25.0, 20.0), (12.0, 30.0), (38.0, 20.0)],
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="out/general")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    xs = [0.1 + 0.2 * i for i in range(5)]
    ys = [0.5, 1.0, 2.0, 5.0]
    for name, base in LAYOUTS.items():
        estimates = analytics.approx_params(base)
        mean_delay = sum(e.delay_estimate for e in estimates) / len(estimates)
        backoffs = [mean_delay / x for x in xs]
        grid = experiments.paired_grid(base, backoffs, args.trials, args.jobs, score=False)
        rows = []
        agree = 0
        for x, backoff, cell in zip(xs, backoffs, grid):
            # estimates were taken at the base backoff; rescale to this cell's
            scale = base.protocol.backoff_interval / backoff
            for y in ys:
                mean, se = experiments.mean_se(cell.power_difference(y, 1.0))
                frac, predicted = analytics.approx_network_advantage(estimates, y, delay_scale=scale)
                empirical = mean > 0
                rows.append((x, y, frac, predicted, mean, se, empirical))
                if predicted == empirical:
                    agree += 1
        path = out / f"approx_{name}.csv"
        write_csv(path, "approx-region",
                  "x,y,vote_fraction,predicted,empirical_mean,empirical_se,empirical", (
                      f"{x!r},{y!r},{frac!r},{int(predicted)},{mean!r},{se!r},{int(empirical)}\n"
                      for x, y, frac, predicted, mean, se, empirical in rows
                  ))
        total = len(rows)
        print(f"{name}: wrote {path}; cell agreement {agree}/{total} ({100.0 * agree / total:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
