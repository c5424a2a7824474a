"""Checks on the files one CLI invocation wrote. Each raises CheckError.

An invocation whose outputs fail a check counts as a failed operation.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from pathlib import Path

MIN_REGION_AGREEMENT = 0.95


class CheckError(Exception):
    """An output file breaks an invariant the program promises."""


def read_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a gathersim CSV, skipping its `#` schema line."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _float(row: dict[str, str], key: str) -> float:
    value = float(row[key])
    if not math.isfinite(value):
        raise CheckError(f"{key}={row[key]!r} is not finite in row {row}")
    return value


def check_region(out: Path, stdout: str, *, set_size: int, n_cells: int) -> None:
    """region.csv holds every grid cell once, its `g` column equals
    `analytics.advantage_poly`, and the empirical sign agrees with theory on
    at least 95 % of the cells more than two SEs from zero."""
    # imported on use: run.py puts the checkout's src/ on the path only after
    # this module is loaded
    from gathersim.analytics import AdvantageParams, advantage_poly

    rows = read_rows(out / "region.csv")
    if len(rows) != n_cells or len({(r["x"], r["y"]) for r in rows}) != n_cells:
        raise CheckError(f"region.csv has {len(rows)} rows, expected {n_cells} distinct cells")
    agree = considered = 0
    for r in rows:
        x, y = _float(r, "x"), _float(r, "y")
        if int(r["set_size"]) != set_size:
            raise CheckError(f"row has set_size {r['set_size']}, expected {set_size}")
        g = advantage_poly(AdvantageParams(x=min(x, 1.0), y=y, set_size=set_size))
        if _float(r, "g") != g:
            raise CheckError(f"cell ({x!r}, {y!r}): g={r['g']} but advantage_poly gives {g!r}")
        theory = {"advantageous": True, "not-advantageous": False}.get(r["theoretical"])
        if theory is None or theory != (g > 0):
            raise CheckError(f"cell ({x!r}, {y!r}): verdict {r['theoretical']!r} for g={g!r}")
        mean, se = _float(r, "empirical_mean"), _float(r, "empirical_se")
        if se < 0:
            raise CheckError(f"cell ({x!r}, {y!r}): negative SE")
        if abs(mean) >= 2.0 * se:
            considered += 1
            agree += (mean > 0) == theory
    if considered == 0 or agree < MIN_REGION_AGREEMENT * considered:
        raise CheckError(f"sign agreement {agree}/{considered} below {MIN_REGION_AGREEMENT:.0%}")


def check_simulate(
    out: Path, stdout: str, *, horizon: float, uplink_power: float, downlink_power: float
) -> None:
    """Every TRIGGER component ends in exactly one TX_START, CANCEL or DROP;
    power.csv charges equal the TX_START and FEEDBACK_START sizes times their
    costs; mse_integral never decreases and ends at horizon * time_avg_mse."""
    triggered = set()
    ended: Counter = Counter()
    up: Counter = Counter()
    down: Counter = Counter()
    for r in read_rows(out / "events.csv"):
        kind = r["kind"]
        if kind == "SAMPLE":  # its size counts observed targets, not components
            continue
        targets = [int(t) for t in r["targets"].split(";") if t]
        if int(r["size"]) != len(targets):
            raise CheckError(f"{kind} row size {r['size']} lists {len(targets)} targets")
        cell = (int(r["step"]), int(r["sensor"]))
        components = [(*cell, t) for t in targets]
        if kind == "TRIGGER":
            if triggered.intersection(components):
                raise CheckError(f"component triggered twice at step/sensor {cell}")
            triggered.update(components)
        elif kind in ("TX_START", "CANCEL", "DROP"):
            ended.update(components)
            if kind == "TX_START":
                up[cell] += len(targets)
        elif kind == "FEEDBACK_START":
            down[cell] += len(targets)
    for comp in triggered | set(ended):
        if comp not in triggered:
            raise CheckError(f"component (step, sensor, target)={comp} ended without a TRIGGER")
        if ended[comp] != 1:
            raise CheckError(
                f"component (step, sensor, target)={comp} ends {ended[comp]} times, expected once"
            )

    charged = set()
    for r in read_rows(out / "power.csv"):
        cell = (int(r["step"]), int(r["sensor"]))
        charged.add(cell)
        if _float(r, "uplink") != up[cell] * uplink_power:
            raise CheckError(f"power.csv uplink {r['uplink']} at {cell}, events give {up[cell]} components")
        if _float(r, "downlink") != down[cell] * downlink_power:
            raise CheckError(
                f"power.csv downlink {r['downlink']} at {cell}, events give {down[cell]} components"
            )
    if not (set(up) | set(down)) <= charged:
        raise CheckError("power.csv misses a step/sensor cell that transmitted")

    integral = 0.0
    for r in read_rows(out / "mse.csv"):
        value = _float(r, "mse_integral")
        if value < integral:
            raise CheckError(f"mse_integral decreases to {value!r} at time {r['time']}")
        integral = value
    match = re.search(r"time_avg_mse=(\S+)", stdout)
    if match is None:
        raise CheckError("simulate printed no time_avg_mse")
    if integral / horizon != float(match.group(1)):
        raise CheckError(
            f"final mse_integral / horizon = {integral / horizon!r}, printed {match.group(1)}"
        )
