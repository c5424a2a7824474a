"""Observation geometry: per-target sensor membership, collaborative sets,
and collaborative/unique component counts.

A collaborative set is any group of >= 2 sensors whose observation disks share
a nonempty common intersection with the environment. A target seen by exactly
one sensor is a unique component of that sensor; a target seen by several is a
collaborative component of the set that equals its observer group exactly.
Whether a target lies in a disk is decided only by `dynamics.observed_rows`,
so every group observing a target at its initial position is a set.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dynamics import observed_rows
from .scenario import Scenario, ScenarioError

# Spacing of the grid whose cell centers decide whether sensor disks share a region.
GRID_STEP = 0.05
# Grid cells tested at once, so a group's scan holds a few arrays of this size;
# `protocol.draw_trial` bounds its (sensor, target) pairs per pass by it too,
# and `experiments.region_experiment` its (y, trial) differences per reduction.
SCAN_CELLS = 2**16
# Most collaborative sets allowed: with co-located sensors every group is one.
MAX_SETS = 10_000
# Most grid cells one group's scan may visit, a few seconds of scanning: a
# field drawn in large units would otherwise scan its grid for hours.
MAX_SCAN_CELLS = 2**28


@dataclass(frozen=True)
class CollaborativeSet:
    members: frozenset[int]
    collaborative_count: int  # targets whose observer group equals `members`


@dataclass(frozen=True)
class CollaborativeStructure:
    sets: tuple[CollaborativeSet, ...]
    unique_counts: dict[int, int]  # sensor id -> uniquely observed targets


def membership(scenario: Scenario, positions) -> dict[int, frozenset[int]]:
    """Map each target id to the set of sensor ids observing it, where row i
    of `positions` belongs to `scenario.targets[i]`."""
    tids = [t.id for t in scenario.targets]
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    centers = np.array([s.center for s in scenario.sensors], dtype=float)
    radii = np.array([s.radius for s in scenario.sensors], dtype=float)
    obs: dict[int, set[int]] = {tid: set() for tid in tids}
    owners, rows = observed_rows(pos, centers, radii)
    for idx, row in zip(owners.tolist(), rows.tolist()):
        obs[tids[row]].add(scenario.sensors[idx].id)
    return {tid: frozenset(obs[tid]) for tid in tids}


def _cells(first: int, last: int) -> np.ndarray:
    """Centers of grid cells `first`..`last` along one axis."""
    return (np.arange(first, last + 1) + 0.5) * GRID_STEP


def collaborative_sets(scenario: Scenario) -> list[frozenset[int]]:
    """Enumerate every sensor group of size >= 2 with a nonempty common region.

    A group's region is nonempty when some target's initial position lies in
    every disk of the group, by the `observed_rows` test that `membership`
    uses (a region thinner than the grid can still hold a target), or when
    some cell center of the GRID_STEP grid over the group's bounding box,
    clipped to the environment, lies in every disk. The result lists all such
    groups (maximal or not), ordered by size then member ids. More than
    MAX_SETS groups is a ScenarioError.

    Most pairs are decided without a grid scan: a pair is accepted when the
    cell center nearest the middle of its lens lies in both disks. The other
    pairs and all larger groups are scanned in blocks of at most SCAN_CELLS
    cells up to the first hit; a scan that would visit more than
    MAX_SCAN_CELLS cells is a ScenarioError. Size-k candidates extend each
    nonempty (k-1)-group with a larger id whose disk can reach its last
    member's, or shares a target with it, and only when every (k-1)-subset
    is nonempty.
    """
    env = scenario.environment
    disks = sorted(scenario.sensors, key=lambda s: s.id)
    centers = np.array([s.center for s in disks], dtype=float).reshape(-1, 2)
    radii = np.array([s.radius for s in disks], dtype=float)
    targets = np.array([t.position for t in scenario.targets], dtype=float).reshape(-1, 2)
    seen = np.zeros((len(disks), len(targets)), dtype=bool)  # seen[j, t]: disk j sees target t
    seen[observed_rows(targets, centers, radii)] = True

    def lens_middle(a, b) -> tuple[float, float]:
        dx, dy = b.center[0] - a.center[0], b.center[1] - a.center[1]
        d = math.hypot(dx, dy)
        if d == 0:
            return a.center
        # the center line crosses the lens at these distances from a's center
        t = (max(-a.radius, d - b.radius) + min(a.radius, d + b.radius)) / 2
        return (a.center[0] + t * dx / d, a.center[1] + t * dy / d)

    def nonempty(group: tuple[int, ...]) -> bool:
        if seen[list(group)].all(axis=0).any():
            return True
        group_disks = [disks[j] for j in group]
        lo_x = max(max(s.center[0] - s.radius for s in group_disks), 0.0)
        hi_x = min(min(s.center[0] + s.radius for s in group_disks), env.width)
        lo_y = max(max(s.center[1] - s.radius for s in group_disks), 0.0)
        hi_y = min(min(s.center[1] + s.radius for s in group_disks), env.height)
        i0 = max(0, math.ceil(lo_x / GRID_STEP - 0.5))
        i1 = math.floor(hi_x / GRID_STEP - 0.5)
        k0 = max(0, math.ceil(lo_y / GRID_STEP - 0.5))
        k1 = math.floor(hi_y / GRID_STEP - 0.5)
        if not (lo_x < hi_x and lo_y < hi_y and i0 <= i1 and k0 <= k1):
            return False
        if len(group) == 2:
            wx, wy = lens_middle(*group_disks)
            i = min(max(round(wx / GRID_STEP - 0.5), i0), i1)
            k = min(max(round(wy / GRID_STEP - 0.5), k0), k1)
            # the scan's test at one cell center, on floats: `*`, as float `**` is libm's pow
            x, y = (i + 0.5) * GRID_STEP, (k + 0.5) * GRID_STEP
            if all((x - s.center[0]) * (x - s.center[0]) + (y - s.center[1]) * (y - s.center[1])
                   <= s.radius * s.radius for s in group_disks):
                return True
        # blocks of whole columns, or of one column's SCAN_CELLS-cell runs when taller
        height = min(k1 - k0 + 1, SCAN_CELLS)
        width = SCAN_CELLS // height
        visited = 0
        for i in range(i0, i1 + 1, width):
            xs = _cells(i, min(i + width - 1, i1))[:, None]
            for k in range(k0, k1 + 1, height):
                ys = _cells(k, min(k + height - 1, k1))
                visited += xs.size * ys.size
                if visited > MAX_SCAN_CELLS:
                    raise ScenarioError(f"collaborative set scan of sensors {[disks[j].id for j in group]}"
                                        f" passes MAX_SCAN_CELLS = {MAX_SCAN_CELLS} grid cells")
                mask = True  # xs and ys broadcast to the block
                for s in group_disks:
                    mask = mask & ((xs - s.center[0]) ** 2 + (ys - s.center[1]) ** 2 <= s.radius * s.radius)
                if mask.any():
                    return True
        return False

    # A group is extended only by larger ids within reach of its last member:
    # disks at most the sum of the radii apart, loosened for rounding, or that
    # share a target (an underflowing square can put one in disks too far apart).
    d = centers[:, None] - centers
    near = (d * d).sum(-1) <= ((radii[:, None] + radii) * (1 + 1e-6)) ** 2
    common = seen.astype(np.float32)  # a BLAS product; a sum of ones is > 0 exactly
    near |= common @ common.T > 0
    reach = [np.flatnonzero(row).tolist() for row in np.triu(near, 1)]

    # Groups are sorted tuples of disk indices and each layer is in
    # lexicographic order, so the result comes out ordered by size then members.
    layer = [(j,) for j in range(len(disks))]
    result: list[frozenset[int]] = []
    while layer:
        alive = set(layer)
        grown = (
            group + (j,)
            for group in layer
            for j in reach[group[-1]]
            if all(group[:n] + group[n + 1:] + (j,) in alive for n in range(len(group)))
            and nonempty(group + (j,))
        )
        layer = list(islice(grown, MAX_SETS + 1 - len(result)))
        result += (frozenset(disks[j].id for j in group) for group in layer)
        if len(result) > MAX_SETS:
            raise ScenarioError(f"more than MAX_SETS = {MAX_SETS} collaborative sets")
    return result


def initial_structure(scenario: Scenario) -> CollaborativeStructure:
    """Collaborative sets and their component counts at the targets' initial
    positions. Every observer group of two or more sensors is one of the sets,
    as both read `observed_rows`."""
    sets = collaborative_sets(scenario)
    groups = Counter(membership(scenario, [t.position for t in scenario.targets]).values())
    return CollaborativeStructure(
        sets=tuple(CollaborativeSet(members, groups[members]) for members in sets),
        unique_counts={j: n for group, n in groups.items() if len(group) == 1 for j in group},
    )
