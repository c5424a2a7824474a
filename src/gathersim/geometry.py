"""Observation geometry: per-target sensor membership, collaborative sets,
and collaborative/unique component counts.

A collaborative set is any group of >= 2 sensors whose observation disks share
a nonempty common intersection with the environment. A target seen by exactly
one sensor is a unique component of that sensor; a target seen by several is a
collaborative component of the set that equals its observer group exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dynamics import observed_rows
from .scenario import Scenario, ScenarioError

MembershipMap = dict[int, frozenset[int]]

# Spacing of the grid whose cell centers decide whether sensor disks share a region.
GRID_STEP = 0.05
# Grid cells tested at once, so a group's scan holds a few arrays of this size;
# `protocol.draw_trial` bounds its (sensor, target) pairs per pass by it too,
# and `experiments.region_experiment` its (y, trial) differences per reduction.
SCAN_CELLS = 2**16
# Most collaborative sets allowed: with co-located sensors every group is one.
MAX_SETS = 10_000


class GeometryError(RuntimeError):
    """Internal inconsistency between memberships and enumerated sets."""


@dataclass(frozen=True)
class CollaborativeSet:
    members: frozenset[int]
    collaborative_count: int  # targets whose observer group equals `members`


@dataclass(frozen=True)
class CollaborativeStructure:
    sets: tuple[CollaborativeSet, ...]
    unique_counts: dict[int, int]  # sensor id -> uniquely observed targets


def membership(scenario: Scenario, positions) -> MembershipMap:
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


def _set_key(members: frozenset[int]) -> tuple:
    return (len(members), tuple(sorted(members)))


def _cells(first: int, last: int) -> np.ndarray:
    """Centers of grid cells `first`..`last` along one axis."""
    return (np.arange(first, last + 1) + 0.5) * GRID_STEP


def collaborative_sets(scenario: Scenario) -> list[frozenset[int]]:
    """Enumerate every sensor group of size >= 2 with a nonempty common region.

    A group's region is nonempty when some cell center of the GRID_STEP grid
    over the group's bounding box, clipped to the environment, lies in every
    disk of the group, or when some target's initial position does (a region
    thinner than the grid can still hold a target). The result lists all such
    groups (maximal or not), ordered by size then member ids. More than
    MAX_SETS groups is a ScenarioError.

    Most pairs are decided without a grid scan: a pair whose centers are
    farther apart than the sum of the radii is rejected, and a pair is
    accepted when the cell center nearest the middle of its lens lies in both
    disks. Larger groups are scanned, SCAN_CELLS cells at a time up to the
    first hit. Size-k candidates extend each nonempty (k-1)-group with a
    larger id whose disk can reach its last member's, and only when every
    (k-1)-subset is nonempty.
    """
    env = scenario.environment
    by_id = {s.id: s for s in scenario.sensors}
    ids = sorted(by_id)
    targets = np.array([t.position for t in scenario.targets], dtype=float).reshape(-1, 2)

    def inside_all(disks, x, y) -> np.ndarray:
        mask = True  # x and y may broadcast to a larger shape than either
        for s in disks:
            mask = mask & ((x - s.center[0]) ** 2 + (y - s.center[1]) ** 2 <= s.radius * s.radius)
        return mask

    def lens_middle(a, b) -> tuple[float, float]:
        dx, dy = b.center[0] - a.center[0], b.center[1] - a.center[1]
        d = math.hypot(dx, dy)
        if d == 0:
            return a.center
        # the center line crosses the lens at these distances from a's center
        t = (max(-a.radius, d - b.radius) + min(a.radius, d + b.radius)) / 2
        return (a.center[0] + t * dx / d, a.center[1] + t * dy / d)

    def nonempty(group: tuple[int, ...]) -> bool:
        disks = [by_id[j] for j in group]
        if len(disks) == 2:
            a, b = disks
            if math.dist(a.center, b.center) > (a.radius + b.radius) * (1 + 1e-9):
                return False  # no point passes both `<=` tests of `inside_all`
        lo_x = max(max(s.center[0] - s.radius for s in disks), 0.0)
        hi_x = min(min(s.center[0] + s.radius for s in disks), env.width)
        lo_y = max(max(s.center[1] - s.radius for s in disks), 0.0)
        hi_y = min(min(s.center[1] + s.radius for s in disks), env.height)
        i0 = max(0, math.ceil(lo_x / GRID_STEP - 0.5))
        i1 = math.floor(hi_x / GRID_STEP - 0.5)
        k0 = max(0, math.ceil(lo_y / GRID_STEP - 0.5))
        k1 = math.floor(hi_y / GRID_STEP - 0.5)
        has_cells = lo_x < hi_x and lo_y < hi_y and i0 <= i1 and k0 <= k1
        if len(disks) == 2 and has_cells:
            wx, wy = lens_middle(*disks)
            i = min(max(round(wx / GRID_STEP - 0.5), i0), i1)
            k = min(max(round(wy / GRID_STEP - 0.5), k0), k1)
            # inside_all at one cell center, on floats: `*`, as float `**` is libm's pow
            x, y = (i + 0.5) * GRID_STEP, (k + 0.5) * GRID_STEP
            if all((x - s.center[0]) * (x - s.center[0]) + (y - s.center[1]) * (y - s.center[1])
                   <= s.radius * s.radius for s in disks):
                return True
        if inside_all(disks, targets[:, 0], targets[:, 1]).any():
            return True
        if not has_cells:
            return False
        ys = _cells(k0, k1)
        rows = max(1, SCAN_CELLS // len(ys))
        return any(inside_all(disks, _cells(i, min(i + rows - 1, i1))[:, None], ys).any()
                   for i in range(i0, i1 + 1, rows))

    # A group is extended only by larger ids within reach of its last member.
    # The reach bound is looser than nonempty's own rejection of a pair, so
    # every pair nonempty accepts is in reach, and nonempty still decides.
    centers = np.array([by_id[j].center for j in ids], dtype=float).reshape(-1, 2)
    radii = np.array([by_id[j].radius for j in ids], dtype=float)
    d = centers[:, None] - centers
    near = np.triu((d * d).sum(-1) <= ((radii[:, None] + radii) * (1 + 1e-6)) ** 2, 1)
    reach = {a: [ids[b] for b in np.flatnonzero(row).tolist()] for a, row in zip(ids, near)}

    # Groups are sorted tuples and each layer is in lexicographic order, so
    # the result comes out ordered by size then members.
    layer = [(j,) for j in ids]
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
        result += map(frozenset, layer)
        if len(result) > MAX_SETS:
            raise ScenarioError(f"more than MAX_SETS = {MAX_SETS} collaborative sets")
    return result


def component_counts(members_map: MembershipMap, sets: list[frozenset[int]]) -> CollaborativeStructure:
    """Attribute each observed target to a unique count or to the collaborative
    set equal to its observer group.

    Raises GeometryError when a multi-observed target's group is missing from
    `sets`. `collaborative_sets` counts every group that observes a target at
    its initial position, so this needs other positions, in a region thinner
    than the grid.
    """
    unique: dict[int, int] = {}
    collab: dict[frozenset[int], int] = {fs: 0 for fs in sets}
    for tid in sorted(members_map):
        group = members_map[tid]
        if len(group) == 0:
            continue
        if len(group) == 1:
            (j,) = group
            unique[j] = unique.get(j, 0) + 1
        else:
            if group not in collab:
                raise GeometryError(
                    f"target {tid} is observed by {sorted(group)} but that group "
                    "was not enumerated as a collaborative set"
                )
            collab[group] += 1
    ordered = sorted(collab, key=_set_key)
    return CollaborativeStructure(
        sets=tuple(CollaborativeSet(fs, collab[fs]) for fs in ordered),
        unique_counts=unique,
    )


def initial_structure(scenario: Scenario) -> CollaborativeStructure:
    """Collaborative sets and their component counts at the targets' initial
    positions."""
    sets = collaborative_sets(scenario)
    members = membership(scenario, [t.position for t in scenario.targets])
    return component_counts(members, sets)
