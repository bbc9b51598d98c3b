"""Independent continuous-time conflict checking.

Trajectories are decomposed into maximal affine pieces; on each overlapping
piece pair the squared center distance is a quadratic in time whose minimum
is found in closed form. This deliberately shares nothing with the planner's
interval arithmetic beyond the trajectory model itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Tuple

from .geometry import Cell, Point
from .trajectory import Trajectory

# Centers closer than this conflict; exactly one diameter apart is legal
# because the agents are open disks.
_THRESHOLD = 1.0 - 1e-9
_THR2 = _THRESHOLD * _THRESHOLD


@dataclass
class Conflict:
    time: float
    agent_a: int
    agent_b: int
    position_a: Point
    position_b: Point


@dataclass
class ValidationReport:
    conflicts: List[Conflict] = field(default_factory=list)
    static_violations: List[Tuple[int, int, Cell]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.static_violations


def first_conflict(
    t1: Trajectory, t2: Trajectory, agent_a: int = 0, agent_b: int = 1
) -> Optional[Conflict]:
    """Earliest time the two open disks overlap, or None.

    Checks the full timeline including the infinite parked tails. It reads
    the pieces, and the bounding box of their end points, that each
    trajectory computed at construction, so a solution's pairwise check
    decomposes no trajectory. Two trajectories whose boxes lie at
    least one diameter apart in x or in y keep their centers that far apart
    at all times, so they return None before the sweep over the pieces (a
    NaN coordinate fails the test and goes on to the sweep).
    """
    ax0, ay0, ax1, ay1 = t1._box
    bx0, by0, bx1, by1 = t2._box
    if bx0 - ax1 >= 1.0 or ax0 - bx1 >= 1.0 or by0 - ay1 >= 1.0 or ay0 - by1 >= 1.0:
        return None
    pieces1, starts1 = t1._pieces, t1._starts
    pieces2, starts2 = t2._pieces, t2._starts
    cuts = sorted(set(starts1).union(starts2))
    last1, last2 = len(pieces1) - 1, len(pieces2) - 1
    i1 = i2 = 0
    for alpha, beta in zip(cuts, cuts[1:] + [math.inf]):
        # The piece of each trajectory in force at alpha: the last one that
        # starts at or before it (the first one if none does).
        while i1 < last1 and starts1[i1 + 1] <= alpha:
            i1 += 1
        while i2 < last2 and starts2[i2 + 1] <= alpha:
            i2 += 1
        q1 = pieces1[i1]
        q2 = pieces2[i2]
        x1 = q1[2] + q1[4] * (alpha - q1[0])
        y1 = q1[3] + q1[5] * (alpha - q1[0])
        x2 = q2[2] + q2[4] * (alpha - q2[0])
        y2 = q2[3] + q2[5] * (alpha - q2[0])
        dx, dy = x1 - x2, y1 - y2
        dvx, dvy = q1[4] - q2[4], q1[5] - q2[5]
        d2 = dx * dx + dy * dy
        hit_at = None
        if d2 < _THR2:
            hit_at = alpha
        else:
            a2 = dvx * dvx + dvy * dvy
            if a2 > 0.0:
                b2 = 2.0 * (dx * dvx + dy * dvy)
                c2 = d2 - _THR2
                disc = b2 * b2 - 4.0 * a2 * c2
                if disc > 0.0:
                    enter = (-b2 - math.sqrt(disc)) / (2.0 * a2)
                    if 0.0 <= enter <= beta - alpha:
                        hit_at = alpha + enter
        if hit_at is not None:
            return Conflict(
                hit_at, agent_a, agent_b,
                t1.position_at(hit_at), t2.position_at(hit_at),
            )
    return None


def validate_solution(instance, solution) -> ValidationReport:
    """Re-check a multi-agent solution from scratch: pairwise separation at
    all times plus static clearance of every segment and endpoint pinning.

    Endpoint problems are recorded as static violations with segment
    index -1. Missing trajectories (failed agents) are skipped, but the
    solution must hold one entry per agent, else ValueError.

    Each trajectory's waypoints are looked up in one
    :meth:`GridMap.cells_traversable` call; only when it fails are they
    looked up one by one to list the failures. The segments are swept only
    on a grid with a blocked cell, or where a waypoint failed: on an open
    grid a move between two free cell centers sweeps only cells of their
    bounding box, which are all free.
    """
    trajectories = getattr(solution, "trajectories", solution)
    if len(trajectories) != len(instance.agents):
        raise ValueError(f"{len(trajectories)} trajectories for {len(instance.agents)} agents")
    report = ValidationReport()
    grid = instance.grid
    present = [(i, traj) for i, traj in enumerate(trajectories) if traj is not None]
    for i, traj in present:
        start, goal = instance.agents[i]
        wps = traj.waypoints
        if wps[0].cell != tuple(start) or abs(wps[0].arrival) > 1e-9:
            report.static_violations.append((i, -1, wps[0].cell))
        if wps[-1].cell != tuple(goal):
            report.static_violations.append((i, -1, wps[-1].cell))
        free = grid.cells_traversable([wp.cell for wp in wps])
        if not free:
            report.static_violations += [(i, j, wp.cell) for j, wp in enumerate(wps)
                                         if not grid.is_traversable(wp.cell)]
        if grid.any_blocked or not free:
            for j, (a, b) in enumerate(zip(wps, wps[1:])):
                if not grid.move_is_feasible(a.cell, b.cell):
                    report.static_violations.append((i, j, b.cell))
    for (i, traj_i), (j, traj_j) in combinations(present, 2):
        c = first_conflict(traj_i, traj_j, i, j)
        if c is not None:
            report.conflicts.append(c)
    return report
