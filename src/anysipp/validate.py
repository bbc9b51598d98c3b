"""Independent continuous-time conflict checking.

Trajectories are decomposed into maximal affine pieces; on each overlapping
piece pair the squared center distance is a quadratic in time whose minimum
is found in closed form. This deliberately shares nothing with the planner's
interval arithmetic beyond the trajectory model itself.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
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


def _piece_at(pieces, starts, time: float):
    i = bisect_right(starts, time) - 1
    if i < 0:
        i = 0
    return pieces[i]


def first_conflict(
    t1: Trajectory, t2: Trajectory, agent_a: int = 0, agent_b: int = 1
) -> Optional[Conflict]:
    """Earliest time the two open disks overlap, or None.

    Checks the full timeline including the infinite parked tails.
    """
    pieces1 = t1.affine_pieces()
    pieces2 = t2.affine_pieces()
    starts1 = [p[0] for p in pieces1]
    starts2 = [p[0] for p in pieces2]
    cuts = sorted({p[0] for p in pieces1} | {p[0] for p in pieces2})
    spans = list(zip(cuts, cuts[1:])) + [(cuts[-1], math.inf)]
    for alpha, beta in spans:
        if beta <= alpha:
            continue
        q1 = _piece_at(pieces1, starts1, alpha)
        q2 = _piece_at(pieces2, starts2, alpha)
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
    index -1. Missing trajectories (failed agents) are skipped.
    """
    trajectories = getattr(solution, "trajectories", solution)
    report = ValidationReport()
    grid = instance.grid
    for i, traj in enumerate(trajectories):
        if traj is None:
            continue
        start, goal = instance.agents[i]
        wps = traj.waypoints
        if wps[0].cell != tuple(start) or abs(wps[0].arrival) > 1e-9:
            report.static_violations.append((i, -1, wps[0].cell))
        if wps[-1].cell != tuple(goal):
            report.static_violations.append((i, -1, wps[-1].cell))
        for j, wp in enumerate(wps):
            if not grid.is_traversable(wp.cell):
                report.static_violations.append((i, j, wp.cell))
        for j, (a, b) in enumerate(zip(wps, wps[1:])):
            if not grid.move_is_feasible(a.cell, b.cell):
                report.static_violations.append((i, j, b.cell))
    n = len(trajectories)
    for i in range(n):
        if trajectories[i] is None:
            continue
        for j in range(i + 1, n):
            if trajectories[j] is None:
                continue
            c = first_conflict(trajectories[i], trajectories[j], i, j)
            if c is not None:
                report.conflicts.append(c)
    return report
