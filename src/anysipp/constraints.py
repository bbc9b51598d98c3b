"""Dynamic-obstacle bookkeeping for safe-interval search.

Two views of the same obstacle trajectories are maintained:

* per-cell *safe intervals*, the time windows during which an agent parked at
  a cell center keeps its center at least one diameter from every obstacle
  center; these identify search states, and

* per-cell *constraints* ``[p, time(p)]`` marking when an obstacle center
  passes the point of its path closest to the cell center; these drive the
  conservative collision intervals that bound earliest arrival times for
  moves.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import Cell, circle_segment_intersections, swept_cells
from .trajectory import Trajectory

TOL = 1e-9
INF = math.inf

# Obstacles are disks of radius 0.5, so centers conflict within 1.0 and a
# constraint can influence moves up to 2.0 away; collision intervals extend
# 2.0 time units to each side of a constraint.
CONFLICT_DIST = 1.0
RELEVANCE_DIST = 2.0
TIME_MARGIN = 2.0


class Constraint(NamedTuple):
    x: float
    y: float
    time: float
    hold: bool  # obstacle occupies p from `time` on (parked at its goal)
    # Local affine model of the obstacle around this marker: velocity and the
    # time bounds of the trajectory piece the marker was generated from.
    ux: float = 0.0
    uy: float = 0.0
    t0: float = 0.0
    t1: float = INF


class TimeInterval(NamedTuple):
    start: float
    end: float


class DepartureGuard(NamedTuple):
    """Exact local screen for constraints whose closest point on a move is
    the move's own start. The conservative interval treatment would veto the
    departure whenever the obstacle passes nearby in time, even though the
    agent is strictly receding; instead the pair of constant-velocity motions
    is checked in closed form over the marker's covered window [w0, w1]."""

    px: float
    py: float
    tp: float
    ux: float
    uy: float
    w0: float
    w1: float


class ConstraintTable:
    """Per-cell constraints and path-pass index for a set of obstacle
    trajectories. Built incrementally: each trajectory is traced once, as
    soon as it is planned."""

    def __init__(self):
        self.cells: Dict[Cell, List[Constraint]] = {}
        # Affine pieces (see Trajectory.affine_pieces) by the cells they touch.
        self._passes: Dict[Cell, list] = {}

    def add_trajectory(self, traj: Trajectory) -> None:
        cells = self.cells
        passes = self._passes
        for piece in traj.affine_pieces():
            for cell in swept_cells(piece[2:4], piece[6:8]):
                passes.setdefault(cell, []).append(piece)

        wps = traj.waypoints
        for i in range(len(wps) - 1):
            wp, nxt = wps[i], wps[i + 1]
            ax, ay = float(wp.cell[0]), float(wp.cell[1])
            bx, by = float(nxt.cell[0]), float(nxt.cell[1])
            depart = wp.arrival + wp.wait
            arrive = nxt.arrival
            dx, dy = bx - ax, by - ay
            den = dx * dx + dy * dy
            seg_len = math.sqrt(den)
            vx, vy = dx / seg_len, dy / seg_len
            start_markers = None
            for cell in swept_cells(wp.cell, nxt.cell):
                t = ((cell[0] - ax) * dx + (cell[1] - ay) * dy) / den
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                s = t * seg_len
                lst = cells.setdefault(cell, [])
                if s <= TOL:
                    if start_markers is None:
                        start_markers = _wait_markers(ax, ay, wp.arrival, depart)
                    lst.extend(start_markers)
                else:
                    lst.append(
                        Constraint(
                            ax + t * dx, ay + t * dy, depart + s, False,
                            vx, vy, depart, arrive,
                        )
                    )
        goal = wps[-1]
        cells.setdefault(goal.cell, []).append(
            Constraint(
                float(goal.cell[0]), float(goal.cell[1]), goal.arrival, True,
                0.0, 0.0, goal.arrival, INF,
            )
        )

    def constraints_at(self, cell) -> List[Constraint]:
        return self.cells.get(tuple(cell), [])

    def safe_intervals_at(self, cell) -> Tuple[TimeInterval, ...]:
        pieces = self._passes.get(tuple(cell))
        if not pieces:
            return (TimeInterval(0.0, INF),)
        cx, cy = float(cell[0]), float(cell[1])
        windows = _merge(_piece_windows(cx, cy, pieces))
        return _complement(windows)


def _wait_markers(x: float, y: float, arrival: float, depart: float) -> List[Constraint]:
    """Markers for an obstacle sitting at (x, y) from arrival to departure,
    spaced one diameter of travel apart, last one exactly at departure."""
    out = []
    t = arrival
    while t < depart - TOL:
        out.append(Constraint(x, y, t, False, 0.0, 0.0, arrival, depart))
        t += CONFLICT_DIST
    out.append(Constraint(x, y, depart, False, 0.0, 0.0, arrival, depart))
    return out


def build_table(obstacles: Sequence[Trajectory]) -> ConstraintTable:
    table = ConstraintTable()
    for traj in obstacles:
        table.add_trajectory(traj)
    return table


def _piece_windows(cx: float, cy: float, pieces) -> List[Tuple[float, float]]:
    """Exact time windows during which a piece keeps the obstacle center
    strictly within one diameter of (cx, cy). A wait is a zero-length piece:
    no crossing, so it is inside for its whole span or not at all."""
    windows = []
    for depart, arrive, ax, ay, _, _, bx, by in pieces:
        hits = circle_segment_intersections((cx, cy), CONFLICT_DIST, (ax, ay), (bx, by))
        a_in = math.hypot(ax - cx, ay - cy) < CONFLICT_DIST - TOL
        b_in = math.hypot(bx - cx, by - cy) < CONFLICT_DIST - TOL
        if len(hits) == 2:
            lo, hi = depart + hits[0][1], depart + hits[1][1]
        elif len(hits) == 1:
            s = hits[0][1]
            if a_in:
                lo, hi = depart, depart + s
            elif b_in:
                lo, hi = depart + s, arrive
            else:
                continue  # tangency, measure zero
        elif a_in:
            lo, hi = depart, arrive
        else:
            continue
        if hi - lo > TOL:
            windows.append((lo, hi))
    return windows


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + TOL:
            if hi > mhi:
                merged[-1] = (mlo, hi)
        else:
            merged.append((lo, hi))
    return merged


def _complement(windows: List[Tuple[float, float]]) -> Tuple[TimeInterval, ...]:
    out = []
    t = 0.0
    for lo, hi in windows:
        if lo > t + TOL:
            out.append(TimeInterval(t, lo))
        if hi > t:
            t = hi
        if math.isinf(t):
            return tuple(out)
    out.append(TimeInterval(t, INF))
    return tuple(out)


def relevant_constraints(move_a, move_b, table: ConstraintTable) -> List[Constraint]:
    """Constraints that can interact with the move a -> b: those attached to
    cells swept by both the obstacle paths and the move, closer than two
    diameters to the move segment."""
    cells = swept_cells(move_a, move_b)
    return _relevant_from_cells(cells, move_a, move_b, table)


def _relevant_from_cells(cells, move_a, move_b, table) -> List[Constraint]:
    ax, ay = float(move_a[0]), float(move_a[1])
    bx, by = float(move_b[0]), float(move_b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    table_cells = table.cells
    seen = set()
    out = []
    for cell in cells:
        for k in table_cells.get(cell, ()):
            if k in seen:
                continue
            seen.add(k)
            if den > 0.0:
                t = ((k.x - ax) * dx + (k.y - ay) * dy) / den
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                px, py = ax + t * dx, ay + t * dy
            else:
                px, py = ax, ay
            if math.hypot(k.x - px, k.y - py) < RELEVANCE_DIST - TOL:
                out.append(k)
    return out


def collision_intervals_for_move(move_a, move_b, constraints: Sequence[Constraint]) -> List[TimeInterval]:
    """Arrival times at move_b that would bring the agent too close to an
    obstacle near some constraint point; overlapping intervals are merged.

    Constraints whose closest point on the move is the move's *start* are
    skipped: the agent only recedes from them while moving, and its dwell at
    the start is governed exactly by that cell's safe intervals. Keeping
    them would veto departures the interval machinery has already certified
    (and did veto provably-safe escapes from brushed start cells).
    """
    ax, ay = float(move_a[0]), float(move_a[1])
    bx, by = float(move_b[0]), float(move_b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    raw = []
    for k in constraints:
        if den > 0.0:
            t = ((k.x - ax) * dx + (k.y - ay) * dy) / den
            if t <= 0.0:
                continue
            if t > 1.0:
                t = 1.0
            px, py = ax + t * dx, ay + t * dy
        else:
            px, py = ax, ay
        offset = math.hypot(bx - px, by - py)
        lo = k.time - TIME_MARGIN + offset
        hi = INF if k.hold else k.time + TIME_MARGIN + offset
        raw.append((lo, hi))
    return [TimeInterval(lo, hi) for lo, hi in _merge(raw)]


def departure_guards(move_a, move_b, constraints: Sequence[Constraint]) -> List[DepartureGuard]:
    """Guards for constraints whose closest point on the move is its start:
    the agent only recedes from these while moving, so instead of the blanket
    time margin each one is screened exactly against the obstacle's local
    motion (see earliest_arrival)."""
    ax, ay = float(move_a[0]), float(move_a[1])
    bx, by = float(move_b[0]), float(move_b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    out = []
    for k in constraints:
        if den > 0.0:
            t = ((k.x - ax) * dx + (k.y - ay) * dy) / den
            if t > 0.0:
                continue
        w0 = max(k.t0, k.time - CONFLICT_DIST)
        w1 = k.t1 if k.hold else min(k.t1, k.time + CONFLICT_DIST)
        if w1 > w0 + TOL:
            out.append(DepartureGuard(k.x, k.y, k.time, k.ux, k.uy, w0, w1))
    return out


def _guard_violated(g: DepartureGuard, sx, sy, vx, vy, depart, arrive) -> bool:
    """Closed-form check: do the agent (departing (sx,sy) at `depart` along
    unit velocity v) and the obstacle's local motion around the marker come
    strictly within one diameter during the overlap of the move with the
    marker's window?"""
    lo = depart if depart > g.w0 else g.w0
    hi = arrive if arrive < g.w1 else g.w1
    if hi <= lo + TOL:
        return False
    # relative position at `lo` and relative velocity
    rx = (sx + (lo - depart) * vx) - (g.px + (lo - g.tp) * g.ux)
    ry = (sy + (lo - depart) * vy) - (g.py + (lo - g.tp) * g.uy)
    wx, wy = vx - g.ux, vy - g.uy
    span = hi - lo
    w2 = wx * wx + wy * wy
    tau = 0.0
    if w2 > 0.0:
        tau = -(rx * wx + ry * wy) / w2
        if tau < 0.0:
            tau = 0.0
        elif tau > span:
            tau = span
    mx, my = rx + tau * wx, ry + tau * wy
    return mx * mx + my * my < (CONFLICT_DIST - TOL) ** 2


def earliest_arrival(
    cols: Sequence[TimeInterval],
    start_t: float,
    end_t: float,
    interval: TimeInterval,
    guards: Sequence[DepartureGuard] = (),
    move_start=None,
    move_end=None,
) -> Optional[float]:
    """Earliest arrival time within `interval`, pushing past collision
    intervals. Arrival exactly at either endpoint of a collision interval is
    allowed (the margins already embed a diameter of slack per side), so the
    push fires only strictly inside. Departure guards, when given, veto
    arrivals whose departure provably meets the guarded obstacle; a veto
    pushes past the guard's window. None when the push overshoots `end_t`
    or the interval."""
    t = start_t if start_t > interval.start else interval.start
    if guards:
        ax, ay = float(move_start[0]), float(move_start[1])
        bx, by = float(move_end[0]), float(move_end[1])
        seg_len = math.hypot(bx - ax, by - ay)
        vx, vy = (bx - ax) / seg_len, (by - ay) / seg_len
    while True:
        moved = False
        for lo, hi in cols:
            if t <= lo + TOL:
                break
            if t < hi:
                t = hi
                moved = True
        if math.isinf(t) or t > end_t + TOL or t > interval.end + TOL:
            return None
        for g in guards:
            if _guard_violated(g, ax, ay, vx, vy, t - seg_len, t):
                release = g.w1 + seg_len
                if release > t:
                    t = release
                    moved = True
        if not moved:
            break
    if math.isinf(t) or t > end_t + TOL or t > interval.end + TOL:
        return None
    return t
