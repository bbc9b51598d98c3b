"""Dynamic-obstacle bookkeeping for safe-interval search.

The table keeps one model of the obstacle trajectories, their affine pieces
(see ``Trajectory.affine_pieces``) indexed by the cells they sweep, and
offers two exact views of it. Both test one conflict, a squared center
distance below ``_WINDOW_R2``, with the one chord solver ``_chord``:

* per-cell *safe intervals*, the time windows during which an agent parked at
  a cell center keeps its center at least one diameter from every obstacle
  center; these identify search states, and

* per-move *collision windows*, the arrival times at which an agent moving
  straight from a to b at unit speed would come within one diameter of an
  obstacle. For one piece the conflicting departures form a single interval
  with closed-form end points (``_departure_window``); a move's windows are
  those of the pieces in its swept cells, merged.

If two centers come within one diameter, the cell holding their midpoint is
swept by both disks, so the pieces indexed under a move's swept cells are
all the pieces it can meet.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .geometry import Cell, sweep_octant, swept_cells
from .trajectory import Trajectory

TOL = 1e-9
INF = math.inf

# Safe intervals and move windows are both computed for a disk of squared
# radius 1 - TOL, a hair inside the diameter: touches at exactly one
# diameter, which the grid makes common, stay outside it despite rounding.
# Within one window every distance the validator calls a conflict (below
# 1 - 1e-9) stays inside, but not through earliest_arrival's TOL slack past a
# window's start: it can leave two centers about 1e-9 under the validator's
# threshold (the rooms-map xfail in tests/test_prioritized.py).
_WINDOW_R2 = 1.0 - TOL


class TimeInterval(NamedTuple):
    start: float
    end: float


class ConstraintTable:
    """Obstacle trajectories as affine pieces indexed by the cells they
    sweep. Built incrementally: each trajectory is added once, as soon as it
    is planned."""

    def __init__(self, trajectories: Iterable[Trajectory] = ()):
        # Affine pieces (see Trajectory.affine_pieces) by the cells they touch.
        self._passes: Dict[Cell, list] = {}
        for traj in trajectories:
            self.add_trajectory(traj)

    def add_trajectory(self, traj: Trajectory) -> None:
        passes = self._passes
        for piece in traj._pieces:
            for cell in swept_cells(piece[2:4], piece[6:8]):
                passes.setdefault(cell, []).append(piece)

    def safe_intervals_at(self, cell) -> Tuple[TimeInterval, ...]:
        pieces = self._passes.get(tuple(cell))
        if not pieces:
            return (TimeInterval(0.0, INF),)
        cx, cy = float(cell[0]), float(cell[1])
        windows = _merge(_piece_windows(cx, cy, pieces))
        return _complement(windows)


def _chord(rx: float, ry: float, vx: float, vy: float, vv: float):
    """The open range (lo, hi) of k with |r - k*v|^2 < _WINDOW_R2, or None:
    the chord the line r - k*v cuts from the disk. vv = |v|^2 > 0."""
    h = rx * vy - ry * vx
    disc = vv * _WINDOW_R2 - h * h
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    mid = rx * vx + ry * vy
    return (mid - root) / vv, (mid + root) / vv


def _piece_windows(cx: float, cy: float, pieces) -> List[Tuple[float, float]]:
    """Time windows during which a piece p + w*v keeps the obstacle center in
    conflict with c = (cx, cy), |c - p - w*v|^2 < _WINDOW_R2: one chord of w,
    cut to the piece's span. A wait or the terminal stay is inside for its
    whole span or not at all."""
    r2 = _WINDOW_R2
    windows = []
    for t0, t1, px, py, vx, vy, _, _ in pieces:
        rx, ry = cx - px, cy - py
        if vx == 0.0 and vy == 0.0:
            if rx * rx + ry * ry >= r2:
                continue
            lo, hi = t0, t1
        else:
            chord = _chord(rx, ry, vx, vy, vx * vx + vy * vy)
            if chord is None:
                continue
            w_lo, w_hi = chord
            lo = t0 + w_lo if w_lo > 0.0 else t0
            hi = t0 + w_hi if w_hi < t1 - t0 else t1
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


def _relevant_from_cells(a, b, table: ConstraintTable) -> list:
    """The distinct pieces indexed under the swept cells of the move a -> b
    between cell centers, in :func:`swept_cells`' order: every piece that can
    come within one diameter of the move. The cells are scanned in place
    from :func:`sweep_octant`'s first-octant offsets."""
    passes = table._passes
    found = {}
    offsets, sx, sy, swap = sweep_octant(a, b)
    x, y = a
    for u, v in offsets:
        cell = (x + sx * v, y + sy * u) if swap else (x + sx * u, y + sy * v)
        for piece in passes.get(cell, ()):
            found[id(piece)] = piece
    return list(found.values())


def collision_intervals_for_move(move_a, move_b, pieces) -> List[TimeInterval]:
    """Arrival times at move_b at which the agent, having left move_a at unit
    speed, would come strictly within one diameter of an obstacle piece on
    the way; open intervals, sorted and merged. The agent's dwell before
    departure and after arrival is the cells' safe intervals' business."""
    ax, ay = float(move_a[0]), float(move_a[1])
    dx, dy = move_b[0] - ax, move_b[1] - ay
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    windows = []
    for piece in pieces:
        window = _departure_window(ax, ay, ux, uy, length, piece)
        if window is not None:
            windows.append(window)
    return [TimeInterval(lo + length, hi + length) for lo, hi in _merge(windows)]


def _departure_window(ax, ay, ux, uy, length, piece):
    """Departure times d from (ax, ay) along unit direction u that bring the
    agent within one diameter of the piece, as one open interval (lo, hi),
    or None.

    The agent is at a + s*u at time d + s, the obstacle at p + w*v at time
    t0 + w, so d conflicts when some (s, w) in [0, L] x [0, t1 - t0] with
    d = t0 + w - s has |c + s*u - w*v| < 1, c = a - p. That set of (s, w) is
    a rectangle cut by an ellipse (a strip when u and v are parallel), which
    is convex, so its d-range is one interval whose end points are the least
    and greatest d over: the rectangle's corners inside the disk, the disk's
    crossings of the rectangle's edges, and the ellipse's two d-extreme
    points (relative position perpendicular to u - v). Range tests err
    outward by TOL so that rounding cannot drop an extreme point."""
    t0, t1, px, py, vx, vy, qx, qy = piece
    r2 = _WINDOW_R2
    cx, cy = ax - px, ay - py
    if vx == 0.0 and vy == 0.0:
        # A wait or the terminal stay: the conflicting part of the agent's
        # path is one chord (s_lo, s_hi), and it conflicts at any departure
        # that puts the piece's span over the chord.
        chord = _chord(cx, cy, -ux, -uy, 1.0)
        if chord is None:
            return None
        s_lo, s_hi = chord
        s_lo = s_lo if s_lo > 0.0 else 0.0
        s_hi = s_hi if s_hi < length else length
        if s_hi <= s_lo:
            return None
        return t0 - s_hi, t1 - s_lo
    span = t1 - t0
    # Relative positions at the corners (s, w) = (0, 0), (L, 0), (0, span)
    # and (L, span), with the departure each one stands for.
    lx, ly = cx + length * ux, cy + length * uy
    ex, ey = ax - qx, ay - qy
    corners = (
        (cx, cy, t0), (lx, ly, t0 - length),
        (ex, ey, t1), (ex + length * ux, ey + length * uy, t1 - length),
    )
    ds = [d for rx, ry, d in corners if rx * rx + ry * ry < r2]
    # Edges w = 0 and w = span: |r - s*(-u)|^2 = r2 for s in [0, L].
    s_max = length + TOL
    for rx, ry, base in ((cx, cy, t0), (ex, ey, t1)):
        for s in _chord(rx, ry, -ux, -uy, 1.0) or ():
            if -TOL <= s <= s_max:
                ds.append(base - s)
    # Edges s = 0 and s = L: |r - w*v|^2 = r2 for w in [0, span].
    vv = vx * vx + vy * vy
    w_max = span + TOL
    for rx, ry, base in ((cx, cy, t0), (lx, ly, t0 - length)):
        for w in _chord(rx, ry, vx, vy, vv) or ():
            if -TOL <= w <= w_max:
                ds.append(base + w)
    # The ellipse's d-extreme points: c + s*u - w*v = +-rho * n with n the
    # unit normal of u - v, solved for (s, w) by Cramer's rule.
    k = ux * vy - uy * vx
    if k != 0.0:
        gx, gy = ux - vx, uy - vy
        scale = math.sqrt(r2 / (gx * gx + gy * gy))
        nx, ny = -gy * scale, gx * scale
        for fx, fy in ((nx - cx, ny - cy), (-nx - cx, -ny - cy)):
            s = (fx * vy - fy * vx) / k
            w = (fx * uy - fy * ux) / k
            if -TOL <= s <= s_max and -TOL <= w <= w_max:
                ds.append(t0 + w - s)
    if not ds:
        return None
    lo, hi = min(ds), max(ds)
    return (lo, hi) if hi > lo else None


def earliest_arrival(cols, start_t: float, end_t: float, interval: TimeInterval):
    """Earliest arrival time in `interval`, no earlier than `start_t`, that
    lies in none of the sorted, merged open collision windows `cols`: an
    arrival inside a window is pushed to its end. The windows are exact, so
    an arrival at either end point is allowed, and so is one within TOL
    past a window's start: a piece that only touches the move at one
    diameter can leave a window about TOL wide, which must not push. None
    when the push overshoots `end_t` (the latest arrival the source state's
    interval allows) or the interval."""
    t = start_t if start_t > interval.start else interval.start
    for lo, hi in cols:
        if t <= lo + TOL:
            break
        if t < hi:
            t = hi
    if math.isinf(t) or t > end_t + TOL or t > interval.end + TOL:
        return None
    return t
