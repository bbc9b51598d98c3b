"""Timed trajectories: waypoint sequences with waits, position queries, cost."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from .geometry import Cell, Point

_ARITH_TOL = 1e-6


class Waypoint(NamedTuple):
    cell: Cell
    arrival: float
    wait: float  # math.inf on the final waypoint (the agent parks there)


@dataclass
class Trajectory:
    """A ``<path, wait-list>`` pair: straight segments between cell centers at
    unit speed, with waits allowed only at segment start points. The final
    waypoint carries an infinite wait.

    Construction validates the waypoints, then decomposes them once into
    ``_pieces`` (:meth:`affine_pieces`), their start times ``_starts`` and
    ``_box``: (least x, least y, greatest x, greatest y) over the first start
    and every end of the pieces, a box the center never leaves."""

    waypoints: List[Waypoint]

    def __post_init__(self):
        wps = self.waypoints
        if not wps:
            raise ValueError("trajectory needs at least one waypoint")
        if not abs(wps[0].arrival) <= 1e-9:
            raise ValueError(f"first arrival must be 0, got {wps[0].arrival}")
        if wps[-1].wait != math.inf:
            raise ValueError("final waypoint must carry an infinite wait")
        if not isinstance(wps[0].cell, tuple):
            raise ValueError(f"waypoint 0 has cell {wps[0].cell!r}, not a tuple")
        for i, ((cell, arrival, wait), (nxt, nxt_arrival, _)) in enumerate(zip(wps, wps[1:])):
            if not isinstance(nxt, tuple):
                raise ValueError(f"waypoint {i+1} has cell {nxt!r}, not a tuple")
            if not 0 <= wait < math.inf:
                raise ValueError(f"waypoint {i} has bad wait {wait}")
            if nxt == cell:
                raise ValueError(f"consecutive waypoints {i},{i+1} share cell {cell}")
            expect = arrival + wait + math.hypot(nxt[0] - cell[0], nxt[1] - cell[1])
            if not abs(nxt_arrival - expect) <= _ARITH_TOL:
                raise ValueError(
                    f"arrival {nxt_arrival} at waypoint {i+1} inconsistent, expected {expect}"
                )
        pieces = self._pieces = self.affine_pieces()
        self._starts = [p[0] for p in pieces]
        lo_x = hi_x = pieces[0][2]
        lo_y = hi_y = pieces[0][3]
        for p in pieces:
            x, y = p[6], p[7]
            if x < lo_x:
                lo_x = x
            elif x > hi_x:
                hi_x = x
            if y < lo_y:
                lo_y = y
            elif y > hi_y:
                hi_y = y
        self._box = (lo_x, lo_y, hi_x, hi_y)

    def cost(self) -> float:
        """Sum of segment lengths and finite waits; equals the final arrival."""
        return self.waypoints[-1].arrival

    def position_at(self, time: float) -> Point:
        """Position at ``time`` (the start before 0), from the pieces."""
        if math.isnan(time):
            raise ValueError("position_at needs a time, got nan")
        t0, _, x0, y0, vx, vy, _, _ = self._pieces[max(bisect_right(self._starts, time) - 1, 0)]
        if time <= t0 or (vx == 0.0 and vy == 0.0):
            return (x0, y0)
        return (x0 + (time - t0) * vx, y0 + (time - t0) * vy)

    def affine_pieces(self) -> List[Tuple[float, ...]]:
        """Maximal (t0, t1, x0, y0, vx, vy, x1, y1) pieces covering [0, inf):
        position (x0, y0) + (t - t0) * (vx, vy) on [t0, t1], ending at
        (x1, y1). A wait or the terminal stay has zero velocity and ends
        where it starts; the terminal stay's t1 is inf.

        Maximal means that a move piece runs on over every waypoint where
        the agent neither waits nor turns: one piece covers each straight
        run of segments that point the same way, so a cardinal path of k
        collinear cells is one piece, not k. No two consecutive move pieces
        point the same way, and a wait or a turn always starts a new one."""
        pieces = []
        wps = self.waypoints
        last = len(wps) - 1
        i = 0
        while i < last:
            wp = wps[i]
            x, y = float(wp.cell[0]), float(wp.cell[1])
            depart = wp.arrival + wp.wait
            if wp.wait > 0.0:
                pieces.append((wp.arrival, depart, x, y, 0.0, 0.0, x, y))
            # Run on while the next segment points the same way (cells are
            # integers, so the cross and dot products are exact).
            j = i + 1
            dx, dy = wps[j].cell[0] - wp.cell[0], wps[j].cell[1] - wp.cell[1]
            while j < last and wps[j].wait == 0.0:
                (cx, cy), (nx, ny) = wps[j].cell, wps[j + 1].cell
                if dx * (ny - cy) != dy * (nx - cx) or dx * (nx - cx) + dy * (ny - cy) <= 0:
                    break
                j += 1
            end = wps[j]
            bx, by = float(end.cell[0]), float(end.cell[1])
            dur = end.arrival - depart
            pieces.append((depart, end.arrival, x, y, (bx - x) / dur, (by - y) / dur, bx, by))
            i = j
        wp = wps[last]
        x, y = float(wp.cell[0]), float(wp.cell[1])
        pieces.append((wp.arrival, math.inf, x, y, 0.0, 0.0, x, y))
        return pieces


def format_trajectory(traj: Trajectory) -> List[str]:
    """One ``col row arrival wait`` line per waypoint, terminal wait ``inf``."""
    out = []
    for wp in traj.waypoints:
        wait = "inf" if math.isinf(wp.wait) else repr(wp.wait)
        out.append(f"{wp.cell[0]} {wp.cell[1]} {wp.arrival!r} {wait}")
    return out
