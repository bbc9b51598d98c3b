"""Timed trajectories: waypoint sequences with waits, position queries, cost."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence, Tuple

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
    waypoint carries an infinite wait."""

    waypoints: List[Waypoint]
    _arrivals: List[float] = field(init=False, repr=False)

    def __post_init__(self):
        wps = self.waypoints
        if not wps:
            raise ValueError("trajectory needs at least one waypoint")
        if abs(wps[0].arrival) > 1e-9:
            raise ValueError(f"first arrival must be 0, got {wps[0].arrival}")
        if not math.isinf(wps[-1].wait):
            raise ValueError("final waypoint must carry an infinite wait")
        for i, wp in enumerate(wps[:-1]):
            if wp.wait < 0 or math.isinf(wp.wait):
                raise ValueError(f"waypoint {i} has bad wait {wp.wait}")
            nxt = wps[i + 1]
            if nxt.cell == wp.cell:
                raise ValueError(f"consecutive waypoints {i},{i+1} share cell {wp.cell}")
            hop = math.hypot(nxt.cell[0] - wp.cell[0], nxt.cell[1] - wp.cell[1])
            expect = wp.arrival + wp.wait + hop
            if abs(nxt.arrival - expect) > _ARITH_TOL:
                raise ValueError(
                    f"arrival {nxt.arrival} at waypoint {i+1} inconsistent, expected {expect}"
                )
        self._arrivals = [wp.arrival for wp in wps]

    @property
    def start_cell(self) -> Cell:
        return self.waypoints[0].cell

    @property
    def goal_cell(self) -> Cell:
        return self.waypoints[-1].cell

    @property
    def final_time(self) -> float:
        return self.waypoints[-1].arrival

    def cost(self) -> float:
        """Sum of segment lengths and finite waits; equals the final arrival."""
        return self.waypoints[-1].arrival

    def position_at(self, time: float) -> Point:
        wps = self.waypoints
        if time >= wps[-1].arrival:
            gc = wps[-1].cell
            return (float(gc[0]), float(gc[1]))
        i = bisect_right(self._arrivals, time) - 1
        if i < 0:
            i = 0
        wp = wps[i]
        depart = wp.arrival + wp.wait
        if time <= depart:
            return (float(wp.cell[0]), float(wp.cell[1]))
        nxt = wps[i + 1]
        frac = (time - depart) / (nxt.arrival - depart)
        return (
            wp.cell[0] + frac * (nxt.cell[0] - wp.cell[0]),
            wp.cell[1] + frac * (nxt.cell[1] - wp.cell[1]),
        )

    def affine_pieces(self) -> List[Tuple[float, ...]]:
        """Maximal (t0, t1, x0, y0, vx, vy, x1, y1) pieces covering [0, inf):
        position (x0, y0) + (t - t0) * (vx, vy) on [t0, t1], ending at
        (x1, y1). A wait or the terminal stay has zero velocity and ends
        where it starts; the terminal stay's t1 is inf."""
        pieces = []
        wps = self.waypoints
        for i, wp in enumerate(wps):
            x, y = float(wp.cell[0]), float(wp.cell[1])
            if i == len(wps) - 1:
                pieces.append((wp.arrival, math.inf, x, y, 0.0, 0.0, x, y))
                break
            depart = wp.arrival + wp.wait
            if wp.wait > 0.0:
                pieces.append((wp.arrival, depart, x, y, 0.0, 0.0, x, y))
            nxt = wps[i + 1]
            bx, by = float(nxt.cell[0]), float(nxt.cell[1])
            dur = nxt.arrival - depart
            pieces.append((depart, nxt.arrival, x, y, (bx - x) / dur, (by - y) / dur, bx, by))
        return pieces


def single_cell_trajectory(cell: Cell) -> Trajectory:
    return Trajectory([Waypoint(tuple(cell), 0.0, math.inf)])


def solution_cost(trajectories: Sequence[Trajectory]) -> float:
    return sum(t.cost() for t in trajectories)


def format_trajectory(traj: Trajectory) -> List[str]:
    """One ``col row arrival wait`` line per waypoint, terminal wait ``inf``."""
    out = []
    for wp in traj.waypoints:
        wait = "inf" if math.isinf(wp.wait) else repr(wp.wait)
        out.append(f"{wp.cell[0]} {wp.cell[1]} {wp.arrival!r} {wait}")
    return out


def parse_trajectory(lines: Sequence[str]) -> Trajectory:
    wps = []
    for line in lines:
        c, r, arrival, wait = line.split()
        wps.append(Waypoint((int(c), int(r)), float(arrival), float(wait)))
    return Trajectory(wps)
