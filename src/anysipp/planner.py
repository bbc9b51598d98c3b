"""Single-agent search over (cell, safe-interval) states.

Two modes share one engine: a cardinal baseline (4-connected moves, unit
steps) and an any-angle variant (8-connected moves plus shortcut successors
generated from the expanded state's parent, which lets paths settle into
straight segments between arbitrary cell centers).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence, Tuple

from .constraints import (
    TOL,
    ConstraintTable,
    TimeInterval,
    build_table,
    collision_intervals_for_move,
    departure_guards,
    earliest_arrival,
    _relevant_from_cells,
)
from .geometry import Cell, swept_cells
from .grid import GridMap
from .trajectory import Trajectory, Waypoint

INF = math.inf

_CARDINAL = ((1, 0), (-1, 0), (0, 1), (0, -1))
_OCTILE = _CARDINAL + ((1, 1), (1, -1), (-1, 1), (-1, -1))
_SQRT2 = math.sqrt(2.0)


class PlanningError(Exception):
    """Base class for planning failures."""


class StartUnsafe(PlanningError):
    """Start cell is blocked or already in collision at time 0."""


class GoalUnreachable(PlanningError):
    """No conflict-free trajectory to the goal exists (search exhausted)."""


class PlanTimeout(PlanningError):
    """Wall-clock deadline hit during the search."""


@dataclass(frozen=True)
class PlannerMode:
    """Cardinal: 4-connected unit moves under a Manhattan heuristic.
    Any-angle: 8-connected moves plus shortcuts through the parent state
    under a Euclidean heuristic."""

    any_angle: bool = True

    @classmethod
    def cardinal(cls) -> "PlannerMode":
        return cls(any_angle=False)

    @classmethod
    def anyangle(cls) -> "PlannerMode":
        return cls(any_angle=True)

    @property
    def name(self) -> str:
        return "aa" if self.any_angle else "cardinal"


class SearchState:
    __slots__ = ("cfg", "interval_index", "interval", "g", "time", "parent")

    def __init__(self, cfg, interval_index, interval, g, time, parent):
        self.cfg = cfg
        self.interval_index = interval_index
        self.interval = interval
        self.g = g
        self.time = time
        self.parent = parent

    def __repr__(self):
        return (
            f"SearchState(cfg={self.cfg}, iv={self.interval_index}, "
            f"g={self.g:.3f}, time={self.time:.3f})"
        )


class Search:
    """One shot of the safe-interval search. Exposed for tests and tracing;
    most callers should use :func:`plan`."""

    def __init__(
        self,
        grid: GridMap,
        table: ConstraintTable,
        goal: Cell,
        mode: PlannerMode,
        deadline: Optional[float] = None,
        trace: Optional[list] = None,
    ):
        self.grid = grid
        self.table = table
        self.goal = tuple(goal)
        self.mode = mode
        self.deadline = deadline
        self.trace = trace
        self.steps = _OCTILE if mode.any_angle else _CARDINAL
        self.nodes = {}
        self.closed = set()
        self.open: list = []
        self._intervals = {}
        self._cols = {}
        self.expansions = 0

    # -- geometry/constraint lookups, cached per search --------------------

    def intervals_at(self, cfg) -> Tuple[TimeInterval, ...]:
        ivs = self._intervals.get(cfg)
        if ivs is None:
            ivs = self.table.safe_intervals_at(cfg)
            self._intervals[cfg] = ivs
        return ivs

    def _cols_for(self, src_cfg, cfg, cells):
        key = (src_cfg, cfg)
        model = self._cols.get(key)
        if model is None:
            if not self.table.cells:
                model = ((), ())
            else:
                if cells is None:
                    cells = swept_cells(src_cfg, cfg)
                relevant = _relevant_from_cells(cells, src_cfg, cfg, self.table)
                model = (
                    tuple(collision_intervals_for_move(src_cfg, cfg, relevant)),
                    tuple(departure_guards(src_cfg, cfg, relevant)),
                )
            self._cols[key] = model
        return model

    def _h(self, cfg) -> float:
        dx = cfg[0] - self.goal[0]
        dy = cfg[1] - self.goal[1]
        if self.mode.any_angle:
            return math.hypot(dx, dy)
        return float(abs(dx) + abs(dy))

    # -- successor generation ----------------------------------------------

    def _relax_via(self, cfg, src: SearchState, cells) -> None:
        cols, guards = self._cols_for(src.cfg, cfg, cells)
        m_time = math.hypot(cfg[0] - src.cfg[0], cfg[1] - src.cfg[1])
        start_t = src.time + m_time
        end_t = src.interval.end + m_time
        h = self._h(cfg)
        for idx, iv in enumerate(self.intervals_at(cfg)):
            if iv.start > end_t or iv.end < start_t:
                continue
            t = earliest_arrival(cols, start_t, end_t, iv, guards, src.cfg, cfg)
            if t is None:
                continue
            g2 = src.g + (t - src.time)
            key = (cfg, idx)
            node = self.nodes.get(key)
            if node is None:
                node = SearchState(cfg, idx, iv, g2, t, src)
                self.nodes[key] = node
            elif g2 < node.g - TOL:
                node.g = g2
                node.time = t
                node.parent = src
                self.closed.discard(key)
            elif g2 < node.g + TOL and node.parent is not None and src.g < node.parent.g - TOL:
                # Equal-cost tie: prefer the more ancestral source so parent
                # chains collapse onto straight sight lines. g is unchanged,
                # so the node's open entry stays valid and no push is needed.
                node.time = t
                node.parent = src
                continue
            else:
                continue
            heappush(self.open, (g2 + h, -g2, cfg[0], cfg[1], idx))

    def expand(self, s: SearchState) -> None:
        grid = self.grid
        blocked = grid.any_blocked
        have_table = bool(self.table.cells)
        sx, sy = s.cfg
        par = s.parent
        shortcut_ok = self.mode.any_angle and par is not None
        for dx, dy in self.steps:
            cfg = (sx + dx, sy + dy)
            if blocked:
                if dx and dy:
                    cells = (s.cfg, cfg, (sx + dx, sy), (sx, sy + dy))
                else:
                    cells = (s.cfg, cfg)
                if not grid.cells_traversable(cells):
                    continue
            else:
                if not grid.in_bounds(cfg):
                    continue
                cells = ((s.cfg, cfg, (sx + dx, sy), (sx, sy + dy)) if dx and dy
                         else (s.cfg, cfg)) if have_table else None
            self._relax_via(cfg, s, cells)
            if shortcut_ok and cfg != par.cfg:
                if blocked:
                    pcells = swept_cells(par.cfg, cfg)
                    if not grid.cells_traversable(pcells):
                        continue
                else:
                    pcells = None
                self._relax_via(cfg, par, pcells)

    # -- main loop -----------------------------------------------------------

    def run(self, start: Cell) -> SearchState:
        start = tuple(start)
        ivs = self.intervals_at(start)
        if not ivs or ivs[0].start > TOL:
            raise StartUnsafe(f"start {start} is in collision at time 0")
        root = SearchState(start, 0, ivs[0], 0.0, 0.0, None)
        self.nodes[(start, 0)] = root
        heappush(self.open, (self._h(start), 0.0, start[0], start[1], 0))
        goal = self.goal
        pops = 0
        while self.open:
            f, ng, cx, cy, idx = heappop(self.open)
            key = ((cx, cy), idx)
            node = self.nodes.get(key)
            if node is None or node.g != -ng or key in self.closed:
                continue
            pops += 1
            if self.deadline is not None and not pops & 127 and _time.monotonic() > self.deadline:
                raise PlanTimeout("search deadline exceeded")
            if self.trace is not None:
                self.trace.append(
                    (node.cfg, node.interval.start, node.interval.end, node.g, node.time, f)
                )
            if (cx, cy) == goal and math.isinf(node.interval.end):
                return node
            self.closed.add(key)
            self.expansions += 1
            self.expand(node)
        raise GoalUnreachable(f"goal {goal} cannot be reached conflict-free")


def reconstruct(goal_state: SearchState) -> Trajectory:
    """Trajectory from the parent chain; a wait is inserted at a segment's
    start whenever the child arrives later than travel time alone allows."""
    chain = []
    node = goal_state
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    wps = []
    for u, v in zip(chain, chain[1:]):
        hop = math.hypot(v.cfg[0] - u.cfg[0], v.cfg[1] - u.cfg[1])
        wait = v.time - u.time - hop
        wps.append(Waypoint(u.cfg, u.time, wait if wait > TOL else 0.0))
    wps.append(Waypoint(chain[-1].cfg, chain[-1].time, INF))
    return Trajectory(wps)


def plan(
    grid: GridMap,
    obstacles: Sequence[Trajectory],
    start: Cell,
    goal: Cell,
    mode: PlannerMode = PlannerMode.anyangle(),
    *,
    table: Optional[ConstraintTable] = None,
    deadline: Optional[float] = None,
    trace: Optional[list] = None,
) -> Trajectory:
    """Plan a conflict-free trajectory from start to goal around the given
    obstacle trajectories.

    The goal state is accepted only in a safe interval that is unbounded
    above, since the agent parks there forever. Raises StartUnsafe,
    GoalUnreachable, or PlanTimeout.
    """
    start = tuple(start)
    goal = tuple(goal)
    if not grid.is_traversable(start):
        raise StartUnsafe(f"start {start} is blocked or out of bounds")
    if not grid.is_traversable(goal):
        raise GoalUnreachable(f"goal {goal} is blocked or out of bounds")
    if deadline is not None and _time.monotonic() > deadline:
        raise PlanTimeout("deadline exceeded before search start")
    if table is None:
        table = build_table(obstacles or [])
    search = Search(grid, table, goal, mode, deadline=deadline, trace=trace)
    return reconstruct(search.run(start))
