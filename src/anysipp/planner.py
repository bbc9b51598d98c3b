"""Single-agent search over (cell, safe-interval) states.

Two modes share one engine: a cardinal baseline (4-connected moves, unit
steps) and an any-angle variant (8-connected moves plus shortcut successors
generated from the expanded state's parent, which lets paths settle into
straight segments between arbitrary cell centers).

Moves are verified lazily, as in Lazy Theta*. Relaxing a move into a safe
interval pushes a candidate whose arrival ignores the move's collision
windows, a lower bound on the true one. Only when the candidate is popped,
and only if the destination state does not already hold a verified g it
cannot beat, is the move checked: its line of sight on a blocked grid and its
collision windows, both built once per move and search. The true arrival then
creates or improves the state and pushes it as verified. Only verified states
are expanded or reconstructed.

As in Lazy Theta*, a neighbour gets one candidate per safe interval: the
shortcut from the expanded state's parent wherever the parent reaches the
interval, else the step from the expanded state. A shortcut candidate carries
the expanded state as its fallback, whose own candidate is pushed only when
the shortcut's pops, and only if the shortcut has not beaten it by then.

No trajectory reaches the goal for good before B = max(h(start), T), where
T is the start of the goal's last safe interval, the one unbounded above. So
an arrival there at B is optimal, and the search ends as soon as it verifies
one. A goal with no such interval fails before any expansion. In any-angle
mode the search first tries the straight move from the start, departing any
time the start's interval allows; a neighbour step counts only if the map's
successor table holds it, since its corners are checked there.
In both modes a candidate into that interval whose lower bound is at most B
is verified when it is generated rather than when it is popped, and ends the
search if its true arrival is at most B.
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
    earliest_arrival,
    _relevant_from_cells,
)
from .geometry import Cell, swept_cells
from .grid import CARDINAL_STEPS, OCTILE_STEPS, GridMap
from .trajectory import Trajectory, Waypoint

INF = math.inf


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
    """A cell and one of its safe intervals, reached at time g. Every move
    and wait costs its duration from the root at time 0, so g is both the
    state's cost and its arrival time. The search keys states by (cell,
    interval index)."""

    __slots__ = ("cfg", "interval", "g", "parent")

    def __init__(self, cfg, interval, g, parent):
        self.cfg = cfg
        self.interval = interval
        self.g = g
        self.parent = parent

    def __repr__(self):
        return f"SearchState(cfg={self.cfg}, interval={self.interval}, g={self.g:.3f})"


class Search:
    """One shot of the safe-interval search. Exposed for tests and tracing;
    most callers should use :func:`plan`.

    The open list holds two kinds of entries, both keyed by f, then -g:
    verified states ``(f + 2*TOL, -g, x, y, idx)``, and candidates ``(f, -g,
    x, y, idx, src.g, seq, src, fallback)`` whose g is a lower bound and whose
    move is verified by :meth:`_verify` when popped. Equal candidate keys pop
    the more ancestral source first. ``fallback`` is None, or for a shortcut
    from src the expanded state whose own candidate waits on this one.

    ``bound`` is the bound B of the module docstring (-inf until :meth:`run`
    sets it), and ``reached`` the goal state verified at it.
    """

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
        self._next = grid.successors(OCTILE_STEPS if mode.any_angle else CARDINAL_STEPS)
        self.nodes = {}
        self.open: list = []
        self._cells = {}
        self._cols = {}
        self._seq = 0
        self.expansions = 0
        self.bound = -INF
        self.reached: Optional[SearchState] = None

    # -- geometry/constraint lookups, cached per search --------------------

    def _record(self, cfg) -> Tuple[Tuple[TimeInterval, ...], float]:
        """A cell's safe intervals and heuristic, built once per search."""
        rec = self._cells.get(cfg)
        if rec is None:
            dx = cfg[0] - self.goal[0]
            dy = cfg[1] - self.goal[1]
            h = math.hypot(dx, dy) if self.mode.any_angle else float(abs(dx) + abs(dy))
            rec = self._cells[cfg] = (self.table.safe_intervals_at(cfg), h)
        return rec

    def _cols_for(self, a, b):
        """The collision windows of the move a -> b, or None when a blocked
        cell cuts its line of sight; built once per move and search. A
        neighbour step sweeps its ends and corners, which the map's successor
        table has checked. A longer move enumerates its swept cells, on a
        blocked grid for line of sight too; on an open grid it is first
        screened against the obstacle pieces, and far from all of them it has
        no windows."""
        key = (a, b)
        if key in self._cols:
            return self._cols[key]
        table = self.table
        cols = ()
        if abs(b[0] - a[0]) <= 1 and abs(b[1] - a[1]) <= 1:
            cells = (a, b, (b[0], a[1]), (a[0], b[1]))  # straight: a, b twice
        elif self.grid.any_blocked:
            cells = swept_cells(a, b)
            if not self.grid.cells_traversable(cells):
                cols = None
        elif table._passes and table.piece_near(a, b):
            cells = swept_cells(a, b)
        else:
            cells = ()
        if cols is not None and cells and table._passes:
            cols = tuple(collision_intervals_for_move(a, b, _relevant_from_cells(cells, table)))
        self._cols[key] = cols
        return cols

    # -- successor generation ----------------------------------------------

    def _beaten(self, key, g, src) -> bool:
        """True when the node at key already holds a verified g that an
        arrival at g from src can neither improve on nor tie from a source
        more ancestral (smaller g) than the node's parent."""
        node = self.nodes.get(key)
        if node is None or g < node.g - TOL:
            return False
        return not (g < node.g + TOL and node.parent is not None
                    and src.g < node.parent.g - TOL)

    def _candidate(self, x, y, idx, iv, h, src: SearchState, fallback) -> bool:
        """Pushes src's candidate for safe interval idx of cell (x, y) unless
        the node there beats it (:meth:`_beaten`, inlined). Returns whether
        src can reach the interval at all. The candidate's arrival ignores
        the move's windows, which can only delay it, so its g is a lower
        bound; :meth:`_verify` computes the true one."""
        m_time = math.hypot(x - src.cfg[0], y - src.cfg[1])
        start_t = src.g + m_time
        lo, hi = iv
        if lo > src.interval.end + m_time or hi < start_t:
            return False
        g = start_t if start_t >= lo else lo
        if not h and g <= self.bound and hi == INF and self._at_bound(x, y, idx, iv, src):
            return True
        node = self.nodes.get(((x, y), idx))
        if (node is None or g < node.g - TOL
                or (g < node.g + TOL and node.parent is not None and src.g < node.parent.g - TOL)):
            self._seq += 1
            heappush(self.open, (g + h, -g, x, y, idx, src.g, self._seq, src, fallback))
        return True

    def _at_bound(self, x, y, idx, iv, src: SearchState) -> bool:
        """Verifies the move from src into the goal's last interval idx now,
        and keeps the goal state as :attr:`reached` if it arrives by the
        bound."""
        g = self._arrival((x, y), iv, src)
        if g is None or g > self.bound:
            return False
        self.reached = SearchState((x, y), iv, g, src)
        return True

    def _arrival(self, cfg, iv, src: SearchState) -> Optional[float]:
        """The true arrival in interval iv of cfg by the move from src, with
        the move's collision windows applied; None if the move is blocked or
        misses the interval."""
        cols = self._cols_for(src.cfg, cfg)
        if cols is None:
            return None
        m_time = math.hypot(cfg[0] - src.cfg[0], cfg[1] - src.cfg[1])
        return earliest_arrival(cols, src.g + m_time, src.interval.end + m_time, iv)

    def _verify(self, candidate) -> None:
        """Checks a popped candidate's move through :meth:`_cols_for` and
        applies its true arrival to the node; then, for a shortcut, pushes
        its fallback's own candidate for the interval unless it is beaten by
        now."""
        _, ng, x, y, idx, _, _, src, fallback = candidate
        ivs, h = self._cells[(x, y)]
        self._arrive(x, y, idx, ivs[idx], h, -ng, src)
        if fallback is not None:
            self._candidate(x, y, idx, ivs[idx], h, fallback, None)

    def _arrive(self, x, y, idx, iv, h, g, src: SearchState) -> None:
        """Creates or improves the node at interval idx of (x, y) with the
        true arrival from src, or takes an equal-cost tie from a more
        ancestral source."""
        cfg = (x, y)
        key = (cfg, idx)
        if self._beaten(key, g, src):
            return
        g = self._arrival(cfg, iv, src)
        if g is None or self._beaten(key, g, src):
            return
        node = self.nodes.get(key)
        if node is None:
            self.nodes[key] = SearchState(cfg, iv, g, src)
        else:
            node.parent = src
            if g >= node.g - TOL:
                # Equal-cost tie from a more ancestral source: take it, so
                # parent chains collapse onto straight sight lines. The node
                # keeps its g, within TOL of the arrival from src, so its
                # open entry stays valid.
                return
            node.g = g
        # Verified entries sort 2*TOL late, so that a candidate whose lower
        # bound ties them within TOL is verified before the node expands.
        heappush(self.open, (g + h + 2 * TOL, -g, x, y, idx))

    def expand(self, s: SearchState) -> None:
        """Relaxes the moves from s to its neighbours in the map's successor
        table. In any-angle mode a neighbour that is not next to s's parent
        is relaxed as a shortcut from the parent first: each safe interval
        the parent reaches gets the parent's candidate alone, carrying s as
        its fallback, and only the others get s's own candidate now. (The
        parent's lower bound never exceeds s's, so where the parent's
        candidate is beaten, s's is too.)"""
        par = s.parent if self.mode.any_angle else None
        cells = self._cells
        for cfg in self._next[s.cfg]:
            ivs, h = cells.get(cfg) or self._record(cfg)
            x, y = cfg
            shortcut = par is not None and (abs(x - par.cfg[0]) > 1 or abs(y - par.cfg[1]) > 1)
            for idx, iv in enumerate(ivs):
                if not (shortcut and self._candidate(x, y, idx, iv, h, par, s)):
                    self._candidate(x, y, idx, iv, h, s, None)

    # -- main loop -----------------------------------------------------------

    def run(self, start: Cell) -> SearchState:
        start = tuple(start)
        ivs, h = self._record(start)
        if not ivs or ivs[0].start > TOL:
            raise StartUnsafe(f"start {start} is in collision at time 0")
        root = SearchState(start, ivs[0], 0.0, None)
        self.nodes[(start, 0)] = root
        goal = self.goal
        goal_ivs, _ = self._record(goal)
        if not goal_ivs or goal_ivs[-1].end != INF:
            raise GoalUnreachable(f"goal {goal} is never free for good")
        last = len(goal_ivs) - 1
        self.bound = max(h, goal_ivs[last].start)
        dx, dy = goal[0] - start[0], goal[1] - start[1]
        if (self.mode.any_angle
                and (abs(dx) > 1 or abs(dy) > 1 or goal in self._next[start])
                and self._at_bound(goal[0], goal[1], last, goal_ivs[last], root)):
            self._log(root)
            self._log(self.reached)
            return self.reached
        heappush(self.open, (h, 0.0, start[0], start[1], 0))
        pops = 0
        while self.open:
            entry = heappop(self.open)
            pops += 1
            if self.deadline is not None and not pops & 127 and _time.monotonic() > self.deadline:
                raise PlanTimeout("search deadline exceeded")
            if len(entry) > 5:
                self._verify(entry)
            else:
                _, ng, cx, cy, idx = entry
                key = ((cx, cy), idx)
                node = self.nodes.get(key)
                if node is None or node.g != -ng:
                    continue
                if self.trace is not None:
                    self._log(node)
                if (cx, cy) == goal and math.isinf(node.interval.end):
                    return node
                self.expansions += 1
                self.expand(node)
            if self.reached is not None:
                self._log(self.reached)
                return self.reached
        raise GoalUnreachable(f"goal {goal} cannot be reached conflict-free")

    def _log(self, node: SearchState) -> None:
        """Appends node's record to the trace, if there is one."""
        if self.trace is not None:
            self.trace.append((node.cfg, node.interval.start, node.interval.end,
                               node.g, node.g + self._cells[node.cfg][1]))


def reconstruct(goal_state: SearchState) -> Trajectory:
    """Trajectory from the parent chain, each waypoint arriving at its
    state's g; a wait is inserted at a segment's start whenever the child
    arrives later than travel time alone allows."""
    chain = []
    node = goal_state
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    wps = []
    for u, v in zip(chain, chain[1:]):
        hop = math.hypot(v.cfg[0] - u.cfg[0], v.cfg[1] - u.cfg[1])
        wait = v.g - u.g - hop
        wps.append(Waypoint(u.cfg, u.g, wait if wait > TOL else 0.0))
    wps.append(Waypoint(chain[-1].cfg, chain[-1].g, INF))
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
