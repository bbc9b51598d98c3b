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
one. A goal with no such interval fails before any expansion.

In both modes a candidate into the goal's last interval whose lower bound is
at most B is verified when it is generated rather than when it is popped,
and ends the search if its true arrival is at most B. In any-angle mode the
straight move into that interval from each popped state s more than one cell
from the goal, the start first, is verified the same way before s expands if
g(s) + |s - goal| <= B, s can depart by B - |s - goal| and h(s) = |s - goal|.

In cardinal mode, when B = h(start), the search first walks the path of cells
the loop pops first when no step is delayed. Along that path f stays
h(start), the deepest entry pops first and ties go to the smaller x, then
the smaller y, so it runs along x first toward a goal on the left and along
y first otherwise. A hop of the walk counts only if the map's successor
table holds it. Every hop before the last must arrive undelayed, and the
last hop, into the goal's last interval, is verified as above. A hop before
the last between two cells that hold no obstacle piece passes without
records or windows: a cardinal step sweeps only its two end cells, under
which the table indexes every piece that can meet it, so it has no collision
windows and its cell has the one safe interval [0, inf). The walk falls back
to the loop at the first hop that fails; its trajectory is the one the loop
would return.

The heuristic is the Euclidean distance to the goal in any-angle mode and the
Manhattan distance in cardinal mode. On a grid with a blocked cell it is
raised to a map distance d, the length of a shortest path to the goal over
one of the map's successor tables, each step costing its length. In cardinal
mode the table is the search's own, 4-connected with unit steps, and h = d.
In any-angle mode it is the 16-neighbourhood (Rivera, Hernandez & Baier,
"Grid Pathfinding on the 2^k Neighborhoods", AAAI 2017): the octile steps
and the (+-1, +-2) and (+-2, +-1) steps, costing 1, sqrt 2 and sqrt 5, and
h = max(Euclid, d / K16) with K16 = sqrt(10 - 4 sqrt 5). d is computed
lazily per search, and a start with d = inf fails before any expansion.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Tuple, Union

from .constraints import (
    TOL,
    ConstraintTable,
    TimeInterval,
    collision_intervals_for_move,
    earliest_arrival,
    _relevant_from_cells,
)
from .geometry import Cell
from .grid import CARDINAL_STEPS, OCTILE_STEPS, SIXTEEN_STEPS, GridMap
from .trajectory import Trajectory, Waypoint

INF = math.inf
SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
# A step's cost indexed by its squared length: 1, sqrt 2 or sqrt 5.
_STEP_COST = (0.0, 1.0, SQRT2, 0.0, 0.0, SQRT5)
# The largest ratio of the empty-grid 16-neighbour distance to Euclidean
# length, 1 / cos(atan(1/2) / 2), reached at slope sqrt 5 - 2 (about 13.3
# degrees), halfway between the steps (1, 0) and (2, 1) that bracket it. Every
# line-of-sight move a -> b has a 16-step path of that distance inside its own
# swept cells (tests/test_geometry.py checks it exhaustively up to 127 cells
# and by sample up to 1023), so the 16-neighbour map distance between a and b
# is at most K16 |ab|, and d / K16 is a consistent any-angle heuristic.
K16 = math.sqrt(10.0 - 4.0 * SQRT5)
# The one safe interval of a cell that holds no obstacle piece.
_ALWAYS = TimeInterval(0.0, INF)


class PlanningError(Exception):
    """Base class for planning failures; each names its ``status``."""


class StartUnsafe(PlanningError):
    """Start cell is blocked, out of bounds or in collision at time 0."""

    status = "start_unsafe"


class GoalUnreachable(PlanningError):
    """No conflict-free trajectory to the goal exists."""

    status = "unreachable"


class PlanTimeout(PlanningError):
    """Wall-clock deadline passed before or during the search."""

    status = "timeout"


@dataclass(frozen=True)
class PlannerMode:
    """Cardinal: 4-connected unit moves under a Manhattan heuristic.
    Any-angle: 8-connected moves plus shortcuts through the parent state
    under a Euclidean heuristic. On a grid with a blocked cell, the
    heuristic is raised to a map distance d to the goal: h = d, over the
    4-connected steps, in cardinal mode, and h = max(Euclid, d / K16), d over
    the 16-neighbour steps, in any-angle mode (see the module docstring)."""

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
    """One safe-interval search from start to goal, run once by :meth:`run`.
    Exposed for tests and tracing; most callers should use :func:`plan`.

    The open list holds two kinds of entries, both keyed by f, then -g:
    verified states ``(f + 2*TOL, -g, cfg, idx)``, and candidates ``(f, -g,
    cfg, idx, src.g, seq, src, fallback)`` whose g is a lower bound and whose
    move is verified by :meth:`_verify` when popped. Equal keys pop the
    smaller cell first, and equal candidate keys the more ancestral source.
    ``fallback`` is None, or for a shortcut from src the expanded state whose
    own candidate waits on this one.

    ``bound`` is the bound B of the module docstring (-inf until :meth:`run`
    sets it), and ``reached`` the goal state the search ends with.
    """

    def __init__(
        self,
        grid: GridMap,
        table: ConstraintTable,
        start: Cell,
        goal: Cell,
        mode: PlannerMode,
        *,
        deadline: Optional[float] = None,
        trace: Optional[list] = None,
    ):
        self.grid = grid
        self.table = table
        self.mode = mode
        self.deadline = deadline
        self.trace = trace
        self._next = grid.successors(OCTILE_STEPS if mode.any_angle else CARDINAL_STEPS)
        # The map's own tuples for start and goal, as the successor tables hold.
        start, goal = tuple(start), tuple(goal)
        self.start = grid._cells.get(start, start)
        self.goal = grid._cells.get(goal, goal)
        self.nodes = {}
        self.open: list = []
        self._cells = {}
        self._cols = {}
        self._seq = 0
        self.expansions = 0
        self.bound = -INF
        self.reached: Optional[SearchState] = None
        # The lazy backward search of _distance, on a blocked grid only: the
        # closed cells' distances, the best distances pushed so far, and the
        # open list of (key, -distance, cell), seeded with the goal. An entry
        # longer than its cell's best distance is stale and skipped when
        # popped, also where its key rounds equal to the shorter entry's and
        # it pops first.
        self._dist = {} if grid.any_blocked else None
        self._dbest = {self.goal: 0.0}
        self._dopen: list = [(0.0, 0.0, self.goal)]
        self._dnext = self._next
        if mode.any_angle and grid.any_blocked:
            self._dnext = grid.successors(SIXTEEN_STEPS)

    # -- geometry/constraint lookups, cached per search --------------------

    def _record(self, cfg) -> Tuple[Tuple[TimeInterval, ...], float]:
        """A cell's safe intervals and heuristic, built once per search."""
        rec = self._cells.get(cfg)
        if rec is None:
            dx = cfg[0] - self.goal[0]
            dy = cfg[1] - self.goal[1]
            h = math.hypot(dx, dy) if self.mode.any_angle else float(abs(dx) + abs(dy))
            if self._dist is not None:
                h = max(h, self._distance(cfg) * (1.0 / K16 if self.mode.any_angle else 1.0))
            rec = self._cells[cfg] = (self.table.safe_intervals_at(cfg), h)
        return rec

    def _distance(self, cfg) -> float:
        """cfg's map distance to the goal: the length of a shortest path over
        the map's 16-neighbour successor table in any-angle mode, or over the
        search's 4-connected one in cardinal mode (both tables' moves are
        symmetric), each step costing its length: 1, sqrt 2 or sqrt 5; inf
        when there is none. A backward A* from the goal, keyed toward the
        start, closes cells only until cfg is closed and resumes on the next
        miss (Reverse Resumable A*; Silver, "Cooperative Pathfinding", 2005).
        Its key, the same distance on an empty grid, is consistent, so every
        closed cell holds its shortest distance whichever cell is asked
        about. A popped entry longer than the best distance pushed for its
        cell is stale and closes nothing, so a longer entry whose key rounds
        equal to a shorter one's cannot close the cell an ulp long."""
        dist, open_, best = self._dist, self._dopen, self._dbest
        if cfg in dist:
            return dist[cfg]
        tx, ty = self.start
        # The key's distance to (tx, ty), with a >= b the larger and smaller
        # offset: a + u b where 2 b <= a, else v a + w b. In any-angle mode
        # that is b steps (2, 1) and a - 2 b steps (1, 0), else a - b steps
        # (2, 1) and 2 b - a steps (1, 1); u = v = w = 1 gives Manhattan.
        if self.mode.any_angle:
            u, v, w = SQRT5 - 2.0, SQRT5 - SQRT2, 2.0 * SQRT2 - SQRT5
        else:
            u = v = w = 1.0
        nxt, deadline, cost = self._dnext, self.deadline, _STEP_COST
        while open_:
            _, ng, c = heappop(open_)
            if c in dist or -ng > best[c]:
                continue
            g = dist[c] = -ng
            if deadline is not None and not len(dist) & 127 and _time.monotonic() > deadline:
                raise PlanTimeout("search deadline exceeded")
            cx, cy = c
            for n in nxt[c]:
                x, y = n
                n_g = g + cost[(x - cx) * (x - cx) + (y - cy) * (y - cy)]
                if n_g < best.get(n, INF):
                    best[n] = n_g
                    a = x - tx if x > tx else tx - x
                    b = y - ty if y > ty else ty - y
                    if a < b:
                        a, b = b, a
                    key = a + u * b if b + b <= a else v * a + w * b
                    heappush(open_, (n_g + key, -n_g, n))
            if c == cfg:
                return g
        return INF

    def _cols_for(self, a, b):
        """The collision windows of the move a -> b, or None when a blocked
        cell cuts its line of sight; built once per move and search. A
        neighbour step sweeps its ends and corners, which the map's successor
        table has checked. A longer move's line of sight on a blocked grid is
        scanned in place up to its first blocked cell
        (:meth:`GridMap.line_of_sight`). The windows come from the pieces
        indexed under the move's swept cells (:func:`_relevant_from_cells`);
        a move near no piece has none, and none are built."""
        key = (a, b)
        if key in self._cols:
            return self._cols[key]
        cols = ()
        if (self.grid.any_blocked and (abs(b[0] - a[0]) > 1 or abs(b[1] - a[1]) > 1)
                and not self.grid.line_of_sight(a, b)):
            cols = None
        elif self.table._passes:
            pieces = _relevant_from_cells(a, b, self.table)
            cols = tuple(collision_intervals_for_move(a, b, pieces)) if pieces else ()
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

    def _candidate(self, cfg, idx, iv, h, src: SearchState, fallback) -> bool:
        """Pushes src's candidate for safe interval idx of cell cfg unless
        the node there beats it (:meth:`_beaten`). Returns whether
        src can reach the interval at all. The candidate's arrival ignores
        the move's windows, which can only delay it, so its g is a lower
        bound; :meth:`_verify` computes the true one."""
        m_time = math.hypot(cfg[0] - src.cfg[0], cfg[1] - src.cfg[1])
        start_t = src.g + m_time
        lo, hi = iv
        if lo > src.interval.end + m_time or hi < start_t:
            return False
        g = start_t if start_t >= lo else lo
        if not h and g <= self.bound and hi == INF and self._at_bound(cfg, iv, src):
            return True
        if not self._beaten((cfg, idx), g, src):
            self._seq += 1
            heappush(self.open, (g + h, -g, cfg, idx, src.g, self._seq, src, fallback))
        return True

    def _at_bound(self, cfg, iv, src: SearchState) -> bool:
        """Verifies the move from src into the goal's last interval iv now,
        and keeps the goal state as :attr:`reached`, which ends
        :meth:`run`, if it arrives by the bound. Called for candidates, for
        the walk's last hop and by :meth:`_straight_exit`. The test is exact:
        a rounded arrival one ulp above B is refused."""
        g = self._arrival(cfg, iv, src)
        if g is None or g > self.bound:
            return False
        self.reached = SearchState(cfg, iv, g, src)
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

    def _straight_exit(self, s: SearchState) -> bool:
        """Tries the straight move from a popped state s to the goal at the
        bound; the guards refuse every s whose move cannot arrive at B. A goal
        next to s is left to :meth:`expand`, whose successor table checks
        corners; h(s) above |s - goal| means no line of sight (K16)."""
        dx, dy = s.cfg[0] - self.goal[0], s.cfg[1] - self.goal[1]
        if -1 <= dx <= 1 and -1 <= dy <= 1:
            return False
        d = math.hypot(dx, dy)
        return (s.g + d <= self.bound and s.interval.end >= self.bound - d
                and self._cells[s.cfg][1] <= d
                and self._at_bound(self.goal, self._cells[self.goal][0][-1], s))

    def _verify(self, candidate) -> None:
        """Checks a popped candidate's move through :meth:`_cols_for` unless
        its node beats it already, and applies the true arrival: it creates
        or improves the node, or takes an equal-cost tie from a more
        ancestral source. Then, for a shortcut, pushes its fallback's own
        candidate for the interval unless it is beaten by now."""
        _, ng, cfg, idx, _, _, src, fallback = candidate
        key = (cfg, idx)
        ivs, h = self._cells[cfg]
        g = None if self._beaten(key, -ng, src) else self._arrival(cfg, ivs[idx], src)
        if g is not None and not self._beaten(key, g, src):
            node = self.nodes.get(key)
            if node is not None and g >= node.g - TOL:
                # Equal-cost tie from a more ancestral source: take it, so
                # parent chains collapse onto straight sight lines. The node
                # keeps its g, within TOL of the arrival from src, so its
                # open entry stays valid.
                node.parent = src
            else:
                if node is None:
                    self.nodes[key] = SearchState(cfg, ivs[idx], g, src)
                else:
                    node.parent, node.g = src, g
                # Verified entries sort 2*TOL late, so that a candidate whose
                # lower bound ties them within TOL is verified before the
                # node expands.
                heappush(self.open, (g + h + 2 * TOL, -g, cfg, idx))
        if fallback is not None:
            self._candidate(cfg, idx, ivs[idx], h, fallback, None)

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
                if not (shortcut and self._candidate(cfg, idx, iv, h, par, s)):
                    self._candidate(cfg, idx, iv, h, s, None)

    def _walk(self, root: SearchState, path, goal_iv: TimeInterval) -> bool:
        """Walks path, the cardinal path of cells that ends at the goal, from
        root (see the module docstring). A hop counts only if the successor
        table holds it, which on a grid with a blocked cell is checked before
        the cell is recorded; on an open grid the table holds every hop of
        path, which stays in the box of start and goal. Every hop but
        the last must arrive undelayed, at its source's g + 1, in a safe
        interval of its cell; the last goes through :meth:`_at_bound` into
        the goal's last interval goal_iv. An earlier hop whose two cells hold
        no obstacle piece needs neither :meth:`_record` nor :meth:`_arrival`:
        the one-cell step sweeps only those cells, so it has no windows and
        arrives in :data:`_ALWAYS`. Returns True, with the goal state kept as
        :attr:`reached`, if every hop passes; False at the first that fails,
        or for an empty path."""
        src, passes, goal = root, self.table._passes, self.goal
        nxt = self._next if self.grid.any_blocked else None
        held = root.cfg in passes
        for cfg in path:
            if nxt is not None and cfg not in nxt[src.cfg]:
                return False
            if cfg == goal:
                return self._at_bound(cfg, goal_iv, src)
            t = src.g + 1.0
            iv = _ALWAYS
            here = cfg in passes
            if held or here:
                iv = next((iv for iv in self._record(cfg)[0] if iv.start <= t <= iv.end), None)
                if iv is None or self._arrival(cfg, iv, src) != t:
                    return False
            src, held = SearchState(cfg, iv, t, src), here
        return False

    # -- main loop -----------------------------------------------------------

    def run(self) -> SearchState:
        """The goal state of a conflict-free trajectory from the start. Every
        refusal is raised here before the search starts. A cardinal search
        with B = h(start) then walks the undelayed L path (:meth:`_walk`).
        Otherwise the loop logs each state it pops and ends at a goal pop, at
        a candidate verified at the bound (:meth:`_at_bound`) or, in
        any-angle mode, at a popped state that passes :meth:`_straight_exit`.
        Every exit sets :attr:`reached`, the state returned, and logs it
        last; the walk and the start's straight move log only start and goal."""
        start, goal, grid = self.start, self.goal, self.grid
        if not grid.is_traversable(start):
            raise StartUnsafe(f"start {start} is blocked or out of bounds")
        if not grid.is_traversable(goal):
            raise GoalUnreachable(f"goal {goal} is blocked or out of bounds")
        # `not <=` so that a NaN deadline, which no clock reading passes, refuses too.
        if self.deadline is not None and not _time.monotonic() <= self.deadline:
            raise PlanTimeout("deadline exceeded before search start")
        ivs, h = self._record(start)
        if not ivs or ivs[0].start > TOL:
            raise StartUnsafe(f"start {start} is in collision at time 0")
        root = SearchState(start, ivs[0], 0.0, None)
        self.nodes[(start, 0)] = root
        if h == INF:
            self._log(root)
            raise GoalUnreachable(f"goal {goal} cannot be reached from {start} on the map")
        goal_ivs, _ = self._record(goal)
        if not goal_ivs or goal_ivs[-1].end != INF:
            raise GoalUnreachable(f"goal {goal} is never free for good")
        goal_iv = goal_ivs[-1]
        self.bound = max(h, goal_iv.start)
        path = []
        if self.bound == h and not self.mode.any_angle:
            (x0, y0), (gx, gy) = start, goal
            sx, sy = (1 if gx > x0 else -1), (1 if gy > y0 else -1)
            xs, ys = range(x0 + sx, gx + sx, sx), range(y0 + sy, gy + sy, sy)
            if gx < x0:
                path = [(x, y0) for x in xs] + [(gx, y) for y in ys]
            else:
                path = [(x0, y) for y in ys] + [(x, gy) for x in xs]
        if self._walk(root, path, goal_iv):
            self._log(root)
        else:
            heappush(self.open, (h, 0.0, start, 0))
        pops = 0
        while self.reached is None:
            if not self.open:
                raise GoalUnreachable(f"goal {goal} cannot be reached conflict-free")
            entry = heappop(self.open)
            pops += 1
            if self.deadline is not None and not pops & 127 and _time.monotonic() > self.deadline:
                raise PlanTimeout("search deadline exceeded")
            if len(entry) > 4:
                self._verify(entry)
                continue
            _, ng, cfg, idx = entry
            node = self.nodes[(cfg, idx)]
            if node.g != -ng:
                continue
            if self.trace is not None:
                self._log(node)
            if cfg == goal and math.isinf(node.interval.end):
                self.reached = node
                return node
            if self.mode.any_angle and self._straight_exit(node):
                break
            self.expansions += 1
            self.expand(node)
        self._log(self.reached)
        return self.reached

    def _log(self, node: SearchState) -> None:
        """Appends node's record to the trace, if there is one."""
        if self.trace is not None:
            self.trace.append((node.cfg, node.interval.start, node.interval.end,
                               node.g, node.g + self._cells[node.cfg][1]))


def reconstruct(goal_state: SearchState) -> Trajectory:
    """Trajectory from the parent chain, each waypoint arriving at its
    state's g; a wait is inserted at a segment's start whenever the child
    arrives later than travel time alone allows, v.g > u.g + hop in the
    search's own arithmetic, however short the wait. An undelayed hop
    arrives at exactly u.g + hop, so rounding adds no wait. One pass from
    the goal builds the waypoints in reverse."""
    v = goal_state
    wps = [Waypoint(v.cfg, v.g, INF)]
    u = v.parent
    while u is not None:
        hop = math.hypot(v.cfg[0] - u.cfg[0], v.cfg[1] - u.cfg[1])
        wait = v.g - u.g - hop
        wps.append(Waypoint(u.cfg, u.g, wait if v.g > u.g + hop and wait > 0.0 else 0.0))
        v, u = u, u.parent
    wps.reverse()
    return Trajectory(wps)


def plan(
    grid: GridMap,
    obstacles: Union[Iterable[Trajectory], ConstraintTable],
    start: Cell,
    goal: Cell,
    mode: PlannerMode = PlannerMode.anyangle(),
    *,
    deadline: Optional[float] = None,
    trace: Optional[list] = None,
) -> Trajectory:
    """Plan a conflict-free trajectory from start to goal around the
    obstacle trajectories, given as a sequence or as a ConstraintTable that
    holds them.

    The goal state is accepted only in a safe interval that is unbounded
    above, since the agent parks there forever. :meth:`Search.run` raises
    StartUnsafe, GoalUnreachable, or PlanTimeout.
    """
    if not isinstance(obstacles, ConstraintTable):
        obstacles = ConstraintTable(obstacles)
    search = Search(grid, obstacles, start, goal, mode, deadline=deadline, trace=trace)
    return reconstruct(search.run())
