"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force: dense sampling, exhaustive
search, tick-discretized planning. Keep these free of the package's
geometry/interval internals so they stay honest oracles.
"""

import heapq
import math
import random
from collections import deque

import numpy as np

from anysipp.cli import RunRecord
from anysipp.grid import GridMap
from anysipp.trajectory import Trajectory, Waypoint

RADIUS = 0.5


def make_traj(cells, waits=None):
    """Trajectory through the given cells with per-waypoint waits (the final
    entry is ignored; the last waypoint always parks forever)."""
    cells = [tuple(c) for c in cells]
    waits = list(waits) if waits is not None else [0.0] * len(cells)
    wps = []
    t = 0.0
    for i, cell in enumerate(cells):
        if i == len(cells) - 1:
            wps.append(Waypoint(cell, t, math.inf))
            break
        wps.append(Waypoint(cell, t, waits[i]))
        nxt = cells[i + 1]
        t += waits[i] + math.hypot(nxt[0] - cell[0], nxt[1] - cell[1])
    return Trajectory(wps)


def random_trajectory(rng, size=16, max_moves=6, wait_prob=0.4, max_wait=3.0,
                      start=None, cardinal_only=False):
    """Random piecewise trajectory inside a size x size box, arbitrary
    straight hops between cell centers with random waits."""
    pos = start if start is not None else (rng.randrange(size), rng.randrange(size))
    cells = [pos]
    for _ in range(rng.randint(1, max_moves)):
        for _ in range(20):
            if cardinal_only:
                dc, dr = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            else:
                dc, dr = rng.randint(-4, 4), rng.randint(-4, 4)
            nxt = (cells[-1][0] + dc, cells[-1][1] + dr)
            if nxt != cells[-1] and 0 <= nxt[0] < size and 0 <= nxt[1] < size:
                cells.append(nxt)
                break
    waits = [
        rng.uniform(0.0, max_wait) if rng.random() < wait_prob else 0.0
        for _ in cells
    ]
    return make_traj(cells, waits)


def sampled_swept_cells(a, b, step=1e-3):
    """Cells whose interior contains a point strictly within the disk radius
    of some sampled segment point (band 1e-9 below the radius)."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    length = math.hypot(bx - ax, by - ay)
    n = max(2, int(math.ceil(length / step)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    px = ax + ts * (bx - ax)
    py = ay + ts * (by - ay)
    base_c = np.rint(px).astype(np.int64)
    base_r = np.rint(py).astype(np.int64)
    lim = RADIUS - 1e-9
    cells = set()
    for dc in (-1, 0, 1):
        for dr in (-1, 0, 1):
            cc = base_c + dc
            rr = base_r + dr
            ux = np.maximum(np.abs(px - cc) - 0.5, 0.0)
            uy = np.maximum(np.abs(py - rr) - 0.5, 0.0)
            hit = ux * ux + uy * uy < lim * lim
            if hit.any():
                cells.update(zip(cc[hit].tolist(), rr[hit].tolist()))
    return cells


def _point_seg_dist(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segs_intersect(p1, p2, q1, q2):
    def orient(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _seg_seg_dist(p1, p2, q1, q2):
    if _segs_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        _point_seg_dist(*p1, *q1, *q2),
        _point_seg_dist(*p2, *q1, *q2),
        _point_seg_dist(*q1, *p1, *p2),
        _point_seg_dist(*q2, *p1, *p2),
    )


def seg_box_distance(a, b, cell):
    """Exact distance from segment a-b to the unit box around the cell
    center, via the four box edges (independent of the package kernel)."""
    cx, cy = cell
    x0, x1 = cx - 0.5, cx + 0.5
    y0, y1 = cy - 0.5, cy + 0.5
    for px, py in (a, b):
        if x0 <= px <= x1 and y0 <= py <= y1:
            return 0.0
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return min(
        _seg_seg_dist(tuple(a), tuple(b), corners[i], corners[(i + 1) % 4])
        for i in range(4)
    )


def segment_pieces(traj):
    """One (t0, t1, x0, y0, vx, vy, x1, y1) piece per wait, per waypoint
    segment and for the terminal stay, built straight from the waypoints, so
    that the oracles do not share ``Trajectory.affine_pieces``."""
    pieces = []
    wps = traj.waypoints
    for wp, nxt in zip(wps, wps[1:]):
        x, y = float(wp.cell[0]), float(wp.cell[1])
        depart = wp.arrival + wp.wait
        if wp.wait > 0.0:
            pieces.append((wp.arrival, depart, x, y, 0.0, 0.0, x, y))
        bx, by = float(nxt.cell[0]), float(nxt.cell[1])
        dur = nxt.arrival - depart
        pieces.append((depart, nxt.arrival, x, y, (bx - x) / dur, (by - y) / dur, bx, by))
    x, y = float(wps[-1].cell[0]), float(wps[-1].cell[1])
    pieces.append((wps[-1].arrival, math.inf, x, y, 0.0, 0.0, x, y))
    return pieces


def sample_positions(traj, times):
    """Vectorized position lookup over a sorted array of query times."""
    pieces = segment_pieces(traj)
    starts = np.array([p[0] for p in pieces])
    x0 = np.array([p[2] for p in pieces])
    y0 = np.array([p[3] for p in pieces])
    vx = np.array([p[4] for p in pieces])
    vy = np.array([p[5] for p in pieces])
    idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(pieces) - 1)
    dt = times - starts[idx]
    return x0[idx] + vx[idx] * dt, y0[idx] + vy[idx] * dt


def occupied_mask(cell, obstacles, times):
    """True at sampled times when some obstacle center is strictly within one
    diameter of the cell center."""
    cx, cy = float(cell[0]), float(cell[1])
    mask = np.zeros(len(times), dtype=bool)
    for traj in obstacles:
        px, py = sample_positions(traj, times)
        mask |= (px - cx) ** 2 + (py - cy) ** 2 < (1.0 - 1e-9) ** 2
    return mask


def min_distance_sampled(t1, t2, t_end, step=1e-4):
    """Dense-sampled minimum center distance between two trajectories on
    [0, t_end]; returns (distance, time)."""
    times = np.arange(0.0, t_end + step, step)
    x1, y1 = sample_positions(t1, times)
    x2, y2 = sample_positions(t2, times)
    d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
    i = int(np.argmin(d2))
    return math.sqrt(float(d2[i])), float(times[i])


def first_sampled_conflict(t1, t2, t_end, step=1e-4, threshold=1.0 - 1e-6):
    """Earliest sampled time the center distance drops below threshold."""
    times = np.arange(0.0, t_end + step, step)
    x1, y1 = sample_positions(t1, times)
    x2, y2 = sample_positions(t2, times)
    d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
    hits = np.nonzero(d2 < threshold * threshold)[0]
    if len(hits) == 0:
        return None
    return float(times[hits[0]])


def flood_fill(grid, start, connectivity=4):
    """Cells reachable from start over statically feasible unit moves."""
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if connectivity == 8:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    reached = {tuple(start)}
    queue = deque([tuple(start)])
    while queue:
        cur = queue.popleft()
        for dc, dr in steps:
            nxt = (cur[0] + dc, cur[1] + dr)
            if nxt in reached:
                continue
            if grid.move_is_feasible(cur, nxt):
                reached.add(nxt)
                queue.append(nxt)
    return reached


def map_distances(grid, goal, steps):
    """Every cell's distance to goal over the map's successor table for
    steps, a step costing its length (1, sqrt 2 or sqrt 5): a full Dijkstra
    from the goal. Cells it does not reach are absent."""
    succ = grid.successors(steps)
    dist = {}
    heap = [(0.0, tuple(goal))]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in dist:
            continue
        dist[cell] = d
        for nxt in succ[cell]:
            if nxt not in dist:
                heapq.heappush(heap, (d + math.hypot(nxt[0] - cell[0], nxt[1] - cell[1]), nxt))
    return dist


def blocked_grid(size, share, seed):
    """Seeded random blocks, cut down to the largest 4-connected free region
    so that every start can reach every goal on the static map."""
    rng = random.Random(seed)
    cells = [(c, r) for r in range(size) for c in range(size)]
    blocked = set(rng.sample(cells, round(share * len(cells))))
    grid = GridMap.from_blocked(size, size, blocked)
    best, seen = set(), set()
    for cell in grid.free_cells():
        if cell not in seen:
            region = flood_fill(grid, cell, 4)
            seen |= region
            if len(region) > len(best):
                best = region
    return GridMap.from_blocked(size, size, [c for c in cells if c not in best])


def rooms(size, room, seed):
    """A size x size map of room x room rooms: walls on every (room + 1)-th
    row and column, each wall with one seeded door into every room it
    bounds. Corridors and doors make agents follow or cross each other at
    exactly one diameter."""
    rng = random.Random(seed)
    walls = range(room, size, room + 1)
    blocked = ({(k, i) for k in walls for i in range(size)}
               | {(i, k) for k in walls for i in range(size)})
    for k in walls:
        for s in [0] + [w + 1 for w in walls]:
            if s < size:
                d = rng.randrange(s, min(s + room, size))
                blocked -= {(k, d), (d, k)}
    return GridMap.from_blocked(size, size, blocked)


def _min_dist_affine(x, y, vx, vy, t0, t1, traj):
    """Minimum center distance between a probe moving affinely on [t0, t1]
    and a trajectory, evaluated per overlapping piece in closed form."""
    best = math.inf
    for q0, q1, ox, oy, ovx, ovy, _, _ in segment_pieces(traj):
        lo = max(t0, q0)
        hi = min(t1, q1)
        if hi < lo:
            continue
        dx = (x + vx * (lo - t0)) - (ox + ovx * (lo - q0))
        dy = (y + vy * (lo - t0)) - (oy + ovy * (lo - q0))
        dvx = vx - ovx
        dvy = vy - ovy
        a2 = dvx * dvx + dvy * dvy
        span = hi - lo
        cands = [0.0]
        if math.isinf(span):
            if a2 > 0:
                cands.append(max(0.0, -(dx * dvx + dy * dvy) / a2))
        else:
            cands.append(span)
            if a2 > 0:
                cands.append(min(span, max(0.0, -(dx * dvx + dy * dvy) / a2)))
        for tau in cands:
            best = min(best, math.hypot(dx + dvx * tau, dy + dvy * tau))
    return best


def time_expanded_exact_best_cost(grid, obstacles, start, goal, dt=0.25, horizon=40.0):
    """Dijkstra over (cell, tick) with wait ticks and cardinal unit moves,
    each transition collision-checked exactly in continuous time (a move
    with 1e-6 of slack), sharing nothing with the planners. The cardinal
    planner's move windows are exact too, so its plans should never cost
    more than this one."""
    assert abs(round(1.0 / dt) - 1.0 / dt) < 1e-12
    move_ticks = int(round(1.0 / dt))
    max_tick = int(round(horizon / dt))
    start = tuple(start)
    goal = tuple(goal)

    def park_clear(cell, t_from):
        return all(
            _min_dist_affine(cell[0], cell[1], 0.0, 0.0, t_from, math.inf, ob)
            >= 1.0 - 1e-9
            for ob in obstacles
        )

    dist = {(start, 0): 0.0}
    heap = [(0.0, start, 0)]
    while heap:
        cost, cell, tick = heapq.heappop(heap)
        if cost > dist.get((cell, tick), math.inf):
            continue
        t = tick * dt
        if cell == goal and park_clear(cell, t):
            return cost
        if tick >= max_tick:
            continue
        # wait one tick
        if all(
            _min_dist_affine(cell[0], cell[1], 0.0, 0.0, t, t + dt, ob) >= 1.0 - 1e-6
            for ob in obstacles
        ):
            key = (cell, tick + 1)
            nc = cost + dt
            if nc < dist.get(key, math.inf) - 1e-12:
                dist[key] = nc
                heapq.heappush(heap, (nc, cell, tick + 1))
        # cardinal moves, one time unit each
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + dc, cell[1] + dr)
            if not grid.move_is_feasible(cell, nxt):
                continue
            if tick + move_ticks > max_tick:
                continue
            if all(
                _min_dist_affine(cell[0], cell[1], float(dc), float(dr), t, t + 1.0, ob)
                >= 1.0 - 1e-6
                for ob in obstacles
            ):
                key = (nxt, tick + move_ticks)
                nc = cost + 1.0
                if nc < dist.get(key, math.inf) - 1e-12:
                    dist[key] = nc
                    heapq.heappush(heap, (nc, nxt, tick + move_ticks))
    return None


def time_expanded_best_cost(grid, obstacles, start, goal, dt=0.25, horizon=40.0):
    """Brute-force reference the planners must match or beat: Dijkstra over
    (cell, tick) with wait ticks and cardinal unit moves, transitions gated
    by the same safe intervals and move collision windows the planners use.
    The search shares nothing with the planners; the shared collision model
    is certified independently by the validator-based soundness tests and
    the exact tick oracle above."""
    from anysipp.constraints import (
        _relevant_from_cells,
        ConstraintTable,
        collision_intervals_for_move,
        earliest_arrival,
        TimeInterval,
    )

    assert abs(round(1.0 / dt) - 1.0 / dt) < 1e-12
    move_ticks = int(round(1.0 / dt))
    max_tick = int(round(horizon / dt))
    start = tuple(start)
    goal = tuple(goal)
    obstacles = list(obstacles)
    table = ConstraintTable(obstacles)
    intervals = {}
    cols_cache = {}

    def ivs_at(cell):
        if cell not in intervals:
            intervals[cell] = table.safe_intervals_at(cell)
        return intervals[cell]

    def inside_some_interval(cell, lo, hi):
        return any(
            iv.start - 1e-9 <= lo and hi <= iv.end + 1e-9 for iv in ivs_at(cell)
        )

    def cols_for(a, b):
        key = (a, b)
        if key not in cols_cache:
            pieces = _relevant_from_cells(a, b, table)
            cols_cache[key] = collision_intervals_for_move(a, b, pieces)
        return cols_cache[key]

    if not inside_some_interval(start, 0.0, 0.0):
        return None
    dist = {(start, 0): 0.0}
    heap = [(0.0, start, 0)]
    while heap:
        cost, cell, tick = heapq.heappop(heap)
        if cost > dist.get((cell, tick), math.inf):
            continue
        t = tick * dt
        if cell == goal and inside_some_interval(cell, t, math.inf):
            return cost
        if tick >= max_tick:
            continue
        if inside_some_interval(cell, t, t + dt):
            key = (cell, tick + 1)
            nc = cost + dt
            if nc < dist.get(key, math.inf) - 1e-12:
                dist[key] = nc
                heapq.heappush(heap, (nc, cell, tick + 1))
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + dc, cell[1] + dr)
            if not grid.move_is_feasible(cell, nxt):
                continue
            if tick + move_ticks > max_tick:
                continue
            arrival = t + 1.0
            if not inside_some_interval(nxt, arrival, arrival):
                continue
            accepted = earliest_arrival(
                cols_for(cell, nxt), arrival, arrival, TimeInterval(0.0, math.inf)
            )
            if accepted is None or accepted > arrival + 1e-9:
                continue
            key = (nxt, tick + move_ticks)
            nc = cost + 1.0
            if nc < dist.get(key, math.inf) - 1e-12:
                dist[key] = nc
                heapq.heappush(heap, (nc, nxt, tick + move_ticks))
    return None


def parse_trajectory(lines):
    """Trajectory from ``format_trajectory`` lines (``col row arrival wait``)."""
    wps = []
    for line in lines:
        c, r, arrival, wait = line.split()
        wps.append(Waypoint((int(c), int(r)), float(arrival), float(wait)))
    return Trajectory(wps)


def parse_csv(text):
    """Run records from the CLI's results CSV."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "instance,mode,agents,success,time_s,cost,valid,seed":
        raise ValueError("unrecognized results CSV header")
    out = []
    for ln in lines[1:]:
        inst, mode, agents, success, time_s, cost, valid, seed = ln.split(",")
        out.append(
            RunRecord(
                inst, mode, int(agents), success == "true", float(time_s),
                float(cost) if cost else None,
                None if valid == "" else valid == "true",
                int(seed),
            )
        )
    return out
