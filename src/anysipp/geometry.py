"""Geometric kernel for disk-on-grid motion.

Lengths are grid units: the cell side is 1 and the agent is an open disk of
radius 0.5, so a cell whose distance to a motion segment is exactly the
radius is grazed, not entered. Cell (c, r) is centered at the integer point
(c, r) and spans [c - 0.5, c + 0.5] x [r - 0.5, r + 0.5].
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

AGENT_RADIUS = 0.5
# Distances within this band of a threshold count as an exact touch.
GEOM_TOL = 1e-9

Cell = Tuple[int, int]
Point = Tuple[float, float]


def _as_cell(p) -> Cell:
    c, r = round(p[0]), round(p[1])
    if abs(p[0] - c) > GEOM_TOL or abs(p[1] - r) > GEOM_TOL:
        raise ValueError(f"segment endpoint {p!r} is not a cell center")
    return int(c), int(r)


def swept_cells(a, b) -> Tuple[Cell, ...]:
    """Cells an open disk of radius 0.5 touches while its center moves a -> b.

    Endpoints must be cell centers. A cell is included iff its interior
    intersects the open swept region {q : dist(q, segment) < 0.5}; exact
    touches (distance within GEOM_TOL of the radius) are excluded. Output is
    ordered along the dominant axis, minor axis ascending within a batch, and
    is identical for a -> b and b -> a.
    """
    pa, pb = _as_cell(a), _as_cell(b)
    if pb < pa:
        pa, pb = pb, pa
    return _swept_cached(pa[0], pa[1], pb[0], pb[1])


@lru_cache(maxsize=1 << 16)
def _swept_cached(ax: int, ay: int, bx: int, by: int) -> Tuple[Cell, ...]:
    dx, dy = bx - ax, by - ay
    if dx == 0 and dy == 0:
        return ((ax, ay),)
    if dy == 0:
        lo, hi = (ax, bx) if ax <= bx else (bx, ax)
        return tuple((x, ay) for x in range(lo, hi + 1))
    if dx == 0:
        lo, hi = (ay, by) if ay <= by else (by, ay)
        return tuple((ax, y) for y in range(lo, hi + 1))
    if abs(dx) == abs(dy):
        return _swept_diagonal(ax, ay, bx, by)
    return _swept_general(ax, ay, bx, by)


def _swept_diagonal(ax, ay, bx, by) -> Tuple[Cell, ...]:
    # The segment runs corner to corner, so each crossed corner drags in the
    # two off-diagonal cells that share it.
    sx = 1 if bx > ax else -1
    sy = 1 if by > ay else -1
    cells = []
    for k in range(abs(bx - ax)):
        x, y = ax + k * sx, ay + k * sy
        cells += [(x, y), (x + sx, y), (x, y + sy)]
    cells.append((bx, by))
    cells.sort()
    return tuple(cells)


def _swept_general(ax, ay, bx, by) -> Tuple[Cell, ...]:
    steep = abs(by - ay) > abs(bx - ax)
    if steep:
        ax, ay, bx, by = ay, ax, by, bx
    if ax > bx:
        ax, ay, bx, by = bx, by, ax, ay
    # 0 < |dy| < dx from here on. Work in doubled coordinates so that cell
    # edges and corners are integers and every test below is exact.
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    hit = _CORNER_HIT * den
    base = 2 * dx * ay + dx
    cells = []
    for x in range(ax, bx + 1):
        # Rows the segment passes through within this column: distance 0.
        xl = max(2 * x - 1, 2 * ax) - 2 * ax
        xr = min(2 * x + 1, 2 * bx) - 2 * ax
        lo = (base + dy * xl) // (2 * dx)
        hi = (base + dy * xr) // (2 * dx)
        if lo > hi:
            lo, hi = hi, lo
        # The row on either side is entered iff the segment passes within the
        # radius of one of the two corners facing it (the endpoints are cell
        # centers, at least the radius from any other cell); rows further out
        # are at least sqrt(0.5) away.
        below = _corner_near(x, 2 * lo - 1, ax, ay, dx, dy, den, hit)
        above = _corner_near(x, 2 * hi + 1, ax, ay, dx, dy, den, hit)
        rows = range(lo - 1 if below else lo, hi + 2 if above else hi + 1)
        if steep:
            cells += [(r, x) for r in rows]
        else:
            cells += [(x, r) for r in rows]
    return tuple(cells)


# A corner is within the radius (less GEOM_TOL) of the segment's line iff
# cross^2 < _CORNER_HIT * den, where cross is the doubled-coordinate cross
# product, so that the squared distance is cross^2 / (4 * den).
_CORNER_HIT = (2 * (AGENT_RADIUS - GEOM_TOL)) ** 2


def _corner_near(x, y2, ax, ay, dx, dy, den, hit) -> bool:
    """Whether either corner (x -+ 0.5, y2 / 2) lies within the radius of the
    segment (ax, ay) + t * (dx, dy), t in [0, 1]."""
    py = y2 - 2 * ay
    for px in (2 * x - 1 - 2 * ax, 2 * x + 1 - 2 * ax):
        cross = dx * py - dy * px
        if cross * cross < hit and 0 <= dx * px + dy * py <= 2 * den:
            return True
    return False


def circle_segment_intersections(center, radius, a, b) -> List[Tuple[Point, float]]:
    """Points where the circle boundary crosses segment a-b.

    Returns (point, arclength-from-a) pairs sorted by arclength. A tangency
    yields a single point; a segment strictly inside the circle yields
    nothing, so callers interested in containment must test the endpoints
    themselves.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    ax, ay = a
    bx, by = b
    seg_len = math.hypot(bx - ax, by - ay)
    if seg_len == 0.0:
        on_circle = abs(math.hypot(ax - center[0], ay - center[1]) - radius) <= GEOM_TOL
        return [((float(ax), float(ay)), 0.0)] if on_circle else []
    ux, uy = (bx - ax) / seg_len, (by - ay) / seg_len
    mx, my = center[0] - ax, center[1] - ay
    proj = mx * ux + my * uy
    perp2 = mx * mx + my * my - proj * proj
    if perp2 < 0.0:
        perp2 = 0.0
    disc = radius * radius - perp2
    if disc < -1e-12:
        return []
    if disc <= 1e-12:
        roots = [proj]
    else:
        half = math.sqrt(disc)
        roots = [proj - half, proj + half]
    out = []
    for s in roots:
        if -GEOM_TOL <= s <= seg_len + GEOM_TOL:
            s = min(max(s, 0.0), seg_len)
            out.append(((ax + s * ux, ay + s * uy), s))
    return out
