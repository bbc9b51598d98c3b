"""Geometric kernel for disk-on-grid motion.

Lengths are grid units: the cell side is 1 and the agent is an open disk of
radius 0.5, so a cell whose distance to a motion segment is exactly the
radius is grazed, not entered. Cell (c, r) is centered at the integer point
(c, r) and spans [c - 0.5, c + 0.5] x [r - 0.5, r + 0.5].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

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
    ax, ay = pa
    return tuple([(ax + x, ay + y) for x, y in _swept_cached(pb[0] - ax, pb[1] - ay)])


# The swept set is translation invariant: every test in the sweep depends
# only on the displacement, so one entry per (dx, dy) serves every move with
# that displacement, and a map of side n has at most 2n^2 of them. The
# entries hold cell offsets from the smaller end point; the offset pairs are
# interned, so that an entry costs one pointer per cell. The bound holds a
# 64x64 map's every displacement; larger maps evict the least recent.
_OFFSETS: dict = {}


@lru_cache(maxsize=1 << 13)
def _swept_cached(dx: int, dy: int) -> Tuple[Cell, ...]:
    intern = _OFFSETS.setdefault
    return tuple([intern(c, c) for c in _sweep(0, 0, dx, dy)])


def _sweep(ax: int, ay: int, bx: int, by: int) -> Tuple[Cell, ...]:
    if ax == bx and ay == by:
        return ((ax, ay),)
    steep = abs(by - ay) > abs(bx - ax)
    if steep:
        ax, ay, bx, by = ay, ax, by, bx
    if ax > bx:
        ax, ay, bx, by = bx, by, ax, ay
    # 0 <= |dy| <= dx from here on. Work in doubled coordinates so that cell
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
