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
    touches (distance within GEOM_TOL of the radius) are excluded. The set
    is the same for a -> b and b -> a; the order of the cells is unspecified.
    """
    a, b = _as_cell(a), _as_cell(b)
    offsets, sx, sy, swap = sweep_octant(a, b)
    ax, ay = a
    if swap:
        return tuple([(ax + sx * v, ay + sy * u) for u, v in offsets])
    return tuple([(ax + sx * u, ay + sy * v) for u, v in offsets])


def sweep_octant(a, b):
    """The move between the centers of cells a and b, reflected into the
    first octant: (offsets, sx, sy, swap). Its swept cells are a + (sx * u,
    sy * v) for the first-octant offsets (u, v), or a + (sx * v, sy * u) when
    swap is true, in the offsets' order (:func:`swept_cells`' order). Every
    one lies in the bounding box of a and b: a cell outside it is at least
    the radius from the segment."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    sx, sy = (1 if dx >= 0 else -1), (1 if dy >= 0 else -1)
    dx, dy = abs(dx), abs(dy)
    if dy > dx:
        return _swept_cached(dy, dx), sx, sy, True
    return _swept_cached(dx, dy), sx, sy, False


# The swept set is translation invariant and commutes with the grid's eight
# reflections and rotations, so one entry per first-octant displacement
# (0 <= dy <= dx) serves every move that maps onto it, and a map of side n
# has about n^2 / 2 of them. The entries hold cell offsets from the origin;
# the offset pairs are interned, so that an entry costs one pointer per
# cell. The bound holds every displacement of a map of side up to 127;
# larger maps evict the least recent.
_OFFSETS: dict = {}


@lru_cache(maxsize=1 << 13)
def _swept_cached(dx: int, dy: int) -> Tuple[Cell, ...]:
    intern = _OFFSETS.setdefault
    return tuple([intern(c, c) for c in _sweep(dx, dy)])


def _sweep(dx: int, dy: int) -> Tuple[Cell, ...]:
    """The swept cells of the move (0, 0) -> (dx, dy), 0 <= dy <= dx, column
    by column."""
    if dx == 0:
        return ((0, 0),)
    # Work in doubled coordinates so that cell edges and corners are
    # integers and every test below is exact.
    den = dx * dx + dy * dy
    hit = _CORNER_HIT * den
    cells = []
    for x in range(dx + 1):
        # Rows the segment passes through within this column: distance 0.
        lo = (dx + dy * max(2 * x - 1, 0)) // (2 * dx)
        hi = (dx + dy * min(2 * x + 1, 2 * dx)) // (2 * dx)
        # The row on either side is entered iff the segment passes within the
        # radius of one of the two corners facing it (the endpoints are cell
        # centers, at least the radius from any other cell); rows further out
        # are at least sqrt(0.5) away.
        below = _corner_near(x, 2 * lo - 1, dx, dy, den, hit)
        above = _corner_near(x, 2 * hi + 1, dx, dy, den, hit)
        cells += [(x, r) for r in range(lo - 1 if below else lo, hi + 2 if above else hi + 1)]
    return tuple(cells)


# A corner is within the radius (less GEOM_TOL) of the segment's line iff
# cross^2 < _CORNER_HIT * den, where cross is the doubled-coordinate cross
# product, so that the squared distance is cross^2 / (4 * den).
_CORNER_HIT = (2 * (AGENT_RADIUS - GEOM_TOL)) ** 2


def _corner_near(x, y2, dx, dy, den, hit) -> bool:
    """Whether either corner (x -+ 0.5, y2 / 2) lies within the radius of the
    segment t * (dx, dy), t in [0, 1]."""
    for px in (2 * x - 1, 2 * x + 1):
        cross = dx * y2 - dy * px
        if cross * cross < hit and 0 <= dx * px + dy * y2 <= 2 * den:
            return True
    return False
