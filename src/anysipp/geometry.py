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
    try:
        c, r = round(p[0]), round(p[1])
        if abs(p[0] - c) <= GEOM_TOL and abs(p[1] - r) <= GEOM_TOL:
            return int(c), int(r)
    except (OverflowError, ValueError):  # an infinite or NaN coordinate
        pass
    raise ValueError(f"segment endpoint {p!r} is not a cell center")


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


# _COLUMNS[u][r] is the offset (u, r), and every entry takes its offsets from
# these lists. Column u holds rows 0 to min(u + 1, the largest dy yet): no more.
_COLUMNS: list = [[(0, 0)]]
# A corner is within the radius (less GEOM_TOL) of the segment's line iff
# cross^2 < _CORNER_HIT * den, where cross is the doubled-coordinate cross
# product, so that the squared distance is cross^2 / (4 * den).
_CORNER_HIT = (2 * (AGENT_RADIUS - GEOM_TOL)) ** 2


def _sweep(dx: int, dy: int) -> Tuple[Cell, ...]:
    """The swept cells of the move (0, 0) -> (dx, dy), 0 <= dy <= dx, column
    by column, each column's rows upward.

    In doubled coordinates cell edges and corners are integers and every
    test is exact. The segment crosses the edge between columns x and x + 1
    in row hi, one floor division that both columns share: column x holds
    the rows the segment passes through, from the row it entered in to hi.
    The row on either side is entered iff the segment passes within the
    radius of the corner facing it nearest the line. At slopes in [0, 1]
    those are the two corners of row hi on that edge: the top one for the
    row above in column x, the bottom one for the row below in column x + 1.
    Both project onto the segment, so their distance to the line decides.
    The endpoints are cell centers, so nothing is entered below column 0 or
    above column dx, and rows further out are at least sqrt(0.5) away."""
    rows = len(_COLUMNS[-1])
    if dy >= rows:
        for u in range(rows - 1, len(_COLUMNS)):
            _COLUMNS[u] += [(u, r) for r in range(rows, min(u + 2, dy + 1))]
        rows = dy + 1
    for u in range(len(_COLUMNS), dx + 1):
        _COLUMNS.append([(u, r) for r in range(min(u + 2, rows))])
    hit = _CORNER_HIT * (dx * dx + dy * dy)
    cells = []
    lo, below = 0, hit
    for x, column in enumerate(_COLUMNS[:dx]):
        hi = (dx + dy * (2 * x + 1)) // (2 * dx)
        above = dx * (2 * hi + 1) - dy * (2 * x + 1)
        cells += column[lo - 1 if below < hit else lo:hi + 2 if above * above < hit else hi + 1]
        lo, below = hi, (above - 2 * dx) ** 2
    cells += _COLUMNS[dx][lo - 1 if below < hit else lo:dy + 1]
    return tuple(cells)


# The swept set is translation invariant and commutes with the grid's eight
# reflections and rotations, so one entry per first-octant displacement
# (0 <= dy <= dx) serves every move that maps onto it, and a map of side n
# has about n^2 / 2 of them. The entries hold cell offsets from the origin,
# each column's sliced from one shared list, so that an entry costs one
# pointer per cell. The bound holds every displacement of a map of side up
# to 127; larger maps evict the least recent.
_swept_cached = lru_cache(maxsize=1 << 13)(_sweep)
