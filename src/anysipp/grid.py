"""Static grid world: map parsing and clearance-aware traversability."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .geometry import Cell, swept_cells

FREE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTSW")

# Step sets for GridMap.successors: 4-connected, then 8-connected.
CARDINAL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
OCTILE_STEPS = CARDINAL_STEPS + ((1, 1), (1, -1), (-1, 1), (-1, -1))


class MapFormatError(ValueError):
    """Raised for malformed map files; carries 1-based line/column."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.col = col


class GridMap:
    """Immutable occupancy grid. Out-of-bounds cells count as blocked."""

    __slots__ = ("width", "height", "_rows", "any_blocked", "_successors")

    def __init__(self, width: int, height: int, rows: List[bytes]):
        if width < 1 or height < 1:
            raise MapFormatError(f"grid must be at least 1x1, got {width}x{height}")
        if len(rows) != height or any(len(r) != width for r in rows):
            raise MapFormatError("occupancy rows do not match declared dimensions")
        self.width = width
        self.height = height
        self._rows = tuple(bytes(r) for r in rows)
        self.any_blocked = any(any(r) for r in self._rows)
        self._successors = {}

    @classmethod
    def empty(cls, width: int, height: int) -> "GridMap":
        return cls(width, height, [bytes(width) for _ in range(height)])

    @classmethod
    def from_blocked(cls, width: int, height: int, blocked: Iterable[Cell]) -> "GridMap":
        rows = [bytearray(width) for _ in range(height)]
        for c, r in blocked:
            if not (0 <= c < width and 0 <= r < height):
                raise MapFormatError(f"blocked cell {(c, r)} is outside the {width}x{height} grid")
            rows[r][c] = 1
        return cls(width, height, [bytes(r) for r in rows])

    def in_bounds(self, cell) -> bool:
        c, r = cell
        return 0 <= c < self.width and 0 <= r < self.height

    def is_traversable(self, cell) -> bool:
        c, r = cell
        if not (0 <= c < self.width and 0 <= r < self.height):
            return False
        return not self._rows[r][c]

    def cells_traversable(self, cells) -> bool:
        rows = self._rows
        w, h = self.width, self.height
        for c, r in cells:
            if not (0 <= c < w and 0 <= r < h) or rows[r][c]:
                return False
        return True

    def successors(self, steps: Sequence[Cell]) -> "_Successors":
        """The map's successor table for a step set: indexed by a cell, it
        gives the cells one step away that a disk can slide to, in step
        order. A step is kept when the cell, its end and, for a diagonal, the
        two cells at the corner it passes are traversable. Each cell's entry
        is filled on first use and kept for the map's life, one table per
        step set."""
        steps = tuple(steps)
        table = self._successors.get(steps)
        if table is None:
            table = self._successors[steps] = _Successors(self, steps)
        return table

    def move_is_feasible(self, a, b) -> bool:
        """True iff a disk of radius 0.5 can slide straight from a to b
        without touching a blocked (or out-of-bounds) cell."""
        if not (self.in_bounds(a) and self.in_bounds(b)):
            return False
        if not self.any_blocked:
            return True
        return self.cells_traversable(swept_cells(a, b))

    def free_cells(self) -> List[Cell]:
        return [
            (c, r)
            for r in range(self.height)
            for c in range(self.width)
            if not self._rows[r][c]
        ]

    def __eq__(self, other):
        return (
            isinstance(other, GridMap)
            and self.width == other.width
            and self.height == other.height
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.width, self.height, self._rows))

    def __repr__(self):
        return f"GridMap({self.width}x{self.height}, blocked={self.any_blocked})"


class _Successors(dict):
    """Cell -> tuple of neighbour cells; see :meth:`GridMap.successors`."""

    __slots__ = ("grid", "steps")

    def __init__(self, grid: GridMap, steps: Tuple[Cell, ...]):
        super().__init__()
        self.grid = grid
        self.steps = steps

    def __missing__(self, cell) -> Tuple[Cell, ...]:
        free = self.grid.is_traversable
        c, r = cell
        out = ()
        if free(cell):
            out = tuple(
                (c + dx, r + dy)
                for dx, dy in self.steps
                if free((c + dx, r + dy))
                and (not (dx and dy) or (free((c + dx, r)) and free((c, r + dy))))
            )
        self[cell] = out
        return out


def parse_map(data) -> GridMap:
    """Parse the benchmark map format.

    Expected layout: ``type octile`` / ``height H`` / ``width W`` / ``map``
    followed by exactly H rows of W characters. Row 0 is the first map line,
    column 0 its first character.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    lines = data.splitlines()
    if len(lines) < 4:
        raise MapFormatError("truncated header, expected 4 header lines", line=len(lines) + 1)

    def header(idx: int, key: str) -> str:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise MapFormatError(f"expected '{key} <value>'", line=idx + 1)
        return parts[1]

    if lines[0].split() != ["type", "octile"]:
        raise MapFormatError("expected 'type octile'", line=1)
    try:
        height = int(header(1, "height"))
        width = int(header(2, "width"))
    except ValueError as exc:
        raise MapFormatError(f"non-integer dimension: {exc}", line=2) from None
    if lines[3].strip() != "map":
        raise MapFormatError("expected 'map'", line=4)
    if height < 1 or width < 1:
        raise MapFormatError(f"bad dimensions {width}x{height}", line=2)

    body = lines[4:]
    rows: List[bytes] = []
    for i in range(height):
        if i >= len(body):
            raise MapFormatError(
                f"declared height {height} but found only {len(rows)} map rows",
                line=5 + len(body),
            )
        text = body[i].rstrip("\r")
        if len(text) != width:
            raise MapFormatError(
                f"row has {len(text)} characters, expected {width}", line=5 + i
            )
        row = bytearray(width)
        for j, ch in enumerate(text):
            if ch in BLOCKED_CHARS:
                row[j] = 1
            elif ch not in FREE_CHARS:
                raise MapFormatError(f"unknown map character {ch!r}", line=5 + i, col=j + 1)
        rows.append(bytes(row))
    for k, extra in enumerate(body[height:]):
        if extra.strip():
            raise MapFormatError(
                f"declared height {height} but map body continues", line=5 + height + k
            )
    return GridMap(width, height, rows)
