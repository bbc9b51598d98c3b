import os
import pickle
import random
from pathlib import Path

import pytest

from anysipp.grid import (
    CARDINAL_STEPS,
    OCTILE_STEPS,
    SIXTEEN_STEPS,
    GridMap,
    MapFormatError,
    parse_map,
)
from anysipp.geometry import swept_cells

from oracles import blocked_grid, sampled_swept_cells


def make_map(body, width=None, height=None):
    rows = body.strip().splitlines()
    h = height if height is not None else len(rows)
    w = width if width is not None else len(rows[0])
    return f"type octile\nheight {h}\nwidth {w}\nmap\n" + "\n".join(rows) + "\n"


def test_parse_small_map():
    g = parse_map(make_map(".@\n.."))
    assert g.width == 2 and g.height == 2
    assert not g.is_traversable((1, 0))
    assert g.is_traversable((0, 0))
    assert g.is_traversable((0, 1))
    assert g.is_traversable((1, 1))


def test_parse_bytes_and_terrain_chars():
    g = parse_map(make_map(".G@T\nOSW.").encode())
    assert [g.is_traversable((c, 0)) for c in range(4)] == [True, True, False, False]
    assert [g.is_traversable((c, 1)) for c in range(4)] == [False, False, False, True]


def test_height_mismatch_reports_error():
    text = "type octile\nheight 4\nwidth 2\nmap\n..\n..\n..\n"
    with pytest.raises(MapFormatError, match="height 4"):
        parse_map(text)


def test_row_width_mismatch_reports_line():
    text = "type octile\nheight 2\nwidth 3\nmap\n...\n..\n"
    with pytest.raises(MapFormatError, match="line 6"):
        parse_map(text)


def test_unknown_character_reports_position():
    text = "type octile\nheight 2\nwidth 2\nmap\n..\n.x\n"
    with pytest.raises(MapFormatError, match="line 6, col 2"):
        parse_map(text)


def test_bad_header():
    with pytest.raises(MapFormatError):
        parse_map("type tile\nheight 1\nwidth 1\nmap\n.\n")
    with pytest.raises(MapFormatError):
        parse_map("type octile\nheight one\nwidth 1\nmap\n.\n")


@pytest.mark.parametrize("cell", [(-1, 0), (4, 0), (0, -1), (0, 4)])
def test_from_blocked_rejects_cells_outside_the_grid(cell):
    # a negative index would wrap around and block a cell on the far side
    with pytest.raises(MapFormatError, match=rf"\({cell[0]}, {cell[1]}\)"):
        GridMap.from_blocked(4, 4, [cell])


def test_out_of_bounds_is_blocked():
    g = GridMap.empty(8, 8)
    assert g.is_traversable((3, 3))
    assert not g.is_traversable((-1, 0))
    assert not g.is_traversable((8, 0))
    assert not g.is_traversable((0, 8))
    # a point off the cell centers is blocked, one equal to a center is not
    assert not g.is_traversable((0.5, 0))
    assert g.is_traversable((1.0, 2.0))


def test_a_map_unpickles_to_the_same_cells():
    g = GridMap.from_blocked(6, 5, [(1, 1), (4, 2), (0, 4)])
    g.successors(OCTILE_STEPS)[(0, 0)]  # a filled table is rebuilt, not pickled
    h = pickle.loads(pickle.dumps(g))
    assert h.free_cells() == g.free_cells() and h.any_blocked == g.any_blocked
    cells = [(c, r) for r in range(-1, 7) for c in range(-1, 8)]
    assert [h.is_traversable(c) for c in cells] == [g.is_traversable(c) for c in cells]


def _random_blocked(width, height, share, seed):
    rng = random.Random(seed)
    cells = [(c, r) for r in range(height) for c in range(width)]
    return GridMap.from_blocked(width, height, rng.sample(cells, round(share * len(cells))))


FREE_CELL_GRIDS = [
    pytest.param(GridMap.empty(5, 3), id="empty"),
    pytest.param(GridMap.from_blocked(4, 4, [(2, 1)]), id="one-blocked"),
    pytest.param(parse_map(make_map(".G@T\nOSW.\n..@.")), id="parsed"),
    pytest.param(parse_map(make_map("@@\n@@")), id="parsed-all-blocked"),
] + [
    pytest.param(_random_blocked(9, 6, share, seed), id=f"random-{share}-{seed}")
    for share in (0.0, 0.2, 0.5, 1.0)
    for seed in (1, 2)
]


@pytest.mark.parametrize("g", FREE_CELL_GRIDS)
def test_free_cells_and_any_blocked_match_a_scan_of_the_map(g):
    scan = [
        (c, r) for r in range(g.height) for c in range(g.width) if g.is_traversable((c, r))
    ]
    cells = g.free_cells()
    assert list(cells) == scan
    assert g.free_cells() == cells
    assert g.any_blocked == (len(scan) < g.width * g.height)
    # the free-cell index agrees with the rows that the sight scan reads
    assert scan == [(c, r) for r in range(g.height) for c in range(g.width)
                    if g.line_of_sight((c, r), (c, r))]
    # a caller cannot change the map through the cells it was handed
    assert isinstance(cells, tuple) and all(isinstance(c, tuple) for c in cells)
    if cells:
        with pytest.raises(TypeError):
            cells[0] = (g.width, g.height)


def _corner_rule_successors(g, steps, cell):
    """Reference successor rule: a step is kept when the cell, its end and,
    for a diagonal, both cells at the corner it passes are in bounds and
    free."""
    free = g.is_traversable
    c, r = cell
    if not free(cell):
        return ()
    return tuple(
        (c + dx, r + dy)
        for dx, dy in steps
        if free((c + dx, r + dy))
        and (not (dx and dy) or (free((c + dx, r)) and free((c, r + dy))))
    )


@pytest.mark.parametrize("steps", [CARDINAL_STEPS, OCTILE_STEPS], ids=["cardinal", "octile"])
def test_successor_table_matches_the_corner_rule(steps):
    for seed in range(100):
        rng = random.Random(seed)
        width, height = rng.randint(1, 9), rng.randint(1, 9)
        g = _random_blocked(width, height, rng.choice((0.0, 0.1, 0.3, 0.6, 1.0)), seed)
        table = g.successors(steps)
        assert g.successors(list(steps)) is table
        # one ring of out-of-bounds cells around the map, which are blocked
        for r in range(-1, height + 1):
            for c in range(-1, width + 1):
                assert table[(c, r)] == _corner_rule_successors(g, steps, (c, r)), (seed, c, r)


def test_sixteen_step_table_matches_move_feasibility_with_the_maps_own_cells():
    # The tables scan line of sight in place; move_is_feasible, which the
    # validator uses, checks the swept cells one by one. Every cell a table
    # keys or lists is the map's own tuple from free_cells.
    for seed in range(40):
        rng = random.Random(seed)
        width, height = rng.randint(1, 9), rng.randint(1, 9)
        g = _random_blocked(width, height, rng.choice((0.0, 0.1, 0.3, 0.6)), seed)
        own = {cell: cell for cell in g.free_cells()}
        table = g.successors(SIXTEEN_STEPS)
        for r in range(-1, height + 1):
            for c in range(-1, width + 1):
                got = table[(c, r)]
                assert got == tuple(
                    (c + dx, r + dy) for dx, dy in SIXTEEN_STEPS
                    if g.move_is_feasible((c, r), (c + dx, r + dy))
                ), (seed, c, r)
                assert all(n is own[n] for n in got)
        assert all(cell is own[cell] for cell in table if cell in own)


def test_move_feasible_straight_on_empty_grid():
    g = GridMap.empty(8, 8)
    assert g.move_is_feasible((0, 0), (5, 0))


def test_move_blocked_iff_cell_swept():
    g = GridMap.from_blocked(8, 8, [(2, 1)])
    swept = sampled_swept_cells((0, 0), (4, 2))
    assert g.move_is_feasible((0, 0), (4, 2)) == ((2, 1) not in swept)
    assert (2, 1) in swept  # this diagonal passes close enough to block


def test_corner_touch_blocks_diagonal():
    # The disk passes through the shared corner (0.5, 0.5), so cell (1, 0)
    # is swept and a block there forbids the diagonal move.
    g = GridMap.from_blocked(4, 4, [(1, 0)])
    assert (1, 0) in sampled_swept_cells((0, 0), (1, 1))
    assert not g.move_is_feasible((0, 0), (1, 1))


def test_move_feasibility_symmetry_and_endpoints():
    rng = random.Random(11)
    g = GridMap.from_blocked(12, 12, [(rng.randrange(12), rng.randrange(12)) for _ in range(14)])
    for _ in range(300):
        a = (rng.randrange(12), rng.randrange(12))
        b = (rng.randrange(12), rng.randrange(12))
        f = g.move_is_feasible(a, b)
        assert f == g.move_is_feasible(b, a)
        if f:
            assert g.is_traversable(a) and g.is_traversable(b)


def test_adjacent_moves_always_feasible_on_free_grid():
    g = GridMap.empty(6, 6)
    for x in range(5):
        assert g.move_is_feasible((x, 2), (x + 1, 2))
        assert g.move_is_feasible((2, x), (2, x + 1))


def test_swept_cells_stay_in_bounds_hull():
    # Every ordered pair of centers of a 14x14 grid: GridMap.line_of_sight
    # indexes the swept cells of a move between in-bounds cells unguarded.
    cells = [(c, r) for c in range(14) for r in range(14)]
    for a in cells:
        for b in cells:
            lo_c, hi_c = min(a[0], b[0]), max(a[0], b[0])
            lo_r, hi_r = min(a[1], b[1]), max(a[1], b[1])
            for c, r in swept_cells(a, b):
                assert lo_c <= c <= hi_c and lo_r <= r <= hi_r, (a, b)


@pytest.mark.parametrize("size, seed", [(12, 0), (14, 1), (16, 2)])
def test_line_of_sight_matches_the_swept_cells(size, seed):
    # The planner scans a move's swept cells in place; successor tables and
    # the validator go through the materialised swept cells.
    g = blocked_grid(size, 0.2, seed)
    free = g.free_cells()
    for a in free:
        for b in free:
            assert g.line_of_sight(a, b) == g.cells_traversable(swept_cells(a, b)), (a, b)


MAPS_DIR = Path(os.environ.get("MOVINGAI_MAPS", "maps"))


@pytest.mark.parametrize("name", ["brc202d", "den520d", "ost003d"])
def test_benchmark_maps_parse(name):
    path = MAPS_DIR / f"{name}.map"
    if not path.exists():
        pytest.skip(f"benchmark map {path} not available")
    g = parse_map(path.read_text())
    assert g.width > 100 and g.height > 100
    assert g.any_blocked
