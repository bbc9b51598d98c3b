import math
import random

import pytest

from anysipp import geometry
from anysipp.constraints import ConstraintTable
from anysipp.geometry import swept_cells
from anysipp.planner import K16
from anysipp.trajectory import Trajectory, Waypoint

from oracles import _point_seg_dist, corner_rule_sweep, sampled_swept_cells, seg_box_distance


def test_horizontal_sweep_excludes_grazed_rows():
    # The stadium around a row's center line only touches the neighbor rows'
    # boundaries, and cells are open regions.
    assert set(swept_cells((0, 0), (4, 0))) == {(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)}


def test_diagonal_sweep_includes_corner_cells():
    assert set(swept_cells((0, 0), (1, 1))) == {(0, 0), (1, 1), (1, 0), (0, 1)}


def test_degenerate_segment_is_single_cell():
    assert swept_cells((2, 3), (2, 3)) == ((2, 3),)


def test_vertical_sweep():
    assert set(swept_cells((2, 5), (2, 1))) == {(2, y) for y in range(1, 6)}


def test_non_integer_endpoint_rejected():
    with pytest.raises(ValueError):
        swept_cells((0.25, 0), (3, 0))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_endpoint_rejected(x):
    # The same refusal as for an off-centre endpoint, also where a planner
    # input reaches it: an obstacle trajectory given to plan() or to a table.
    with pytest.raises(ValueError, match="not a cell center"):
        swept_cells((x, 0), (0, 0))
    with pytest.raises(ValueError, match="not a cell center"):
        ConstraintTable([Trajectory([Waypoint((x, 0), 0.0, math.inf)])])


def _random_segment(rng, size=32):
    a = (rng.randrange(size), rng.randrange(size))
    b = (rng.randrange(size), rng.randrange(size))
    return a, b


def check_sweep_against_oracle(a, b):
    got = set(swept_cells(a, b))
    expect = sampled_swept_cells(a, b)
    for cell in got.symmetric_difference(expect):
        d = seg_box_distance(a, b, cell)
        assert abs(d - 0.5) <= 1e-6, (
            f"swept_cells disagrees with oracle at {cell} for {a}->{b}, "
            f"box distance {d}"
        )


def test_sweep_matches_sampling_oracle():
    rng = random.Random(20240131)
    for _ in range(300):
        a, b = _random_segment(rng)
        check_sweep_against_oracle(a, b)
    # Every short displacement, the axis, diagonal and zero ones included.
    for dx in range(-10, 11):
        for dy in range(-10, 11):
            check_sweep_against_oracle((0, 0), (dx, dy))



def _images(x, y):
    """The 8 images of (x, y) under the grid's reflections and rotations, in
    one fixed order of the symmetries."""
    return [(sx * u, sy * v) for u, v in ((x, y), (y, x)) for sx in (1, -1) for sy in (1, -1)]


def test_sweep_commutes_with_grid_symmetries():
    # Each of the 8 symmetries maps the sweep of a displacement onto the
    # sweep of its image, so the first octant (0 <= dy <= dx), checked here
    # against the oracle, decides every displacement.
    for dx in range(-16, 17):
        for dy in range(-16, 17):
            images = [_images(*cell) for cell in swept_cells((0, 0), (dx, dy))]
            for k, target in enumerate(_images(dx, dy)):
                assert set(swept_cells((0, 0), target)) == {img[k] for img in images}, (dx, dy, k)
            if 0 <= dy <= dx:
                check_sweep_against_oracle((0, 0), (dx, dy))

def _octile_path_inside_sweep(dx, dy) -> bool:
    """Whether a corner-rule 8-connected path of octile length joins (0, 0)
    to (dx, dy), 0 <= dy <= dx, using only cells of their sweep. A step is
    allowed when its own sweep lies in that set, the test
    ``GridMap.move_is_feasible`` makes on a map whose free cells are the set.
    A path of k straight and j diagonal steps has length k + j sqrt 2, which
    equals the octile length dx - dy + dy sqrt 2 only for k = dx - dy and
    j = dy, and then each step must advance x: the path takes the steps
    (1, 0) and (1, 1) alone, column by column."""
    free = set(swept_cells((0, 0), (dx, dy)))
    rows = {0}
    for x in range(dx):
        rows = {y + up for y in rows for up in (0, 1)
                if free.issuperset(swept_cells((x, y), (x + 1, y + up)))}
    return dy in rows


@pytest.mark.parametrize("span", [
    64, pytest.param(127, marks=pytest.mark.slow),
])
def test_every_sight_line_holds_an_octile_path(span):
    # The 8-connected counterpart of the 16-neighbour property below, by
    # exhaustion. The map distance d8 (corner-rule 8-connected, steps 1 and
    # sqrt 2) is at least the octile distance on any map. Where a
    # line-of-sight move a -> b is free, so is its sweep, and this test finds
    # a path of octile length inside the sweep for every first-octant
    # displacement up to span; by the grid symmetries
    # (test_sweep_commutes_with_grid_symmetries) that covers every move on
    # maps up to span + 1 cells wide. There d8(a, b) = octile(a, b) <=
    # K8 |ab|, K8 = sqrt(4 - 2 sqrt 2) the largest ratio of octile to
    # Euclidean length, so max(Euclid, d8 / K8) is a consistent heuristic
    # too; the planner's 16-neighbour one is tighter on the whole.
    bad = [(dx, dy) for dx in range(span + 1) for dy in range(dx + 1)
           if not _octile_path_inside_sweep(dx, dy)]
    assert bad == []


def test_long_sight_lines_hold_an_octile_path_by_sample():
    # The same property past the exhaustive span, by seeded sample up to
    # 1023: random first-octant displacements, and for a few lengths the
    # flattest and steepest slopes and the two nearest 22.5 degrees, where
    # the octile-to-Euclidean ratio peaks at K8.
    rng = random.Random(1023)
    cases = [(dx, rng.randint(0, dx)) for dx in (rng.randint(128, 1023) for _ in range(150))]
    for dx in (128, 255, 511, 1023):
        near = dx * math.tan(math.pi / 8)
        cases += [(dx, dy) for dy in (0, 1, dx - 1, dx, math.floor(near), math.ceil(near))]
    assert len(cases) == 174
    assert [case for case in cases if not _octile_path_inside_sweep(*case)] == []


def _d16(dx, dy) -> float:
    """The 16-neighbour distance of (dx, dy), 0 <= dy <= dx, on an empty
    grid: dy steps (2, 1) and dx - 2 dy steps (1, 0) where 2 dy <= dx, else
    dx - dy steps (2, 1) and 2 dy - dx steps (1, 1)."""
    if 2 * dy <= dx:
        return dy * math.sqrt(5.0) + (dx - 2 * dy)
    return (dx - dy) * math.sqrt(5.0) + (2 * dy - dx) * math.sqrt(2.0)


def _sixteen_path_inside_sweep(dx, dy) -> bool:
    """Whether a 16-neighbour path of length d16 joins (0, 0) to (dx, dy),
    0 <= dy <= dx, using only cells of their sweep, each step allowed when
    its own sweep lies in that set (``GridMap.move_is_feasible`` on a map
    whose free cells are the set). The step costs 1, sqrt 2 and sqrt 5 are
    independent over the rationals, so a path of length d16 has d16's step
    counts of each cost. Those counts reach (dx, dy) only if every step
    moves up and right, and then only the two steps that bracket the move's
    direction fit: (1, 0) and (2, 1), or (2, 1) and (1, 1). Both advance x,
    so the search goes column by column."""
    free = set(swept_cells((0, 0), (dx, dy)))
    steps = ((1, 0), (2, 1)) if 2 * dy <= dx else ((2, 1), (1, 1))
    reach = [set() for _ in range(dx + 1)]
    reach[0].add(0)
    for x in range(dx):
        for y in reach[x]:
            for sx, sy in steps:
                if x + sx <= dx and free.issuperset(swept_cells((x, y), (x + sx, y + sy))):
                    reach[x + sx].add(y + sy)
    return dy in reach[dx]


@pytest.mark.parametrize("span", [
    64, pytest.param(127, marks=pytest.mark.slow),
])
def test_every_sight_line_holds_a_sixteen_neighbour_path(span):
    # Consistency of the any-angle map-distance heuristic, by exhaustion, as
    # in test_every_sight_line_holds_an_octile_path but for the 16-neighbour
    # map distance d16 that the planner uses: a free line-of-sight move
    # a -> b holds a path of length d16(a, b) <= K16 |ab|, so h = max(Euclid,
    # d16 / K16) obeys h(a) <= |ab| + h(b). K16 = sqrt(10 - 4 sqrt 5) is the
    # largest ratio of d16 to Euclidean length, approached near slope
    # sqrt 5 - 2 ((55, 13) at this span).
    cases = [(dx, dy) for dx in range(span + 1) for dy in range(dx + 1)]
    assert [case for case in cases if not _sixteen_path_inside_sweep(*case)] == []
    ratio = max(_d16(dx, dy) / math.hypot(dx, dy) for dx, dy in cases[1:])
    assert ratio <= K16 and ratio == pytest.approx(K16, abs=1e-7)
    assert K16 == pytest.approx(1.0 / math.cos(math.atan(0.5) / 2.0), abs=1e-15)


def test_long_sight_lines_hold_a_sixteen_neighbour_path_by_sample():
    # The same past the exhaustive span, by seeded sample up to 1023:
    # random first-octant displacements, and for a few lengths the flattest
    # and steepest slopes, slope 1/2 and the two nearest sqrt 5 - 2, where
    # d16 / Euclid peaks at K16.
    rng = random.Random(1024)
    cases = [(dx, rng.randint(0, dx)) for dx in (rng.randint(128, 1023) for _ in range(150))]
    for dx in (128, 255, 511, 1023):
        near = dx * (math.sqrt(5.0) - 2.0)
        cases += [(dx, dy) for dy in (0, 1, dx // 2, dx, math.floor(near), math.ceil(near))]
    assert len(cases) == 174
    assert [case for case in cases if not _sixteen_path_inside_sweep(*case)] == []
    assert max(_d16(*case) / math.hypot(*case) for case in cases) <= K16


def test_sweep_symmetry_and_endpoints_and_size():
    rng = random.Random(97)
    for _ in range(500):
        a, b = _random_segment(rng)
        cells = swept_cells(a, b)
        assert set(cells) == set(swept_cells(b, a))
        assert a in cells and b in cells
        # Linear-size output: slopes near +-1 genuinely sweep four cells in a
        # dominant-axis slab (the two-cell batch plus one on each side), so
        # the tight per-slab constant is 4.
        span = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        assert len(cells) <= 4 * (span + 1)
        assert len(set(cells)) == len(cells)


@pytest.mark.parametrize("span", [
    64, pytest.param(127, marks=pytest.mark.slow),
])
def test_sweep_matches_the_corner_rule_inside_its_box(span):
    # The fill tests one corner per row side and shares each column edge's
    # row with the next column; the oracle tests both corners of every side
    # with their projections. The same cells in the same order, for every
    # first-octant displacement of a map up to span + 1 cells wide (127 is
    # the cache's bound). Every offset lies in [0, dx] x [0, dy]:
    # GridMap.line_of_sight indexes the rows of a move's cells unguarded, and
    # a negative index would wrap.
    for dx in range(span + 1):
        for dy in range(dx + 1):
            cells = geometry._sweep(dx, dy)
            assert cells == corner_rule_sweep(dx, dy), (dx, dy)
            assert all(0 <= u <= dx and 0 <= v <= dy for u, v in cells), (dx, dy)


def test_cache_entries_share_one_object_per_offset():
    # One pointer per cell: equal offsets in different entries are one
    # object, also across a cleared and refilled cache.
    cache = geometry._swept_cached

    def offsets():
        seen = {}
        for dx in range(24):
            for dy in range(dx + 1):
                for cell in cache(dx, dy):
                    assert seen.setdefault(cell, cell) is cell, (dx, dy, cell)
        return seen

    cache.cache_clear()
    first = offsets()
    cache.cache_clear()
    again = offsets()
    assert again.keys() == first.keys()
    assert all(again[cell] is first[cell] for cell in first)


def test_moves_with_one_displacement_share_one_cache_entry():
    cache = geometry._swept_cached
    cache.cache_clear()
    # the 8 images of one displacement, each as a translate and reversed
    for k, (dx, dy) in enumerate(_images(11, 3)):
        swept_cells((k, -k), (k + dx, dy - k))
        swept_cells((dx, dy), (0, 0))
    info = cache.cache_info()
    assert (info.currsize, info.hits) == (1, 15)
    assert info.maxsize is not None
    # The cache changes where a result is kept, never the result.
    for (ax, ay), (dx, dy) in (((0, 0), (11, 3)), ((-7, 20), (11, 3)), ((3, 4), (1, 0)),
                               ((5, 5), (0, 0)), ((2, -30), (42, 42)), ((-3, -9), (37, 26))):
        assert (swept_cells((ax, ay), (ax + dx, ay + dy))
                == tuple((ax + u, ay + v) for u, v in geometry._sweep(dx, dy)))


def test_dist_examples():
    # The oracle point-segment distance behind seg_box_distance (criterion 7).
    assert _point_seg_dist(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert _point_seg_dist(3, 0, 0, 0, 1, 0) == pytest.approx(2.0)
    assert _point_seg_dist(1, 1, 0, 0, 2, 2) == pytest.approx(0.0)
