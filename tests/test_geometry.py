import random

import pytest

from anysipp import geometry
from anysipp.geometry import swept_cells

from oracles import _point_seg_dist, sampled_swept_cells, seg_box_distance


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


def test_moves_with_one_displacement_share_one_cache_entry():
    cache = geometry._swept_cached
    cache.cache_clear()
    swept_cells((0, 0), (11, 3))
    swept_cells((11, 3), (0, 0))  # the reverse
    swept_cells((-7, 20), (4, 23))  # a translate
    info = cache.cache_info()
    assert (info.currsize, info.hits) == (1, 2)
    assert info.maxsize is not None
    # The cache changes where a result is kept, never the result.
    for a, b in (((0, 0), (2, -1)), ((3, 4), (4, 4)), ((5, 5), (5, 5)),
                 ((0, 0), (11, 3)), ((-7, 20), (4, 23)), ((-3, -9), (-40, 17)),
                 ((-1, -1), (-6, -6)), ((2, -30), (2, 12))):
        lo, hi = min(a, b), max(a, b)
        assert swept_cells(a, b) == geometry._sweep(*lo, *hi)


def test_dist_examples():
    # The oracle point-segment distance behind seg_box_distance (criterion 7).
    assert _point_seg_dist(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert _point_seg_dist(3, 0, 0, 0, 1, 0) == pytest.approx(2.0)
    assert _point_seg_dist(1, 1, 0, 0, 2, 2) == pytest.approx(0.0)
