import math
import random

import pytest

from anysipp.geometry import circle_segment_intersections, swept_cells

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


def test_dist_examples():
    # The oracle point-segment distance behind seg_box_distance (criterion 7).
    assert _point_seg_dist(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert _point_seg_dist(3, 0, 0, 0, 1, 0) == pytest.approx(2.0)
    assert _point_seg_dist(1, 1, 0, 0, 2, 2) == pytest.approx(0.0)


def test_circle_crossing_chord():
    hits = circle_segment_intersections((0, 0), 1.0, (-5, 0), (5, 0))
    assert len(hits) == 2
    (p1, s1), (p2, s2) = hits
    assert p1 == pytest.approx((-1.0, 0.0))
    assert s1 == pytest.approx(4.0)
    assert p2 == pytest.approx((1.0, 0.0))
    assert s2 == pytest.approx(6.0)


def test_circle_miss_and_tangent():
    assert circle_segment_intersections((0, 0), 1.0, (2, 2), (3, 3)) == []
    hits = circle_segment_intersections((0, 0), 1.0, (-5, 1), (5, 1))
    assert len(hits) == 1
    assert hits[0][0] == pytest.approx((0.0, 1.0))
    assert hits[0][1] == pytest.approx(5.0)


def test_circle_segment_inside_returns_nothing():
    assert circle_segment_intersections((0, 0), 5.0, (-1, 0), (1, 0)) == []


def test_circle_intersections_lie_on_circle_and_segment():
    rng = random.Random(5150)
    for _ in range(400):
        c = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = rng.uniform(0.2, 4.0)
        a = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        b = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        prev = -1.0
        for (q, s) in circle_segment_intersections(c, r, a, b):
            assert abs(math.hypot(q[0] - c[0], q[1] - c[1]) - r) < 1e-9
            assert _point_seg_dist(*q, *a, *b) < 1e-9
            assert s > prev - 1e-12
            prev = s
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            assert -1e-9 <= s <= seg_len + 1e-9
