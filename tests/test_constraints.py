import math
import random

import numpy as np
import pytest

from anysipp.constraints import (
    ConstraintTable,
    TimeInterval,
    _relevant_from_cells,
    collision_intervals_for_move,
    earliest_arrival,
)
from anysipp.geometry import swept_cells
from anysipp.validate import first_conflict
from anysipp.trajectory import Trajectory, Waypoint

from oracles import (
    _min_dist_affine,
    make_traj,
    occupied_mask,
    random_trajectory,
)

INF = math.inf


def move_pieces(a, b, table):
    """The pieces the search checks for the move a -> b: those indexed under
    its swept cells."""
    return _relevant_from_cells(a, b, table)


def move_windows(a, b, obstacles):
    return collision_intervals_for_move(a, b, move_pieces(a, b, ConstraintTable(obstacles)))


def assert_windows(ivs, expected):
    assert len(ivs) == len(expected), ivs
    for iv, want in zip(ivs, expected):
        assert tuple(iv) == pytest.approx(want, abs=1e-6), ivs


# ---------------------------------------------------------------- table

def test_table_indexes_straight_pass():
    obstacle = make_traj([(0, 2), (4, 2)])
    (piece,) = _relevant_from_cells((2, 2), (2, 2), ConstraintTable([obstacle]))
    t0, t1, x0, y0, vx, vy, _, _ = piece
    assert (t0, t1) == (0.0, 4.0)
    # the pass reaches the cell center at time 2
    assert (x0 + 2.0 * vx, y0 + 2.0 * vy) == pytest.approx((2.0, 2.0))


def test_relevant_pieces_follow_the_swept_cells():
    # The search gathers a move's pieces without materialising its swept
    # cells: every move, a one-cell step as well as a longer one, scans their
    # first-octant offsets in place. It must find the pieces a gather over
    # swept_cells finds, in the same order.
    rng = random.Random(30)
    for _ in range(12):
        table = ConstraintTable([random_trajectory(rng, size=12) for _ in range(4)])
        moves = [((x, y), (x + dx, y + dy)) for x in range(12) for y in range(12)
                 for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        moves += [((rng.randrange(12), rng.randrange(12)), (rng.randrange(12), rng.randrange(12)))
                  for _ in range(300)]
        for a, b in moves:
            want = {}
            for cell in swept_cells(a, b):
                for piece in table._passes.get(cell, ()):
                    want[id(piece)] = piece
            got = [id(piece) for piece in _relevant_from_cells(a, b, table)]
            assert got == list(want), (a, b)


def test_wait_window_covers_the_whole_wait():
    # An obstacle waits at (2, 0) from 0 to 3, then leaves straight up. A move
    # along row 0 meets the wait on the chord s in (1, 3) of its path, so at
    # departures (0 - 3, 3 - 1): arrivals (1, 6). Leaving, the obstacle stays
    # in conflict up to the departure where w - s peaks on the disk around
    # (2, 0): d = 3 + sqrt(2) - 2. One window, no gap.
    obstacle = make_traj([(2, 0), (2, 8)], waits=[3.0, 0.0])
    (iv,) = move_windows((0, 0), (4, 0), [obstacle])
    assert_windows([iv], [(1.0, 5.0 + math.sqrt(2.0))])


def test_table_fractional_wait_capped():
    # The wait piece alone: its window ends exactly with the wait, at
    # departure 2.5 - 1.
    wait_piece = make_traj([(2, 0), (2, 8)], waits=[2.5, 0.0]).affine_pieces()[0]
    assert wait_piece[:2] == (0.0, 2.5)
    ivs = collision_intervals_for_move((0, 0), (4, 0), [wait_piece])
    assert_windows(ivs, [(1.0, 5.5)])


def test_table_goal_constraint_is_half_infinite():
    # the terminal stay blocks the moves through its disk forever
    obstacle = make_traj([(2, 2), (5, 5)])
    (iv,) = move_windows((5, 3), (5, 7), [obstacle])
    assert math.isinf(iv.end)
    # the stay alone blocks the arrivals from hypot(3, 3) + 1 on; coming in
    # on the diagonal, the obstacle can only start the window earlier
    assert iv.start <= math.hypot(3, 3) + 1.0 + 1e-6
    # parked-from-start obstacle holds its cell from time zero
    (iv2,) = move_windows((0, 1), (3, 1), [make_traj([(1, 1)])])
    assert iv2.start == pytest.approx(3.0 - 2.0, abs=1e-6) and math.isinf(iv2.end)


# ------------------------------------------------------ safe intervals

def test_safe_intervals_crossing_obstacle():
    obs = make_traj([(-5, 0), (5, 0)])
    ivs = ConstraintTable([obs]).safe_intervals_at((0, 0))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(6.0)
    assert math.isinf(ivs[1].end)


def test_safe_intervals_empty_scene():
    assert ConstraintTable([]).safe_intervals_at((0, 0)) == (TimeInterval(0.0, INF),)


def test_safe_intervals_merge_back_to_back_obstacles():
    first = make_traj([(-5, 0), (5, 0)])
    second = make_traj([(-5, 0), (5, 0)], waits=[2.0, 0.0])
    ivs = ConstraintTable([first, second]).safe_intervals_at((0, 0))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(8.0)


def test_safe_intervals_parked_obstacle_blocks_forever():
    table = ConstraintTable([make_traj([(3, 3)])])
    assert table.safe_intervals_at((3, 3)) == ()
    # a neighbor center sits exactly one diameter away: legal forever
    assert table.safe_intervals_at((4, 3)) == (TimeInterval(0.0, INF),)


def test_safe_intervals_are_clear_and_tight():
    # Inside each interval every obstacle keeps its center at least one
    # diameter (less 1e-9) away, and no finite end point can be pushed 1e-6
    # further without some obstacle coming within one diameter.
    rng = random.Random(4242)
    push = 1e-6
    bounds = 0
    for _ in range(60):
        obstacles = [random_trajectory(rng, size=8) for _ in range(rng.randint(1, 3))]
        table = ConstraintTable(obstacles)
        for cell in ((x, y) for x in range(8) for y in range(8)):
            def closest(t0, t1):
                return min(_min_dist_affine(*cell, 0.0, 0.0, t0, t1, ob) for ob in obstacles)

            for lo, hi in table.safe_intervals_at(cell):
                assert lo < hi
                assert closest(lo, hi) >= 1.0 - 1e-9, (cell, lo, hi)
                if lo > 0.0:
                    assert closest(lo - push, lo) < 1.0, (cell, lo)
                    bounds += 1
                if math.isfinite(hi):
                    assert closest(hi, hi + push) < 1.0, (cell, hi)
                    bounds += 1
    assert bounds > 500


def test_safe_intervals_agree_with_sampled_occupancy():
    rng = random.Random(990)
    step = 1e-3
    for _ in range(150):
        obstacles = [random_trajectory(rng) for _ in range(rng.randint(1, 2))]
        cell = (rng.randrange(16), rng.randrange(16))
        ivs = ConstraintTable(obstacles).safe_intervals_at(cell)
        t_end = max(ob.cost() for ob in obstacles) + 3.0
        times = np.arange(0.0, t_end, step)
        occ = occupied_mask(cell, obstacles, times)
        safe = np.zeros(len(times), dtype=bool)
        bounds = []
        for lo, hi in ivs:
            safe |= (times >= lo) & (times < hi)
            bounds += [lo, hi]
        # the boundary instant t=0 behaves like any other window endpoint
        exempt = times <= step
        for b in bounds:
            if math.isfinite(b):
                exempt |= np.abs(times - b) <= step
        agree = occ != safe
        assert agree[~exempt].all(), (cell, ivs)


# ------------------------------------------------------- relevance

def test_crossing_obstacle_constraint_is_relevant():
    obstacle = make_traj([(2, 0), (2, 4)])
    pieces = move_pieces((0, 2), (4, 2), ConstraintTable([obstacle]))
    assert obstacle.affine_pieces()[0] in pieces


def test_parallel_far_obstacle_shares_no_cell():
    table = ConstraintTable([make_traj([(0, 5), (4, 5)])])
    assert move_pieces((0, 2), (4, 2), table) == []


def test_window_ignores_touch_at_one_diameter():
    # Pieces that come exactly one diameter from the move, head on in the
    # next lane or parked beside its end, never conflict with it (the cell
    # index would not even offer them); nor does a head-on lane one diameter
    # away along (3, 4), whose unit vectors are inexact in binary.
    touching = [make_traj([(4, 3), (0, 3)]), make_traj([(5, 2)])]
    pieces = [p for traj in touching for p in traj.affine_pieces()]
    assert collision_intervals_for_move((0, 2), (4, 2), pieces) == []
    slanted = make_traj([(7, 11), (1, 3)]).affine_pieces()
    assert collision_intervals_for_move((0, 0), (6, 8), slanted) == []
    # the same lane as the move does
    assert move_windows((0, 2), (4, 2), [make_traj([(4, 2), (0, 2)])])


def test_relevant_constraints_deduplicate():
    table = ConstraintTable([make_traj([(0, 0), (6, 0)], waits=[2.0, 0.0])])
    pieces = move_pieces((0, 0), (6, 0), table)
    assert len(pieces) == len(set(pieces)) == 3


def test_crossing_piece_has_relevant_constraints():
    assert move_windows((0, 0), (10, 10), [make_traj([(0, 10), (10, 0)])])


# ----------------------------------------------- collision intervals

def test_collision_interval_formula():
    # Move (0,2)->(4,2) against an obstacle going (2,4)->(2,0). With s the
    # agent's and w the obstacle's time on its piece, the relative position
    # is (s - 2, w - 2): the conflicts fill the unit disk around (2, 2), and
    # the departure d = w - s ranges over (-sqrt(2), sqrt(2)).
    ivs = move_windows((0, 2), (4, 2), [make_traj([(2, 4), (2, 0)])])
    assert_windows(ivs, [(4.0 - math.sqrt(2.0), 4.0 + math.sqrt(2.0))])


def test_collision_interval_half_infinite():
    # parked at (3, 0) from time 3: the path is within one diameter of it
    # for s in (2, 4], so every arrival from 3 + 4 - 4 on conflicts
    parked = make_traj([(3, 3), (3, 0)])
    ivs = move_windows((0, 0), (4, 0), [parked])
    assert len(ivs) == 1
    assert ivs[0].start < 3.0
    assert math.isinf(ivs[0].end)
    hold = parked.affine_pieces()[-1]
    ivs = collision_intervals_for_move((0, 0), (4, 0), [hold])
    assert ivs[0].start == pytest.approx(3.0, abs=1e-6) and math.isinf(ivs[0].end)


def test_collision_intervals_merge():
    # the same crossing twice, 2 apart: the windows overlap and merge
    first = make_traj([(2, 4), (2, 0), (9, 0)])
    second = make_traj([(2, 4), (2, 0), (9, 0)], waits=[2.0, 0.0, 0.0])
    ivs = move_windows((0, 2), (4, 2), [first, second])
    assert_windows(ivs, [(4.0 - math.sqrt(2.0), 6.0 + math.sqrt(2.0))])
    # 3 apart they do not
    third = make_traj([(2, 4), (2, 0), (9, 0)], waits=[3.0, 0.0, 0.0])
    assert len(move_windows((0, 2), (4, 2), [first, third])) == 2


def test_windows_match_min_distance_oracle():
    # Random moves against random trajectories with waits and holds, at
    # random departures: a conflict per the independent closed-form distance
    # oracle lies inside a window, a clear miss outside every window.
    rng = random.Random(5150)
    size = 12
    inside = outside = 0
    for _ in range(3000):
        obstacle = random_trajectory(rng, size=size, max_moves=5, wait_prob=0.5)
        a = (rng.randrange(size), rng.randrange(size))
        b = (rng.randrange(size), rng.randrange(size))
        if a == b:
            continue
        length = math.hypot(b[0] - a[0], b[1] - a[1])
        ux, uy = (b[0] - a[0]) / length, (b[1] - a[1]) / length
        ivs = move_windows(a, b, [obstacle])
        for _ in range(20):
            d = rng.uniform(-3.0, obstacle.cost() + 3.0)
            dist = _min_dist_affine(a[0], a[1], ux, uy, d, d + length, obstacle)
            t = d + length
            hit = any(lo < t < hi for lo, hi in ivs)
            if dist < 1.0 - 1e-6:
                assert hit, (a, b, d, dist, ivs, obstacle.waypoints)
                inside += 1
            elif dist > 1.0 + 1e-6:
                assert not hit, (a, b, d, dist, ivs, obstacle.waypoints)
                outside += 1
    assert inside > 7000 and outside > 50000


# -------------------------------------------------- earliest arrival

def test_earliest_arrival_unconstrained():
    assert earliest_arrival([], 7.0, INF, TimeInterval(0.0, INF)) == 7.0


def test_earliest_arrival_pushed_to_interval_end():
    cols = [TimeInterval(5.0, 9.0)]
    assert earliest_arrival(cols, 7.0, INF, TimeInterval(0.0, INF)) == 9.0


def test_earliest_arrival_pruned_by_half_infinite():
    cols = [TimeInterval(5.0, INF)]
    assert earliest_arrival(cols, 7.0, INF, TimeInterval(0.0, INF)) is None


def test_earliest_arrival_respects_bounds():
    cols = [TimeInterval(5.0, 9.0)]
    # push exceeds the source's reach
    assert earliest_arrival(cols, 7.0, 8.5, TimeInterval(0.0, INF)) is None
    # push exceeds the destination interval
    assert earliest_arrival(cols, 7.0, INF, TimeInterval(0.0, 8.9)) is None
    # arrival exactly at a collision-interval end is allowed
    assert earliest_arrival(cols, 9.0, INF, TimeInterval(0.0, INF)) == 9.0


def test_earliest_arrival_monotone_and_outside_cols():
    rng = random.Random(2718)
    for _ in range(500):
        raw = []
        t = rng.uniform(0, 3)
        for _ in range(rng.randint(0, 4)):
            lo = t + rng.uniform(0.1, 2)
            hi = lo + rng.uniform(0.1, 3)
            raw.append(TimeInterval(lo, hi))
            t = hi + rng.uniform(0.05, 1)
        start_t = rng.uniform(0, 8)
        iv = TimeInterval(rng.uniform(0, 4), rng.uniform(6, 20))
        out = earliest_arrival(raw, start_t, 30.0, iv)
        if out is None:
            continue
        assert out >= start_t - 1e-12
        assert iv.start - 1e-9 <= out <= iv.end + 1e-9
        for lo, hi in raw:
            assert not (lo + 1e-9 < out < hi - 1e-9)


# ------------------------------------------------- soundness vs validator

def run_soundness_trials(seed, trials, size=16):
    """Emulates successor generation from a fresh start state and certifies
    every accepted arrival with the continuous validator. Returns the number
    of accepted arrivals checked."""
    rng = random.Random(seed)
    checked = 0
    while checked < trials:
        obstacle = random_trajectory(rng, size=size)
        a = (rng.randrange(size), rng.randrange(size))
        b = (rng.randrange(size), rng.randrange(size))
        if a == b:
            continue
        table = ConstraintTable([obstacle])
        ivs_a = table.safe_intervals_at(a)
        if not ivs_a or ivs_a[0].start > 0:
            continue
        cols = collision_intervals_for_move(a, b, move_pieces(a, b, table))
        m_time = math.hypot(b[0] - a[0], b[1] - a[1])
        start_t = m_time
        end_t = ivs_a[0].end + m_time
        for iv in table.safe_intervals_at(b):
            if iv.start > end_t or iv.end < start_t:
                continue
            t = earliest_arrival(cols, start_t, end_t, iv)
            if t is None:
                continue
            dep = t - m_time
            agent = Trajectory([
                Waypoint(a, 0.0, dep if dep > 1e-12 else 0.0),
                Waypoint(b, t, INF),
            ])
            conflict = first_conflict(agent, obstacle)
            assert conflict is None or conflict.time >= iv.end - 1e-6, (
                f"unsound arrival: obstacle={obstacle.waypoints} move={a}->{b} "
                f"t={t} interval={iv} conflict={conflict}"
            )
            checked += 1
    return checked


def test_earliest_arrival_soundness_sample():
    assert run_soundness_trials(31337, 2000) >= 2000
