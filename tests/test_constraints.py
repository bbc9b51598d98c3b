import math
import random

import numpy as np
import pytest

from anysipp.constraints import (
    RELEVANCE_DIST,
    Constraint,
    ConstraintTable,
    TimeInterval,
    _relevant_from_cells,
    build_table,
    collision_intervals_for_move,
    departure_guards,
    earliest_arrival,
    relevant_constraints,
)
from anysipp.geometry import swept_cells
from anysipp.grid import GridMap
from anysipp.planner import PlannerMode, Search
from anysipp.validate import first_conflict
from anysipp.trajectory import Trajectory, Waypoint

from oracles import _seg_seg_dist, make_traj, occupied_mask, random_trajectory

INF = math.inf


# ---------------------------------------------------------------- table

def test_table_marker_on_straight_pass():
    table = build_table([make_traj([(0, 2), (4, 2)])])
    ks = table.constraints_at((2, 2))
    assert any(
        k.x == pytest.approx(2.0) and k.y == pytest.approx(2.0)
        and k.time == pytest.approx(2.0) and not k.hold
        for k in ks
    )


def test_table_wait_series_spacing():
    table = build_table([make_traj([(0, 0), (4, 0)], waits=[3.0, 0.0])])
    times = sorted(k.time for k in table.constraints_at((0, 0)) if not k.hold)
    assert times == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_table_fractional_wait_capped():
    table = build_table([make_traj([(0, 0), (4, 0)], waits=[2.5, 0.0])])
    times = sorted(k.time for k in table.constraints_at((0, 0)) if not k.hold)
    assert times == pytest.approx([0.0, 1.0, 2.0, 2.5])


def test_table_goal_constraint_is_half_infinite():
    table = build_table([make_traj([(2, 2), (5, 5)])])
    holds = [k for k in table.constraints_at((5, 5)) if k.hold]
    assert len(holds) == 1
    assert holds[0].time == pytest.approx(math.hypot(3, 3))
    # parked-from-start obstacle holds its cell from time zero
    table2 = build_table([make_traj([(1, 1)])])
    holds2 = [k for k in table2.constraints_at((1, 1)) if k.hold]
    assert holds2 and holds2[0].time == 0.0


# ------------------------------------------------------ safe intervals

def test_safe_intervals_crossing_obstacle():
    obs = make_traj([(-5, 0), (5, 0)])
    ivs = build_table([obs]).safe_intervals_at((0, 0))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(6.0)
    assert math.isinf(ivs[1].end)


def test_safe_intervals_empty_scene():
    assert build_table([]).safe_intervals_at((0, 0)) == (TimeInterval(0.0, INF),)


def test_safe_intervals_merge_back_to_back_obstacles():
    first = make_traj([(-5, 0), (5, 0)])
    second = make_traj([(-5, 0), (5, 0)], waits=[2.0, 0.0])
    ivs = build_table([first, second]).safe_intervals_at((0, 0))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(8.0)


def test_safe_intervals_parked_obstacle_blocks_forever():
    assert build_table([make_traj([(3, 3)])]).safe_intervals_at((3, 3)) == ()
    # a neighbor center sits exactly one diameter away: legal forever
    assert build_table([make_traj([(3, 3)])]).safe_intervals_at((4, 3)) == (TimeInterval(0.0, INF),)


def test_safe_intervals_agree_with_sampled_occupancy():
    rng = random.Random(990)
    step = 1e-3
    for _ in range(150):
        obstacles = [random_trajectory(rng) for _ in range(rng.randint(1, 2))]
        cell = (rng.randrange(16), rng.randrange(16))
        ivs = build_table(obstacles).safe_intervals_at(cell)
        t_end = max(ob.final_time for ob in obstacles) + 3.0
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
    table = build_table([make_traj([(2, 0), (2, 4)])])
    ks = relevant_constraints((0, 2), (4, 2), table)
    assert any(k.x == pytest.approx(2.0) and k.y == pytest.approx(2.0) for k in ks)


def test_parallel_far_obstacle_shares_no_cell():
    table = build_table([make_traj([(0, 5), (4, 5)])])
    assert relevant_constraints((0, 2), (4, 2), table) == []


def test_relevance_filter_discards_at_two_diameters():
    table = ConstraintTable()
    table.cells[(1, 0)] = [
        Constraint(1.0, -2.0, 5.0, False),   # exactly two diameters away
        Constraint(1.0, -1.9, 5.0, False),   # just inside
    ]
    ks = relevant_constraints((0, 0), (4, 0), table)
    assert len(ks) == 1
    assert ks[0].y == pytest.approx(-1.9)


def test_relevant_constraints_deduplicate():
    table = build_table([make_traj([(0, 0), (6, 0)], waits=[2.0, 0.0])])
    ks = relevant_constraints((0, 0), (6, 0), table)
    assert len(ks) == len(set(ks))


# ------------------------------------------------- piece screen

def _full_move_model(a, b, table):
    """The move collision model built from the move's swept cells, the path
    the screen lets the search skip."""
    relevant = _relevant_from_cells(swept_cells(a, b), a, b, table)
    return (
        tuple(collision_intervals_for_move(a, b, relevant)),
        tuple(departure_guards(a, b, relevant)),
    )


def _screened_move_model(a, b, table, size):
    search = Search(GridMap.empty(size, size), table, b, PlannerMode.anyangle())
    return search._cols_for(a, b, None)


def test_piece_screen_is_exact_on_random_scenes():
    rng = random.Random(2024)
    size = 24
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        obstacles = [
            random_trajectory(rng, size=size, max_moves=4, wait_prob=0.5)
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.3:  # parked from the start: one zero-length piece
            obstacles.append(make_traj([(rng.randrange(size), rng.randrange(size))]))
        table = build_table(obstacles)
        pieces = [p for traj in obstacles for p in traj.affine_pieces()]
        for _ in range(25):
            a = (rng.randrange(size), rng.randrange(size))
            b = (rng.randrange(size), rng.randrange(size))
            if a == b:
                continue
            near = table.piece_near(a, b)
            verdicts[near] += 1
            nearest = min(
                _seg_seg_dist(a, b, (p[2], p[3]), (p[6], p[7])) for p in pieces
            )
            assert near == (nearest < RELEVANCE_DIST + 1e-6), (a, b, nearest)
            if not near:
                assert relevant_constraints(a, b, table) == []
            assert _screened_move_model(a, b, table, size) == _full_move_model(a, b, table)
    assert verdicts[True] > 100 and verdicts[False] > 100


@pytest.mark.parametrize(
    "obstacle, move, near",
    [
        # a piece exactly RELEVANCE_DIST from the move is screened as near
        (make_traj([(0, 2), (10, 2)]), ((0, 0), (10, 0)), True),
        (make_traj([(0, 3), (10, 3)]), ((0, 0), (10, 0)), False),
        # a crossing piece, far from all four end points
        (make_traj([(0, 10), (10, 0)]), ((0, 0), (10, 10)), True),
        # a wait at 20 / sqrt(101) = 1.990 from the move, then a move away
        (make_traj([(5, 2), (0, 7)], waits=[3.0, 0.0]), ((5, 0), (15, 1)), True),
        # the same cell as a zero-length piece of its own: parked from the start
        (make_traj([(5, 2)]), ((5, 0), (15, 1)), True),
        (make_traj([(5, 3)]), ((5, 0), (15, 1)), False),
    ],
)
def test_piece_screen_edge_cases(obstacle, move, near):
    table = build_table([obstacle])
    a, b = move
    assert table.piece_near(a, b) == near
    assert _screened_move_model(a, b, table, 16) == _full_move_model(a, b, table)
    if near is False:
        assert relevant_constraints(a, b, table) == []


def test_crossing_piece_has_relevant_constraints():
    table = build_table([make_traj([(0, 10), (10, 0)])])
    assert table.piece_near((0, 0), (10, 10))
    assert relevant_constraints((0, 0), (10, 10), table)


# ----------------------------------------------- collision intervals

def test_collision_interval_formula():
    ivs = collision_intervals_for_move(
        (0, 2), (4, 2), [Constraint(2.0, 2.0, 5.0, False)]
    )
    assert len(ivs) == 1
    assert ivs[0] == pytest.approx((5.0, 9.0))


def test_collision_interval_half_infinite():
    # offset 1 from the move end
    ivs = collision_intervals_for_move(
        (0, 0), (4, 0), [Constraint(3.0, 0.0, 3.0, True)]
    )
    assert len(ivs) == 1
    assert ivs[0].start == pytest.approx(2.0)
    assert math.isinf(ivs[0].end)


def test_collision_intervals_merge():
    ivs = collision_intervals_for_move(
        (0, 2), (4, 2),
        [Constraint(2.0, 2.0, 5.0, False), Constraint(2.0, 2.0, 8.0, False)],
    )
    assert len(ivs) == 1
    assert ivs[0] == pytest.approx((5.0, 12.0))


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
        table = build_table([obstacle])
        ivs_a = table.safe_intervals_at(a)
        if not ivs_a or ivs_a[0].start > 0:
            continue
        relevant = relevant_constraints(a, b, table)
        cols = collision_intervals_for_move(a, b, relevant)
        guards = departure_guards(a, b, relevant)
        m_time = math.hypot(b[0] - a[0], b[1] - a[1])
        start_t = m_time
        end_t = ivs_a[0].end + m_time
        for iv in table.safe_intervals_at(b):
            if iv.start > end_t or iv.end < start_t:
                continue
            t = earliest_arrival(cols, start_t, end_t, iv, guards, a, b)
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
