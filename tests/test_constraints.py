import math
import random

import numpy as np
import pytest

from anysipp.constraints import (
    Constraint,
    ConstraintTable,
    TimeInterval,
    build_table,
    collision_intervals_for_move,
    departure_guards,
    earliest_arrival,
    relevant_constraints,
)
from anysipp.validate import first_conflict
from anysipp.trajectory import Trajectory, Waypoint

from oracles import make_traj, occupied_mask, random_trajectory

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
