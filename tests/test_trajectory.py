import math
import random

import numpy as np
import pytest

from anysipp.grid import GridMap
from anysipp.prioritized import Instance, plan_all
from anysipp.trajectory import Trajectory, Waypoint, format_trajectory

from oracles import (
    make_traj, parse_trajectory, random_trajectory, sample_positions, segment_pieces,
)


def test_parked_agent_stays_put():
    t = Trajectory([Waypoint((2, 2), 0.0, math.inf)])
    assert t.position_at(17.0) == (2.0, 2.0)
    assert t.cost() == 0.0


def test_linear_motion_at_unit_speed():
    t = make_traj([(0, 0), (3, 4)])
    assert t.position_at(2.5) == pytest.approx((1.5, 2.0))
    assert t.position_at(0.0) == (0.0, 0.0)
    assert t.position_at(5.0) == (3.0, 4.0)
    assert t.position_at(99.0) == (3.0, 4.0)
    assert t.position_at(math.inf) == (3.0, 4.0)
    assert t.position_at(-2.0) == (0.0, 0.0)
    assert t.position_at(-math.inf) == (0.0, 0.0)
    assert t.cost() == pytest.approx(5.0)


def test_position_at_nan_rejected():
    with pytest.raises(ValueError):
        make_traj([(0, 0), (3, 4)]).position_at(math.nan)


def test_wait_then_move():
    t = make_traj([(0, 0), (2, 0)], waits=[2.0, 0.0])
    assert t.position_at(1.0) == (0.0, 0.0)
    assert t.position_at(3.0) == pytest.approx((1.0, 0.0))
    assert t.cost() == pytest.approx(4.0)


def test_solution_cost_sums():
    grid = GridMap.empty(6, 6)
    sol = plan_all(Instance(grid, [((0, 0), (3, 4)), ((5, 0), (5, 2))]))
    assert sol.total_cost == sum(t.cost() for t in sol.trajectories)
    assert sol.total_cost == pytest.approx(7.0)
    assert plan_all(Instance(grid, [])).total_cost == 0.0


def test_cost_equals_final_arrival():
    rng = random.Random(7)
    for _ in range(50):
        t = random_trajectory(rng)
        assert t.cost() == t.waypoints[-1].arrival
        total = 0.0
        for i, wp in enumerate(t.waypoints[:-1]):
            nxt = t.waypoints[i + 1]
            total += wp.wait + math.hypot(
                nxt.cell[0] - wp.cell[0], nxt.cell[1] - wp.cell[1]
            )
        assert t.cost() == pytest.approx(total)


def test_position_is_continuous_and_unit_lipschitz():
    rng = random.Random(13)
    for _ in range(30):
        t = random_trajectory(rng)
        times = np.arange(0.0, t.cost() + 2.0, 1e-3)
        xs, ys = sample_positions(t, times)
        step = np.hypot(np.diff(xs), np.diff(ys))
        assert step.max() <= 1e-3 + 1e-9


def test_sample_positions_matches_position_at():
    rng = random.Random(29)
    for _ in range(20):
        t = random_trajectory(rng)
        times = np.array(sorted(rng.uniform(0, t.cost() + 3) for _ in range(40)))
        xs, ys = sample_positions(t, times)
        for k, tau in enumerate(times):
            px, py = t.position_at(float(tau))
            assert (px, py) == pytest.approx((xs[k], ys[k]), abs=1e-9)


# ------------------------------------------------------ maximal pieces

INF = math.inf


def test_straight_cardinal_run_is_one_piece():
    k = 7
    t = make_traj([(3 + i, 2) for i in range(k + 1)])
    assert t.affine_pieces() == [
        (0.0, float(k), 3.0, 2.0, 1.0, 0.0, 3.0 + k, 2.0),
        (float(k), INF, 3.0 + k, 2.0, 0.0, 0.0, 3.0 + k, 2.0),
    ]
    assert len(segment_pieces(t)) == k + 1


def test_wait_mid_run_splits_the_run():
    t = make_traj([(0, 0), (1, 0), (2, 0), (3, 0)], waits=[0.0, 1.5, 0.0, 0.0])
    assert t.affine_pieces() == [
        (0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0),
        (1.0, 2.5, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
        (2.5, 4.5, 1.0, 0.0, 1.0, 0.0, 3.0, 0.0),
        (4.5, INF, 3.0, 0.0, 0.0, 0.0, 3.0, 0.0),
    ]


def test_turn_and_reversal_split_the_run():
    turn = make_traj([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
    assert turn.affine_pieces() == [
        (0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0),
        (2.0, 4.0, 2.0, 0.0, 0.0, 1.0, 2.0, 2.0),
        (4.0, INF, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0),
    ]
    # A -> B -> A: collinear, but the second segment points back.
    back = make_traj([(0, 0), (1, 0), (2, 0), (1, 0), (0, 0)])
    assert back.affine_pieces() == [
        (0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0),
        (2.0, 4.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0),
        (4.0, INF, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ]


def test_collinear_any_angle_segments_of_different_lengths_merge():
    t = make_traj([(0, 0), (2, 1), (6, 3), (6, 5)])
    end = math.sqrt(5.0) + math.sqrt(20.0)
    (m0, m1, stay) = t.affine_pieces()
    assert m0[0] == 0.0 and m0[1] == t.waypoints[2].arrival
    assert m0[1] == pytest.approx(3.0 * math.sqrt(5.0), abs=1e-12)
    assert m0[2:4] == (0.0, 0.0) and m0[6:] == (6.0, 3.0)
    assert m0[4:6] == pytest.approx((6.0 / end, 3.0 / end), abs=1e-15)
    assert m1 == (m0[1], m0[1] + 2.0, 6.0, 3.0, 0.0, 1.0, 6.0, 5.0)
    assert stay == (m0[1] + 2.0, INF, 6.0, 5.0, 0.0, 0.0, 6.0, 5.0)


def _random_scenes():
    rng = random.Random(1414)
    for k in range(300):
        yield random_trajectory(
            rng, size=12, max_moves=10, wait_prob=0.15, cardinal_only=k % 2 == 0
        )


def test_pieces_tile_time_and_never_continue_a_run():
    merged = 0
    for t in _random_scenes():
        pieces = t.affine_pieces()
        merged += len(segment_pieces(t)) - len(pieces)
        assert pieces[0][0] == 0.0 and pieces[-1][1] == INF
        assert all(p[0] < p[1] for p in pieces)
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        for p, q in zip(pieces, pieces[1:]):
            # end points sit on cell centers, so these products are exact
            ux, uy = p[6] - p[2], p[7] - p[3]
            wx, wy = q[6] - q[2], q[7] - q[3]
            moving = (ux or uy) and (wx or wy)
            assert not (moving and ux * wy == uy * wx and ux * wx + uy * wy > 0), (p, q)
            assert (p[6], p[7]) == (q[2], q[3])
    assert merged > 100


def test_pieces_match_position_at():
    # position_at reads the maximal pieces; the reference is the oracle's own
    # per-segment decomposition, at every waypoint arrival and departure and
    # on a grid of times during and after the motion.
    for t in _random_scenes():
        times = [wp.arrival for wp in t.waypoints]
        times += [wp.arrival + wp.wait for wp in t.waypoints[:-1]]
        times += list(np.linspace(0.0, t.cost() + 2.0, 57))
        xs, ys = sample_positions(t, np.array(times))
        for tau, x, y in zip(times, xs, ys):
            assert t.position_at(tau) == pytest.approx((x, y), abs=1e-9), tau


def test_invalid_trajectories_rejected():
    with pytest.raises(ValueError):
        Trajectory([])
    with pytest.raises(ValueError):
        Trajectory([Waypoint((0, 0), 1.0, math.inf)])  # first arrival not 0
    with pytest.raises(ValueError):
        Trajectory([Waypoint((0, 0), 0.0, 2.0)])  # terminal wait not inf
    with pytest.raises(ValueError):
        Trajectory([Waypoint((0, 0), 0.0, -math.inf)])
    with pytest.raises(ValueError):  # zero-length move
        Trajectory([
            Waypoint((0, 0), 0.0, 0.0),
            Waypoint((0, 0), 1.0, math.inf),
        ])
    with pytest.raises(ValueError):  # arrival arithmetic broken
        Trajectory([
            Waypoint((0, 0), 0.0, 0.0),
            Waypoint((2, 0), 5.0, math.inf),
        ])


@pytest.mark.parametrize("waypoints", [
    [Waypoint((0, 0), math.nan, 0.0), Waypoint((4, 0), 4.0, math.inf)],
    [Waypoint((0, 0), 0.0, math.nan), Waypoint((4, 0), 4.0, math.inf)],
    [Waypoint((0, 0), 0.0, 0.0), Waypoint((4, 0), math.nan, math.inf)],
], ids=["first-arrival", "wait", "later-arrival"])
def test_nan_times_rejected(waypoints):
    # Every check is phrased so that a NaN fails it; a trajectory with NaN
    # times would otherwise reach the validator, which finds no conflict.
    with pytest.raises(ValueError):
        Trajectory(waypoints)


def test_serialization_round_trip():
    t = make_traj([(0, 0), (3, 4), (3, 6)], waits=[0.5, 1.25, 0.0])
    lines = format_trajectory(t)
    assert lines[-1].endswith(" inf")
    back = parse_trajectory(lines)
    assert back.waypoints == t.waypoints
