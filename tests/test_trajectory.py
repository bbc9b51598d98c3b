import math
import random

import numpy as np
import pytest

from anysipp.grid import GridMap
from anysipp.prioritized import Instance, plan_all
from anysipp.trajectory import Trajectory, Waypoint, format_trajectory

from oracles import make_traj, parse_trajectory, random_trajectory, sample_positions


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
    assert t.cost() == pytest.approx(5.0)


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


def test_invalid_trajectories_rejected():
    with pytest.raises(ValueError):
        Trajectory([])
    with pytest.raises(ValueError):
        Trajectory([Waypoint((0, 0), 1.0, math.inf)])  # first arrival not 0
    with pytest.raises(ValueError):
        Trajectory([Waypoint((0, 0), 0.0, 2.0)])  # terminal wait not inf
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


def test_serialization_round_trip():
    t = make_traj([(0, 0), (3, 4), (3, 6)], waits=[0.5, 1.25, 0.0])
    lines = format_trajectory(t)
    assert lines[-1].endswith(" inf")
    back = parse_trajectory(lines)
    assert back.waypoints == t.waypoints
