import math
import random
from types import SimpleNamespace

import pytest

from anysipp.constraints import ConstraintTable
from anysipp.grid import GridMap
from anysipp.planner import PlannerMode
from anysipp.prioritized import Instance, generate_instance, plan_all
from anysipp.trajectory import Trajectory, Waypoint
from anysipp.validate import first_conflict, validate_solution

from oracles import first_sampled_conflict, make_traj, min_distance_sampled, random_trajectory


def test_head_on_swap_conflicts_at_crossing():
    a = make_traj([(0, 0), (6, 0)])
    b = make_traj([(6, 0), (0, 0)])
    c = first_conflict(a, b)
    assert c is not None
    # closing speed 2, contact when the gap reaches one diameter
    assert c.time == pytest.approx(2.5, abs=1e-9)
    assert c.position_a == pytest.approx((2.5, 0.0))
    assert c.position_b == pytest.approx((3.5, 0.0))


def test_parallel_at_exactly_one_diameter_is_legal():
    a = make_traj([(0, 0), (6, 0)])
    b = make_traj([(0, 1), (6, 1)])
    assert first_conflict(a, b) is None


def test_parked_far_apart_never_conflicts():
    a = make_traj([(0, 0)])
    b = make_traj([(5, 0), (5, 5)])
    assert first_conflict(a, b) is None
    assert first_conflict(make_traj([(0, 0)]), make_traj([(2, 0)])) is None


def test_following_at_one_diameter_gap():
    a = make_traj([(0, 0), (8, 0)])
    b = make_traj([(1, 0), (9, 0)])
    assert first_conflict(a, b) is None


def test_conflict_created_by_wait():
    # b parks on a's straight line until after a passes through
    a = make_traj([(0, 0), (6, 0)])
    b = make_traj([(3, 0), (3, 5)], waits=[4.0, 0.0])
    c = first_conflict(a, b)
    assert c is not None
    # contact registers once the gap is a hair under one diameter
    assert c.time == pytest.approx(2.0, abs=1e-8)


def test_conflict_inside_a_merged_piece():
    # The obstacle runs along row 2, one waypoint per cell, which is one
    # move piece; the other agent waits, then crosses the run at (4, 2).
    row = make_traj([(c, 2) for c in range(9)])
    assert len(row.affine_pieces()) == 2
    crosser = make_traj([(4, 0), (4, 1), (4, 2), (4, 3), (4, 4)], waits=[1.5, 0, 0, 0, 0])
    inst = Instance(GridMap.empty(9, 5), [((0, 2), (8, 2)), ((4, 0), (4, 4))])
    report = validate_solution(inst, [row, crosser])
    assert report.static_violations == [] and len(report.conflicts) == 1
    expected = first_sampled_conflict(row, crosser, 10.0)
    assert expected is not None
    assert report.conflicts[0].time == pytest.approx(expected, abs=2e-4)
    # The cell the crosser passes at t = 3.5 is unsafe while the obstacle
    # center is within one diameter of it, (3, 5).
    ivs = ConstraintTable([row]).safe_intervals_at((4, 2))
    assert [(iv.start, iv.end) for iv in ivs] == [
        pytest.approx((0.0, 3.0), abs=1e-6), pytest.approx((5.0, math.inf), abs=1e-6)
    ]
    assert not any(iv.start <= 3.5 <= iv.end for iv in ivs)


def test_symmetry():
    rng = random.Random(555)
    found = 0
    for _ in range(300):
        t1 = random_trajectory(rng, size=8, max_moves=4)
        t2 = random_trajectory(rng, size=8, max_moves=4)
        c12 = first_conflict(t1, t2)
        c21 = first_conflict(t2, t1)
        assert (c12 is None) == (c21 is None)
        if c12 is not None:
            assert c12.time == pytest.approx(c21.time, abs=1e-9)
            found += 1
    assert found > 20


def test_analytic_matches_dense_sampling():
    rng = random.Random(777)
    pairs = 0
    while pairs < 1000:
        t1 = random_trajectory(rng, size=10, max_moves=4)
        t2 = random_trajectory(rng, size=10, max_moves=4)
        t_end = max(t1.cost(), t2.cost()) + 1.5
        analytic = first_conflict(t1, t2)
        sampled = first_sampled_conflict(t1, t2, t_end, step=1e-4)
        if analytic is None:
            # sampler uses a slightly looser threshold; verify real clearance
            dmin, _ = min_distance_sampled(t1, t2, t_end)
            assert sampled is None or dmin > 1.0 - 1e-5
        else:
            assert sampled is not None, (t1.waypoints, t2.waypoints, analytic)
            assert analytic.time == pytest.approx(sampled, abs=1e-3)
        pairs += 1


def _boxes_apart(t1, t2):
    ax0, ay0, ax1, ay1 = t1._box
    bx0, by0, bx1, by1 = t2._box
    return bx0 - ax1 >= 1.0 or ax0 - bx1 >= 1.0 or by0 - ay1 >= 1.0 or ay0 - by1 >= 1.0


def _unscreened(traj):
    """A fresh copy of traj whose infinite box screens nothing."""
    fresh = Trajectory(traj.waypoints)
    fresh._box = (-math.inf, -math.inf, math.inf, math.inf)
    return fresh


def test_the_bounding_box_screen_changes_no_verdict():
    # Soundness runs take first_conflict as their oracle, so its screen is
    # checked here against the sweep alone: an infinite box screens nothing.
    rng = random.Random(2024)
    pairs = [
        tuple(random_trajectory(rng, size=24, max_moves=20) for _ in range(2))
        for _ in range(2000)
    ]
    screened = [first_conflict(t1, t2) for t1, t2 in pairs]
    apart = sum(_boxes_apart(t1, t2) for t1, t2 in pairs)
    swept = [first_conflict(_unscreened(t1), _unscreened(t2)) for t1, t2 in pairs]
    assert screened == swept
    assert 700 <= apart <= 1300
    assert sum(c is not None for c in swept) > 200


def test_the_bounding_box_screen_at_one_diameter():
    # Parked exactly one diameter apart: screened, and legal either way.
    a, b = make_traj([(0, 0)]), make_traj([(1, 0)])
    assert _boxes_apart(a, b) and first_conflict(a, b) is None
    # Just under one diameter apart: not screened, and a conflict only
    # below 1 - 1e-9.
    near = make_traj([(1.0 - 1e-10, 0.0)])
    assert not _boxes_apart(a, near) and first_conflict(a, near) is None
    nearer = make_traj([(1.0 - 1e-7, 0.0)])
    assert not _boxes_apart(a, nearer) and first_conflict(a, nearer).time == 0.0
    # Boxes that touch (0 apart in x and in y) and do conflict.
    mover, parked = make_traj([(0, 0), (2, 0)]), make_traj([(2, 0)])
    assert mover._box[2] - parked._box[0] == 0.0 and mover._box[3] - parked._box[1] == 0.0
    c = first_conflict(mover, parked)
    assert c is not None and c.time == pytest.approx(1.0, abs=1e-8)
    # A NaN box is not screened: the pair goes on to the sweep.
    parked._box = (math.nan,) * 4
    assert first_conflict(make_traj([(2.5, 0.0)]), parked).time == 0.0


def test_validate_solution_static_report_in_order():
    # Per agent: the endpoint problems, the waypoints that are not free
    # cells, then the segments that are not feasible moves.
    inst = SimpleNamespace(grid=GridMap.empty(4, 4), agents=[((0, 0), (3, 3)), ((0, 3), (3, 0))])
    sol = [
        make_traj([(0, 0), (-1, 0), (0, 1), (1.5, 1), (3, 1), (3, 3)]),
        make_traj([(0, 3), (3, 3), (3, 4), (3, 0)]),
    ]
    assert validate_solution(inst, sol).static_violations == [
        (0, 1, (-1, 0)), (0, 3, (1.5, 1)),
        (0, 0, (-1, 0)), (0, 1, (0, 1)), (0, 2, (1.5, 1)), (0, 3, (3, 1)),
        (1, 2, (3, 4)),
        (1, 1, (3, 4)), (1, 2, (3, 0)),
    ]
    # A blocked waypoint (2, 2), and the move (3, 0) -> (4, 1) cuts the
    # corner of the blocked (4, 0).
    grid = GridMap.from_blocked(6, 6, [(2, 2), (4, 0)])
    inst = SimpleNamespace(grid=grid, agents=[((0, 0), (5, 1))])
    sol = [make_traj([(0, 0), (2, 2), (3, 1), (3, 0), (4, 1), (5, 1)])]
    assert validate_solution(inst, sol).static_violations == [
        (0, 1, (2, 2)), (0, 0, (2, 2)), (0, 1, (3, 1)), (0, 3, (4, 1)),
    ]


def test_validate_solution_accepts_disjoint_lines():
    grid = GridMap.empty(8, 8)
    inst = Instance(grid, [((0, 0), (7, 0)), ((0, 4), (7, 4))])
    sol = [make_traj([(0, 0), (7, 0)]), make_traj([(0, 4), (7, 4)])]
    report = validate_solution(inst, sol)
    assert report.ok


def test_validate_solution_needs_one_entry_per_agent():
    grid = GridMap.empty(8, 8)
    inst = Instance(grid, [((0, 0), (7, 0)), ((0, 4), (7, 4))])
    sol = [make_traj([(0, 0), (7, 0)]), make_traj([(0, 4), (7, 4)])]
    with pytest.raises(ValueError, match="1 trajectories for 2 agents"):
        validate_solution(inst, sol[:1])
    with pytest.raises(ValueError, match="3 trajectories for 2 agents"):
        validate_solution(inst, sol + [make_traj([(0, 7), (7, 7)])])
    assert validate_solution(inst, [sol[0], None]).ok


def test_validate_solution_flags_crossing():
    grid = GridMap.empty(8, 8)
    inst = Instance(grid, [((0, 0), (6, 0)), ((6, 0), (0, 0))])
    sol = [make_traj([(0, 0), (6, 0)]), make_traj([(6, 0), (0, 0)])]
    report = validate_solution(inst, sol)
    assert not report.ok
    assert report.conflicts and report.conflicts[0].time == pytest.approx(2.5)
    assert report.conflicts[0].agent_a == 0 and report.conflicts[0].agent_b == 1


def test_validate_solution_flags_off_goal_and_static():
    grid = GridMap.from_blocked(8, 8, [(3, 0)])
    inst = Instance(grid, [((0, 0), (6, 0))])
    # ends off goal and slides straight through the blocked cell
    sol = [make_traj([(0, 0), (5, 0)])]
    report = validate_solution(inst, sol)
    assert not report.ok
    assert any(seg == -1 for (_, seg, _) in report.static_violations)
    assert any(seg >= 0 for (_, seg, _) in report.static_violations)


def test_validate_solution_flags_a_waypoint_off_the_cell_centers():
    inst = Instance(GridMap.empty(4, 4), [((0, 0), (1, 0))])
    report = validate_solution(inst, [make_traj([(0, 0), (0.5, 0), (1, 0)])])
    assert not report.conflicts
    assert sorted(report.static_violations) == [(0, 0, (0.5, 0)), (0, 1, (0.5, 0)), (0, 1, (1, 0))]


def test_a_waypoint_cell_given_as_a_list_is_refused_before_validation():
    # A list cannot be looked up in the free-cell index, so validate_solution
    # would raise TypeError on it. Trajectory refuses it, the final waypoint
    # included; integral float tuples are cells and stay accepted.
    inst = Instance(GridMap.empty(4, 4), [((0, 0), (1, 0))])
    with pytest.raises(ValueError, match="not a tuple"):
        validate_solution(
            inst, [Trajectory([Waypoint([0, 0], 0.0, 0.0), Waypoint([1, 0], 1.0, math.inf)])]
        )
    with pytest.raises(ValueError, match="not a tuple"):
        Trajectory([Waypoint((0, 0), 0.0, 0.0), Waypoint([1, 0], 1.0, math.inf)])
    floats = Trajectory([Waypoint((0.0, 0.0), 0.0, 0.0), Waypoint((1.0, 0.0), 1.0, math.inf)])
    assert validate_solution(inst, [floats]).ok


def test_validate_solution_skips_missing_trajectories():
    grid = GridMap.empty(4, 4)
    inst = Instance(grid, [((0, 0), (3, 0)), ((0, 1), (3, 1))])
    report = validate_solution(inst, [make_traj([(0, 0), (3, 0)]), None])
    assert report.ok


def _random_solution(rng, n, size=12):
    trajs = [random_trajectory(rng, size=size, max_moves=5) for _ in range(n)]
    # Random trajectories may share start or goal cells, which Instance
    # rejects; validate_solution reads only the grid and the agents.
    inst = SimpleNamespace(
        grid=GridMap.empty(size, size),
        agents=[(t.waypoints[0].cell, t.waypoints[-1].cell) for t in trajs],
    )
    return inst, trajs


def test_validate_solution_conflicts_equal_pairwise_first_conflict():
    rng = random.Random(77)
    found = 0
    for _ in range(40):
        inst, trajs = _random_solution(rng, rng.randint(2, 5))
        report = validate_solution(inst, trajs)
        # Fresh copies, so the pairwise reference decomposes them anew.
        fresh = [Trajectory(list(t.waypoints)) for t in trajs]
        expected = [
            c
            for i in range(len(fresh))
            for j in range(i + 1, len(fresh))
            if (c := first_conflict(fresh[i], fresh[j], i, j)) is not None
        ]
        assert report.conflicts == expected
        found += len(expected)
    assert found > 20


def test_validate_solution_decomposes_each_trajectory_once(monkeypatch):
    calls = {}
    original = Trajectory.affine_pieces

    def counting(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self)

    monkeypatch.setattr(Trajectory, "affine_pieces", counting)
    inst, trajs = _random_solution(random.Random(5), 6)
    validate_solution(inst, trajs)
    validate_solution(inst, trajs)
    assert sorted(calls) == sorted(id(t) for t in trajs)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("mode", [PlannerMode.anyangle(), PlannerMode.cardinal()],
                         ids=["aa", "cardinal"])
def test_planning_and_validating_decompose_each_trajectory_once(monkeypatch, mode):
    # The constraint table, the validator and position_at share one cached
    # decomposition per trajectory.
    decomposed = []
    original = Trajectory.affine_pieces

    def counting(self):
        decomposed.append(self)
        return original(self)

    monkeypatch.setattr(Trajectory, "affine_pieces", counting)
    inst = generate_instance(GridMap.empty(12, 12), 6, seed=3)
    sol = plan_all(inst, mode)
    report = validate_solution(inst, sol)
    assert sol.success and report.ok
    for traj in sol.trajectories:
        traj.position_at(traj.cost() / 2)
    assert sorted(map(id, decomposed)) == sorted(map(id, sol.trajectories))
