import math
import random
import time

import pytest

from anysipp.constraints import build_table
from anysipp.grid import GridMap
from anysipp.planner import (
    GoalUnreachable,
    PlannerMode,
    PlanTimeout,
    Search,
    SearchState,
    StartUnsafe,
    plan,
    reconstruct,
)
from anysipp.trajectory import Waypoint
from anysipp.validate import first_conflict

from oracles import flood_fill, make_traj, random_trajectory, time_expanded_best_cost

AA = PlannerMode.anyangle()
CARDINAL = PlannerMode.cardinal()
INF = math.inf


def assert_clear_of(traj, obstacles):
    for ob in obstacles:
        assert first_conflict(traj, ob) is None


# ----------------------------------------------------------- basic plans

def test_empty_grid_straight_line_cost():
    traj = plan(GridMap.empty(8, 8), [], (0, 0), (3, 4), AA)
    assert traj.cost() == pytest.approx(5.0, abs=1e-9)
    assert [wp.cell for wp in traj.waypoints] == [(0, 0), (3, 4)]


def test_empty_grid_cardinal_manhattan_cost():
    traj = plan(GridMap.empty(8, 8), [], (0, 0), (3, 4), CARDINAL)
    assert traj.cost() == pytest.approx(7.0, abs=1e-9)


def test_trivial_plan_start_equals_goal():
    traj = plan(GridMap.empty(4, 4), [], (2, 2), (2, 2), AA)
    assert traj.cost() == 0.0
    assert len(traj.waypoints) == 1


def test_plan_around_crossing_obstacle_beats_tick_oracle():
    grid = GridMap.empty(5, 5)
    # obstacle marches down the middle column while the agent crosses it
    obstacle = make_traj([(2, 4), (2, 0)], waits=[1.0, 0.0])
    start, goal = (0, 2), (4, 2)
    oracle_cost = time_expanded_best_cost(grid, [obstacle], start, goal, dt=0.25)
    assert oracle_cost is not None
    for mode in (AA, CARDINAL):
        traj = plan(grid, [obstacle], start, goal, mode)
        assert traj.cost() <= oracle_cost + 1e-6
        assert traj.cost() >= 4.0  # straight-line lower bound
        assert_clear_of(traj, [obstacle])
    aa_cost = plan(grid, [obstacle], start, goal, AA).cost()
    assert aa_cost > 4.0 + 0.5  # the crossing genuinely forces a wait or detour


def test_errors_are_distinct():
    grid = GridMap.from_blocked(4, 4, [(0, 0), (3, 3)])
    with pytest.raises(StartUnsafe):
        plan(grid, [], (0, 0), (1, 1), AA)
    with pytest.raises(GoalUnreachable):
        plan(grid, [], (1, 1), (3, 3), AA)
    # parked obstacle on the start: in collision at t=0
    with pytest.raises(StartUnsafe):
        plan(GridMap.empty(4, 4), [make_traj([(1, 1)])], (1, 1), (3, 3), AA)


def test_goal_parked_on_forever_is_unreachable():
    with pytest.raises(GoalUnreachable):
        plan(GridMap.empty(5, 5), [make_traj([(4, 4)])], (0, 0), (4, 4), AA)


def test_walled_goal_unreachable_cardinal_but_not_aa():
    # diagonal gaps: cardinal connectivity cannot pass, any-angle cannot either
    # (corner cells still block the disk), so both fail
    grid = GridMap.from_blocked(5, 5, [(3, 4), (4, 3)])
    with pytest.raises(GoalUnreachable):
        plan(grid, [], (0, 0), (4, 4), CARDINAL)
    with pytest.raises(GoalUnreachable):
        plan(grid, [], (0, 0), (4, 4), AA)


def test_timeout_raises():
    grid = GridMap.empty(32, 32)
    with pytest.raises(PlanTimeout):
        plan(grid, [], (0, 0), (31, 31), AA, deadline=time.monotonic() - 1.0)


def test_heuristic_values():
    # The first trace record is the start state (g = 0), so its f is the
    # heuristic there; the goal record has f = g.
    for mode, h in ((AA, 5.0), (CARDINAL, 7.0)):
        trace = []
        plan(GridMap.empty(8, 8), [], (0, 0), (3, 4), mode, trace=trace)
        assert trace[0][0] == (0, 0) and trace[0][3] == 0.0
        assert trace[0][5] == pytest.approx(h)
        assert trace[-1][0] == (3, 4)
        assert trace[-1][5] == trace[-1][3]


# ------------------------------------------------------ successor mechanics

def fresh_search(grid, obstacles, goal, mode=AA):
    return Search(grid, build_table(obstacles), goal, mode)


def expand_from(search, cfg, g=0.0, parent=None):
    """Registers a state at cfg in its first safe interval, arriving at time
    g, and expands it; returns the state."""
    state = SearchState(cfg, 0, search.intervals_at(cfg)[0], g, g, parent)
    search.nodes[(cfg, 0)] = state
    search.expand(state)
    return state


def generated(search, cfg):
    return sorted(key for key in search.nodes if key[0] == cfg)


def test_start_state_has_no_shortcut_successors():
    grid = GridMap.empty(5, 5)
    search = fresh_search(grid, [], (4, 4))
    root = expand_from(search, (0, 0))
    # only the three in-bounds neighbors, each reached directly from the root
    assert sorted(search.nodes) == [((0, 0), 0), ((0, 1), 0), ((1, 0), 0), ((1, 1), 0)]
    assert all(n.parent is root for n in search.nodes.values() if n is not root)
    assert search.nodes[((1, 1), 0)].time == pytest.approx(math.sqrt(2))


def test_successors_per_free_neighbor_without_obstacles():
    grid = GridMap.empty(5, 5)
    search = fresh_search(grid, [], (4, 4))
    expand_from(search, (2, 2))
    assert len(search.nodes) == 9
    for cfg in [(3, 2), (2, 3), (3, 3), (1, 1)]:
        assert generated(search, cfg) == [(cfg, 0)]
        s = search.nodes[(cfg, 0)]
        assert s.time == pytest.approx(math.hypot(cfg[0] - 2, cfg[1] - 2))


def test_shortcut_successor_kept_with_smaller_g():
    grid = GridMap.empty(6, 6)
    search = fresh_search(grid, [], (5, 1))
    root = expand_from(search, (0, 0))
    mid = search.nodes[((1, 1), 0)]
    search.expand(mid)
    via_parent = search.nodes[((2, 1), 0)]
    assert via_parent.parent is root
    assert via_parent.g == pytest.approx(math.hypot(2, 1))
    # the direct move from mid, generated by a mid without a parent
    other = fresh_search(grid, [], (5, 1))
    expand_from(other, (1, 1), g=mid.g)
    direct = other.nodes[((2, 1), 0)]
    assert direct.g == pytest.approx(math.sqrt(2) + 1.0)
    assert via_parent.g < direct.g
    # the search itself keeps the cheaper one
    traj = plan(grid, [], (0, 0), (2, 1), AA)
    assert traj.cost() == pytest.approx(math.hypot(2, 1), abs=1e-9)


def test_parked_obstacle_kills_all_destination_intervals():
    grid = GridMap.empty(5, 5)
    obstacle = make_traj([(3, 0)])
    search = fresh_search(grid, [obstacle], (4, 0))
    expand_from(search, (2, 0))
    assert search.intervals_at((3, 0)) == ()
    assert generated(search, (3, 0)) == []
    assert generated(search, (1, 0)) == [((1, 0), 0)]


def test_interval_screen_and_push():
    # destination safe intervals [0, 4) and (6, inf); an unconstrained
    # arrival of 5 is screened out of the first and pushed within the second
    grid = GridMap.empty(12, 12)
    obstacle = make_traj([(5, 10), (5, 0)])  # crosses (5, 5) at t = 5
    search = fresh_search(grid, [obstacle], (11, 5))
    ivs = search.intervals_at((5, 5))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(6.0)
    assert math.isinf(search.intervals_at((4, 5))[0].end)  # perpendicular neighbor is never occupied
    expand_from(search, (4, 5), g=4.0)
    assert generated(search, (5, 5)) == [((5, 5), 1)]
    assert search.nodes[((5, 5), 1)].time >= 6.0 - 1e-9


def test_blocked_neighbor_generates_nothing():
    grid = GridMap.from_blocked(5, 5, [(3, 2)])
    search = fresh_search(grid, [], (4, 4))
    expand_from(search, (2, 2))
    assert ((3, 2), 0) not in search.nodes


# ------------------------------------------------------------ reconstruct

def _chain(cells_times):
    parent = None
    for cell, t in cells_times:
        parent = SearchState(cell, 0, None, t, t, parent)
    return parent


def test_reconstruct_without_wait():
    goal = _chain([((0, 0), 0.0), ((3, 4), 5.0)])
    traj = reconstruct(goal)
    assert traj.waypoints == [
        Waypoint((0, 0), 0.0, 0.0),
        Waypoint((3, 4), 5.0, INF),
    ]


def test_reconstruct_inserts_wait():
    goal = _chain([((0, 0), 0.0), ((3, 4), 9.0)])
    traj = reconstruct(goal)
    assert traj.waypoints[0].wait == pytest.approx(4.0)
    assert traj.cost() == pytest.approx(9.0)


def test_reconstruct_single_state():
    traj = reconstruct(_chain([((2, 2), 0.0)]))
    assert traj.cost() == 0.0
    assert traj.waypoints[0].cell == (2, 2)


def test_reconstructed_positions_hit_states_on_time():
    grid = GridMap.empty(8, 8)
    obstacle = make_traj([(4, 7), (4, 0)])
    traj = plan(grid, [obstacle], (0, 4), (7, 4), AA)
    for wp in traj.waypoints:
        assert traj.position_at(wp.arrival) == pytest.approx(
            (float(wp.cell[0]), float(wp.cell[1]))
        )
    assert_clear_of(traj, [obstacle])


# ------------------------------------------------------------- properties

def test_single_agent_cost_dominance_same_obstacles():
    rng = random.Random(4242)
    both = 0
    for _ in range(120):
        grid = GridMap.empty(10, 10)
        obstacles = [random_trajectory(rng, size=10, max_moves=4, cardinal_only=True)
                     for _ in range(rng.randint(0, 3))]
        start = (rng.randrange(10), rng.randrange(10))
        goal = (rng.randrange(10), rng.randrange(10))
        try:
            cardinal = plan(grid, obstacles, start, goal, CARDINAL)
        except Exception:
            continue
        aa = plan(grid, obstacles, start, goal, AA)  # AA must solve what SIPP solves
        assert aa.cost() <= cardinal.cost() + 1e-9
        assert_clear_of(aa, obstacles)
        assert_clear_of(cardinal, obstacles)
        both += 1
    assert both >= 60


def test_empty_grid_costs_exact_sample():
    rng = random.Random(31415)
    grid = GridMap.empty(24, 24)
    for _ in range(60):
        start = (rng.randrange(24), rng.randrange(24))
        goal = (rng.randrange(24), rng.randrange(24))
        if start == goal:
            continue
        aa = plan(grid, [], start, goal, AA)
        assert aa.cost() == pytest.approx(
            math.hypot(goal[0] - start[0], goal[1] - start[1]), abs=1e-9
        )
        card = plan(grid, [], start, goal, CARDINAL)
        assert card.cost() == pytest.approx(
            abs(goal[0] - start[0]) + abs(goal[1] - start[1]), abs=1e-9
        )


def test_completeness_matches_flood_fill_sample():
    rng = random.Random(90210)
    for _ in range(80):
        blocked = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(1, 5))}
        grid = GridMap.from_blocked(4, 4, blocked)
        free = grid.free_cells()
        if len(free) < 2:
            continue
        start = free[0]
        for mode, conn in ((CARDINAL, 4), (AA, 8)):
            reach = flood_fill(grid, start, conn)
            for goal in free[1:]:
                try:
                    plan(grid, [], start, goal, mode)
                    ok = True
                except GoalUnreachable:
                    ok = False
                assert ok == (goal in reach), (blocked, start, goal, mode)


def test_expansion_order_monotone_cardinal():
    grid = GridMap.empty(12, 12)
    obstacles = [make_traj([(5, 11), (5, 0)]), make_traj([(8, 0), (8, 11)])]
    trace = []
    plan(grid, obstacles, (0, 5), (11, 6), CARDINAL, trace=trace)
    fs = [rec[5] for rec in trace]
    assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))


def test_trace_records_are_consistent_aa():
    # Any-angle shortcut edges materialize as ancestors get expanded, so pop
    # order is only approximately monotone; the trace must still be
    # self-consistent and end at the goal with the returned cost.
    grid = GridMap.empty(12, 12)
    obstacles = [make_traj([(5, 11), (5, 0)]), make_traj([(8, 0), (8, 11)])]
    trace = []
    traj = plan(grid, obstacles, (0, 5), (11, 6), AA, trace=trace)
    assert trace
    for cfg, iv_lo, iv_hi, g, t, f in trace:
        assert iv_lo - 1e-9 <= t <= iv_hi + 1e-9
        assert f == pytest.approx(g + math.hypot(11 - cfg[0], 6 - cfg[1]), abs=1e-9)
        assert g == pytest.approx(t, abs=1e-9)
    assert trace[-1][0] == (11, 6)
    assert trace[-1][3] == pytest.approx(traj.cost(), abs=1e-9)


def test_plan_validates_against_many_obstacles():
    rng = random.Random(606)
    grid = GridMap.empty(12, 12)
    for _ in range(40):
        obstacles = [random_trajectory(rng, size=12, max_moves=5) for _ in range(3)]
        start = (rng.randrange(12), rng.randrange(12))
        goal = (rng.randrange(12), rng.randrange(12))
        try:
            traj = plan(grid, obstacles, start, goal, AA)
        except (StartUnsafe, GoalUnreachable):
            continue
        assert traj.waypoints[0].cell == start
        assert traj.waypoints[-1].cell == goal
        assert_clear_of(traj, obstacles)
