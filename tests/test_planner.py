import math
import random
import time
from heapq import heappop
from types import SimpleNamespace

import pytest

from anysipp import planner
from anysipp.constraints import TOL, ConstraintTable
from anysipp.grid import CARDINAL_STEPS, OCTILE_STEPS, SIXTEEN_STEPS, GridMap
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
from anysipp.prioritized import Instance, generate_instance, plan_all
from anysipp.trajectory import Trajectory, Waypoint, format_trajectory
from anysipp.validate import first_conflict

from oracles import (
    blocked_grid,
    flood_fill,
    make_traj,
    map_distances,
    random_trajectory,
    time_expanded_best_cost,
    time_expanded_exact_best_cost,
)

AA = PlannerMode.anyangle()
CARDINAL = PlannerMode.cardinal()
INF = math.inf
# The largest ratio of the 16-neighbour distance to Euclidean length (see
# the module docstring of anysipp.planner), and that of the octile distance,
# which the any-angle heuristic on blocked maps used before the 16 steps.
K16 = math.sqrt(10.0 - 4.0 * math.sqrt(5.0))
K8 = math.sqrt(4.0 - 2.0 * math.sqrt(2.0))


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


def test_cardinal_cost_never_above_exact_tick_oracle():
    # The move windows are exact, so every plan of the exactly checked tick
    # search is open to the planner too: it is never costlier, and it fails
    # only where the start is in collision at time 0.
    rng = random.Random(4242)
    grid = GridMap.empty(10, 10)
    cases = 0
    while cases < 300:
        obstacle = random_trajectory(rng, size=10)
        start = (rng.randrange(10), rng.randrange(10))
        goal = (rng.randrange(10), rng.randrange(10))
        if start == goal or goal == obstacle.waypoints[-1].cell:
            continue
        cases += 1
        try:
            cost = plan(grid, [obstacle], start, goal, CARDINAL).cost()
        except StartUnsafe:
            first = ConstraintTable([obstacle]).safe_intervals_at(start)[:1]
            assert not first or first[0].start > 0.0
            continue
        oracle = time_expanded_exact_best_cost(grid, [obstacle], start, goal)
        assert oracle is None or cost <= oracle + 1e-6, (obstacle.waypoints, start, goal)


def test_errors_are_distinct():
    grid = GridMap.from_blocked(4, 4, [(0, 0), (3, 3)])
    with pytest.raises(StartUnsafe):
        plan(grid, [], (0, 0), (1, 1), AA)
    with pytest.raises(StartUnsafe):
        plan(grid, [], (0.5, 0), (1, 1), AA)  # not a cell center
    with pytest.raises(GoalUnreachable):
        plan(grid, [], (1, 1), (3, 3), AA)
    # parked obstacle on the start: in collision at t=0
    with pytest.raises(StartUnsafe):
        plan(GridMap.empty(4, 4), [make_traj([(1, 1)])], (1, 1), (3, 3), AA)


def test_goal_parked_on_forever_is_unreachable():
    with pytest.raises(GoalUnreachable):
        plan(GridMap.empty(5, 5), [make_traj([(4, 4)])], (0, 0), (4, 4), AA)


def test_a_prebuilt_table_plans_like_its_obstacles():
    grid = GridMap.empty(8, 8)
    obstacle = make_traj([(4, 7), (4, 0)])
    assert first_conflict(plan(grid, [], (0, 4), (7, 4), AA), obstacle) is not None
    via_table = plan(grid, ConstraintTable([obstacle]), (0, 4), (7, 4), AA)
    assert via_table.waypoints == plan(grid, [obstacle], (0, 4), (7, 4), AA).waypoints
    assert_clear_of(via_table, [obstacle])


@pytest.mark.parametrize("mode", [AA, CARDINAL])
def test_goal_never_free_for_good_fails_before_any_expansion(mode):
    # An obstacle parks on the goal from the start, or arrives there later
    # and parks: either way the goal is never free for good, and the search
    # raises without expanding the reachable states.
    grid = GridMap.empty(32, 32)
    for obstacles, goal in (
        ([make_traj([(20, 20)])], (20, 20)),
        ([make_traj([(20, 25), (20, 10)])], (20, 10)),
    ):
        search = Search(grid, ConstraintTable(obstacles), (0, 0), goal, mode)
        with pytest.raises(GoalUnreachable):
            search.run()
        assert search.expansions == 0


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


def test_timeout_raises_during_the_search(monkeypatch):
    # The clock passes the deadline only after the search has started. The
    # search reads it every 128 heap pops, candidates included; this search
    # expands fewer than 128 states, so only the candidate pops reach 128.
    # An obstacle parked on the diagonal keeps the straight line from ending
    # the search before its loop.
    grid = GridMap.empty(100, 100)
    parked = [make_traj([(10, 10)])]
    probe = Search(grid, ConstraintTable(parked), (0, 0), (99, 99), AA)
    probe.run()
    assert probe.expansions < 128
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 2.0

    monkeypatch.setattr(planner, "_time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(PlanTimeout, match="search deadline"):
        plan(grid, parked, (0, 0), (99, 99), AA, deadline=1.0)


def test_map_distance_search_reads_the_deadline():
    # On a blocked grid the start's record runs the backward map-distance
    # search first; it too reads the clock every 128 cells it closes, so a
    # passed deadline stops it there, before the first expansion.
    grid = GridMap.from_blocked(100, 100, [(50, 0)])
    search = Search(grid, ConstraintTable([]), (0, 0), (99, 99), CARDINAL,
                    deadline=time.monotonic() - 1.0)
    with pytest.raises(PlanTimeout, match="search deadline"):
        search._distance(search.start)
    assert len(search._dist) == 128 and search.expansions == 0


def test_move_windows_are_built_lazily(monkeypatch):
    # A relaxation pushes a candidate without its move windows; they are
    # built only when the candidate is popped and not already beaten, so the
    # requests stay close to the expansions.
    inst = generate_instance(GridMap.empty(64, 64), 6, 0, "separated")
    counts = {"requests": 0, "expansions": 0}
    cols_for, run = Search._cols_for, Search.run

    def counting_cols_for(self, *args):
        counts["requests"] += 1
        return cols_for(self, *args)

    def counting_run(self):
        try:
            return run(self)
        finally:
            counts["expansions"] += self.expansions

    monkeypatch.setattr(Search, "_cols_for", counting_cols_for)
    monkeypatch.setattr(Search, "run", counting_run)
    assert plan_all(inst, AA).success
    assert counts["expansions"] > 0
    assert counts["requests"] <= 2 * counts["expansions"], counts


def test_one_candidate_per_shortcut(monkeypatch):
    # A neighbour that the expanded state's parent reaches gets the parent's
    # shortcut candidate alone; the expanded state's own candidate waits
    # until that one pops, and is pushed only if it is not beaten by then.
    # An 8-connected state has 8 neighbours; pushing both candidates made
    # about 12 pushes per expansion here.
    inst = generate_instance(GridMap.empty(64, 64), 6, 0, "separated")
    counts = {"candidates": 0, "expansions": 0}
    push, run = planner.heappush, Search.run

    def counting_push(heap, entry):
        counts["candidates"] += len(entry) > 5
        push(heap, entry)

    def counting_run(self):
        try:
            return run(self)
        finally:
            counts["expansions"] += self.expansions

    monkeypatch.setattr(planner, "heappush", counting_push)
    monkeypatch.setattr(Search, "run", counting_run)
    assert plan_all(inst, AA).success
    assert counts["expansions"] > 0
    assert counts["candidates"] <= 8 * counts["expansions"], counts


def test_failed_shortcut_falls_back_to_the_expanded_state():
    # (2, 0) is blocked, so no sight line from (0, 0) reaches (2, 1): the
    # shortcut candidate fails when popped, and its fallback, the step from
    # the expanded state (1, 1), carries the optimal path round the corner.
    grid = GridMap.from_blocked(5, 3, [(2, 0)])
    assert not grid.move_is_feasible((0, 0), (2, 1))
    traj = plan(grid, [], (0, 0), (4, 0), AA)
    assert [wp.cell for wp in traj.waypoints] == [(0, 0), (1, 1), (3, 1), (4, 0)]
    assert traj.cost() == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)


def test_blocked_grid_checks_each_move_once(monkeypatch):
    # A move's line of sight and windows are built once per search, however
    # many candidates it has (one per destination interval, and more after
    # each improvement of its source). Line-of-sight checks count as model
    # requests here, so the open grid's request bound above does not apply.
    grid = blocked_grid(32, 0.2, 3)
    *others, (start, goal) = generate_instance(grid, 6, 3, "separated").agents
    obstacles = plan_all(Instance(grid, others), AA).trajectories
    assert all(obstacles)
    # The map's successor tables fill through line_of_sight too: fill them
    # first, so that only the search's own checks are recorded.
    for steps in (OCTILE_STEPS, SIXTEEN_STEPS):
        table = grid.successors(steps)
        for cell in grid.free_cells():
            table[cell]
    sights, gathers = [], []
    line_of_sight, gather = GridMap.line_of_sight, planner._relevant_from_cells

    def recording_line_of_sight(self, a, b):
        sights.append((a, b))
        return line_of_sight(self, a, b)

    def recording_gather(a, b, table):
        gathers.append((a, b))
        return gather(a, b, table)

    monkeypatch.setattr(GridMap, "line_of_sight", recording_line_of_sight)
    monkeypatch.setattr(planner, "_relevant_from_cells", recording_gather)
    traj = plan(grid, obstacles, start, goal, AA)
    assert_clear_of(traj, obstacles)
    for moves in (sights, gathers):
        assert moves and len(set(moves)) == len(moves)


def test_heuristic_values():
    # The first trace record is the start state (g = 0), so its f is the
    # heuristic there; the goal record has f = g.
    for mode, h in ((AA, 5.0), (CARDINAL, 7.0)):
        trace = []
        plan(GridMap.empty(8, 8), [], (0, 0), (3, 4), mode, trace=trace)
        assert trace[0][0] == (0, 0) and trace[0][3] == 0.0
        assert trace[0][4] == pytest.approx(h)
        assert trace[-1][0] == (3, 4)
        assert trace[-1][4] == trace[-1][3]
    # A wall between start and goal: the map distance is 6 in both modes
    # ((0, 0) up, across and down; no diagonal, (1, 2) or (2, 1) step clears
    # the wall), so h(start) is 6 / K16 > 2 (Euclid) in any-angle mode and
    # 6 > 2 (Manhattan) in cardinal mode.
    walled = GridMap.from_blocked(3, 3, [(1, 0), (1, 1)])
    for mode, h in ((AA, 6.0 / K16), (CARDINAL, 6.0)):
        trace = []
        traj = plan(walled, [], (0, 0), (2, 0), mode, trace=trace)
        assert trace[0][0] == (0, 0) and trace[0][4] == pytest.approx(h, abs=1e-12)
        assert traj.cost() == pytest.approx(6.0)


# ------------------------------------------------ map-distance heuristic

# (0, 0) and (0, 1) of a 6x6 grid, walled off by (1, 0), (1, 1) and (0, 2):
# the diagonal (0, 1) -> (1, 2) would cut the corners of (1, 1) and (0, 2).
POCKET = GridMap.from_blocked(6, 6, [(1, 0), (1, 1), (0, 2)])


def test_lazy_map_distances_match_dijkstra():
    # Every free cell is queried twice, in shuffled order, so that the
    # backward search resumes from cells its key does not aim at and answers
    # cells it has closed; on POCKET the cells on the far side of the wall
    # from the goal read inf. The any-angle distance runs over the 16
    # neighbour steps (costs 1, sqrt 2 and sqrt 5), the cardinal one over
    # the 4-connected steps.
    rng = random.Random(2005)
    cases = [(blocked_grid(16, 0.25, seed), None) for seed in range(4)]
    cases += [(POCKET, (5, 5)), (POCKET, (0, 1))]
    for grid, goal in cases:
        for mode, steps in ((AA, SIXTEEN_STEPS), (CARDINAL, CARDINAL_STEPS)):
            target = goal or rng.choice(grid.free_cells())
            want = map_distances(grid, target, steps)
            cells = list(grid.free_cells()) * 2
            rng.shuffle(cells)
            search = Search(grid, ConstraintTable([]), cells[0], target, mode)
            for cell in cells:
                got = search._distance(cell)
                expect = want.get(cell, INF)
                assert got == expect or abs(got - expect) <= 1e-9, (cell, target, mode)
            assert (len(want) < len(grid.free_cells())) == (grid is POCKET)


def test_map_distance_closes_no_cell_an_ulp_long():
    # _dist's insertion order is the close order, so each cell must close at
    # most one step past every neighbour closed before it. Here an open entry
    # one ulp longer than its cell's best, whose key rounds equal to the
    # shorter entry's, pops first; it is stale and must not close the cell.
    # The any-angle distance steps over the 16-neighbourhood, so the knight
    # steps (cost sqrt 5) are checked too.
    search = Search(blocked_grid(16, 0.2, 0), ConstraintTable(), (0, 3), (12, 4), AA)
    search.run()
    closed = {}
    knights = 0
    for cell, d in search._dist.items():
        for n in search._dnext[cell]:
            if n in closed:
                dx, dy = n[0] - cell[0], n[1] - cell[1]
                assert d <= closed[n] + planner._STEP_COST[dx * dx + dy * dy], (cell, n)
                knights += dx * dx + dy * dy == 5
        closed[cell] = d
    assert knights == 40


@pytest.mark.parametrize("size", [16, 32, 48])
def test_any_angle_map_heuristic_is_admissible_and_tighter_than_the_octile_one(size):
    # Lone agents on blocked maps: h(start), the f of the start's trace
    # record, never exceeds the planned cost. It is at least the octile
    # heuristic max(Euclid, d8 / K8) that it replaced on all but a few
    # starts, and above it on the whole. It is not above it everywhere: along
    # slope 1/2 a (2, 1) step costs sqrt 5 where the octile path costs
    # 1 + sqrt 2, and K16 < K8 gives back only part of that (on
    # blocked_grid(32, 0.2, 2), (23, 2) -> (29, 16) has d16 / K16 = 15.7475
    # and d8 / K8 = 15.7716). Each (2, 1) step's sweep holds an octile path
    # of length 1 + sqrt 2, so d8 <= d16 (1 + sqrt 2) / sqrt 5, which bounds
    # h from below.
    floor = math.sqrt(5.0) / ((1.0 + math.sqrt(2.0)) * K16)
    new = old = 0.0
    below = 0
    for seed in range(3):
        grid = blocked_grid(size, 0.2, seed)
        rng = random.Random(size + seed)
        for _ in range(8):
            start, goal = rng.sample(grid.free_cells(), 2)
            trace = []
            cost = plan(grid, [], start, goal, AA, trace=trace).cost()
            assert trace[0][0] == start and trace[0][3] == 0.0
            h = trace[0][4]
            d8 = map_distances(grid, goal, OCTILE_STEPS)[start]
            assert d8 * floor - 1e-9 <= h <= cost + 1e-9, (seed, start, goal)
            octile = max(math.hypot(goal[0] - start[0], goal[1] - start[1]), d8 / K8)
            below += h < octile - 1e-9
            new += h
            old += octile
    assert below <= 1
    assert new > 1.02 * old


@pytest.mark.parametrize("mode", [AA, CARDINAL], ids=["aa", "cardinal"])
def test_goal_walled_off_on_the_map_fails_before_any_expansion(mode):
    # Either way round: the start's map distance is inf, so the search logs
    # the start record (g = 0, f = inf) and fails without expanding it.
    for start, goal in (((4, 4), (0, 0)), ((0, 1), (3, 3))):
        trace = []
        search = Search(POCKET, ConstraintTable([]), start, goal, mode, trace=trace)
        with pytest.raises(GoalUnreachable):
            search.run()
        assert search.expansions == 0
        assert trace == [(start, 0.0, INF, 0.0, INF)]


# ------------------------------------------------------------- bound exit

def test_free_straight_line_ends_before_any_expansion():
    search = Search(GridMap.empty(16, 16), ConstraintTable([]), (1, 1), (12, 5), AA)
    traj = reconstruct(search.run())
    assert search.expansions == 0
    assert [wp.cell for wp in traj.waypoints] == [(1, 1), (12, 5)]
    assert traj.waypoints[-1].arrival == math.hypot(11, 4)


def test_late_goal_waits_at_the_start_and_arrives_at_its_free_time():
    # The obstacle crosses the goal at about t = 20, long after the agent
    # could be there; the straight line, left late, arrives just as the goal
    # frees for good.
    obstacle = make_traj([(6, 7), (30, 30)])
    table = ConstraintTable([obstacle])
    free_from = table.safe_intervals_at((20, 20))[-1].start
    assert 19.0 < free_from < 21.0
    search = Search(GridMap.empty(32, 32), table, (16, 14), (20, 20), AA)
    traj = reconstruct(search.run())
    assert search.expansions == 0
    assert [wp.cell for wp in traj.waypoints] == [(16, 14), (20, 20)]
    assert traj.waypoints[0].wait > 10.0
    assert traj.waypoints[-1].arrival == free_from
    assert_clear_of(traj, [obstacle])


def test_straight_line_does_not_cut_a_blocked_corner():
    # (0, 0) -> (1, 1) is one diagonal step, but both cells beside it are
    # blocked; the straight move must not slip through the corner.
    grid = GridMap.from_blocked(4, 4, [(1, 0), (0, 1)])
    with pytest.raises(GoalUnreachable):
        plan(grid, [], (0, 0), (1, 1), AA)


def test_cardinal_late_goal_ends_at_the_bound():
    # The goal frees for good at T, above the Manhattan distance, so no plan
    # arrives before T: the first candidate verified to arrive there ends the
    # search.
    obstacle = make_traj([(0, 21), (30, 20)])
    table = ConstraintTable([obstacle])
    free_from = table.safe_intervals_at((20, 20))[-1].start
    assert free_from > 6.0
    search = Search(GridMap.empty(32, 32), table, (20, 14), (20, 20), CARDINAL)
    end = search.run()
    assert end is search.reached
    assert end.g == search.bound == free_from
    assert_clear_of(reconstruct(end), [obstacle])


@pytest.mark.parametrize("mode", [AA, CARDINAL], ids=["aa", "cardinal"])
def test_goal_pop_exit_sets_reached(mode):
    # The obstacle parked at (3, 0) makes the agent go round it, above the
    # bound B = 6 in both modes (about 6.47 any-angle, 8 cardinal), so the
    # search ends at a goal pop rather than at the bound.
    table = ConstraintTable([make_traj([(3, 0)])])
    search = Search(GridMap.empty(8, 8), table, (0, 0), (6, 0), mode)
    end = search.run()
    assert end is search.reached
    assert search.expansions > 0 and end.g > search.bound == 6.0


@pytest.mark.parametrize("goal, cells", [
    # Toward a goal on the left the path runs along x first...
    ((2, 8), [(5, 5), (4, 5), (3, 5), (2, 5), (2, 6), (2, 7), (2, 8)]),
    ((2, 1), [(5, 5), (4, 5), (3, 5), (2, 5), (2, 4), (2, 3), (2, 2), (2, 1)]),
    # ...and along y first otherwise, the goal's own column included.
    ((8, 2), [(5, 5), (5, 4), (5, 3), (5, 2), (6, 2), (7, 2), (8, 2)]),
    ((7, 7), [(5, 5), (5, 6), (5, 7), (6, 7), (7, 7)]),
    ((5, 8), [(5, 5), (5, 6), (5, 7), (5, 8)]),
    ((6, 5), [(5, 5), (6, 5)]),
])
def test_free_cardinal_path_ends_before_any_expansion(goal, cells, monkeypatch):
    trace = []
    search = Search(GridMap.empty(10, 10), ConstraintTable([]), (5, 5), goal, CARDINAL,
                    trace=trace)
    traj = reconstruct(search.run())
    assert search.expansions == 0
    assert [wp.cell for wp in traj.waypoints] == cells
    assert [wp.arrival for wp in traj.waypoints] == list(range(len(cells)))
    assert [rec[0] for rec in trace] == [(5, 5), goal]
    # The loop alone returns the same waypoints.
    monkeypatch.setattr(Search, "_walk", lambda self, root, path, goal_iv: False)
    loop = Search(GridMap.empty(10, 10), ConstraintTable([]), (5, 5), goal, CARDINAL)
    assert reconstruct(loop.run()).waypoints == traj.waypoints
    assert loop.expansions > 0


def test_free_cardinal_path_builds_no_records_or_windows_on_its_way(monkeypatch):
    # The one obstacle piece lies far from the path, so every hop before the
    # goal's touches no cell that holds a piece and is accepted as it is:
    # the search records only the start and the goal and builds only the
    # goal hop's windows.
    grid, start, goal = GridMap.empty(64, 64), (2, 2), (30, 40)
    table = ConstraintTable([make_traj([(60, 60), (60, 50)])])
    search = Search(grid, table, start, goal, CARDINAL)
    traj = reconstruct(search.run())
    assert search.expansions == 0
    assert len(search._cols) == 1
    assert len(search._cells) == 2
    monkeypatch.setattr(Search, "_walk", lambda self, root, path, goal_iv: False)
    loop = Search(grid, table, start, goal, CARDINAL)
    assert reconstruct(loop.run()).waypoints == traj.waypoints


def test_walk_checks_a_hop_whose_piece_lies_under_its_source_only(monkeypatch):
    # The obstacle runs along row 3 and crosses column 1 at t = 3, just as
    # the undelayed path up column 1 leaves (1, 3) for (1, 4). The table
    # indexes the piece under (1, 3) but not under (1, 2) or (1, 4), so a
    # walk that looked only at each hop's destination would take that hop.
    grid, start, goal = GridMap.empty(8, 8), (1, 1), (1, 6)
    obstacle = Trajectory([Waypoint((3, 3), 0.0, 1.0), Waypoint((0, 3), 4.0, INF)])
    table = ConstraintTable([obstacle])
    assert (1, 3) in table._passes
    assert (1, 2) not in table._passes and (1, 4) not in table._passes
    search = Search(grid, table, start, goal, CARDINAL)
    traj = reconstruct(search.run())
    assert search.expansions > 0
    assert first_conflict(traj, obstacle) is None
    # The plan waits about 2.41, which the oracle's quarter ticks cannot
    # express, so the oracle bounds it from above only.
    oracle = time_expanded_exact_best_cost(grid, [obstacle], start, goal)
    assert 5.0 < traj.cost() <= oracle + 1e-6
    monkeypatch.setattr(Search, "_walk", lambda self, root, path, goal_iv: False)
    loop = Search(grid, table, start, goal, CARDINAL)
    assert reconstruct(loop.run()).waypoints == traj.waypoints


@pytest.mark.parametrize("case", ["parked on the first leg", "late goal", "blocked cell"])
def test_cardinal_path_falls_back_to_the_loop(case):
    # Start (1, 1), goal (6, 6): the undelayed path would run up column 1
    # first. Each case spoils it, and the loop then finds the best plan.
    grid, obstacles, start, goal = GridMap.empty(8, 8), [], (1, 1), (6, 6)
    if case == "parked on the first leg":
        obstacles = [make_traj([(1, 4)])]
    elif case == "blocked cell":
        grid = GridMap.from_blocked(8, 8, [(1, 4)])
    else:
        # The obstacle waits on the goal until t = 5, then leaves up column 6:
        # the goal frees for good at about t = 6 > h = 5.
        start = (6, 1)
        obstacles = [make_traj([(6, 6), (6, 9)], waits=[5.0, 0.0])]
    search = Search(grid, ConstraintTable(obstacles), start, goal, CARDINAL)
    traj = reconstruct(search.run())
    assert search.expansions > 0
    assert_clear_of(traj, obstacles)
    oracle = time_expanded_exact_best_cost(grid, obstacles, start, goal)
    assert traj.cost() == pytest.approx(oracle, abs=1e-6)
    if case == "late goal":
        assert search.bound == traj.cost() > 5.0


def test_every_state_arrives_inside_its_interval(monkeypatch):
    # Every state on a returned parent chain, the walk's included, holds a g
    # inside its own safe interval; so a walk hop, which leaves its source at
    # its g, never departs after the source's interval ends.
    chains = []
    run = Search.run

    def recording_run(self):
        end = run(self)
        chains.append(end)
        return end

    monkeypatch.setattr(Search, "run", recording_run)
    for seed in range(16):
        for grid in (GridMap.empty(16, 16), blocked_grid(16, 0.2, seed)):
            inst = generate_instance(grid, 6, seed, "separated")
            for mode in (AA, CARDINAL):
                plan_all(inst, mode)
    assert len(chains) > 300
    for end in chains:
        node = end
        while node is not None:
            iv = node.interval
            assert iv.start - TOL <= node.g <= iv.end + TOL, node
            node = node.parent


@pytest.mark.parametrize("mode", [AA, CARDINAL], ids=["aa", "cardinal"])
def test_start_at_goal_logs_one_record(mode, monkeypatch):
    # There is no hop to walk, on an open or a blocked grid: the walk
    # declines, and the loop pops the start as the goal without an expansion
    # and logs it once.
    walked, walk = [], Search._walk

    def watched(self, root, path, goal_iv):
        walked.append(walk(self, root, path, goal_iv))
        return walked[-1]

    monkeypatch.setattr(Search, "_walk", watched)
    obstacles = ConstraintTable([make_traj([(5, 0), (5, 5)])])
    for blocked in ([], [(1, 3), (3, 3), (2, 4)]):
        trace, walked[:] = [], []
        search = Search(GridMap.from_blocked(6, 6, blocked), obstacles, (2, 3), (2, 3), mode,
                        trace=trace)
        end = search.run()
        assert walked == [False]
        assert end.cfg == (2, 3) and end.g == 0.0 and end.parent is None
        assert search.expansions == 0
        assert trace == [((2, 3), 0.0, INF, 0.0, 0.0)]
        assert reconstruct(end).waypoints == [Waypoint((2, 3), 0.0, INF)]


def test_walk_skips_no_table_check_that_could_fail_on_an_open_grid(monkeypatch):
    # On an open grid the walk takes each one-cell hop of its path as the
    # successor table's without looking it up. Checking every hop first, as
    # on a blocked grid, changes no output in either mode, also for the
    # agents of the walk instances whose goal is their start (zero hops,
    # which the table never holds); and a cardinal walk returns the loop's
    # own trajectory, so dropping the walk changes none either.
    grid = GridMap.empty(20, 20)
    instances = [generate_instance(grid, 6, seed, "separated") for seed in range(30)]
    instances += [generate_instance(grid, 6, seed, "walk", walk_steps=8) for seed in range(30)]
    served, walk = [], Search._walk

    def counted(self, root, path, goal_iv):
        served.append(walk(self, root, path, goal_iv))
        return served[-1]

    def checked(self, root, path, goal_iv):
        cells = [root.cfg] + list(path)
        for a, b in zip(cells, cells[1:]):
            if abs(b[0] - a[0]) <= 1 and abs(b[1] - a[1]) <= 1 and b not in self._next[a]:
                return False
        return walk(self, root, path, goal_iv)

    def outputs(mode, walker):
        monkeypatch.setattr(Search, "_walk", walker)
        return [[format_trajectory(t) if t else None for t in plan_all(inst, mode).trajectories]
                for inst in instances]

    for mode in (AA, CARDINAL):
        served.clear()
        with_walk = outputs(mode, counted)
        assert served.count(True) > 100 and served.count(False) > 10, mode
        assert outputs(mode, checked) == with_walk, mode
    assert outputs(CARDINAL, lambda self, root, path, goal_iv: False) == with_walk


def test_cardinal_path_exit_leaves_plan_all_unchanged(monkeypatch):
    # The exit returns the loop's own trajectory: plan_all gives the same
    # statuses and trajectories when it always declines.
    instances = []
    for seed in range(80):
        for grid in (GridMap.empty(12, 12), blocked_grid(12, 0.2, seed)):
            instances.append(generate_instance(grid, 6, seed, "separated"))
            instances.append(generate_instance(grid, 6, seed, "walk", walk_steps=6))
    assert len(instances) == 320
    # On a sparse map most walk hops touch no cell that holds an obstacle
    # piece, and pass without records or windows.
    for seed in range(20):
        grid = GridMap.empty(32, 32)
        instances.append(generate_instance(grid, 6, seed, "separated"))
        instances.append(generate_instance(grid, 6, seed, "walk", walk_steps=20))

    def outputs():
        sols = [plan_all(inst, CARDINAL) for inst in instances]
        return [(sol.statuses, [format_trajectory(t) if t else None for t in sol.trajectories])
                for sol in sols]

    served, sparse_hops = [], []
    walk = Search._walk

    def counted(self, root, path, goal_iv):
        result = walk(self, root, path, goal_iv)
        if path:
            served.append(result)
        if path and self.grid.width == 32:
            passes, cells = self.table._passes, [root.cfg] + path[:-1]
            sparse_hops.extend(a not in passes and b not in passes
                               for a, b in zip(cells, cells[1:]))
        return result

    monkeypatch.setattr(Search, "_walk", counted)
    with_exit = outputs()
    monkeypatch.setattr(Search, "_walk", lambda self, root, path, goal_iv: False)
    assert outputs() == with_exit
    # Both outcomes occur often, and some runs fail.
    assert served.count(True) > 500 and served.count(False) > 100
    assert any(statuses != ["ok"] * 6 for statuses, _ in with_exit)
    assert len(sparse_hops) > 1000 and sparse_hops.count(True) > 0.9 * len(sparse_hops)


def test_walk_records_no_cell_outside_the_successor_table(monkeypatch):
    # On these maps a cell off the successor table is a blocked one, and
    # recording it would run the backward distance search to exhaustion. The
    # walk checks each one-cell hop against the table before it records the
    # cell, also where the cardinal path crosses a blocked cell.
    record, walk, crossing = Search._record, Search._walk, []

    def checked_record(self, cfg):
        assert self.grid.is_traversable(cfg), cfg
        return record(self, cfg)

    def watched_walk(self, root, path, goal_iv):
        crossing.append(not self.grid.cells_traversable(path))
        return walk(self, root, path, goal_iv)

    monkeypatch.setattr(Search, "_record", checked_record)
    monkeypatch.setattr(Search, "_walk", watched_walk)
    for seed in range(40):
        grid = blocked_grid(12, 0.2, seed)
        for protocol in ("separated", "walk"):
            inst = generate_instance(grid, 6, seed, protocol, walk_steps=6)
            for mode in (AA, CARDINAL):
                plan_all(inst, mode)
    assert crossing.count(True) > 100


# ------------------------------------------------------ successor mechanics

def fresh_search(grid, obstacles, goal, mode=AA):
    return Search(grid, ConstraintTable(obstacles), (0, 0), goal, mode)


def expand_and_verify(search, state):
    """Expands state, then pops the open list dry the way ``Search.run``
    does, verifying every candidate the expansion pushed but expanding no
    verified state."""
    search.expand(state)
    while search.open:
        entry = heappop(search.open)
        if len(entry) > 4:
            search._verify(entry)


def expand_from(search, cfg, g=0.0, parent=None):
    """Registers a state at cfg in its first safe interval, arriving at time
    g, expands it and verifies its successors; returns the state."""
    state = SearchState(cfg, search.table.safe_intervals_at(cfg)[0], g, parent)
    search.nodes[(cfg, 0)] = state
    expand_and_verify(search, state)
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
    assert search.nodes[((1, 1), 0)].g == pytest.approx(math.sqrt(2))


def test_successors_per_free_neighbor_without_obstacles():
    grid = GridMap.empty(5, 5)
    search = fresh_search(grid, [], (4, 4))
    expand_from(search, (2, 2))
    assert len(search.nodes) == 9
    for cfg in [(3, 2), (2, 3), (3, 3), (1, 1)]:
        assert generated(search, cfg) == [(cfg, 0)]
        s = search.nodes[(cfg, 0)]
        assert s.g == pytest.approx(math.hypot(cfg[0] - 2, cfg[1] - 2))


def test_shortcut_successor_kept_with_smaller_g():
    grid = GridMap.empty(6, 6)
    search = fresh_search(grid, [], (5, 1))
    root = expand_from(search, (0, 0))
    mid = search.nodes[((1, 1), 0)]
    expand_and_verify(search, mid)
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
    assert search.table.safe_intervals_at((3, 0)) == ()
    assert generated(search, (3, 0)) == []
    assert generated(search, (1, 0)) == [((1, 0), 0)]


def test_interval_screen_and_push():
    # destination safe intervals [0, 4) and (6, inf); an unconstrained
    # arrival of 5 is screened out of the first and pushed within the second
    grid = GridMap.empty(12, 12)
    obstacle = make_traj([(5, 10), (5, 0)])  # crosses (5, 5) at t = 5
    search = fresh_search(grid, [obstacle], (11, 5))
    ivs = search.table.safe_intervals_at((5, 5))
    assert len(ivs) == 2
    assert ivs[0] == pytest.approx((0.0, 4.0))
    assert ivs[1].start == pytest.approx(6.0)
    assert math.isinf(search.table.safe_intervals_at((4, 5))[0].end)  # perpendicular neighbor is never occupied
    expand_from(search, (4, 5), g=4.0)
    assert generated(search, (5, 5)) == [((5, 5), 1)]
    assert search.nodes[((5, 5), 1)].g >= 6.0 - 1e-9


def test_blocked_neighbor_generates_nothing():
    grid = GridMap.from_blocked(5, 5, [(3, 2)])
    search = fresh_search(grid, [], (4, 4))
    expand_from(search, (2, 2))
    assert ((3, 2), 0) not in search.nodes


def test_equal_cost_tie_takes_the_more_ancestral_source():
    # Through mid, (3, 3) arrives one ulp after the straight move from the
    # root: a tie within TOL. The tie makes the root the parent, so the chain
    # collapses onto the sight line, and keeps the node's g and open entry.
    search = fresh_search(GridMap.empty(6, 6), [], (5, 5))
    iv = search.table.safe_intervals_at((0, 0))[0]
    root = SearchState((0, 0), iv, 0.0, None)
    mid = SearchState((1, 1), iv, math.sqrt(2), root)
    _, h = search._record((3, 3))
    # Candidates (f, -g, cfg, idx, src.g, seq, src, fallback), as expand
    # pushes them; with no obstacles their g is the true arrival.
    via_mid = mid.g + math.hypot(2, 2)
    search._verify((via_mid + h, -via_mid, (3, 3), 0, mid.g, 1, mid, None))
    node = search.nodes[((3, 3), 0)]
    assert node.parent is mid and node.g == via_mid
    direct = math.hypot(3, 3)
    assert direct != via_mid and abs(direct - via_mid) < TOL
    entries = list(search.open)
    search._verify((direct + h, -direct, (3, 3), 0, root.g, 2, root, None))
    assert node.parent is root
    assert node.g == via_mid
    assert search.open == entries
    # The entry still passes the staleness test of Search.run, so the node
    # expands, and from its new parent: (4, 4) is the root's shortcut.
    _, ng, cfg, idx = heappop(search.open)
    assert search.nodes[(cfg, idx)] is node and node.g == -ng
    expand_and_verify(search, node)
    assert search.nodes[((4, 4), 0)].parent is root
    assert search.nodes[((4, 4), 0)].g == math.hypot(4, 4)


# ------------------------------------------------------------ reconstruct

def _chain(cells_times):
    parent = None
    for cell, t in cells_times:
        parent = SearchState(cell, None, t, parent)
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
    fs = [rec[4] for rec in trace]
    assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))


def _check_traced_search(grid, obstacles, start, goal):
    """Plans start -> goal through ``Search`` with a trace and checks the
    trace and the reconstructed trajectory against the state chain; returns
    the trajectory."""
    trace = []
    search = Search(grid, ConstraintTable(obstacles), start, goal, AA, trace=trace)
    end = search.run()
    traj = reconstruct(end)
    assert trace
    dist = map_distances(grid, goal, SIXTEEN_STEPS) if grid.any_blocked else None
    for cfg, iv_lo, iv_hi, g, f in trace:
        assert iv_lo - 1e-9 <= g <= iv_hi + 1e-9
        euclid = math.hypot(goal[0] - cfg[0], goal[1] - cfg[1])
        if dist is None:
            assert f == g + euclid
        else:
            assert abs(f - (g + max(euclid, dist[cfg] / K16))) <= 1e-9
    assert trace[-1][0] == goal
    assert trace[-1][3] == traj.cost()
    chain = []
    while end is not None:
        chain.append(end)
        end = end.parent
    chain.reverse()
    assert [wp.cell for wp in traj.waypoints] == [s.cfg for s in chain]
    assert [wp.arrival for wp in traj.waypoints] == [s.g for s in chain]
    return traj


def test_trace_records_are_consistent_aa():
    # Any-angle shortcut edges materialize as ancestors get expanded, so pop
    # order is only approximately monotone; the trace must still be
    # self-consistent and end at the goal with the returned cost, and each
    # waypoint must arrive at its state's g. Two settings: obstacles crossing
    # an empty grid, and agents planned in turn on a 20% blocked grid.
    obstacles = [make_traj([(5, 11), (5, 0)]), make_traj([(8, 0), (8, 11)])]
    _check_traced_search(GridMap.empty(12, 12), obstacles, (0, 5), (11, 6))
    grid = blocked_grid(20, 0.2, seed=5)
    obstacles = []
    for start, goal in generate_instance(grid, 12, seed=21, protocol="separated").agents:
        traj = _check_traced_search(grid, obstacles, start, goal)
        assert_clear_of(traj, obstacles)
        obstacles.append(traj)
    assert any(wp.wait > 0.0 for traj in obstacles for wp in traj.waypoints[:-1])


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


def _delayed(traj, wait):
    """traj, held at its start for `wait` more time units."""
    first, *rest = traj.waypoints
    if not rest:
        return traj
    return Trajectory(
        [Waypoint(first.cell, 0.0, first.wait + wait)]
        + [Waypoint(wp.cell, wp.arrival + wait, wp.wait) for wp in rest]
    )


def test_far_coordinates_and_late_times_stay_conflict_free():
    # Numerical stress for the absolute tolerances (TOL = 1e-9 here and in
    # the validator): instances moved to coordinates near 500 of a 512x512
    # grid, with the first agents held at their starts for about 10^3 time
    # units, so that the later agents plan around obstacles that move at
    # times near 10^3 and some of them arrive only then. The free cells are
    # a room in the grid's far corner: an agent that has to wait that long
    # for its goal would otherwise search the whole grid first.
    rng = random.Random(512)
    room = {(c, r) for c in range(494, 510) for r in range(494, 510)}
    grid = GridMap.from_blocked(
        512, 512, [(c, r) for c in range(512) for r in range(512) if (c, r) not in room]
    )
    late = 0
    for seed in range(10):
        inst = generate_instance(GridMap.empty(12, 12), 6, seed=seed, protocol="separated")
        ox, oy = rng.randrange(496, 499), rng.randrange(496, 499)
        agents = [((s[0] + ox, s[1] + oy), (g[0] + ox, g[1] + oy)) for s, g in inst.agents]
        for mode in (AA, CARDINAL):
            obstacles = []
            for k, (start, goal) in enumerate(agents):
                traj = plan(grid, obstacles, start, goal, mode)
                assert_clear_of(traj, obstacles)
                late += traj.cost() > 1000.0
                obstacles.append(_delayed(traj, rng.uniform(1000.0, 1001.0)) if k < 3 else traj)
    assert late >= 5, late
