import functools
import math
import random
import re

import pytest

from anysipp import prioritized
from anysipp.grid import GridMap
from anysipp.planner import GoalUnreachable, PlannerMode, PlanTimeout, StartUnsafe, plan
from anysipp.prioritized import (
    GenerationError,
    Instance,
    InstanceError,
    check_wfi,
    generate_instance,
    load_agents,
    plan_all,
)
from anysipp.trajectory import Trajectory
from anysipp.validate import validate_solution
from oracles import blocked_grid, corridors, maze, rooms

AA = PlannerMode.anyangle()
CARDINAL = PlannerMode.cardinal()


def test_instance_validation():
    grid = GridMap.from_blocked(4, 4, [(3, 3)])
    with pytest.raises(InstanceError):
        Instance(grid, [((0, 0), (1, 1)), ((0, 0), (2, 2))])  # repeated start
    with pytest.raises(InstanceError):
        Instance(grid, [((0, 0), (1, 1)), ((1, 0), (1, 1))])  # repeated goal
    with pytest.raises(InstanceError):
        Instance(grid, [((0, 0), (3, 3))])  # blocked goal
    with pytest.raises(InstanceError):
        Instance(grid, [((0.5, 0), (1, 1))])  # start not a cell center


@pytest.mark.parametrize("mode", [AA, CARDINAL], ids=["aa", "cardinal"])
def test_cells_given_as_integral_floats_plan_and_validate(mode):
    inst = Instance(GridMap.from_blocked(8, 8, [(3, 3)]), [((1.0, 2.0), (6.0, 6.0))])
    sol = plan_all(inst, mode)
    assert sol.success
    assert validate_solution(inst, sol).ok


def test_two_disjoint_agents_fly_straight():
    grid = GridMap.empty(8, 8)
    inst = Instance(grid, [((0, 0), (7, 0)), ((0, 4), (7, 4))])
    sol = plan_all(inst, AA)
    assert sol.success
    assert sol.total_cost == pytest.approx(14.0, abs=1e-9)
    assert validate_solution(inst, sol).ok


def test_crossing_agents_yield_clean_solution():
    grid = GridMap.empty(9, 9)
    inst = Instance(grid, [((0, 4), (8, 4)), ((4, 0), (4, 8))])
    for mode in (AA, CARDINAL):
        sol = plan_all(inst, mode)
        assert sol.success
        assert validate_solution(inst, sol).ok
        # agent 0 goes straight; agent 1 pays for the crossing
        assert sol.trajectories[0].cost() == pytest.approx(8.0, abs=1e-9)
        assert sol.trajectories[1].cost() > 8.0


def test_priority_monotonicity():
    grid = GridMap.empty(10, 10)
    agents = [((0, 0), (9, 9)), ((9, 0), (0, 9)), ((0, 5), (9, 5))]
    full = plan_all(Instance(grid, agents), AA)
    prefix = plan_all(Instance(grid, agents[:2]), AA)
    assert full.success and prefix.success
    for i in range(2):
        assert full.trajectories[i].waypoints == prefix.trajectories[i].waypoints


def test_timeout_marks_instance_failed():
    grid = GridMap.empty(16, 16)
    inst = generate_instance(grid, 4, seed=5, protocol="separated")
    sol = plan_all(inst, AA, timeout=1e-9)
    assert not sol.success
    assert sol.statuses[0] == "timeout"
    assert all(s in ("timeout", "skipped") for s in sol.statuses)
    assert sol.total_cost is None


def test_nan_time_limit_times_out():
    # No clock reading passes a NaN deadline, so only a check that asks
    # whether the clock is still within it refuses one.
    grid = GridMap.empty(8, 8)
    sol = plan_all(Instance(grid, [((0, 0), (7, 7)), ((7, 0), (0, 7))]), AA,
                   timeout=math.nan)
    assert sol.statuses == ["timeout", "skipped"] and not sol.success
    with pytest.raises(PlanTimeout):
        plan(grid, [], (0, 0), (7, 7), AA, deadline=math.nan)


def test_goal_adjacent_to_parked_agent_is_legal():
    grid = GridMap.empty(6, 6)
    inst = Instance(grid, [((0, 0), (3, 3)), ((5, 5), (4, 3))])
    sol = plan_all(inst, AA)
    assert sol.success  # adjacent centers sit exactly one diameter apart
    assert validate_solution(inst, sol).ok


def test_unreachable_agent_reported_and_rest_skipped():
    # agent 1's goal pocket is walled off
    grid = GridMap.from_blocked(5, 5, [(1, 0), (1, 1), (0, 2)])
    inst = Instance(grid, [((4, 4), (4, 0)), ((3, 3), (0, 0)), ((2, 2), (2, 0))])
    sol = plan_all(inst, AA)
    assert not sol.success
    assert sol.statuses == ["ok", "unreachable", "skipped"]
    assert sol.total_cost is None


def test_failed_chain_keeps_one_entry_per_agent():
    # The failed agent keeps its partial trace; the skipped one has none.
    grid = GridMap.from_blocked(5, 5, [(1, 0), (1, 1), (0, 2)])
    inst = Instance(grid, [((4, 4), (4, 0)), ((3, 3), (0, 0)), ((2, 2), (2, 0))])
    sol = plan_all(inst, AA, collect_traces=True)
    assert sol.statuses == ["ok", "unreachable", "skipped"]
    assert isinstance(sol.trajectories[0], Trajectory)
    assert sol.trajectories[1:] == [None, None]
    assert sol.total_cost is None
    assert len(sol.traces) == 3
    assert isinstance(sol.traces[0], list) and sol.traces[0]
    # Agent 1's goal is walled off on the map, so its search logs only its
    # start record (g = 0, f = inf) and fails before any expansion.
    [(cfg, lo, _, g, f)] = sol.traces[1]
    assert (cfg, lo, g, f) == ((3, 3), 0.0, 0.0, math.inf)
    assert sol.traces[2] is None
    assert plan_all(inst, AA).traces is None

    # A deadline that has passed before the first search: an empty trace for
    # the timed-out agent, None for the rest.
    timed_out = generate_instance(GridMap.empty(16, 16), 4, seed=5, protocol="separated")
    sol = plan_all(timed_out, AA, timeout=1e-9, collect_traces=True)
    assert sol.statuses == ["timeout", "skipped", "skipped", "skipped"]
    assert sol.trajectories == [None] * 4
    assert sol.traces == [[], None, None, None]


@pytest.mark.parametrize("error, status", [
    (StartUnsafe, "start_unsafe"), (GoalUnreachable, "unreachable"), (PlanTimeout, "timeout"),
])
def test_each_planning_error_names_the_agents_status(monkeypatch, error, status):
    # A valid instance cannot make agent 0 fail on its start (distinct starts
    # are a diameter apart at t = 0), so plan is made to raise each error.
    def failing_plan(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(prioritized, "plan", failing_plan)
    inst = generate_instance(GridMap.empty(16, 16), 3, seed=5, protocol="separated")
    sol = plan_all(inst, AA)
    assert sol.statuses == [status, "skipped", "skipped"]
    assert sol.trajectories == [None] * 3 and sol.total_cost is None


# ------------------------------------------------------------------ WFI

def test_wfi_on_open_grid():
    grid = GridMap.empty(16, 16)
    inst = generate_instance(grid, 5, seed=1, protocol="separated")
    assert check_wfi(inst) == []


def test_wfi_fails_in_narrow_corridor():
    # one-cell-high corridor: every path between the outer endpoints passes
    # through the inner endpoints
    grid = GridMap.from_blocked(5, 3, [(c, r) for c in range(5) for r in (0, 2)])
    inst = Instance(grid, [((0, 1), (4, 1)), ((1, 1), (3, 1))])
    assert ((0, 1), (4, 1)) in check_wfi(inst)



def test_wfi_failures_pinned_on_corridor_with_pocket():
    # A one-cell-high corridor with one free pocket cell below (3, 1). The
    # failure list, order included, was recorded from the plain BFS over the
    # four cardinal steps; a change of neighbour order or of the witness
    # rule shows here.
    grid = GridMap.from_blocked(
        7, 3, [(c, r) for c in range(7) for r in (0, 2) if (c, r) != (3, 2)]
    )
    inst = Instance(grid, [((0, 1), (6, 1)), ((1, 1), (5, 1)), ((3, 1), (2, 1))])
    assert check_wfi(inst) == [
        ((0, 1), (6, 1)), ((0, 1), (5, 1)), ((0, 1), (3, 1)), ((0, 1), (2, 1)),
        ((6, 1), (0, 1)), ((6, 1), (1, 1)), ((6, 1), (3, 1)), ((6, 1), (2, 1)),
        ((1, 1), (6, 1)), ((1, 1), (5, 1)), ((1, 1), (3, 1)),
        ((5, 1), (0, 1)), ((5, 1), (1, 1)), ((5, 1), (2, 1)),
        ((3, 1), (0, 1)), ((3, 1), (6, 1)), ((3, 1), (1, 1)),
        ((2, 1), (0, 1)), ((2, 1), (6, 1)), ((2, 1), (5, 1)),
    ]

def test_wfi_single_agent_vacuous():
    grid = GridMap.empty(4, 4)
    assert check_wfi(Instance(grid, [((0, 0), (3, 3))])) == []


def test_separated_instances_are_wfi():
    grid = GridMap.empty(32, 32)
    for seed in range(25):
        inst = generate_instance(grid, 10, seed=seed, protocol="separated")
        pts = [p for sg in inst.agents for p in sg]
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= 4
        assert check_wfi(inst) == []


# ----------------------------------------------------------- generation

def test_generation_is_deterministic():
    grid = GridMap.empty(20, 20)
    a = generate_instance(grid, 6, seed=42, protocol="separated")
    b = generate_instance(grid, 6, seed=42, protocol="separated")
    assert a.agents == b.agents
    c = generate_instance(grid, 6, seed=43, protocol="separated")
    assert a.agents != c.agents
    w1 = generate_instance(grid, 6, seed=7, protocol="walk", walk_steps=50)
    w2 = generate_instance(grid, 6, seed=7, protocol="walk", walk_steps=50)
    assert w1.agents == w2.agents



def test_walk_instance_pinned_on_blocked_map():
    # Recorded from the walk over the four cardinal steps in the order
    # +x, -x, +y, -y; any change of neighbour order moves these goals.
    rng = random.Random(2024)
    blocked = [(c, r) for r in range(16) for c in range(16) if rng.random() < 0.2]
    grid = GridMap.from_blocked(16, 16, blocked)
    inst = generate_instance(grid, 6, seed=11, protocol="walk", walk_steps=300)
    assert inst.agents == [
        ((15, 8), (9, 0)), ((15, 10), (13, 8)), ((5, 15), (7, 13)),
        ((3, 9), (3, 1)), ((0, 10), (0, 10)), ((7, 11), (9, 11)),
    ]

def test_generation_capacity_errors():
    grid = GridMap.empty(3, 3)
    with pytest.raises(GenerationError):
        generate_instance(grid, 5, seed=0, protocol="separated")
    with pytest.raises(GenerationError):
        generate_instance(grid, 4, seed=0, protocol="separated")  # density too high
    with pytest.raises(GenerationError):
        generate_instance(grid, 10, seed=0, protocol="walk")
    for protocol in ("separated", "walk"):
        with pytest.raises(GenerationError):
            generate_instance(grid, -1, seed=0, protocol=protocol)


def test_separated_failure_names_the_draws_it_made(monkeypatch):
    # No two cells of a 2x2 grid are two diameters apart.
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(prioritized.random, "Random", CountingRandom)
    with pytest.raises(GenerationError, match=r"after 3000 draws$"):
        generate_instance(GridMap.empty(2, 2), 1, 0)
    assert len(draws) == 3000


@pytest.mark.parametrize("steps", [0, -5])
def test_walk_needs_at_least_one_step(steps):
    # With no steps every goal would be its start.
    with pytest.raises(GenerationError):
        generate_instance(GridMap.empty(8, 8), 3, seed=0, protocol="walk", walk_steps=steps)


def test_walk_goals_are_distinct_and_reachable_cells():
    grid = GridMap.from_blocked(12, 12, [(5, r) for r in range(1, 12)])
    inst = generate_instance(grid, 8, seed=3, protocol="walk", walk_steps=200)
    goals = [g for _, g in inst.agents]
    assert len(set(goals)) == len(goals)
    for _, g in inst.agents:
        assert grid.is_traversable(g)


# ------------------------------------------------------------- file formats

def test_load_agents_instance_format():
    grid = GridMap.empty(8, 8)
    text = "agents 2\n0 0 7 7\n7 0 0 7\n"
    inst = load_agents(text, grid)
    assert inst.agents == [((0, 0), (7, 7)), ((7, 0), (0, 7))]
    with pytest.raises(InstanceError):
        load_agents("agents 3\n0 0 7 7\n", grid)


def test_load_agents_rejects_rows_past_the_declared_count():
    text = "agents 1\n0 0 3 3\n1 1 2 2\nfoo bar\n"
    with pytest.raises(InstanceError, match=r"^header declares 1 agents, found 3$"):
        load_agents(text, GridMap.empty(4, 4))


def test_load_agents_scenario_format():
    grid = GridMap.empty(8, 8)
    text = (
        "version 1\n"
        "0\tmap.map\t8\t8\t0\t0\t7\t7\t9.9\n"
        "0\tmap.map\t8\t8\t7\t0\t0\t7\t9.9\n"
    )
    inst = load_agents(text, grid, max_agents=1)
    assert inst.agents == [((0, 0), (7, 7))]
    inst2 = load_agents(text, grid)
    assert len(inst2.agents) == 2


@pytest.mark.parametrize("size", ["32 32", "32 64", "64 64"])
def test_load_agents_rejects_a_scenario_row_for_another_map_size(size):
    # Columns 3 and 4 of a scenario row give the map's width and height.
    grid = GridMap.empty(64, 32)
    row = f"0 other.map {size} 1 1 2 2 1.0"
    with pytest.raises(InstanceError, match=re.escape(repr(row)) + " is for a .* map, not the 64x32 grid"):
        load_agents(f"version 1\n0 other.map 64 32 0 0 3 3 4.2\n{row}\n", grid)
    assert load_agents("version 1\n0 other.map 64 32 1 1 2 2 1.0\n", grid).agents == [((1, 1), (2, 2))]


def test_load_agents_rejects_garbage():
    grid = GridMap.empty(4, 4)
    with pytest.raises(InstanceError):
        load_agents("bogus\n", grid)
    with pytest.raises(InstanceError):
        load_agents("", grid)
    with pytest.raises(InstanceError):
        load_agents("agents -1\n", grid)
    with pytest.raises(InstanceError, match="expected 'agents N' header"):
        load_agents("agents 1 extra\n0 0 1 1\n", grid)
    with pytest.raises(InstanceError):
        load_agents("agents 1\n0 0 3 3\n", grid, max_agents=-1)
    # A scenario header is exactly "version 1" and its rows have 9 fields.
    row = "0\tm.map\t4\t4\t0\t0\t3\t3\t9.9"
    for text in ("version 1 whatever\n" + row, "version\n" + row,
                 "version 1\n" + row + "\textra\tjunk"):
        with pytest.raises(InstanceError):
            load_agents(text, grid)


@pytest.mark.parametrize("text", [
    "agents 1\n0 0 x 1\n",
    "version 1\n0\tmap.map\t10\t10\t0\t0.5\t7\t7\t9.9\n",
])
def test_load_agents_names_a_row_with_a_non_integer_coordinate(text):
    row = text.splitlines()[1]
    with pytest.raises(InstanceError, match="non-integer coordinate in row " + re.escape(repr(row))):
        load_agents(text, GridMap.empty(10, 10))


# --------------------------------------------------- multi-agent soundness

def test_anyangle_totals_beat_cardinal_on_average():
    # Per-instance cross-mode dominance does NOT universally hold: agents in
    # the two modes face different higher-priority trajectories (seed 1025
    # below is a counterexample, AA 48.34 vs cardinal 48.0). The robust
    # empirical lift is on the mean and on a large majority of instances.
    grid = GridMap.empty(16, 16)
    totals = []
    for seed in range(1000, 1040):
        inst = generate_instance(grid, 5, seed=seed, protocol="separated")
        aa = plan_all(inst, AA, timeout=10)
        card = plan_all(inst, CARDINAL, timeout=10)
        assert aa.success and card.success
        totals.append((aa.total_cost, card.total_cost))
    mean_aa = sum(a for a, _ in totals) / len(totals)
    mean_card = sum(c for _, c in totals) / len(totals)
    assert mean_aa < mean_card
    wins = sum(1 for a, c in totals if a <= c + 1e-9)
    assert wins >= 0.7 * len(totals)


def test_wfi_batch_success_and_validation():
    grid = GridMap.empty(24, 24)
    for seed in range(8):
        inst = generate_instance(grid, 8, seed=100 + seed, protocol="separated")
        for mode in (AA, CARDINAL):
            sol = plan_all(inst, mode, timeout=30.0)
            assert sol.success, (seed, mode)
            report = validate_solution(inst, sol)
            assert report.ok, (seed, mode, report.conflicts, report.static_violations)


@pytest.mark.parametrize("mode", [
    AA,
    pytest.param(CARDINAL, marks=pytest.mark.xfail(
        strict=True, reason="FIFO fails agent 5 (unreachable) on this well-formed "
        "instance; the start-hold fallback of the ROADMAP priority-order item must solve it")),
], ids=["anyangle", "cardinal"])
def test_wfi_instance_on_a_blocked_grid_is_solved(mode):
    # The paper's completeness claim on a blocked map: the instance passes
    # check_wfi, so prioritized planning should solve it in either mode.
    inst = generate_instance(blocked_grid(16, 0.15, 398), 6, 398)
    assert check_wfi(inst) == []
    sol = plan_all(inst, mode, timeout=30.0)
    assert sol.statuses == ["ok"] * 6
    assert validate_solution(inst, sol).ok


# Solved runs on rooms maps, each once rejected by the validator: in each,
# two centers came 1 - 1.0e-9 to 1 - 1.35e-9 apart, just under its threshold
# of 1 - 1e-9, because an agent ran up to TOL early into a touch at one
# diameter. All but one validate now; 35/6 cardinal shortest-first is still
# rejected, through earliest_arrival's acceptance of an arrival up to TOL
# past a window's start.
# (map size, agents, seed, mode, order)
ROOMS_VALID = [
    (29, 20, 194, AA, "fifo"),
    (29, 20, 310, AA, "fifo"),
    (29, 20, 381, AA, "fifo"),
    (35, 30, 120, AA, "fifo"),
    (29, 20, 246, CARDINAL, "fifo"),
    (29, 20, 719, AA, "fifo"),
]
ROOMS_REJECTED = [
    (35, 30, 6, CARDINAL, "shortest"),
]
ROOMS_RUNS = ROOMS_VALID + ROOMS_REJECTED


def _rooms_ids(cases):
    return [f"{size}-{seed}-{mode.name}-{order}" for size, _, seed, mode, order in cases]


@functools.lru_cache(maxsize=None)
def _rooms_run(size, agents, seed, mode, order):
    inst = generate_instance(rooms(size, 6, seed), agents, seed, "separated")
    if order == "shortest":
        # A stable sort by straight-line distance.
        inst = Instance(inst.grid, sorted(inst.agents, key=lambda a: math.dist(*a)))
    return inst, plan_all(inst, mode)


@pytest.mark.parametrize("case", ROOMS_RUNS, ids=_rooms_ids(ROOMS_RUNS))
def test_rooms_runs_are_solved(case):
    inst, sol = _rooms_run(*case)
    assert sol.statuses == ["ok"] * len(inst.agents)


@pytest.mark.parametrize("case", ROOMS_VALID, ids=_rooms_ids(ROOMS_VALID))
def test_rooms_runs_validate(case):
    inst, sol = _rooms_run(*case)
    report = validate_solution(inst, sol)
    assert report.ok, report.conflicts


@pytest.mark.xfail(strict=True, reason="earliest_arrival's TOL slack past a window's start "
                   "brings centers just under the validator's threshold (ROADMAP soundness item)")
@pytest.mark.parametrize("case", ROOMS_REJECTED, ids=_rooms_ids(ROOMS_REJECTED))
def test_rooms_solutions_validate(case):
    inst, sol = _rooms_run(*case)
    report = validate_solution(inst, sol)
    assert report.ok, report.conflicts


def _sweep_solutions_validate(maps, n):
    """Plans n separated agents on each seed's map, in both modes and in
    input and shortest-first order, and asserts that every solved run
    validates; returns the number of solved runs."""
    solved = 0
    for seed, grid in enumerate(maps):
        inst = generate_instance(grid, n, seed, "separated")
        shortest = Instance(inst.grid, sorted(inst.agents, key=lambda a: math.dist(*a)))
        for order, ordered in (("fifo", inst), ("shortest", shortest)):
            for mode in (AA, CARDINAL):
                sol = plan_all(ordered, mode)
                if sol.success:
                    solved += 1
                    report = validate_solution(ordered, sol)
                    assert report.ok, (seed, mode.name, order, report.conflicts,
                                       report.static_violations)
    return solved


def test_rooms_sweep_solutions_validate():
    # Every solved run on 23x23 maps of 4x4 rooms, 16 agents, seeds 0-49, in
    # both modes and in input and shortest-first order, must validate.
    solved = _sweep_solutions_validate([rooms(23, 4, seed) for seed in range(50)], 16)
    assert solved >= 190, solved


@pytest.mark.parametrize("family", ["corridors", "maze"])
def test_map_family_sweep_solutions_validate(family):
    # The same sweep, seeds 0-11, on 22x22 maps: corridors two rows wide with
    # two openings in each wall and 12 agents, or a maze of 7x7 two-by-two
    # rooms joined by two-wide passages and 10 agents. Both drive the cardinal walk's
    # successor-table check over blocked cells. Seeds 0-24 solved 99 of 100
    # runs on corridors and 100 of 100 on mazes.
    if family == "corridors":
        solved = _sweep_solutions_validate([corridors(22, seed) for seed in range(12)], 12)
    else:
        solved = _sweep_solutions_validate([maze(7, seed) for seed in range(12)], 10)
    assert solved >= 46, solved
