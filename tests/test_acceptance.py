"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight entry is
criterion 4 (full 64x64 / 50-agent benchmark over 100 seeds, both planners);
expect several minutes for the whole module on one core.
"""

import itertools
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from anysipp.constraints import ConstraintTable
from anysipp.cli import run_benchmark
from anysipp.geometry import swept_cells
from anysipp.grid import GridMap, parse_map
from anysipp.planner import GoalUnreachable, PlannerMode, plan
from anysipp.prioritized import Instance, generate_instance, plan_all
from anysipp.validate import validate_solution

from oracles import (
    flood_fill,
    occupied_mask,
    random_trajectory,
    sampled_swept_cells,
    seg_box_distance,
)
import test_constraints

AA = PlannerMode.anyangle()
CARDINAL = PlannerMode.cardinal()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_cost_dominance():
    # Property under test: against the SAME obstacle set, the any-angle
    # search never costs more than the cardinal one. Each agent of each
    # instance is compared across modes against the identical higher-priority
    # prefix (the cardinal chain).
    grid = GridMap.empty(16, 16)
    exceptions = 0
    checked = 0
    for seed in range(1000, 1100):
        inst = generate_instance(grid, 5, seed=seed, protocol="separated")
        card = plan_all(inst, CARDINAL, timeout=10)
        assert card.success and validate_solution(inst, card).ok
        table_prefix = []
        total_card = 0.0
        total_aa = 0.0
        for i, (start, goal) in enumerate(inst.agents):
            aa_traj = plan(grid, table_prefix, start, goal, AA)
            card_cost = card.trajectories[i].cost()
            total_card += card_cost
            total_aa += aa_traj.cost()
            checked += 1
            if aa_traj.cost() > card_cost + 1e-9:
                exceptions += 1
            table_prefix.append(card.trajectories[i])
        if total_aa > total_card + 1e-9:
            exceptions += 1
    report(
        1, "cost dominance", exceptions == 0,
        f"{checked} agent comparisons over 100 instances, {exceptions} exceptions",
    )


def test_criterion_2_validator_cleanliness():
    # Planner outputs are validated wherever they are produced throughout the
    # suite; this sweep stresses the adversarial shapes directly: crossing
    # lines, head-on corridors, dense random instances, walk-generated goals.
    checked = 0
    failures = []

    def check(instance, mode):
        nonlocal checked
        sol = plan_all(instance, mode, timeout=60)
        if sol.success:
            rep = validate_solution(instance, sol)
            checked += 1
            if not rep.ok:
                failures.append((instance.agents, mode.name, rep.conflicts[:2]))

    grid = GridMap.empty(9, 9)
    crossings = Instance(grid, [((0, 4), (8, 4)), ((4, 0), (4, 8)), ((0, 0), (8, 8)), ((8, 0), (0, 8))])
    head_on = Instance(grid, [((0, 4), (8, 4)), ((8, 5), (0, 5)), ((0, 6), (8, 6))])
    for inst in (crossings, head_on):
        for mode in (AA, CARDINAL):
            check(inst, mode)
    dense = GridMap.empty(12, 12)
    for seed in range(30):
        inst = generate_instance(dense, 8, seed=9000 + seed, protocol="separated")
        for mode in (AA, CARDINAL):
            check(inst, mode)
    walked = GridMap.from_blocked(16, 16, [(7, r) for r in range(3, 13)])
    for seed in range(10):
        inst = generate_instance(walked, 6, seed=9900 + seed, protocol="walk", walk_steps=300)
        for mode in (AA, CARDINAL):
            check(inst, mode)
    report(2, "validator cleanliness", not failures and checked >= 80,
           f"{checked} successful solutions validated, failures={failures[:3]}")


def test_criterion_3_wfi_completeness():
    grid = GridMap.empty(32, 32)
    failures = []
    validations = 0
    for seed in range(100):
        inst = generate_instance(grid, 10, seed=seed, protocol="separated")
        for mode, name in ((AA, "aa"), (CARDINAL, "cardinal")):
            sol = plan_all(inst, mode, timeout=60)
            if not sol.success:
                failures.append((seed, name, "plan"))
                continue
            if not validate_solution(inst, sol).ok:
                failures.append((seed, name, "validate"))
            validations += 1
    report(
        3, "WFI completeness", not failures,
        f"100 instances x 2 modes, {validations} validated solutions, failures={failures[:5]}",
    )


@pytest.mark.slow
def test_criterion_4_benchmark_cost_band():
    grid = GridMap.empty(64, 64)
    instances = [
        (f"b64-{k:03d}", k, generate_instance(grid, 50, k, "separated"))
        for k in range(100)
    ]
    records, summary, _, _ = run_benchmark(
        instances=instances, modes=["aa", "cardinal"], timeout=300.0
    )
    all_valid = all(r.valid for r in records if r.success)
    common = summary["common"]["count"]
    reduction = summary.get("aa_cost_reduction_vs_cardinal")
    ok = (
        common == 100
        and all_valid
        and reduction is not None
        and 0.15 <= reduction <= 0.27
    )
    detail = (
        f"common={common}/100 "
        f"mean aa={summary['common']['mean_cost']['aa']:.2f} "
        f"cardinal={summary['common']['mean_cost']['cardinal']:.2f} "
        f"reduction={reduction:.2%}" if reduction is not None else "no common instances"
    )
    report(4, "50-agent cost reduction band", ok, detail)


MAPS_DIR = Path(os.environ.get("MOVINGAI_MAPS", "maps"))


@pytest.mark.parametrize(
    "name,band",
    [("den520d", (0.14, 0.26)), ("ost003d", (0.14, 0.26)), ("brc202d", (0.08, 0.19))],
)
def test_criterion_5_benchmark_maps(name, band):
    path = MAPS_DIR / f"{name}.map"
    if not path.exists():
        pytest.skip(f"optional: {path} not available")
    grid = parse_map(path.read_text())
    n_instances = int(os.environ.get("MOVINGAI_INSTANCES", "20"))
    walk_steps = int(os.environ.get("MOVINGAI_WALK_STEPS", "100000"))
    instances = [
        (f"{name}-{k:03d}", k, generate_instance(grid, 25, k, "walk", walk_steps=walk_steps))
        for k in range(n_instances)
    ]
    records, summary, _, _ = run_benchmark(
        instances=instances, modes=["aa", "cardinal"], timeout=300.0
    )
    reduction = summary.get("aa_cost_reduction_vs_cardinal")
    ok = reduction is not None and band[0] <= reduction <= band[1]
    report(5, f"{name} cost reduction", ok, f"reduction={reduction}")


def test_criterion_6_single_agent_exactness():
    rng = random.Random(60601)
    grid = GridMap.empty(32, 32)
    worst = 0.0
    for _ in range(1000):
        start = (rng.randrange(32), rng.randrange(32))
        goal = (rng.randrange(32), rng.randrange(32))
        if start == goal:
            continue
        aa_cost = plan(grid, [], start, goal, AA).cost()
        worst = max(worst, abs(aa_cost - math.hypot(goal[0] - start[0], goal[1] - start[1])))
        card_cost = plan(grid, [], start, goal, CARDINAL).cost()
        worst = max(worst, abs(card_cost - (abs(goal[0] - start[0]) + abs(goal[1] - start[1]))))
        if worst > 1e-9:
            break
    report(6, "single-agent exactness", worst <= 1e-9, f"worst deviation {worst:.2e}")


def test_criterion_7_geometry_oracles():
    rng = random.Random(70707)
    sweep_bad = None
    for _ in range(1000):
        a = (rng.randrange(32), rng.randrange(32))
        b = (rng.randrange(32), rng.randrange(32))
        got = set(swept_cells(a, b))
        expect = sampled_swept_cells(a, b)
        for cell in got.symmetric_difference(expect):
            if abs(seg_box_distance(a, b, cell) - 0.5) > 1e-6:
                sweep_bad = (a, b, cell)
                break
        if sweep_bad:
            break
    occ_bad = None
    step = 1e-3
    for _ in range(1000):
        obstacles = [random_trajectory(rng, size=16, max_moves=3)]
        cell = (rng.randrange(16), rng.randrange(16))
        ivs = ConstraintTable(obstacles).safe_intervals_at(cell)
        t_end = obstacles[0].cost() + 2.0
        times = np.arange(0.0, t_end, step)
        occ = occupied_mask(cell, obstacles, times)
        safe = np.zeros(len(times), dtype=bool)
        # t=0 is a window endpoint whenever an obstacle starts exactly one
        # diameter away and immediately closes in; exempt it like any other
        # interval boundary.
        exempt = times <= step
        for lo, hi in ivs:
            safe |= (times >= lo) & (times < hi)
            for bound in (lo, hi):
                if math.isfinite(bound):
                    exempt |= np.abs(times - bound) <= step
        if not (occ[~exempt] != safe[~exempt]).all():
            occ_bad = (cell, obstacles[0].waypoints)
            break
    report(
        7, "geometry oracle equivalence", sweep_bad is None and occ_bad is None,
        f"sweep mismatch={sweep_bad}, occupancy mismatch={occ_bad is not None}",
    )


def test_criterion_8_earliest_arrival_soundness():
    checked = test_constraints.run_soundness_trials(80808, 10000)
    report(8, "earliest-arrival soundness", checked >= 10000,
           f"{checked} accepted arrivals certified conflict-free")


def _desk_grids(size, max_blocked):
    cells = [(c, r) for r in range(size) for c in range(size)]
    for k in range(max_blocked + 1):
        for blocked in itertools.combinations(cells, k):
            yield blocked


def test_criterion_9_desk_scale_completeness():
    mismatches = []
    plans = 0
    for size in (4, 5):
        for blocked in _desk_grids(size, 3):
            grid = GridMap.from_blocked(size, size, blocked)
            free = grid.free_cells()
            if len(free) < 2:
                continue
            start = free[0]
            for mode, conn in ((CARDINAL, 4), (AA, 8)):
                reachable = flood_fill(grid, start, conn)
                for goal in free[1:]:
                    plans += 1
                    try:
                        plan(grid, [], start, goal, mode)
                        ok = True
                    except GoalUnreachable:
                        ok = False
                    if ok != (goal in reachable):
                        mismatches.append((size, blocked, start, goal, conn))
    report(
        9, "desk-scale completeness", not mismatches,
        f"{plans} plans against flood fill, mismatches={mismatches[:3]}",
    )
