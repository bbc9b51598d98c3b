"""Golden trajectories: ``plan_all`` output, bit for bit, on fixed instances.

For each instance and mode the golden file holds the per-agent statuses, the
exact ``total_cost`` and the sha256 of every ``format_trajectory`` line. Any
change to the planner that moves a single waypoint, arrival or wait fails
this test; a change meant to alter trajectories must say so and regenerate
the file with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from anysipp.grid import GridMap
from anysipp.planner import PlannerMode
from anysipp.prioritized import generate_instance, plan_all
from anysipp.trajectory import format_trajectory

from oracles import flood_fill

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
MODES = {"aa": PlannerMode.anyangle(), "cardinal": PlannerMode.cardinal()}


def blocked_grid(size, share, seed):
    """Seeded random blocks, cut down to the largest 4-connected free region
    so that every start can reach every goal on the static map."""
    rng = random.Random(seed)
    cells = [(c, r) for r in range(size) for c in range(size)]
    blocked = set(rng.sample(cells, round(share * len(cells))))
    grid = GridMap.from_blocked(size, size, blocked)
    best, seen = set(), set()
    for cell in grid.free_cells():
        if cell not in seen:
            region = flood_fill(grid, cell, 4)
            seen |= region
            if len(region) > len(best):
                best = region
    return GridMap.from_blocked(size, size, [c for c in cells if c not in best])


@lru_cache(maxsize=None)
def instances():
    empty16 = GridMap.empty(16, 16)
    blocked = blocked_grid(20, 0.2, seed=1)
    return {
        "empty16-separated": generate_instance(empty16, 12, seed=11, protocol="separated"),
        "empty24-separated": generate_instance(GridMap.empty(24, 24), 16, seed=12, protocol="separated"),
        "blocked20-separated-a": generate_instance(blocked, 10, seed=13, protocol="separated"),
        "blocked20-separated-b": generate_instance(blocked, 14, seed=14, protocol="separated"),
        "empty16-walk": generate_instance(empty16, 12, seed=15, protocol="walk", walk_steps=40),
    }


def record(instance, mode):
    sol = plan_all(instance, mode)
    digest = hashlib.sha256()
    for traj in sol.trajectories:
        lines = ["-"] if traj is None else format_trajectory(traj)
        digest.update(("\n".join(lines) + "\n#\n").encode())
    return {
        "statuses": sol.statuses,
        "total_cost": sol.total_cost,
        "sha256": digest.hexdigest(),
    }


def current():
    return {
        f"{name}/{mode_name}": record(instance, mode)
        for name, instance in instances().items()
        for mode_name, mode in MODES.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", [f"{i}/{m}" for i in instances() for m in MODES])
def test_golden_trajectories(golden, name):
    instance_name, mode_name = name.split("/")
    got = record(instances()[instance_name], MODES[mode_name])
    assert got == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
