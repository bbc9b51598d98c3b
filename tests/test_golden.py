"""Golden trajectories: ``plan_all`` output, bit for bit, on fixed instances.

For each instance and mode the golden file holds the per-agent statuses, the
exact ``total_cost``, the sha256 of every ``format_trajectory`` line and the
sha256 of every search trace record, written as the CLI's ``--trace`` file
writes its columns after instance, mode and agent. Any change to the planner that moves a single waypoint, arrival
or wait, or that pops a different state, fails this test; a change meant to
alter trajectories or traces must say so and regenerate the file with
``PYTHONPATH=src python tests/test_golden.py --write``, which prints each
instance and mode's old and new ``total_cost`` for the record.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from anysipp.grid import GridMap
from anysipp.planner import PlannerMode
from anysipp.prioritized import generate_instance, plan_all
from anysipp.trajectory import format_trajectory

from oracles import blocked_grid

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
MODES = {"aa": PlannerMode.anyangle(), "cardinal": PlannerMode.cardinal()}


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
        "blocked64-separated": generate_instance(blocked_grid(64, 0.2, seed=1), 40, seed=16,
                                                 protocol="separated"),
        # Paper scale, seed 0: about a minute together, most of it the
        # 250-agent any-angle run, so CI runs them with the slow tests.
        **{
            f"empty64-separated-{n}": generate_instance(GridMap.empty(64, 64), n, 0, "separated")
            for n in (150, 250)
        },
    }


def record(instance, mode):
    sol = plan_all(instance, mode, collect_traces=True)
    digest, traces = hashlib.sha256(), hashlib.sha256()
    for traj, trace in zip(sol.trajectories, sol.traces):
        lines = ["-"] if traj is None else format_trajectory(traj)
        digest.update(("\n".join(lines) + "\n#\n").encode())
        lines = ["-"] if trace is None else [
            f"{cfg[0]} {cfg[1]} {lo!r} {hi!r} {g!r} {f!r}" for cfg, lo, hi, g, f in trace]
        traces.update(("\n".join(lines) + "\n#\n").encode())
    # --write keeps this key order.
    return {
        "sha256": digest.hexdigest(),
        "statuses": sol.statuses,
        "trace_sha256": traces.hexdigest(),
        "total_cost": sol.total_cost,
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


@pytest.mark.parametrize("name", [
    pytest.param(f"{i}/{m}", marks=pytest.mark.slow if i.startswith("empty64-") else ())
    for i in instances() for m in MODES
])
def test_golden_trajectories(golden, name):
    instance_name, mode_name = name.split("/")
    got = record(instances()[instance_name], MODES[mode_name])
    assert got == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = current()
    for name, rec in sorted(new.items()):
        before = old.get(name, {}).get("total_cost")
        changed = "  (changed)" if old.get(name) != rec else ""
        print(f"{name}: total_cost {before} -> {rec['total_cost']}{changed}")
    GOLDEN.write_text(json.dumps(dict(sorted(new.items())), indent=1) + "\n")
