"""Tests of the benchmark itself: input generation, percentiles and hooks.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import anysipp  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from layers import Tracer, percentile  # noqa: E402
from workloads import (  # noqa: E402
    MAP_SEED,
    SIZE,
    WORKLOADS,
    blocked_cells,
    build_grid,
    build_pool,
    instances_digest,
    largest_region,
    map_digest,
    pool_size,
)


def test_blocked_map_is_deterministic_and_seeded():
    a = blocked_cells(32, 0.2, 5)
    assert a == blocked_cells(32, 0.2, 5)
    assert a != blocked_cells(32, 0.2, 6)
    assert len(a) >= round(0.2 * 32 * 32)


def test_blocked_map_keeps_one_connected_region():
    blocked = set(blocked_cells(SIZE, 0.2, MAP_SEED))
    free = {(c, r) for r in range(SIZE) for c in range(SIZE)} - blocked
    assert largest_region(free) == free


def test_largest_region_picks_the_biggest_component():
    left = {(0, 0), (0, 1)}
    right = {(5, 0), (5, 1), (6, 1)}
    assert largest_region(left | right) == right


def test_workload_inputs_repeat_for_a_seed():
    w = WORKLOADS["aa-blocked64"]
    assert map_digest(build_grid(anysipp, w)) == map_digest(build_grid(anysipp, w))
    grid = build_grid(anysipp, w)
    first = [anysipp.generate_instance(grid, w.agents, s, "separated") for s in (0, 1)]
    again = [anysipp.generate_instance(grid, w.agents, s, "separated") for s in (0, 1)]
    assert instances_digest(first) == instances_digest(again)
    assert instances_digest(first[:1]) != instances_digest(again[1:])


def test_open_workloads_share_instances():
    _, aa = build_pool(anysipp, WORKLOADS["aa-open64"], 4, 6)
    _, card = build_pool(anysipp, WORKLOADS["cardinal-open64"], 4, 9)
    assert instances_digest(aa) == instances_digest(card[:6])
    assert instances_digest(aa) != instances_digest(build_pool(anysipp, WORKLOADS["aa-open64"], 5, 6)[1])


def test_pool_size_follows_the_duration():
    w = WORKLOADS["aa-open64"]
    assert pool_size(w, 30) == round(30 * w.rate)
    assert pool_size(w, 30) == pool_size(w, 30.0)
    assert pool_size(w, 1e-6) == 1


def test_reference_is_fixed_work():
    assert hostspeed.reference() == hostspeed.reference() > 1000
    assert hostspeed.scale(hostspeed.REFERENCE_NOMINAL_S) == 1.0
    assert hostspeed.scale(2 * hostspeed.REFERENCE_NOMINAL_S) == 0.5


def test_times_are_scaled_by_the_reference_around_them(monkeypatch):
    slow = iter([2.0, 4.0, 4.0, 4.0] + [4.0] * 10)
    monkeypatch.setattr(run, "time_reference", lambda: next(slow) * hostspeed.REFERENCE_NOMINAL_S)
    monkeypatch.setattr(run, "REFERENCE_EVERY_S", 0.0)
    grid = anysipp.GridMap.empty(12, 12)
    pool = [anysipp.generate_instance(grid, 3, s, "separated") for s in range(3)]
    r = run.Run(anysipp, "aa", pool)
    r.all()
    assert r.count == 3 and r.solved() == 3
    assert r.reference_s == [x * hostspeed.REFERENCE_NOMINAL_S for x in (2.0, 4.0, 4.0, 4.0)]
    # The first instance ran between references at 2x and 4x nominal time.
    assert r.plan_nominal_s[0] == pytest.approx(r.plan_s[0] / 3.0)
    assert r.plan_nominal_s[2] == pytest.approx(r.plan_s[2] / 4.0)
    assert r.validate_nominal_s[1] == pytest.approx(r.validate_s[1] / 4.0)


def test_percentile_nearest_rank_with_counts():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == (3.0, 5)
    assert percentile(values, 100) == (5.0, 5)
    assert percentile(values, 0) == (1.0, 5)
    assert percentile([7.0, 8.0], 50) == (7.0, 2)
    assert percentile([], 50) == (None, 0)


def test_percentile_needs_samples_beyond_it():
    values = list(range(100))
    assert percentile(values, 90, beyond=10) == (89, 100)
    assert percentile(values[:99], 90, beyond=10) == (None, 99)


def _tiny_instance():
    grid = anysipp.GridMap.empty(12, 12)
    return anysipp.generate_instance(grid, 4, 3, "separated")


def test_absent_hook_is_reported_and_left_out(monkeypatch):
    monkeypatch.setattr(layers, "HOOKS", layers.HOOKS + (
        ("constraints.departure_guards_gone", "anysipp.planner:no_such_function"),
    ))
    monkeypatch.setattr(layers, "MOVE_MODEL", ("constraints.departure_guards_gone",))
    tracer = Tracer()
    tracer.install()
    try:
        sol = anysipp.plan_all(_tiny_instance(), anysipp.PlannerMode.anyangle())
    finally:
        tracer.uninstall()
    assert sol.success
    assert tracer.absent == ["constraints.departure_guards_gone"]
    metrics = tracer.metrics()
    assert "constraints.move_model.builds" not in metrics
    assert "constraints.move_model.self_s" not in metrics
    assert metrics["planner.expansions"][0] > 0


def test_hooks_count_calls_and_restore_originals():
    originals = {target: layers.resolve(target)[2] for _, target in layers.HOOKS}
    instance = _tiny_instance()
    plain = anysipp.plan_all(instance, anysipp.PlannerMode.anyangle())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_instance(0)
        sol = anysipp.plan_all(instance, anysipp.PlannerMode.anyangle())
        assert anysipp.validate_solution(instance, sol).ok
    finally:
        tracer.uninstall()
    for target, fn in originals.items():
        assert layers.resolve(target)[2] is fn
    assert anysipp.planner.swept_cells is anysipp.geometry.swept_cells
    assert sol.total_cost == plain.total_cost
    assert tracer.absent == []
    m = tracer.metrics()
    assert len(tracer.agent_spans) == instance.n_agents
    assert m["validate.first_conflict.calls"][0] == instance.n_agents * (instance.n_agents - 1) // 2
    assert m["grid.cells_traversable.calls"][0] == 0
    assert m["constraints.add_trajectory.calls"][0] == instance.n_agents
    assert 0.0 <= m["planner.move_model.reuse_ratio"][0] <= 1.0
    assert tracer.slowest_agent()[0] == 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer._wrap("child", lambda: sum(range(20000)))
    parent = tracer._wrap("parent", lambda: [child() for _ in range(5)])
    parent()
    p, c = tracer.stats["parent"], tracer.stats["child"]
    assert c.calls == 5 and p.calls == 1
    assert p.self_s == pytest.approx(p.total_s - c.total_s)
    assert 0.0 <= p.self_s < p.total_s


def test_library_is_loaded_from_this_checkout():
    api = run.load_library()
    assert Path(api.__file__).resolve() == run.PACKAGE / "__init__.py"
