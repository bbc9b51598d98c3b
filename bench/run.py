"""Closed-loop benchmark of anysipp's public entry points.

One caller plans and validates one instance after another in a single
process: ``generate_instance`` builds the inputs, ``plan_all`` plans them,
``validate_solution`` certifies every solution. Run from the repository root:

    python3 bench/run.py --workload aa-open64 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The exit
status is 1 when a solution fails validation or the traced and untraced runs
disagree. ``--workload all`` runs every workload, each in its own process.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import PROCESS_REFERENCE_NOMINAL_S, scale, time_process_reference, time_reference
from layers import SWEPT_CACHE, Tracer, percentile, resolve
from workloads import WORKLOADS, build_pool, instances_digest, map_digest, pool_size

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anysipp"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30.0
# Never used while the benchmark was tuned; a later speed claim must also
# hold on this seed.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 9
# Library time between two runs of the host speed reference.
REFERENCE_EVERY_S = 0.05
# A pass stops after this many times --seconds of wall time, with the
# instances it has done, so a run on a slow host still ends in time.
PASS_CAP = 1.5
# Per-instance plan_all timeout; a timed-out instance counts as failed.
PLAN_TIMEOUT_S = 60.0


def load_library():
    """Import anysipp from this checkout's source tree, and nowhere else."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(PACKAGE.parent))
    import anysipp

    if Path(anysipp.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported anysipp from {anysipp.__file__}, not {init}")
    return anysipp


def setup_probe(args) -> float:
    """Seconds from process start to a ready instance pool in a fresh
    interpreter: import, map build and generate_instance."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with status {proc.returncode}")
    return t1 - t0


class Run:
    """Plan and validate a list of instances once each, in order, keeping
    what the metrics need. The host speed reference runs between instances,
    after every ``REFERENCE_EVERY_S`` of library time, and each instance's
    times are also kept scaled by the reference runs around it."""

    def __init__(self, api, mode_name: str, pool):
        self.api = api
        self.mode = api.PlannerMode.anyangle() if mode_name == "aa" else api.PlannerMode.cardinal()
        self.pool = pool
        self.plan_s = []  # measured
        self.validate_s = []
        self.plan_nominal_s = []  # scaled to nominal host speed
        self.validate_nominal_s = []
        self.reference_s = []
        self.costs = []  # total_cost, or None when unsolved
        self.ok = []  # solved and certified by the validator
        self.invalid = []  # indices whose solution the validator rejected
        self.unsolved = []  # (index, agent, status) of the agent that stopped each failed plan
        self._digest = hashlib.sha256()  # format_trajectory output

    def instance(self, k: int) -> float:
        """Plan and validate instance k; returns the library time."""
        api, inst = self.api, self.pool[k]
        t0 = perf_counter()
        sol = api.plan_all(inst, self.mode, timeout=PLAN_TIMEOUT_S)
        t1 = perf_counter()
        report = api.validate_solution(inst, sol)
        t2 = perf_counter()
        self.plan_s.append(t1 - t0)
        self.validate_s.append(t2 - t1)
        self.costs.append(sol.total_cost)
        self.ok.append(sol.success and report.ok)
        if not report.ok:
            self.invalid.append(k)
        if not sol.success:
            agent = next(i for i, st in enumerate(sol.statuses) if st != "ok")
            self.unsolved.append((k, agent, sol.statuses[agent]))
        self._digest.update(f"# instance {k}\n".encode())
        for traj in sol.trajectories:
            if traj is not None:
                self._digest.update("\n".join(api.format_trajectory(traj)).encode())
        return t2 - t0

    def all(self, cap_s: float = float("inf"), on_instance=None) -> None:
        """Every instance once, with the host speed reference in between;
        stops early once ``cap_s`` seconds have passed."""
        deadline = perf_counter() + cap_s
        before = time_reference()
        self.reference_s.append(before)
        pending, busy = [], 0.0
        for k in range(len(self.pool)):
            if perf_counter() > deadline:
                break
            if on_instance is not None:
                on_instance(k)
            busy += self.instance(k)
            pending.append(k)
            if busy < REFERENCE_EVERY_S and k + 1 < len(self.pool) and perf_counter() <= deadline:
                continue
            after = time_reference()
            self.reference_s.append(after)
            factor = scale((before + after) / 2)
            for j in pending:
                self.plan_nominal_s.append(self.plan_s[j] * factor)
                self.validate_nominal_s.append(self.validate_s[j] * factor)
            before, pending, busy = after, [], 0.0

    @property
    def count(self) -> int:
        return len(self.ok)

    def solved(self) -> int:
        return sum(self.ok)

    def busy_s(self) -> float:
        return sum(self.plan_s) + sum(self.validate_s)

    def nominal_busy_s(self) -> float:
        return sum(self.plan_nominal_s) + sum(self.validate_nominal_s)

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def problems(self) -> list:
        return [f"instance {k}: validator rejected the solution" for k in self.invalid]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(args) -> tuple:
    """Set-up probes, measured and scaled to nominal host speed by the
    process reference timed just before and just after each."""
    measured, scaled = [], []
    before = time_process_reference()
    for _ in range(SETUP_REPEATS):
        t = setup_probe(args)
        after = time_process_reference()
        measured.append(t)
        scaled.append(t * scale((before + after) / 2, PROCESS_REFERENCE_NOMINAL_S))
        before = after
    return measured, scaled


def end_to_end(api, workload, pool, args) -> tuple:
    setup, setup_nominal = measure_setup(args)
    run = Run(api, workload.mode, pool)
    run.all(cap_s=PASS_CAP * args.seconds)
    solved = [c for c, ok in zip(run.costs, run.ok) if ok]
    metrics = {
        "setup_s": metric(statistics.median(setup_nominal), "s"),
        "instances_per_s": metric(run.count / run.nominal_busy_s(), "1/s"),
        "plan_s.p50": metric(percentile(run.plan_nominal_s, 50)[0], "s"),
        "validate_s.total": metric(sum(run.validate_nominal_s), "s"),
        "success_rate": metric(run.solved() / run.count, "ratio"),
        "cost.total": metric(sum(solved), "grid_units"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "instances_per_s": f"{run.count} of {len(pool)} instances",
        "plan_s.p50": f"n={run.count}",
        "validate_s.total": f"{run.count} instances",
        "success_rate": f"{run.solved()}/{run.count}",
        "cost.total": f"{run.count} instances, {len(solved)} solved",
    }
    ref = run.reference_s
    print(f"host speed: reference took {min(ref) * 1e3:.2f} to {max(ref) * 1e3:.2f} ms "
          f"(median {statistics.median(ref) * 1e3:.2f} ms over {len(ref)} runs); "
          f"times below are scaled to nominal speed")
    print(f"measured: setup_s {statistics.median(setup):.4g} s, "
          f"instances_per_s {run.count / run.busy_s():.4g} 1/s, "
          f"plan_s.p50 {percentile(run.plan_s, 50)[0]:.4g} s, "
          f"validate_s.total {sum(run.validate_s):.4g} s")
    print(f"trajectories: {run.digest()} (format_trajectory digest, {run.count} instances)")
    return run, metrics, samples, run.problems()


def clear_library_caches() -> None:
    """Empty every functools cache in the library, so each traced pass
    starts from the state a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "anysipp":
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def per_layer(api, workload, pool, args) -> tuple:
    """The first ``traced`` instances untraced, then again traced; the
    counts cover exactly those instances, so they repeat across runs."""
    todo = pool[:workload.traced]
    clear_library_caches()
    plain = Run(api, workload.mode, todo)
    plain.all()

    clear_library_caches()
    tracer = Tracer()
    tracer.install()
    try:
        run = Run(api, workload.mode, todo)
        run.all(on_instance=tracer.begin_instance)
    finally:
        tracer.uninstall()
    cache = resolve(SWEPT_CACHE)
    cache_info = cache[2].cache_info() if cache and hasattr(cache[2], "cache_info") else None

    metrics = {name: metric(v, u) for name, (v, u) in tracer.metrics(cache_info).items()}
    metrics["trace.overhead_ratio"] = metric(run.nominal_busy_s() / plain.nominal_busy_s() - 1.0, "ratio")
    samples = {name: f"{run.count} instances" for name in metrics}
    for q in ("p50", "p90", "max"):
        samples[f"prioritized.agent_plan_s.{q}"] = f"n={len(tracer.agent_spans)} agents"
    slowest = tracer.slowest_agent()
    if slowest is not None:
        k, agent, dt = slowest
        print(f"slowest agent: instance {k} agent {agent} took {dt:.3f} s "
              f"of {run.plan_s[k]:.3f} s for its instance")
    if tracer.absent:
        print("absent layers (hook target missing, metrics left out): " + ", ".join(tracer.absent))
    print(f"trajectories: {run.digest()} (format_trajectory digest, "
          f"{run.count} instances)")

    problems = run.problems() + plain.problems()
    problems += [
        f"instance {k}: traced cost {a!r} differs from untraced {b!r}"
        for k, (a, b) in enumerate(zip(run.costs, plain.costs)) if a != b
    ]
    if run.digest() != plain.digest():
        problems.append("traced trajectories differ from untraced ones")
    return run, metrics, samples, problems


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; the exit
    status is the worst of theirs."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them, each in a fresh process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="sets the number of instances: about this many seconds of "
                        "work at nominal host speed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end ones")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    api = load_library()
    grid, pool = build_pool(api, workload, args.seed, pool_size(workload, args.seconds))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"workload {workload.name}: {workload.agents} agents, mode {workload.mode}, "
          f"seed {args.seed}, trace {args.trace}")
    print(f"inputs: map {map_digest(grid)} ({len(grid.free_cells())} free cells), "
          f"instances {instances_digest(pool)} ({len(pool)} instances)")
    measure = per_layer if args.trace else end_to_end
    run, metrics, samples, problems = measure(api, workload, pool, args)
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<10} {samples.get(name, '')}")
    for k, agent, status in run.unsolved:
        print(f"unsolved: instance {k} agent {agent} ({status})")
    for line in problems:
        print("INCORRECT: " + line)
    result = {
        "correct": not problems,
        "attempted": run.count,
        "failed": run.count - run.solved(),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
