"""Benchmark harness: run instances through both planners, validate, emit
CSV/JSON records plus a summary."""

from __future__ import annotations

import argparse
import json
import re
import sys
import time as _time
from dataclasses import asdict, dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .grid import MapFormatError, parse_map
from .planner import PlannerMode
from .prioritized import (
    STATUS_OK,
    GenerationError,
    Instance,
    InstanceError,
    generate_instance,
    load_agents,
    plan_all,
)
from .trajectory import format_trajectory
from .validate import validate_solution

MODE_NAMES = {mode.name: mode for mode in (PlannerMode.anyangle(), PlannerMode.cardinal())}
CSV_HEADER = "instance,mode,agents,success,time_s,cost,valid,seed"


@dataclass
class RunRecord:
    instance: str
    mode: str
    agents: int
    success: bool
    time_s: float
    cost: Optional[float]
    valid: Optional[bool]
    seed: int
    # JSON output only: the text of an unexpected exception that ended the
    # run; the first agent status that is not "ok" (or "ok"), and that
    # agent's index (or None). Both are None when planning raised.
    error: Optional[str] = None
    status: Optional[str] = STATUS_OK
    failed_agent: Optional[int] = None


@dataclass
class BenchConfig:
    instances: List[Tuple[str, int, Instance]]  # (id, seed, instance)
    modes: List[str]
    timeout: float = 300.0
    dump_trajectories: bool = False
    collect_traces: bool = False
    workers: int = 1


def _run_instance(task):
    """Plans, validates and records one instance in each mode. A run
    succeeds only if its solution is complete and the validator agrees;
    ``time_s`` is the planning time, or the time up to an exception."""
    (inst_id, seed, instance), modes, timeout, dump, traces = task
    records = []
    dumps = []
    trace_lines = []
    for mode_name in modes:
        mode = MODE_NAMES[mode_name]
        t0 = _time.monotonic()
        valid: Optional[bool] = None
        error: Optional[str] = None
        try:
            sol = plan_all(instance, mode, timeout=timeout, collect_traces=traces)
            elapsed = _time.monotonic() - t0
            if sol.success:
                valid = validate_solution(instance, sol).ok
        except Exception as exc:  # one bad run must not abort the batch
            sol, elapsed = None, _time.monotonic() - t0
            error = f"{type(exc).__name__}: {exc}"
        success = valid is True
        status = failed = None
        if sol is not None:
            failed = next((i for i, st in enumerate(sol.statuses) if st != STATUS_OK), None)
            status = STATUS_OK if failed is None else sol.statuses[failed]
        records.append(RunRecord(
            inst_id, mode_name, instance.n_agents, success, elapsed,
            sol.total_cost if success else None, valid, seed, error, status, failed,
        ))
        if sol is None:
            continue
        if dump and success:
            for i, traj in enumerate(sol.trajectories):
                dumps.append(f"# {inst_id} {mode_name} agent {i}")
                dumps.extend(format_trajectory(traj))
        if traces and sol.traces:
            for i, tr in enumerate(sol.traces):
                for cfg, iv_lo, iv_hi, g, f in tr or ():
                    trace_lines.append(
                        f"{inst_id} {mode_name} {i} {cfg[0]} {cfg[1]} "
                        f"{iv_lo!r} {iv_hi!r} {g!r} {f!r}"
                    )
    return records, dumps, trace_lines


def run_benchmark(config: BenchConfig):
    """Execute every (instance, mode) pair; returns (records, summary, dumps,
    trace lines). Records are ordered by instance then mode regardless of
    worker scheduling."""
    tasks = [
        (entry, config.modes, config.timeout, config.dump_trajectories,
         config.collect_traces)
        for entry in config.instances
    ]
    results = []
    if config.workers > 1 and len(tasks) > 1:
        with Pool(min(config.workers, len(tasks))) as pool:
            results = list(pool.imap(_run_instance, tasks))
    else:
        results = [_run_instance(t) for t in tasks]
    records: List[RunRecord] = []
    dumps: List[str] = []
    traces: List[str] = []
    for rec, dmp, trc in results:
        records.extend(rec)
        dumps.extend(dmp)
        traces.extend(trc)
    return records, summarize(records, config.modes), dumps, traces


def summarize(records: Sequence[RunRecord], modes: Sequence[str]) -> Dict:
    """Per-mode success rate / mean time / mean cost over that mode's own
    successes, plus mean costs restricted to instances every mode solved
    (the honest basis for head-to-head cost comparisons)."""
    per_mode: Dict[str, Dict] = {}
    by_instance: Dict[str, Dict[str, RunRecord]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.mode] = r
    for m in modes:
        rows = [r for r in records if r.mode == m]
        solved = [r for r in rows if r.success]
        per_mode[m] = {
            "runs": len(rows),
            "success_rate": (len(solved) / len(rows)) if rows else 0.0,
            "mean_time_s": (sum(r.time_s for r in solved) / len(solved)) if solved else None,
            "mean_cost_solved": (sum(r.cost for r in solved) / len(solved)) if solved else None,
        }
    common_ids = [
        iid for iid, rs in by_instance.items()
        if all(m in rs and rs[m].success for m in modes)
    ]
    common = {
        "count": len(common_ids),
        "mean_cost": {
            m: (sum(by_instance[i][m].cost for i in common_ids) / len(common_ids))
            if common_ids else None
            for m in modes
        },
    }
    summary = {"per_mode": per_mode, "common": common}
    # None without common instances; 0 when every agent starts at its goal.
    card = common["mean_cost"].get("cardinal")
    if card and "aa" in modes:
        summary["aa_cost_reduction_vs_cardinal"] = (card - common["mean_cost"]["aa"]) / card
    return summary


def _fmt_bool(v: Optional[bool]) -> str:
    return "" if v is None else ("true" if v else "false")


def format_csv(records: Sequence[RunRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        cost = "" if r.cost is None else repr(r.cost)
        lines.append(
            f"{r.instance},{r.mode},{r.agents},{_fmt_bool(r.success)},"
            f"{r.time_s!r},{cost},{_fmt_bool(r.valid)},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def emit_results(records, summary, prefix: str, dumps=None, traces=None) -> None:
    prefix_path = Path(prefix)
    prefix_path.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.csv").write_text(format_csv(records))
    payload = {"records": [asdict(r) for r in records], "summary": summary}
    Path(f"{prefix}.json").write_text(json.dumps(payload, indent=2) + "\n")
    if dumps:
        Path(f"{prefix}.paths.txt").write_text("\n".join(dumps) + "\n")
    if traces:
        Path(f"{prefix}.trace").write_text("\n".join(traces) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anysipp-bench",
        description="Multi-agent any-angle pathfinding benchmark harness",
    )
    p.add_argument("--map", required=True, help="grid map file")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scen", help="scenario/instance file")
    src.add_argument(
        "--generate",
        help="instance generator: 'separated' or 'walk:STEPS'",
    )
    p.add_argument("--agents", type=int, help="number of agents")
    p.add_argument("--instances", type=int, help="number of generated instances (default 1)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--mode", choices=[*MODE_NAMES, "both"], default="both")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="wall-clock seconds for planning each instance in each mode")
    p.add_argument("--out", help="output artifact prefix (.csv/.json)")
    p.add_argument("--dump-trajectories", action="store_true")
    p.add_argument("--trace", action="store_true", help="dump search expansion traces")
    p.add_argument("--workers", type=int, default=1, help="parallel instance workers")
    return p


def _config_from_args(args) -> BenchConfig:
    grid = parse_map(Path(args.map).read_text())
    map_stem = Path(args.map).stem
    modes = list(MODE_NAMES) if args.mode == "both" else [args.mode]
    instances: List[Tuple[str, int, Instance]] = []
    if args.agents is not None and args.agents < 1:
        raise InstanceError(f"--agents must be at least 1, got {args.agents}")
    for flag, value in (("--instances", args.instances), ("--workers", args.workers)):
        if value is not None and value < 1:
            raise InstanceError(f"{flag} must be at least 1, got {value}")
    if not args.timeout > 0:
        raise InstanceError(f"--timeout must be positive, got {args.timeout}")
    if args.scen:
        if args.instances is not None:
            raise InstanceError("--instances applies to --generate only, not to --scen")
        inst = load_agents(Path(args.scen).read_text(), grid, max_agents=args.agents)
        instances.append((Path(args.scen).stem, args.seed, inst))
    elif args.generate:
        if args.agents is None:
            raise InstanceError("--generate requires --agents")
        gen = args.generate
        if gen == "separated":
            protocol, steps = "separated", 0
        elif re.fullmatch(r"walk:-?\d+", gen):
            protocol, steps = "walk", int(gen[5:])
        else:
            raise InstanceError(f"--generate takes 'separated' or 'walk:STEPS', got {gen!r}")
        for k in range(args.instances or 1):
            seed = args.seed + k
            inst = generate_instance(grid, args.agents, seed, protocol, walk_steps=steps)
            instances.append((f"{map_stem}-{protocol}-{k:03d}", seed, inst))
    else:
        raise InstanceError("one of --scen or --generate is required")
    if args.dump_trajectories and not args.out:
        raise InstanceError("--dump-trajectories requires --out")
    if args.trace and not args.out:
        raise InstanceError("--trace requires --out")
    if args.out:
        # An unusable prefix fails here, before any planning.
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    return BenchConfig(
        instances=instances,
        modes=modes,
        timeout=args.timeout,
        dump_trajectories=args.dump_trajectories,
        collect_traces=args.trace,
        workers=args.workers,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (OSError, MapFormatError, InstanceError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records, summary, dumps, traces = run_benchmark(config)
    for r in records:
        cost = "-" if r.cost is None else f"{r.cost:.2f}"
        print(
            f"{r.instance} {r.mode} agents={r.agents} success={r.success} "
            f"time={r.time_s:.3f}s cost={cost}"
        )
    print(json.dumps(summary, indent=2))
    if args.out:
        emit_results(records, summary, args.out, dumps, traces)
    # Unsolved and timed-out runs are results; a rejected solution or an
    # unexpected exception is a fault.
    return int(any(r.valid is False or r.error is not None for r in records))


if __name__ == "__main__":
    sys.exit(main())
