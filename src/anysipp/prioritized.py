"""Prioritized multi-agent planning, instance handling, and WFI checking.

Agents are planned one at a time in input (FIFO) order; each agent treats
all higher-priority trajectories as moving obstacles fixed in space-time.
"""

from __future__ import annotations

import random
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .constraints import ConstraintTable
from .geometry import Cell
from .grid import CARDINAL_STEPS, GridMap
from .planner import PlannerMode, PlanningError, plan
from .trajectory import Trajectory

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"


class InstanceError(ValueError):
    pass


class GenerationError(RuntimeError):
    pass


@dataclass
class Instance:
    grid: GridMap
    agents: List[Tuple[Cell, Cell]]

    def __post_init__(self):
        self.agents = [(tuple(s), tuple(g)) for s, g in self.agents]
        starts = [s for s, _ in self.agents]
        goals = [g for _, g in self.agents]
        if len(set(starts)) != len(starts):
            raise InstanceError("start cells must be pairwise distinct")
        if len(set(goals)) != len(goals):
            raise InstanceError("goal cells must be pairwise distinct")
        for i, (s, g) in enumerate(self.agents):
            if not self.grid.is_traversable(s):
                raise InstanceError(f"agent {i} start {s} is not traversable")
            if not self.grid.is_traversable(g):
                raise InstanceError(f"agent {i} goal {g} is not traversable")

    @property
    def n_agents(self) -> int:
        return len(self.agents)


@dataclass
class Solution:
    trajectories: List[Optional[Trajectory]]
    statuses: List[str]
    total_cost: Optional[float]
    traces: Optional[List[Optional[list]]] = None

    @property
    def success(self) -> bool:
        return all(s == STATUS_OK for s in self.statuses)


def plan_all(
    instance: Instance,
    mode: PlannerMode = PlannerMode.anyangle(),
    timeout: Optional[float] = None,
    collect_traces: bool = False,
) -> Solution:
    """Plan every agent in priority order against the accumulated higher
    priority trajectories. The first failure aborts the chain: the agent
    gets its error's ``status``, and the remaining agents are skipped."""
    deadline = _time.monotonic() + timeout if timeout is not None else None
    n = instance.n_agents
    table = ConstraintTable()
    trajectories: List[Optional[Trajectory]] = [None] * n
    statuses = [STATUS_SKIPPED] * n
    traces: Optional[List[Optional[list]]] = [None] * n if collect_traces else None
    for i, (start, goal) in enumerate(instance.agents):
        trace = [] if collect_traces else None
        if traces is not None:
            traces[i] = trace
        try:
            traj = plan(instance.grid, table, start, goal, mode, deadline=deadline, trace=trace)
        except PlanningError as exc:
            statuses[i] = exc.status
            return Solution(trajectories, statuses, None, traces)
        trajectories[i] = traj
        statuses[i] = STATUS_OK
        table.add_trajectory(traj)
    return Solution(trajectories, statuses, sum(t.cost() for t in trajectories), traces)


@dataclass
class WfiReport:
    is_wfi: bool
    failures: List[Tuple[Cell, Cell]] = field(default_factory=list)


def check_wfi(instance: Instance) -> WfiReport:
    """Sufficient well-formed-infrastructure test over cardinal moves.

    For unit cardinal moves between cell centers, a move stays at least one
    diameter from another endpoint center exactly when neither move endpoint
    is that center, so the witness search reduces to BFS over free cells with
    all other endpoints removed; the terminal hop into the target endpoint is
    allowed from any adjacent reached cell.
    """
    endpoints = []
    seen = set()
    for s, g in instance.agents:
        for e in (s, g):
            if e not in seen:
                seen.add(e)
                endpoints.append(e)
    nbrs = instance.grid.successors(CARDINAL_STEPS)
    failures = []
    for e1 in endpoints:
        blocked_extra = seen - {e1}
        reached = {e1}
        queue = deque([e1])
        while queue:
            for nxt in nbrs[queue.popleft()]:
                if nxt in reached or nxt in blocked_extra:
                    continue
                reached.add(nxt)
                queue.append(nxt)
        for e2 in endpoints:
            if e2 == e1:
                continue
            if not any(nxt in reached for nxt in nbrs[e2]):
                failures.append((e1, e2))
    return WfiReport(not failures, failures)


def generate_instance(
    grid: GridMap,
    n: int,
    seed: int,
    protocol: str = "separated",
    walk_steps: int = 100000,
) -> Instance:
    """Deterministic random instance on the grid's free cells.

    ``separated``: all 2n endpoint centers pairwise at least two diameters
    apart (rejection sampling). ``walk``: uniform distinct starts; each goal
    is the endpoint of a cardinal random walk from its start, re-walked on
    goal collisions.
    """
    if n < 0:
        raise GenerationError(f"{n} agents requested")
    rng = random.Random(seed)
    free = grid.free_cells()
    if protocol == "separated":
        if 2 * n > len(free):
            raise GenerationError(f"{2 * n} endpoints requested, {len(free)} free cells")
        chosen: List[Cell] = []
        attempts = 0
        limit = 1000 * (2 * n) + 1000
        while len(chosen) < 2 * n:
            attempts += 1
            if attempts > limit:
                raise GenerationError(
                    f"could not place {2 * n} separated endpoints after {attempts} draws"
                )
            cand = free[rng.randrange(len(free))]
            if all((cand[0] - c) ** 2 + (cand[1] - r) ** 2 >= 4 for c, r in chosen):
                chosen.append(cand)
        agents = list(zip(chosen[:n], chosen[n:]))
        return Instance(grid, agents)
    if protocol == "walk":
        if walk_steps < 1:
            raise GenerationError(f"walk needs at least 1 step, got {walk_steps}")
        if n > len(free):
            raise GenerationError(f"{n} starts requested, {len(free)} free cells")
        starts = rng.sample(free, n)
        nbrs = grid.successors(CARDINAL_STEPS)
        goals: List[Cell] = []
        for start in starts:
            goal = None
            for _ in range(64):
                pos = start
                for _ in range(walk_steps):
                    moves = nbrs[pos]
                    if not moves:
                        break
                    pos = moves[rng.randrange(len(moves))]
                if pos not in goals:
                    goal = pos
                    break
            if goal is None:
                raise GenerationError(f"random walk from {start} kept landing on used goals")
            goals.append(goal)
        return Instance(grid, list(zip(starts, goals)))
    raise ValueError(f"unknown protocol {protocol!r}")


def load_agents(text: str, grid: GridMap, max_agents: Optional[int] = None) -> Instance:
    """Parse either the ``agents N`` instance format, which must hold
    exactly N agent rows, or a benchmark scenario file (header ``version
    ...``); agents keep file order (FIFO priority)."""
    if max_agents is not None and max_agents < 0:
        raise InstanceError(f"{max_agents} agents requested")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InstanceError("empty instance file")
    head = lines[0].split()
    rows: List[Tuple[str, List[str]]] = []  # (line, its four coordinates)
    if head[0] == "agents":
        try:
            count = int(head[1])
        except (IndexError, ValueError):
            raise InstanceError("expected 'agents N' header") from None
        if count < 0:
            raise InstanceError(f"header declares {count} agents")
        if len(lines) - 1 != count:
            raise InstanceError(f"header declares {count} agents, found {len(lines) - 1}")
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 4:
                raise InstanceError(f"expected 'sc sr gc gr', got {ln!r}")
            rows.append((ln, parts))
    elif head[0] == "version":
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) < 9:
                raise InstanceError(f"malformed scenario row: {ln!r}")
            rows.append((ln, parts[4:8]))
    else:
        raise InstanceError(f"unrecognized instance header: {lines[0]!r}")
    agents: List[Tuple[Cell, Cell]] = []
    for ln, fields in rows:
        try:
            sc, sr, gc, gr = map(int, fields)
        except ValueError:
            raise InstanceError(f"non-integer coordinate in row {ln!r}") from None
        agents.append(((sc, sr), (gc, gr)))
    if max_agents is not None:
        if len(agents) < max_agents:
            raise InstanceError(f"{max_agents} agents requested, file has {len(agents)}")
        agents = agents[:max_agents]
    return Instance(grid, agents)
