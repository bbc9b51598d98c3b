"""Benchmark workloads: seeded maps and instance pools.

Every input a run uses is derived from the run's seed. The planner sees only
the generated ``Instance`` objects, never the seed.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass

SIZE = 64
BLOCKED_SHARE = 0.20
# The blocked map is fixed; the run seed draws the instances on it.
MAP_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "aa" (any-angle) or "cardinal"
    agents: int
    blocked: bool
    # Instances planned and validated per second at nominal host speed; a
    # run of S seconds plans the first round(S * rate) instances of its seed,
    # so a seed and a duration always give the same instances.
    rate: float
    # Instances the traced run plans, once untraced and once traced.
    traced: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "aa-open64", "aa", 6, False, 5.0, 32,
            "empty 64x64 grid, any-angle: the move collision model and swept-cell "
            "shortcuts dominate; the validator is under 1% of the time",
        ),
        Workload(
            "cardinal-open64", "cardinal", 6, False, 40.0, 320,
            "the aa-open64 instances in cardinal mode: one waypoint per cell, so the "
            "validator and add_trajectory carry weight and numpy swept_cells is bypassed",
        ),
        Workload(
            "aa-blocked64", "aa", 10, True, 2.7, 20,
            "64x64 grid with 20% random blocks, any-angle: the only workload on the "
            "grid.any_blocked paths, where every shortcut is checked against the map",
        ),
    )
}


def largest_region(free: set) -> set:
    """The largest 4-connected component of ``free`` (ties: the one holding
    the smallest cell)."""
    best: set = set()
    seen: set = set()
    for cell in sorted(free):
        if cell in seen:
            continue
        region = {cell}
        queue = deque([cell])
        while queue:
            c, r = queue.popleft()
            for nxt in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
                if nxt in free and nxt not in region:
                    region.add(nxt)
                    queue.append(nxt)
        seen |= region
        if len(region) > len(best):
            best = region
    return best


def blocked_cells(size: int, share: float, seed: int) -> list:
    """Blocks ``round(share * size**2)`` cells at random, then blocks every
    free cell outside the largest 4-connected free region, so that every
    start can reach every goal on the static map."""
    rng = random.Random(seed)
    cells = [(c, r) for r in range(size) for c in range(size)]
    blocked = set(rng.sample(cells, round(share * len(cells))))
    keep = largest_region({cell for cell in cells if cell not in blocked})
    return [cell for cell in cells if cell not in keep]


def build_grid(api, workload: Workload):
    if workload.blocked:
        return api.GridMap.from_blocked(SIZE, SIZE, blocked_cells(SIZE, BLOCKED_SHARE, MAP_SEED))
    return api.GridMap.empty(SIZE, SIZE)


def instance_seed(seed: int, index: int) -> int:
    # Shared by all workloads, so cardinal-open64 runs the aa-open64 instances.
    return seed * 100_000 + index


def pool_size(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds * workload.rate))


def build_pool(api, workload: Workload, seed: int, size: int):
    grid = build_grid(api, workload)
    pool = [
        api.generate_instance(grid, workload.agents, instance_seed(seed, i), "separated")
        for i in range(size)
    ]
    return grid, pool


def map_digest(grid) -> str:
    rows = (
        "".join("." if grid.is_traversable((c, r)) else "@" for c in range(grid.width))
        for r in range(grid.height)
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def instances_digest(pool) -> str:
    h = hashlib.sha256()
    for inst in pool:
        h.update(repr(inst.agents).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
