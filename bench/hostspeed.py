"""Host speed reference for the benchmark's timings.

The virtual machines this benchmark runs on change speed by up to 1.7 times,
for seconds to minutes at a time, and every process on them slows down
alike. A run therefore times a fixed reference computation between the
library calls it measures, and scales each measured time by how fast the
reference ran at that moment:

    reported = measured * REFERENCE_NOMINAL_S / reference time nearby

A reported time is the time the call would have taken on a host that runs
the reference in ``REFERENCE_NOMINAL_S``. The reference is pure Python and
does the kind of work the planner does (heap, dict and float operations), so
it slows down with the planner; it never calls the library, so a change to
the library cannot move it.

Set-up time is mostly process start and imports, which do not slow down
with that reference, so set-up probes have their own: a fresh interpreter
that imports numpy, the library's one third-party dependency.
"""

from __future__ import annotations

import gc
import heapq
import random
import subprocess
import sys
from time import perf_counter

# The reference's time on the host the benchmark was tuned on (2-vCPU Intel
# Xeon at 2.1 GHz, Python 3.11), in its fast state.
REFERENCE_NOMINAL_S = 0.0052
# The process reference's time on that host in its fast state.
PROCESS_REFERENCE_NOMINAL_S = 0.1

_NODES = 4000
_rng = random.Random(20170313)
_EDGES = [[(_rng.randrange(_NODES), 0.5 + _rng.random()) for _ in range(4)] for _ in range(_NODES)]


def reference() -> int:
    """Dijkstra from node 0 over a fixed random graph; returns the number of
    nodes reached."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _EDGES[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(dist)


def time_reference() -> float:
    """Seconds one reference run takes now. The garbage collector is off
    meanwhile, so the reference never pays for the library's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def time_process_reference() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - t0


def scale(reference_s: float, nominal_s: float = REFERENCE_NOMINAL_S) -> float:
    """Factor that turns a time measured next to a reference run that took
    ``reference_s`` into a time at nominal host speed."""
    return nominal_s / reference_s
