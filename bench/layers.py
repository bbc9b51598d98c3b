"""Per-layer tracing for the benchmark's traced run.

Hooks wrap the library's callables from outside, without editing it: a module
function is rebound in every ``anysipp`` module that holds it, a method is
replaced on its class. Each wrapped call is a span. A span's self time is its
duration minus the time of the spans it encloses. The runs make millions of
spans, so they are folded into per-hook totals as they close instead of being
kept one by one; only the per-agent ``plan`` spans are kept individually.

A hook whose target no longer exists is recorded as absent, and every metric
that depends on it is left out of the report rather than reported as zero.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

# (hook name, "module:attribute path"). The move-model functions are named in
# ``anysipp.planner`` because that is where the search calls them from.
HOOKS = (
    ("geometry.swept_cells", "anysipp.geometry:swept_cells"),
    ("grid.cells_traversable", "anysipp.grid:GridMap.cells_traversable"),
    ("constraints.relevance", "anysipp.planner:_relevant_from_cells"),
    ("constraints.collision_intervals", "anysipp.planner:collision_intervals_for_move"),
    ("constraints.departure_guards", "anysipp.planner:departure_guards"),
    ("constraints.earliest_arrival", "anysipp.planner:earliest_arrival"),
    ("constraints.safe_intervals_at", "anysipp.constraints:ConstraintTable.safe_intervals_at"),
    ("constraints.add_trajectory", "anysipp.constraints:ConstraintTable.add_trajectory"),
    ("planner.cols_for", "anysipp.planner:Search._cols_for"),
    ("planner.search", "anysipp.planner:Search.run"),
    ("planner.reconstruct", "anysipp.planner:reconstruct"),
    ("prioritized.plan", "anysipp.prioritized:plan"),
    ("trajectory.affine_pieces", "anysipp.trajectory:Trajectory.affine_pieces"),
    ("validate.first_conflict", "anysipp.validate:first_conflict"),
    ("validate.validate_solution", "anysipp.validate:validate_solution"),
)
MOVE_MODEL = ("constraints.relevance", "constraints.collision_intervals", "constraints.departure_guards")
SWEPT_CACHE = "anysipp.geometry:_swept_cached"


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0  # hook-specific outcome count (see Tracer._observer)


def resolve(target: str):
    """(owner, attribute name, value) for "module:a.b", or None if any part
    is missing."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def percentile(values, q: float, beyond: int = 0):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Returns (value, sample count). The value is None
    when there are no samples, or fewer than ``beyond`` samples above it."""
    ordered = sorted(values)
    if not ordered:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < beyond:
        return None, len(ordered)
    return ordered[rank - 1], len(ordered)


def ratio(num, den):
    return None if not den else num / den


class Tracer:
    def __init__(self):
        self.stats = {}
        self.absent = []
        self.agent_spans = []  # (instance index, agent index, seconds)
        self.instance = -1
        self._agent = 0
        self._stack = []  # child time accumulated by each open span
        self._patches = []  # (owner, attr, original)

    def begin_instance(self, index: int) -> None:
        self.instance = index
        self._agent = 0

    def _observer(self, name):
        if name == "planner.search":
            def observe(stat, args, result, dt):
                stat.hits += getattr(args[0], "expansions", 0)
        elif name == "constraints.earliest_arrival":
            def observe(stat, args, result, dt):
                stat.hits += result is not None
        elif name == "constraints.relevance":
            def observe(stat, args, result, dt):
                stat.hits += len(result) if result is not None else 0
        elif name == "prioritized.plan":
            def observe(stat, args, result, dt):
                self.agent_spans.append((self.instance, self._agent, dt))
                self._agent += 1
        else:
            observe = None
        return observe

    def _wrap(self, name, fn):
        stat = self.stats[name] = Stat()
        stack = self._stack
        observe = self._observer(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if observe is not None:
                    observe(stat, args, result, dt)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, target in HOOKS:
            found = resolve(target)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Rebind the function wherever a library module imported it.
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "anysipp":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, swept_cache_info=None) -> dict:
        """Per-layer metrics by name; a metric whose hook is absent, or whose
        ratio has no base, is left out."""
        s = self.stats
        out = {}

        def put(name, unit, value):
            if value is not None:
                out[name] = (value, unit)

        def span(hook):
            if hook in s:
                put(hook + ".calls", "count", s[hook].calls)
                put(hook + ".self_s", "s", s[hook].self_s)

        span("geometry.swept_cells")
        if swept_cache_info is not None:
            put("geometry.swept_cells.cache_hit_ratio", "ratio",
                ratio(swept_cache_info.hits, swept_cache_info.hits + swept_cache_info.misses))
        span("grid.cells_traversable")

        model = [s[h] for h in MOVE_MODEL if h in s]
        builds = max((m.calls for m in model), default=None)
        if model:
            put("constraints.move_model.builds", "count", builds)
            put("constraints.move_model.self_s", "s", sum(m.self_s for m in model))
        if "constraints.relevance" in s:
            put("constraints.move_model.constraints_per_build", "count",
                ratio(s["constraints.relevance"].hits, s["constraints.relevance"].calls))
        span("constraints.earliest_arrival")
        if "constraints.earliest_arrival" in s:
            ea = s["constraints.earliest_arrival"]
            put("constraints.earliest_arrival.accept_ratio", "ratio", ratio(ea.hits, ea.calls))
        span("constraints.safe_intervals_at")
        span("constraints.add_trajectory")

        if "planner.cols_for" in s:
            requests = s["planner.cols_for"].calls
            put("planner.move_model.requests", "count", requests)
            if builds is not None:
                reuse = ratio(requests - builds, requests)
                put("planner.move_model.reuse_ratio", "ratio", reuse)
        if "planner.search" in s:
            put("planner.expansions", "count", s["planner.search"].hits)
            put("planner.search.self_s", "s", s["planner.search"].self_s)
        if "planner.reconstruct" in s:
            put("planner.reconstruct.self_s", "s", s["planner.reconstruct"].self_s)

        if "prioritized.plan" in s:
            times = [dt for _, _, dt in self.agent_spans]
            put("prioritized.agent_plan_s.p50", "s", percentile(times, 50)[0])
            # A tail percentile is reported only with ten samples beyond it.
            put("prioritized.agent_plan_s.p90", "s", percentile(times, 90, beyond=10)[0])
            put("prioritized.agent_plan_s.max", "s", max(times) if times else None)

        span("trajectory.affine_pieces")
        span("validate.first_conflict")
        if "validate.validate_solution" in s:
            put("validate.validate_solution.self_s", "s", s["validate.validate_solution"].self_s)
        return out

    def slowest_agent(self):
        """(instance index, agent index, seconds) of the longest plan span."""
        return max(self.agent_spans, key=lambda span: span[2], default=None)
