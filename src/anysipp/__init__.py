"""Any-angle multi-agent pathfinding on square grids.

Safe-interval single-agent search (cardinal baseline and any-angle variant),
a FIFO prioritized multi-agent planner on top of it, an independent
continuous-time conflict validator, and a benchmark harness.
"""

from .grid import GridMap, MapFormatError, parse_map
from .planner import (
    GoalUnreachable,
    PlannerMode,
    PlanningError,
    PlanTimeout,
    StartUnsafe,
    plan,
)
from .prioritized import (
    GenerationError,
    Instance,
    InstanceError,
    Solution,
    generate_instance,
    load_agents,
    plan_all,
)
from .trajectory import Trajectory, Waypoint, format_trajectory
from .validate import Conflict, ValidationReport, first_conflict, validate_solution

# What the CLI and library callers use, with the exceptions and return types
# of those calls. Internals (Search, ConstraintTable, TimeInterval, ...) stay
# importable from their modules.
__all__ = [
    "Conflict",
    "GenerationError",
    "GoalUnreachable",
    "GridMap",
    "Instance",
    "InstanceError",
    "MapFormatError",
    "PlannerMode",
    "PlanningError",
    "PlanTimeout",
    "Solution",
    "StartUnsafe",
    "Trajectory",
    "ValidationReport",
    "Waypoint",
    "first_conflict",
    "format_trajectory",
    "generate_instance",
    "load_agents",
    "parse_map",
    "plan",
    "plan_all",
    "validate_solution",
]

__version__ = "0.1.0"
