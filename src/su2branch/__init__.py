"""Exact decomposition of SU(2) irreducibles under the binary polyhedral
groups, computed three independent ways and cross-checked: Coxeter-orbit
generating functions, the extended-diagram tensor recursion, and explicit
quaternionic character theory."""

from .branching import Branching, BranchParams, branch_params
from .coxeter import bipartition, coxeter_element, orbit_table, special_index
from .errors import ConsistencyError, UsageError
from .mckay import extended_graph
from .rootsys import NODE_CONVENTION, DiagramType, RootSystem, build_root_system

__version__ = "0.1.0"


def __getattr__(name: str) -> object:  # verify's names, loaded at their first use
    if name in ("ACCEPTED_TYPES", "run_all", "run_type_checks"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ACCEPTED_TYPES",
    "Branching",
    "BranchParams",
    "ConsistencyError",
    "DiagramType",
    "NODE_CONVENTION",
    "RootSystem",
    "UsageError",
    "bipartition",
    "branch_params",
    "build_root_system",
    "coxeter_element",
    "extended_graph",
    "orbit_table",
    "run_all",
    "run_type_checks",
    "special_index",
]
