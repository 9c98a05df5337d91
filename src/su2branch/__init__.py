"""Exact decomposition of SU(2) irreducibles under the binary polyhedral
groups, computed three independent ways and cross-checked: Coxeter-orbit
generating functions, the extended-diagram tensor recursion, and explicit
quaternionic character theory."""

from .branching import Branching, BranchParams, branch_params
from .coxeter import bipartition, coxeter_element, orbit_table, special_index
from .errors import ConsistencyError
from .invariants import Session
from .mckay import extended_graph, recursion_oracle
from .rootsys import NODE_CONVENTION, DiagramType, RootSystem, build_root_system
from .verify import ACCEPTED_TYPES, run_all, run_type_checks

__version__ = "0.1.0"

__all__ = [
    "ACCEPTED_TYPES",
    "Branching",
    "BranchParams",
    "ConsistencyError",
    "DiagramType",
    "NODE_CONVENTION",
    "RootSystem",
    "Session",
    "bipartition",
    "branch_params",
    "build_root_system",
    "coxeter_element",
    "extended_graph",
    "orbit_table",
    "recursion_oracle",
    "run_all",
    "run_type_checks",
    "special_index",
]
