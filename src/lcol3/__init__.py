"""Exact list 3-colouring of graphs without triangles or induced 7-vertex
paths, with promise verification, witnesses, generators and a CLI."""

from .engine import (ListState, Outcome, Palette, SolveStats,
                     anchor_seeds, case_seeds, choice_lists,
                     enumerate_c5_colourings, palette_analysis, propagate,
                     residual_to_2sat, solve, verify_colouring)
from .errors import InternalError, PreconditionBreach
from .graph import (Graph, bipartite_check, build_graph, components_within,
                    iter_bits)
from .recognition import (PromiseViolation, check_promise, find_induced_p7,
                          find_triangle, recognize_blownup_c7,
                          shortest_odd_cycle)
from .sat2 import TwoSatInstance, add_clause, solve_2sat
from .skeleton import (Chain, Skeleton, build_chain, build_skeleton,
                       wd_components)

__all__ = [
    "InternalError", "PreconditionBreach", "ListState", "Outcome", "Palette", "SolveStats",
    "anchor_seeds", "case_seeds", "choice_lists",
    "enumerate_c5_colourings", "palette_analysis",
    "propagate", "residual_to_2sat", "solve", "verify_colouring",
    "Graph", "bipartite_check", "build_graph", "components_within",
    "iter_bits",
    "PromiseViolation", "check_promise", "find_induced_p7", "find_triangle",
    "recognize_blownup_c7", "shortest_odd_cycle",
    "TwoSatInstance", "add_clause", "solve_2sat",
    "Chain", "Skeleton", "build_chain", "build_skeleton", "wd_components",
    "GenSpec", "enumerate_colourings", "generate", "oracle_solve",
]


def __getattr__(name):
    # The test kit (generators, oracle, enumeration, and `random`) loads on
    # first use, so that importing the package does not pay for it.
    if name in ("GenSpec", "enumerate_colourings", "generate", "oracle_solve"):
        from . import testkit
        return getattr(testkit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
