"""Exact list 3-colouring of graphs without triangles or induced 7-vertex
paths, with promise verification, witnesses, generators and a CLI.

The names below are the library's contract; everything else is internal
to its modules."""

from .engine import Outcome, SolveStats, solve, verify_colouring
from .errors import InternalError, PreconditionBreach
from .graph import Graph, build_graph
from .recognition import PromiseViolation, check_promise

__all__ = [
    "solve", "verify_colouring", "check_promise", "Graph", "build_graph",
    "Outcome", "SolveStats", "PromiseViolation", "InternalError",
    "PreconditionBreach",
    "GenSpec", "enumerate_colourings", "generate", "oracle_solve",
]


def __getattr__(name):
    # The test kit (generators, oracle, enumeration, and `random`) loads on
    # first use, so that importing the package does not pay for it.
    if name in ("GenSpec", "enumerate_colourings", "generate", "oracle_solve"):
        from . import testkit
        return getattr(testkit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
