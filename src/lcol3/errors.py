"""The solver's own failures, shared by the modules that check for them."""


class InternalError(RuntimeError):
    """The solver broke one of its own guarantees: a bug, never a property
    of the input."""


class PreconditionBreach(RuntimeError):
    """A structural fact that holds on every triangle-free, P7-free graph
    failed.  The graph is outside the class, or the solver has a gap;
    check_promise tells the two apart and names the witness."""
