"""The solver's own failure, shared by the modules that check for it."""


class InternalError(RuntimeError):
    """The solver broke one of its own guarantees: a bug, never a property
    of the input."""
