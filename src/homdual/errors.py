"""Exception types shared across the package."""


class GraphError(Exception):
    """Invalid graph construction or operation argument."""


class SizeLimitError(GraphError):
    """An exhaustive operation was asked to run beyond its configured limit."""


class InternalCheckError(GraphError):
    """A result failed a self-check; this signals a bug, not bad input."""
