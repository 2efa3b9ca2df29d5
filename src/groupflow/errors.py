"""Exception types shared across the package, and ``_clip``, the form in
which their messages quote user input."""


def _clip(text: str) -> str:
    """text, cut to its first 100 characters and "..." when it is longer:
    the form in which a message quotes user input."""
    return text if len(text) <= 100 else text[:100] + "..."


class GroupFlowError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(GroupFlowError):
    """Malformed group spec, graph name, element word, or input file."""


class TooLarge(GroupFlowError):
    """An order above its bound.  ``order`` may be a short text, such as
    "1000!", for a number too long to write out."""

    def __init__(self, order, bound, message=None):
        super().__init__(message or f"order {order} exceeds the configured bound {bound}")
        self.order = order
        self.bound = bound


class NotAssociative(GroupFlowError):
    def __init__(self, a, b, c):
        super().__init__(f"associativity fails on the triple ({a}, {b}, {c})")
        self.triple = (a, b, c)


class NoIdentity(GroupFlowError):
    pass


class NoInverse(GroupFlowError):
    def __init__(self, element):
        super().__init__(f"element {element} has no two-sided inverse")
        self.element = element


class DuplicateName(GroupFlowError):
    def __init__(self, name):
        super().__init__(f"duplicate element name {_clip(str(name))!r}")
        self.name = name


class CentreMismatch(GroupFlowError):
    """A central-product operand lacks a designated central involution."""


class NotAbelian(GroupFlowError):
    pass


class NotMember(GroupFlowError):
    pass


class HostTooLarge(GroupFlowError):
    def __init__(self, size, bound):
        super().__init__(f"host graph has {size} vertices, above the bound {bound}")
        self.size = size
        self.bound = bound


class NotSubgraph(GroupFlowError):
    pass


class InvalidFlow(GroupFlowError):
    """A flow violates skew symmetry or edge support."""


class NotTractable(GroupFlowError):
    def __init__(self, vertex):
        super().__init__(f"incident values at vertex {vertex} do not commute")
        self.vertex = vertex


class EdgeMissing(GroupFlowError):
    def __init__(self, edge):
        super().__init__(f"edge {edge} is not in the graph")
        self.edge = edge


class GraphIsPlanar(GroupFlowError):
    """Leak synthesis was asked for a planar graph, where no leak exists."""


class BridgeEdge(GroupFlowError):
    def __init__(self, edge):
        super().__init__(f"edge {edge} is a bridge; its face walk traverses both directions")
        self.edge = edge


class NotPlanarEmbedding(GroupFlowError):
    """A rotation system fails the Euler criterion."""


class NotInKernel(GroupFlowError):
    """witness extraction needs a nonidentity element with trivial image."""


class InternalInvariantError(GroupFlowError):
    """A certificate produced internally failed its own checker (a bug)."""
