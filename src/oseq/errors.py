"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A parameter lies outside the domain an operation is defined for."""


class DisconnectedError(DomainError):
    """A balanced edge set that splits into several strongly-connected
    components, so no single circuit covers it.

    Carries the edges per component, largest first.
    """

    def __init__(self, component_edge_counts: tuple[int, ...]):
        self.component_edge_counts = tuple(component_edge_counts)
        super().__init__(f"subgraph is not connected: "
                         f"{len(self.component_edge_counts)} "
                         f"strongly-connected components")


class ResourceCapError(RuntimeError):
    """An enumeration or edge set would exceed the configured size cap."""


class ConstructionError(RuntimeError):
    """A construction produced a subgraph that admits no Eulerian circuit.

    Carries the strongly-connected-component report, taken over unchanged
    from the circuit extraction's DisconnectedError, so callers can see
    how the edge set fell apart.
    """

    def __init__(self, message: str, component_count: int,
                 component_edge_counts: tuple[int, ...] = ()):
        super().__init__(message)
        self.component_count = component_count
        self.component_edge_counts = tuple(component_edge_counts)


class InternalInvariantError(RuntimeError):
    """A property every construction is guaranteed to satisfy failed to hold.

    Seeing this exception means the implementation is wrong, not the input.
    """
