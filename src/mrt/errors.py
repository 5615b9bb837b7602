"""Error types shared across the toolkit.

Every failure mode that callers are expected to catch has its own class so the
CLI can map them onto stable exit codes (2 for bad input, 3 for solver
breakdown).
"""


class MrtError(Exception):
    """Base class for all toolkit errors."""


class InputError(MrtError):
    """Invalid user input: bad profiles, grids, configs, data shapes."""


class SolverError(MrtError):
    """A numerical routine could not complete reliably."""


class NonPositiveDensity(InputError):
    """A density sample is zero or negative."""


class PressureDeficit(InputError):
    """The background field-strength radicand is not positive somewhere.

    Carries the index of the first offending sample: a node, or a flux
    point where the message names one.
    """

    def __init__(self, node: int, message: str | None = None):
        self.node = int(node)
        super().__init__(message or f"field-strength radicand <= 0 at node {node}")


class TooFewNodes(InputError):
    """Grid resolution below the minimum the discretization supports."""


class ZeroMode(InputError):
    """A horizontal wavenumber pair (0, 0) where a nonzero mode is required."""


class NotSymmetric(SolverError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NotPositiveDefinite(SolverError):
    """Mass-side matrix of a generalized eigenproblem failed Cholesky."""


class NoGrowth(SolverError):
    """A growing mode was requested for a configuration with no growth."""


class IncompatibleData(InputError):
    """Initial data arrays have the wrong shape, phase, or constraint residual."""


class SolverFailure(SolverError):
    """Time stepper or factorization broke down (e.g. step size too large)."""
