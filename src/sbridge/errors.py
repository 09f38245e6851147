"""Exception and warning types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class GridMismatch(ToolkitError):
    """Fields or kernels living on different grids were combined."""


class NonPositiveMass(ToolkitError):
    """Normalization requested for a field with nonpositive mass or negative values."""


class InvalidInterval(ToolkitError, ValueError):
    """A time grid or interval is not 1-D, finite and strictly increasing, or too short.

    grid.require_time_grid raises it for every time grid and for the
    interval [s, t] of a transition kernel or a half bridge. It is also a
    ValueError, the error any other invalid argument raises.
    """


class TimeMismatch(ToolkitError):
    """A requested time lies outside the interval of a bridge."""


class NoConvergence(ToolkitError):
    """Fixed-point iteration exhausted its budget."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations, residual {residual:.3e}"
        )


class InfiniteEntropy(ToolkitError):
    """grid.kl_divergence overflowed, for half_bridge and the Girsanov split too.

    Its floor bounds log(p/q) by about 70 + log(2n), so only p near 1e306 (a
    grid spacing of about 1e-306 or less) makes p log(p/q) overflow.
    """


class SupportViolation(ToolkitError):
    """First argument carries mass where the second argument has none."""


class EmptyEnsemble(ToolkitError):
    """Operation requires at least one sampled trajectory."""


class ZeroProbabilityRegion(ToolkitError):
    """Conditioning region carries no probability mass."""


class DriftBlowup(ToolkitError):
    """An Euler-Maruyama increment exceeded the domain scale or became non-finite."""


class TimeNotStored(ToolkitError):
    """Requested time is not on a stored time grid."""


class TerminalMismatch(ToolkitError):
    """Log-ratio terminal condition violated beyond tolerance."""


class ExcessiveClamping(ToolkitError):
    """Too many sampled positions left the drift field's domain."""


class TruncationWarning(UserWarning):
    """A kernel's domain is too narrow for its width, or its grid under-resolves it."""


class BoundaryMassWarning(UserWarning):
    """A field carries non-negligible mass at the domain walls."""


class MassDefectWarning(UserWarning):
    """A density that should have unit mass drifted beyond tolerance."""
