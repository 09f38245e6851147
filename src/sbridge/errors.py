"""Exception and warning types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class GridMismatch(ToolkitError):
    """Fields or kernels living on different grids were combined."""


class NonPositiveMass(ToolkitError):
    """Normalization requested for negative values or nonpositive mass, the zero state too."""


class InvalidInterval(ToolkitError, ValueError):
    """A time grid or interval is not 1-D, finite and strictly increasing, or too short.

    grid.require_time_grid raises it for every time grid and for the
    interval [s, t] of a transition kernel. It is also a ValueError, the
    error any other invalid argument raises.
    """


class NoConvergence(ToolkitError):
    """Fixed-point iteration exhausted its budget."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations, residual {residual:.3e}"
        )


class InfiniteEntropy(ToolkitError):
    """grid.kl_divergence overflowed, for the Girsanov split too.

    Its floor bounds log(p/q) by about 70 + log(2n), so only p near 1e306 (a
    grid spacing of about 1e-306 or less) makes p log(p/q) overflow.
    """


class SupportViolation(ToolkitError):
    """First argument carries mass where the second argument has none."""


class ZeroProbabilityRegion(ToolkitError):
    """Conditioning region carries no probability mass."""


class DriftBlowup(ToolkitError):
    """An Euler-Maruyama increment exceeded the domain scale or became non-finite."""


class TimeNotStored(ToolkitError):
    """A requested time is not a real number, or lies outside the times an object covers.

    Off the stored times of a path, beyond the stored range of a drift
    table, or outside the interval [t0, t1] of a bridge.
    """


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
