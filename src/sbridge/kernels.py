"""The Wiener reference kernel on uniform 1-D grids.

A TransitionKernel over [s, t] is the Gaussian transition density of
variance sigma2 * (t - s) on a grid; it stores the grid, the two times and
sigma2, and no matrix.

Every Wiener propagation goes through one engine, log_heat_propagate. The
symmetric Wiener kernel makes forward and backward propagation the same map.

The convolution is direct, not FFT-based: FFT error is absolute, about
1e-16 times the largest output, while the solvers need the tails to keep
their relative accuracy (bridge marginals are floored at 1e-30 of their
peak, and the potentials there are ratios of such tails).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationWarning
from .grid import Grid1D, _real, require_finite_positive, require_time_grid

#: row-sum excess beyond which a kernel is considered under-resolved by the grid
TRUNCATION_BUDGET = 1e-4

#: linear row sums below this are recomputed in the log domain. With the
#: shifted vector and the profile both peaking at 1, each of the n terms of a
#: row carries an absolute error of at most one subnormal spacing (tiny * eps)
#: from underflow, so rows at or above tiny / eps are exact to n * eps**2.
_LINEAR_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

#: largest variance whose Gaussian normaliser 2 pi variance is finite (about 2.86e307)
_MAX_VARIANCE = np.finfo(float).max / (2.0 * np.pi)


def _require_variance(variance) -> None:
    """Raise ValueError unless variance is finite, > 0 and at most _MAX_VARIANCE."""
    require_finite_positive(variance, "variance")
    if variance > _MAX_VARIANCE:
        raise ValueError(f"variance {variance} overflows the Gaussian normaliser")


@dataclass(frozen=True)
class TransitionKernel:
    """Gaussian kernel [2 pi sigma2 (t-s)]^(-1/2) exp(-(x-y)^2 / (2 sigma2 (t-s))) over [s, t].

    s < t must be finite (grid.require_time_grid, InvalidInterval
    otherwise), sigma2 and the normaliser too (ValueError);
    log_heat_propagate(grid, log_f, variance) applies it. Every build warns
    TruncationWarning when no row has a full 6-sigma margin from the walls,
    or when such rows gain more than TRUNCATION_BUDGET of mass because the
    grid spacing under-resolves the kernel.
    """

    grid: Grid1D
    s: float
    t: float
    sigma2: float

    def __post_init__(self):
        require_time_grid((_real(self.s), _real(self.t)))
        require_finite_positive(self.sigma2, "sigma2")
        _require_variance(self.variance)
        _check_truncation(self)

    @property
    def variance(self) -> float:
        return self.sigma2 * (self.t - self.s)


#: the constructor, under the name the benchmark calls
heat_kernel = TransitionKernel


def _log_gaussian_profile(grid: Grid1D, variance: float) -> np.ndarray:
    """-d^2 / (2 variance) at the 2n - 1 grid offsets d = (1 - n) h, ..., (n - 1) h.

    An offset far beyond the kernel width overflows to -inf, an exact zero weight.
    """
    d = np.arange(1 - grid.n_points, grid.n_points) * grid.h
    with np.errstate(over="ignore"):
        return -(d**2) / (2.0 * variance)


def log_heat_propagate(grid: Grid1D, log_f, variance) -> np.ndarray:
    """log sum_j p(x_i - x_j) w_j exp(log_f[j]) for the Gaussian density p of the given variance.

    variance is one variance (a 1-D result) or a 1-D array of them (one row
    each, shape (K, n)). The rows share log w, the shift and
    exp(log_f + log w - max); each row is one direct convolution of that
    vector with its kernel's 2n - 1 samples (the kernel is Toeplitz on a
    uniform grid: O(n^2) work, no n x n array), and its entries whose linear sum
    underflows below _LINEAR_FLOOR are recomputed by a max-shifted log-sum-exp
    against the analytic log profile. A row equals the call with its variance
    alone, bit for bit. Finite input gives finite output, all -inf input all
    -inf output. A variance above _MAX_VARIANCE, where the normaliser
    overflows, raises ValueError.
    """
    variances = np.asarray(variance, dtype=float)
    for v in variances.flat:
        _require_variance(v)
    n = grid.n_points
    log_f = np.asarray(log_f, dtype=float)
    if log_f.shape != (n,):
        raise ValueError(f"expected {n} log values, got shape {log_f.shape}")
    a = log_f + np.log(grid.weights)
    shift = a.max()
    if not shift < np.inf:
        raise ValueError(f"log values must be below +inf and not NaN, max is {shift}")
    out = np.full(variances.shape + (n,), -np.inf)
    if shift == -np.inf:
        return out
    shifted = np.exp(a - shift)
    # one profile at a time: a (K, 2n - 1) stack of them would outgrow the result
    for row, v in zip(out.reshape(-1, n), variances.flat):
        log_profile = _log_gaussian_profile(grid, v)
        linear = np.convolve(shifted, np.exp(log_profile), mode="valid")
        with np.errstate(divide="ignore"):
            np.log(linear, out=row)
        row += shift
        low = np.flatnonzero(linear < _LINEAR_FLOOR)
        if low.size:
            terms = log_profile[np.subtract.outer(low, np.arange(n)) + (n - 1)] + a
            top = terms.max(axis=1)
            row[low] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        row -= 0.5 * np.log(2.0 * np.pi * v)
    return out


def _check_truncation(kernel: TransitionKernel) -> None:
    # stacklevel 4 names the caller of the kernel, past __post_init__ and the dataclass __init__
    grid = kernel.grid
    x = grid.points
    width = np.sqrt(kernel.variance)
    margin = 6.0 * width
    interior = (x >= x[0] + margin) & (x <= x[-1] - margin)
    if not interior.any():
        warnings.warn(
            f"domain [{x[0]}, {x[-1]}] is narrower than 12 kernel widths "
            f"({margin:.3g} each side); all rows are truncated",
            TruncationWarning,
            stacklevel=4,
        )
        return
    # row sums: the kernel applied to the constant 1. Rows with a 6-sigma margin
    # lose at most about 2 Phi(-6) of their mass and aliasing only adds mass, so
    # only a gain can exceed the budget
    sums = np.exp(log_heat_propagate(grid, np.zeros(grid.n_points), kernel.variance))[interior]
    if sums.max() > 1.0 + TRUNCATION_BUDGET:
        warnings.warn(
            f"interior kernel row sums up to {sums.max():.6f}; the kernel width "
            f"{width:.3g} is under-resolved by the grid spacing {grid.h:.3g}, "
            f"so the rows alias mass beyond budget {TRUNCATION_BUDGET}",
            TruncationWarning,
            stacklevel=4,
        )
