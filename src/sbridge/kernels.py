"""Discretized Markov transition kernels over the Wiener reference process.

A kernel over [s, t] stores the n x n matrix K[i, j] = p(s, x_j, t, x_i) * w_j
with the quadrature weight folded into the columns, so propagation is a plain
matrix-vector product and composition is a matrix product. The adjoint
(backward) action refolds the weights.

Every log-domain Wiener propagation goes through one engine,
log_heat_propagate: log sum_j p_v(x_i - x_j) w_j exp(f_j) for the Gaussian
density p_v of variance v. On a uniform grid the kernel is Toeplitz, so the
sum is one direct convolution of the max-shifted linear vector with the
2n - 1 samples of the Gaussian profile: O(n^2) work and no n x n array.
Rows whose linear sum falls below an underflow floor are recomputed exactly
by a max-shifted log-sum-exp against the analytic log profile. The
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

from .errors import (
    DegenerateDenominator,
    GridMismatch,
    InvalidInterval,
    TimeMismatch,
    TruncationWarning,
)
from .grid import Grid1D, ScalarField, require_same_grid

#: row-sum defect beyond which a kernel is considered truncated by the domain
TRUNCATION_BUDGET = 1e-4

#: linear row sums below this are recomputed in the log domain. With the
#: shifted vector and the profile both peaking at 1, each of the n terms of a
#: row carries an absolute error of at most one subnormal spacing (tiny * eps)
#: from underflow, so rows at or above tiny / eps are exact to n * eps**2.
_LINEAR_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Markov transition density over [s, t] with column quadrature weights folded in.

    variance is that of a Gaussian (heat) kernel, which log-domain
    propagation needs; None for any other kernel, e.g. a compose() result.
    """

    grid: Grid1D
    s: float
    t: float
    matrix: np.ndarray
    variance: float | None = None

    def __post_init__(self):
        if not self.t > self.s:
            raise InvalidInterval(f"need t > s, got [{self.s}, {self.t}]")
        matrix = np.asarray(self.matrix, dtype=float)
        n = self.grid.n_points
        if matrix.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n}x{n}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if self.variance is not None and not self.variance > 0:
            raise ValueError(f"need variance > 0, got {self.variance}")

    def density(self, y: float, x: float) -> float:
        """Unfolded transition density p(s, y, t, x)."""
        j = self.grid.index_of(y)
        i = self.grid.index_of(x)
        return float(self.matrix[i, j] / self.grid.weights[j])

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


def heat_kernel(grid: Grid1D, s: float, t: float, sigma2: float) -> TransitionKernel:
    """Gaussian kernel [2 pi sigma2 (t-s)]^(-1/2) exp(-(x-y)^2 / (2 sigma2 (t-s))).

    Emits TruncationWarning when rows with a full 6-sigma margin from the walls
    still lose more than TRUNCATION_BUDGET of their mass to the domain cut, or
    gain more than it because the grid spacing under-resolves the kernel.
    """
    if not t > s:
        raise InvalidInterval(f"need t > s, got [{s}, {t}]")
    if not sigma2 > 0:
        raise ValueError(f"need sigma2 > 0, got {sigma2}")
    var = sigma2 * (t - s)
    n = grid.n_points
    profile = np.exp(_log_gaussian_profile(grid, var)) / np.sqrt(2.0 * np.pi * var)
    offsets = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
    kernel = TransitionKernel(grid, s, t, profile[offsets] * grid.weights[None, :], var)
    _check_truncation(kernel, np.sqrt(var))
    return kernel


def _log_gaussian_profile(grid: Grid1D, variance: float) -> np.ndarray:
    """-d^2 / (2 variance) at the 2n - 1 grid offsets d = (1 - n) h, ..., (n - 1) h."""
    d = np.arange(1 - grid.n_points, grid.n_points) * grid.h
    return -(d**2) / (2.0 * variance)


def log_heat_propagate(grid: Grid1D, log_f, variance: float) -> np.ndarray:
    """log sum_j p(x_i - x_j) w_j exp(log_f[j]) for the Gaussian density p of the given variance.

    One direct convolution of exp(log_f + log w - max) with the kernel's
    2n - 1 samples; rows whose linear sum underflows below _LINEAR_FLOOR are
    recomputed by a max-shifted log-sum-exp against the analytic log profile.
    All -inf input gives all -inf output.
    """
    if not variance > 0:
        raise ValueError(f"need variance > 0, got {variance}")
    n = grid.n_points
    a = np.asarray(log_f, dtype=float) + np.log(grid.weights)
    if a.shape != (n,):
        raise ValueError(f"expected {n} log values, got shape {a.shape}")
    shift = a.max()
    if not shift < np.inf:
        raise ValueError(f"log values must be below +inf and not NaN, max is {shift}")
    if shift == -np.inf:
        return np.full(n, -np.inf)
    log_profile = _log_gaussian_profile(grid, variance)
    linear = np.convolve(np.exp(a - shift), np.exp(log_profile), mode="valid")
    with np.errstate(divide="ignore"):
        out = np.log(linear) + shift
    low = np.flatnonzero(linear < _LINEAR_FLOOR)
    if low.size:
        terms = log_profile[np.subtract.outer(low, np.arange(n)) + (n - 1)] + a
        top = terms.max(axis=1)
        out[low] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return out - 0.5 * np.log(2.0 * np.pi * variance)


def _check_truncation(kernel: TransitionKernel, width: float) -> None:
    x = kernel.grid.points
    margin = 6.0 * width
    interior = (x >= x[0] + margin) & (x <= x[-1] - margin)
    if not interior.any():
        warnings.warn(
            f"domain [{x[0]}, {x[-1]}] is narrower than 12 kernel widths "
            f"({margin:.3g} each side); all rows are truncated",
            TruncationWarning,
            stacklevel=3,
        )
        return
    sums = kernel.row_sums()[interior]
    if sums.min() < 1.0 - TRUNCATION_BUDGET:
        warnings.warn(
            f"interior kernel row sums down to {sums.min():.6f}; domain truncation "
            f"exceeds budget {TRUNCATION_BUDGET}",
            TruncationWarning,
            stacklevel=3,
        )
    if sums.max() > 1.0 + TRUNCATION_BUDGET:
        warnings.warn(
            f"interior kernel row sums up to {sums.max():.6f}; the kernel width "
            f"{width:.3g} is under-resolved by the grid spacing {kernel.grid.h:.3g}, "
            f"so the rows alias mass beyond budget {TRUNCATION_BUDGET}",
            TruncationWarning,
            stacklevel=3,
        )


def compose(k1: TransitionKernel, k2: TransitionKernel) -> TransitionKernel:
    """Chapman-Kolmogorov composition of [s, t] and [t, u] into [s, u]."""
    if k1.grid != k2.grid:
        raise GridMismatch("kernels live on different grids")
    if abs(k1.t - k2.s) > 1e-12 * max(1.0, abs(k1.t)):
        raise TimeMismatch(f"k1 ends at {k1.t} but k2 starts at {k2.s}")
    return TransitionKernel(k1.grid, k1.s, k2.t, k2.matrix @ k1.matrix)


def propagate_forward(kernel: TransitionKernel, f: ScalarField) -> ScalarField:
    """Co-harmonic propagation: (K f)(x) = integral p(s, y, t, x) f(y) dy."""
    require_same_grid(kernel, f)
    return ScalarField(kernel.grid, kernel.matrix @ f.values)


def propagate_backward(kernel: TransitionKernel, g: ScalarField) -> ScalarField:
    """Harmonic propagation: (K* g)(x) = integral p(s, x, t, y) g(y) dy.

    Adjoint of propagate_forward under the quadrature pairing; the column
    weights are refolded accordingly.
    """
    require_same_grid(kernel, g)
    w = kernel.grid.weights
    return ScalarField(kernel.grid, (kernel.matrix.T @ (w * g.values)) / w)


def two_sided_profile(
    k_st: TransitionKernel, k_tu: TransitionKernel, x: float, z: float
) -> np.ndarray:
    """q(s, x; t, y; u, z) over the whole middle grid y for fixed pins x, z."""
    if k_st.grid != k_tu.grid:
        raise GridMismatch("kernels live on different grids")
    if abs(k_st.t - k_tu.s) > 1e-12 * max(1.0, abs(k_st.t)):
        raise TimeMismatch(f"kernels do not abut: {k_st.t} vs {k_tu.s}")
    g = k_st.grid
    jx = g.index_of(x)
    iz = g.index_of(z)
    w = g.weights
    # p(s,x,u,z) from the composed kernel, but only the single entry needed
    denom = float(k_tu.matrix[iz, :] @ k_st.matrix[:, jx]) / w[jx]
    if denom <= 0 or not np.isfinite(denom):
        raise DegenerateDenominator(f"p(s,{x},u,{z}) = {denom!r}")
    p_xy = k_st.matrix[:, jx] / w[jx]
    p_yz = k_tu.matrix[iz, :] / w
    return p_xy * p_yz / denom


def two_sided_density(
    k_st: TransitionKernel, k_tu: TransitionKernel, x: float, y: float, z: float
) -> float:
    """Pinned (reciprocal) transition density q(s, x; t, y; u, z)."""
    profile = two_sided_profile(k_st, k_tu, x, z)
    return float(profile[k_st.grid.index_of(y)])
