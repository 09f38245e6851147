"""Wiener reference kernel, Schrodinger-system solver and derived bridge quantities.

A TransitionKernel over [s, t] is the Gaussian transition density of
variance sigma2 * (t - s) on a grid; it stores the grid, the two times and
sigma2, and no matrix. Every Wiener propagation goes through one engine,
log_heat_propagate, reached only through _wiener_span. The symmetric Wiener
kernel makes forward and backward propagation the same map. The
convolution is direct, not FFT-based: FFT error is absolute, about 1e-16
times the largest output, while the solvers need the tails to keep their
relative accuracy (bridge marginals are floored at 1e-30 of their peak, and
the potentials there are ratios of such tails). Both of its factors are lifted
by exact powers of two: unlifted, a narrow kernel's tail weights and many of
their products are subnormal, and subnormal arithmetic is several times slower.

The solver fits the coupled harmonic/co-harmonic pair to prescribed
marginal boundary conditions by alternating rescaling against the marginals
(iterative proportional fitting on the Wiener kernel), iterated in the log
domain for stability. Exposes the bridge's time-t density, its forward
drift, exact time reversal, and the marginals and backward drift of the
Wiener prior itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MassDefectWarning, NoConvergence, TimeNotStored, TruncationWarning
from .grid import (
    DENSITY_FLOOR,
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    _log_gradient_values,
    _real,
    _real_array,
    integrate,
    l1_distance,
    normalize,
    require_count,
    require_finite_positive,
    require_same_grid,
    require_time_grid,
)

#: row-sum excess beyond which a kernel is considered under-resolved by the grid
TRUNCATION_BUDGET = 1e-4

#: linear row sums below this are recomputed in the log domain. With the
#: shifted vector and the profile both peaking at 1, each of the n terms of a
#: row loses at most one subnormal spacing (tiny * eps) of the lifted sum to
#: underflow, 2^-(lift + _PROFILE_LIFT) of that unlifted (2^-1013 at n = 401),
#: so rows at or above tiny / eps are exact to n * eps**2 with that margin.
_LINEAR_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

#: power of two that lifts every kernel weight, the subnormal ones (>= 2^-1074) too, to a normal
_PROFILE_LIFT = 64

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
        grid, width = self.grid, np.sqrt(self.variance)
        x, margin = grid.points, 6.0 * width
        # the largest row sum, read as the profile's lattice sum h sum_d p(d): a row with a
        # 6-sigma margin sums all 2n - 1 profile samples but tails of about 2 Phi(-6), and
        # aliasing only adds mass, so only a gain can exceed the budget
        with np.errstate(over="ignore"):
            top = grid.h * np.exp(_log_gaussian_profile(grid, self.variance)).sum() \
                / np.sqrt(2.0 * np.pi * self.variance)
        # stacklevel 3 names the kernel's caller, past __post_init__ and the dataclass __init__
        if not np.any((x >= x[0] + margin) & (x <= x[-1] - margin)):
            warnings.warn(f"domain [{x[0]}, {x[-1]}] is narrower than 12 kernel widths "
                          f"({margin:.3g} each side); all rows are truncated",
                          TruncationWarning, stacklevel=3)
        elif top > 1.0 + TRUNCATION_BUDGET:
            warnings.warn(f"interior kernel row sums up to {top:.6g}; the kernel width "
                          f"{width:.3g} is under-resolved by the grid spacing {grid.h:.3g}, "
                          f"so the rows alias mass beyond budget {TRUNCATION_BUDGET}",
                          TruncationWarning, stacklevel=3)

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
    uniform grid: O(n^2) work, no n x n array), both lifted by powers of two
    and the sums divided back, so a row whose products stay normal unlifted
    is the unlifted sum bit for bit. Its entries whose linear sum falls below
    _LINEAR_FLOOR are recomputed by a max-shifted log-sum-exp against the
    analytic log profile. A row equals the call with its variance
    alone, bit for bit. Finite input gives finite output, all -inf input all
    -inf output. Both inputs are read by grid._real_array, so a bool, a string
    or None is NaN and refused; so is a variance above _MAX_VARIANCE, where
    the normaliser overflows (ValueError).
    """
    variances = _real_array(variance)
    for v in variances.flat:
        _require_variance(v)
    n = int(grid.n_points)
    log_f = _real_array(log_f)
    if log_f.shape != (n,):
        raise ValueError(f"expected {n} log values, got shape {log_f.shape}")
    a = log_f + np.log(grid.weights)
    shift = a.max()
    if not shift < np.inf:
        raise ValueError(f"log values must be below +inf and not NaN, max is {shift}")
    out = np.full(variances.shape + (n,), -np.inf)
    if shift == -np.inf:
        return out
    # a row of n products, each at most 2^(lift + _PROFILE_LIFT), stays below 2^1022
    lift = np.finfo(float).maxexp - 2 - (n - 1).bit_length() - _PROFILE_LIFT
    shifted = np.ldexp(np.exp(a - shift), lift)
    # one profile at a time: a (K, 2n - 1) stack of them would outgrow the result
    for row, v in zip(out.reshape(-1, n), variances.flat):
        log_profile = _log_gaussian_profile(grid, v)
        linear = np.convolve(shifted, np.ldexp(np.exp(log_profile), _PROFILE_LIFT), mode="valid")
        np.ldexp(linear, -(lift + _PROFILE_LIFT), out=linear)
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


#: successive residual ratios that must agree, and within what relative
#: spread, before the last of them is read as the contraction rate of scaling
_RATE_RATIOS = 3
_RATE_AGREEMENT = 0.05

#: a residual above this multiple of the best one seen ends over-relaxation
_SAFEGUARD = 2.0


def _wiener_span(grid, log_f: np.ndarray, sigma2: float, spans) -> np.ndarray:
    """log_f propagated over each time span: variance sigma2 * span, log_f itself at span 0.

    spans is one span (a 1-D result) or a 1-D array of them (one row each);
    the spans that move share one log_heat_propagate call. Every propagation
    of a potential or density over time goes through here, directly from the
    stored endpoint, never by compounding a one-step kernel, which would
    compound its aliasing error when a step is under-resolved (sqrt(sigma2 dt) < h).
    """
    spans = np.asarray(spans, dtype=float)
    moving = spans != 0
    out = np.empty(spans.shape + log_f.shape)
    out[~moving] = log_f
    out[moving] = log_heat_propagate(grid, log_f, sigma2 * spans[moving])
    return out


def floor_density(rho: DensityField) -> DensityField:
    """Floor a density at DENSITY_FLOOR times its peak and renormalize.

    The solver assumes everywhere-positive marginals, with finite logs; the
    floor enforces that premise, and refuses with ValueError a density whose
    floor underflows to 0 (a peak below about 1e-293: domains over 1e293 wide).
    """
    peak = rho.values.max()
    floored = normalize(ScalarField(rho.grid, np.maximum(rho.values, DENSITY_FLOOR * peak)))
    if not floored.values.min() > 0:
        raise ValueError(f"the floor of a density of peak {peak:.3g} underflows to 0")
    return floored


@dataclass(frozen=True)
class BridgeProblem:
    """Two prescribed marginals over the Wiener reference process.

    The kernel must be the heat kernel of this sigma2 over [t0, t1]; the
    prior has zero drift. Marginals are floored to be strictly positive at
    construction.
    """

    rho0: DensityField
    rho1: DensityField
    kernel: TransitionKernel
    sigma2: float

    def __post_init__(self):
        require_same_grid(self.rho0, self.rho1, self.kernel)
        require_finite_positive(self.sigma2, "sigma2")
        if self.sigma2 != self.kernel.sigma2:
            raise ValueError(f"sigma2 {self.sigma2} is not the kernel's {self.kernel.sigma2}")
        object.__setattr__(self, "rho0", floor_density(self.rho0))
        object.__setattr__(self, "rho1", floor_density(self.rho1))

    @property
    def t0(self) -> float:
        return self.kernel.s

    @property
    def t1(self) -> float:
        return self.kernel.t


@dataclass(frozen=True)
class BridgeSolution:
    """Potential pair solving the coupled marginal system, stored as logs.

    log_phi1 is log phi(., t1), log_phihat0 is log phihat(., t0); the other
    two boundary potentials are reconstructed by kernel propagation. Both
    must hold one finite value per grid point (ValueError otherwise).
    """

    problem: BridgeProblem
    log_phi1: np.ndarray
    log_phihat0: np.ndarray
    iterations: int
    residual: float
    residual_history: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.problem.kernel.grid.n_points
        for name, values in (("log_phi1", self.log_phi1), ("log_phihat0", self.log_phihat0)):
            if np.shape(values) != (n,) or not np.isfinite(values).all():
                raise ValueError(f"{name} must hold {n} finite values")

    def marginal_residuals(self) -> tuple[float, float]:
        """L1 defects of phi*phihat against rho0 and rho1 at the endpoints."""
        p = self.problem
        r0, r1 = _density_at(self, p.t0), _density_at(self, p.t1)
        return l1_distance(r0, p.rho0), l1_distance(r1, p.rho1)


def solve_schrodinger_system(
    problem: BridgeProblem, tol: float = 1e-9, max_iter: int = 5000
) -> BridgeSolution:
    """Fit the potential pair to the marginal boundary conditions.

    Log-domain iterative proportional fitting, over-relaxed: alternate
    between enforcing the terminal marginal (log phi1 moves by omega times
    its step towards log rho1 - log phihat1) and the initial one (the same
    for log phihat0), until the L1 defect of the terminal marginal falls
    below tol. omega starts at 1, plain scaling. Once _RATE_RATIOS
    successive ratios of the residual history agree within _RATE_AGREEMENT,
    the last ratio r is the contraction rate of plain scaling and omega
    becomes 2 / (1 + sqrt(1 - r)), the optimal factor for that rate
    (Thibault, Chizat, Dossal and Papadakis 2021; Lehmann, von Renesse,
    Sambale and Uschmajew 2022). The nonlinear iteration may still diverge at
    that omega (it does at sigma2 = 0.01 on the Fortet marginals of the
    tests): once a residual exceeds _SAFEGUARD times the best one seen, omega
    falls back to 1 for the rest of the solve, where plain scaling converges.
    So residual_history is not monotone. The returned gauge is fixed so the two
    log-potentials at t1 have equal quadrature means, making outputs
    reproducible; all observables are gauge-free.

    The potentials stay finite: the floored marginals have finite logs,
    log_heat_propagate keeps finite logs finite, and each update is an
    affine combination of finite logs. Raises NoConvergence with the last
    residual when max_iter is exhausted; tol must be finite and positive.
    """
    require_count(max_iter, 1, "max_iter")
    require_finite_positive(tol, "tol")
    grid, sigma2, span = problem.kernel.grid, problem.sigma2, problem.t1 - problem.t0
    log_rho0 = np.log(problem.rho0.values)
    log_rho1 = np.log(problem.rho1.values)

    log_phihat0 = log_rho0.copy()
    log_phi1 = np.zeros_like(log_rho1)
    history = []
    omega, rate_read, best = 1.0, False, np.inf
    for iterations in range(1, max_iter + 1):
        log_phihat1 = _wiener_span(grid, log_phihat0, sigma2, span)
        residual = l1_distance(ScalarField(grid, np.exp(log_phi1 + log_phihat1)), problem.rho1)
        history.append(residual)
        if residual < tol:
            break
        if residual > _SAFEGUARD * best:
            omega, rate_read = 1.0, True
        best = min(best, residual)
        if not rate_read and len(history) > _RATE_RATIOS:
            ratios = np.divide(history[-_RATE_RATIOS:], history[-_RATE_RATIOS - 1:-1])
            if ratios.max() <= (1.0 + _RATE_AGREEMENT) * ratios.min() and ratios[-1] < 1.0:
                omega, rate_read = 2.0 / (1.0 + np.sqrt(1.0 - ratios[-1])), True
        log_phi1 = (1.0 - omega) * log_phi1 + omega * (log_rho1 - log_phihat1)
        log_phi0 = _wiener_span(grid, log_phi1, sigma2, span)
        log_phihat0 = (1.0 - omega) * log_phihat0 + omega * (log_rho0 - log_phi0)
    else:
        raise NoConvergence(max_iter, residual)

    # gauge: split the t1 factorization symmetrically (log_phihat1 is current at the break)
    w = grid.weights
    shift = 0.5 * float(np.dot(w, log_phihat1 - log_phi1) / w.sum())
    return BridgeSolution(
        problem=problem,
        log_phi1=log_phi1 + shift,
        log_phihat0=log_phihat0 - shift,
        iterations=iterations,
        residual=residual,
        residual_history=np.asarray(history),
    )


def _check_partition(sol: BridgeSolution, t) -> float:
    """t, snapped to t0 or t1 within 1e-12 * max(span, 1); TimeNotStored outside [t0, t1]."""
    p = sol.problem
    x = _real(t)  # NaN fails the range test
    tol = 1e-12 * max(1.0, abs(p.t1 - p.t0))
    if not p.t0 - tol <= x <= p.t1 + tol:
        raise TimeNotStored(f"time {t!r} lies outside [{p.t0}, {p.t1}]")
    if abs(x - p.t0) <= tol:
        return p.t0
    return p.t1 if abs(x - p.t1) <= tol else x


def _density_at(sol: BridgeSolution, t) -> DensityField:
    """phi(., t) * phihat(., t) from the stored endpoint potentials; mass unchecked."""
    p = sol.problem
    t = _check_partition(sol, t)
    log_phi = _wiener_span(p.kernel.grid, sol.log_phi1, p.sigma2, p.t1 - t)
    log_phihat = _wiener_span(p.kernel.grid, sol.log_phihat0, p.sigma2, t - p.t0)
    return DensityField(p.kernel.grid, np.exp(log_phi + log_phihat), mass_tol=None)


def bridge_density(sol: BridgeSolution, t: float) -> DensityField:
    """Bridge density phi(., t) * phihat(., t); checked for unit mass, never rescaled.

    t must lie in [t0, t1]; the potentials are propagated from the stored
    endpoints with variances sigma2 * (t1 - t) and sigma2 * (t - t0).
    """
    out = _density_at(sol, t)
    mass = integrate(out)
    if abs(mass - 1.0) > 1e-6:
        warnings.warn(
            f"bridge density at t={t} has mass {mass!r}; "
            "domain truncation or unconverged potentials",
            MassDefectWarning,
            stacklevel=2,
        )
    return out


def time_reverse(sol: BridgeSolution) -> BridgeSolution:
    """Bridge from rho1 back to rho0: swap the roles of the two potentials.

    The Wiener reference kernel that BridgeProblem requires is symmetric, so
    forward and backward propagation coincide; then exchanging the potential
    pair solves the reversed problem at the same residual.
    """
    p = sol.problem
    return replace(sol, problem=BridgeProblem(p.rho1, p.rho0, p.kernel, p.sigma2),
                   log_phi1=sol.log_phihat0.copy(), log_phihat0=sol.log_phi1.copy())


def bridge_drift_fields(sol: BridgeSolution, times) -> list[ScalarField]:
    """Forward drifts sigma2 * grad log phi(., t) of the bridge at a 1-D sequence of times.

    Other times are InvalidInterval, and a t outside [t0, t1] is TimeNotStored. One
    propagation of the finite log phi1 over all the spans t1 - t, so log phi stays finite
    and only an overflowing gradient fails, then one gradient over the stack; the fields
    feed a time-indexed drift to the samplers.
    """
    if np.ndim(times) != 1:
        require_time_grid(times)  # refuses anything but 1-D times as InvalidInterval
    p = sol.problem
    grid = p.kernel.grid
    spans = [p.t1 - _check_partition(sol, t) for t in times]
    drifts = _gradient_values(_wiener_span(grid, sol.log_phi1, p.sigma2, spans), grid.h)
    drifts *= p.sigma2
    return [ScalarField(grid, row) for row in drifts]


def _wiener_flow_values(rho0: DensityField, times, sigma2: float) -> np.ndarray:
    """Values of the Wiener marginals from rho0 along a time grid, one row per time.

    Row 0 is rho0 itself; row k is rho0 propagated directly over [t_0, t_k].
    """
    require_finite_positive(sigma2, "sigma2")
    times = require_time_grid(times)
    with np.errstate(divide="ignore"):
        log_rho0 = np.log(rho0.values)
    out = np.empty((times.shape[0], rho0.grid.n_points))
    out[0] = rho0.values
    np.exp(_wiener_span(rho0.grid, log_rho0, sigma2, times[1:] - times[0]), out=out[1:])
    return out


def wiener_marginal_flow(rho0: DensityField, times, sigma2: float) -> list[DensityField]:
    """Marginals of the Wiener prior started from rho0 along a time grid.

    Each marginal is propagated directly from rho0 over [t_0, t_k], all of
    them in one call; the first is rho0 itself. times must be a grid of at
    least two strictly increasing times and sigma2 finite and positive.
    """
    values = _wiener_flow_values(rho0, times, sigma2)
    return [rho0] + [DensityField(rho0.grid, row, mass_tol=None) for row in values[1:]]


def wiener_backward_drift_fields(rho0: DensityField, times, sigma2: float) -> list[ScalarField]:
    """Backward drifts -sigma2 * grad log rho(., t) of the Wiener prior from rho0.

    By the forward/backward duality with zero forward drift, this is the drift
    that a reverse-time sampler of the prior must use. The half bridge, the
    prior conditioned on a terminal density rho1 alone, keeps this backward
    drift; its relative entropy is kl_divergence(rho1, prior marginal at t1).
    The log gradient is taken over the whole stack of marginals.
    """
    grid = rho0.grid
    drifts = _log_gradient_values(_wiener_flow_values(rho0, times, sigma2), grid.h)
    drifts *= -sigma2
    return [ScalarField(grid, row) for row in drifts]
