"""Schrodinger-system solver and derived bridge quantities.

Solves the coupled harmonic/co-harmonic pair with prescribed marginal
boundary conditions by alternating rescaling against the marginals
(iterative proportional fitting on the Wiener kernel), iterated in the log
domain for stability. Exposes the bridge's time-t density, its forward
drift, exact time reversal, and the marginals and backward drift of the
Wiener prior itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MassDefectWarning, NoConvergence, TimeNotStored
from .grid import (
    DENSITY_FLOOR,
    DensityField,
    ScalarField,
    _gradient_values,
    _log_gradient_values,
    integrate,
    l1_distance,
    normalize,
    require_count,
    require_finite_positive,
    require_same_grid,
    require_time_grid,
)
from .kernels import TransitionKernel, log_heat_propagate


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
    rows = log_heat_propagate(grid, log_f, sigma2 * spans[moving])
    if moving.all():
        # no identity row: the propagated rows are the result, with no second stack
        return rows.reshape(spans.shape + log_f.shape)
    out = np.empty(spans.shape + log_f.shape)
    out[~moving] = log_f
    out[moving] = rows
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

    The kernel must be the heat kernel of variance sigma2 * (t1 - t0); the
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
        expected = self.sigma2 * (self.t1 - self.t0)
        v = self.kernel.variance
        if abs(v - expected) > 1e-12 * expected:
            raise ValueError(
                f"kernel variance {v} is not sigma2 * (t1 - t0) = {expected}"
            )
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
    residual_history: np.ndarray = field(repr=False, default=None)

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
    t = np.float64(t)  # None reads as NaN, which fails the range test
    tol = 1e-12 * max(1.0, abs(p.t1 - p.t0))
    if not p.t0 - tol <= t <= p.t1 + tol:
        raise TimeNotStored(f"time {t} lies outside [{p.t0}, {p.t1}]")
    if abs(t - p.t0) <= tol:
        return p.t0
    return p.t1 if abs(t - p.t1) <= tol else t


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
    """Forward drifts sigma2 * grad log phi(., t) of the bridge at each of the given times.

    Each t must lie in [t0, t1]. One propagation of the finite log phi1 over all the
    spans t1 - t, so log phi stays finite and only an overflowing gradient fails, then
    one gradient over the stack; the fields feed a time-indexed drift to the samplers.
    """
    p = sol.problem
    grid = p.kernel.grid
    spans = [p.t1 - _check_partition(sol, t) for t in np.asarray(times, dtype=float)]
    drifts = _gradient_values(_wiener_span(grid, sol.log_phi1, p.sigma2, spans), grid.h)
    drifts *= p.sigma2
    return [ScalarField(grid, row) for row in drifts]


def _wiener_flow_values(rho0: DensityField, times, sigma2: float) -> np.ndarray:
    """Values of the Wiener marginals from rho0 along a time grid, one row per time.

    Row 0 is rho0 itself; row k is rho0 propagated directly over [t_0, t_k].
    """
    require_finite_positive(sigma2, "sigma2")
    times = require_time_grid(times, 1)
    with np.errstate(divide="ignore"):
        log_rho0 = np.log(rho0.values)
    out = np.empty((times.shape[0], rho0.grid.n_points))
    out[0] = rho0.values
    np.exp(_wiener_span(rho0.grid, log_rho0, sigma2, times[1:] - times[0]), out=out[1:])
    return out


def wiener_marginal_flow(rho0: DensityField, times, sigma2: float) -> list[DensityField]:
    """Marginals of the Wiener prior started from rho0 along a time grid.

    Each marginal is propagated directly from rho0 over [t_0, t_k], all of
    them in one call; the first is rho0 itself. times must be strictly
    increasing and sigma2 finite and positive, even for a single time.
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
