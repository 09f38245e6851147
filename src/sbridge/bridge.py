"""Schrodinger-system solver and derived bridge quantities.

Solves the coupled harmonic/co-harmonic pair with prescribed marginal
boundary conditions by alternating rescaling against the marginals
(iterative proportional fitting on the Wiener kernel), iterated in the log
domain for stability. Exposes the bridge's time-t density, its forward
drift, the one-marginal half bridge, and exact time reversal.

The Wiener span rule lives in _wiener_span: every propagation of a potential
or density over a time span (solver, marginal residuals, time-t potentials,
drift sweeps, prior flow) is the identity at span 0, else one call of
kernels.log_heat_propagate with variance sigma2 * span, a direct Toeplitz
convolution with exact log-sum-exp rows where it underflows. No kernel
matrix is built, and no FFT is used, because FFT error is absolute and the
1e-30 density floor depends on the tails keeping their relative accuracy.
Each time is propagated directly from the stored endpoint potential, never
by compounding a one-step kernel, which would compound its aliasing error
when the step is under-resolved (sqrt(sigma2 dt) < h).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePotential,
    InfiniteEntropy,
    MassDefectWarning,
    NoConvergence,
    NonOverlappingSupport,
    TimeMismatch,
)
from .grid import (
    DENSITY_FLOOR,
    DensityField,
    ScalarField,
    _gradient_values,
    integrate,
    kl_divergence,
    l1_distance,
    log_gradient,
    normalize,
    require_count,
    require_finite_positive,
    require_same_grid,
    require_time_grid,
)
from .kernels import TransitionKernel, log_heat_propagate


def _wiener_span(grid, log_f: np.ndarray, sigma2: float, span: float) -> np.ndarray:
    """log_f propagated over a time span: variance sigma2 * span, log_f itself at span 0."""
    if span == 0:
        return log_f
    return log_heat_propagate(grid, log_f, sigma2 * span)


def floor_density(rho: DensityField) -> DensityField:
    """Floor a density at DENSITY_FLOOR times its peak and renormalize.

    The solver assumes everywhere-positive marginals; the floor enforces that
    premise explicitly instead of failing on exact zeros.
    """
    floored = np.maximum(rho.values, DENSITY_FLOOR * rho.values.max())
    return normalize(ScalarField(rho.grid, floored))


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
    two boundary potentials are reconstructed by kernel propagation.
    """

    problem: BridgeProblem
    log_phi1: np.ndarray
    log_phihat0: np.ndarray
    iterations: int
    residual: float
    residual_history: np.ndarray = field(repr=False, default=None)

    def marginal_residuals(self) -> tuple[float, float]:
        """L1 defects of phi*phihat against rho0 and rho1 at the endpoints."""
        p = self.problem
        r0, r1 = _density_at(self, p.t0), _density_at(self, p.t1)
        return l1_distance(r0, p.rho0), l1_distance(r1, p.rho1)


def solve_schrodinger_system(
    problem: BridgeProblem, tol: float = 1e-9, max_iter: int = 5000
) -> BridgeSolution:
    """Fit the potential pair to the marginal boundary conditions.

    Log-domain iterative proportional fitting: alternate between enforcing
    the terminal marginal (rescale phi1) and the initial one (rescale
    phihat0) until both L1 marginal defects fall below tol. The returned
    gauge is fixed so the two log-potentials at t1 have equal quadrature
    means, making outputs reproducible; all observables are gauge-free.

    Raises NoConvergence with the last residual when max_iter is exhausted
    and NonOverlappingSupport if the potentials degenerate.
    """
    require_count(max_iter, 1, "max_iter")
    grid, sigma2, span = problem.kernel.grid, problem.sigma2, problem.t1 - problem.t0
    log_rho0 = np.log(problem.rho0.values)
    log_rho1 = np.log(problem.rho1.values)

    log_phihat0 = log_rho0.copy()
    log_phi1 = np.zeros_like(log_rho1)
    history = []
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        log_phihat1 = _wiener_span(grid, log_phihat0, sigma2, span)
        residual = l1_distance(ScalarField(grid, np.exp(log_phi1 + log_phihat1)), problem.rho1)
        history.append(residual)
        if residual < tol:
            break
        log_phi1 = log_rho1 - log_phihat1
        log_phi0 = _wiener_span(grid, log_phi1, sigma2, span)
        log_phihat0 = log_rho0 - log_phi0
        if not (np.all(np.isfinite(log_phi1)) and np.all(np.isfinite(log_phihat0))):
            raise NonOverlappingSupport(
                "potentials degenerated; marginal supports are incompatible "
                "with the reference kernel"
            )
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
    """t, snapped to t0 or t1 within 1e-12 * max(span, 1); TimeMismatch outside [t0, t1]."""
    p = sol.problem
    tol = 1e-12 * max(1.0, abs(p.t1 - p.t0))
    if not p.t0 - tol <= t <= p.t1 + tol:
        raise TimeMismatch(f"time {t} lies outside [{p.t0}, {p.t1}]")
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


def bridge_drift(sol: BridgeSolution, t: float) -> ScalarField:
    """Forward drift of the bridge at time t: sigma2 * grad log phi(., t).

    t must lie in [t0, t1]; log phi1 is propagated directly over [t, t1].
    """
    p = sol.problem
    grid = p.kernel.grid
    log_phi = _wiener_span(grid, sol.log_phi1, p.sigma2, p.t1 - _check_partition(sol, t))
    if not np.all(np.isfinite(log_phi)):
        raise DegeneratePotential(f"phi(., {t}) underflowed")
    return ScalarField(grid, p.sigma2 * _gradient_values(log_phi, grid.h))


@dataclass(frozen=True)
class HalfBridgeModel:
    """Reverse-time model after conditioning on a terminal density.

    The backward drift of the reference model is kept unchanged; only the
    terminal density is replaced. optimal_value is the attained relative
    entropy, the marginal divergence at t1.
    """

    backward_drift: object
    rho1: DensityField
    t0: float
    t1: float
    sigma2: float
    optimal_value: float


def half_bridge(
    prior_marginal_t1: DensityField,
    prior_backward_drift,
    rho1: DensityField,
    t0: float,
    t1: float,
    sigma2: float,
) -> HalfBridgeModel:
    """Condition a reference diffusion on a new terminal density only.

    The entropy-optimal update keeps the reference backward drift and swaps
    in rho1 at t1; the optimal value is the static divergence of rho1 from
    the reference terminal marginal. The result feeds sde.sample_backward.
    t0 < t1 must both be finite and sigma2 finite and positive.
    """
    require_time_grid((t0, t1), 2)
    require_finite_positive(sigma2, "sigma2")
    require_same_grid(prior_marginal_t1, rho1)
    value = kl_divergence(rho1, prior_marginal_t1)
    if not np.isfinite(value):
        raise InfiniteEntropy(
            f"divergence of the observed terminal density is {value!r}"
        )
    return HalfBridgeModel(
        backward_drift=prior_backward_drift,
        rho1=rho1,
        t0=t0,
        t1=t1,
        sigma2=sigma2,
        optimal_value=value,
    )


def time_reverse(sol: BridgeSolution) -> BridgeSolution:
    """Bridge from rho1 back to rho0: swap the roles of the two potentials.

    The Wiener reference kernel that BridgeProblem requires is symmetric, so
    forward and backward propagation coincide; then exchanging the potential
    pair solves the reversed problem at the same residual.
    """
    p = sol.problem
    reversed_problem = BridgeProblem(
        rho0=p.rho1,
        rho1=p.rho0,
        kernel=p.kernel,
        sigma2=p.sigma2,
    )
    return BridgeSolution(
        problem=reversed_problem,
        log_phi1=sol.log_phihat0.copy(),
        log_phihat0=sol.log_phi1.copy(),
        iterations=sol.iterations,
        residual=sol.residual,
        residual_history=sol.residual_history,
    )


def bridge_drift_fields(sol: BridgeSolution, times) -> list[ScalarField]:
    """bridge_drift at each of the given times, to feed a time-indexed drift to the samplers."""
    return [bridge_drift(sol, t) for t in np.asarray(times, dtype=float)]


def wiener_marginal_flow(rho0: DensityField, times, sigma2: float) -> list[DensityField]:
    """Marginals of the Wiener prior started from rho0 along a time grid.

    Each marginal is propagated directly from rho0 over [t_0, t_k]; the first
    is rho0 itself. times must be strictly increasing and sigma2 finite and
    positive, even for a single time.
    """
    require_finite_positive(sigma2, "sigma2")
    times = require_time_grid(times, 1)
    with np.errstate(divide="ignore"):
        log_rho0 = np.log(rho0.values)
    logs = (_wiener_span(rho0.grid, log_rho0, sigma2, t - times[0]) for t in times[1:])
    return [rho0] + [DensityField(rho0.grid, np.exp(f), mass_tol=None) for f in logs]


def wiener_backward_drift_fields(rho0: DensityField, times, sigma2: float) -> list[ScalarField]:
    """Backward drifts -sigma2 * grad log rho(., t) of the Wiener prior from rho0.

    By the forward/backward duality with zero forward drift, this is the drift
    that a reverse-time sampler of the prior (or of a half bridge over it)
    must use.
    """
    flows = wiener_marginal_flow(rho0, times, sigma2)
    return [
        ScalarField(rho.grid, -sigma2 * log_gradient(rho).values) for rho in flows
    ]

