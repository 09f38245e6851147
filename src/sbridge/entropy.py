"""Kullback-Leibler divergence and path-space relative entropy.

The path entropy of one diffusion law with respect to another splits, by
Girsanov's theorem, into a marginal divergence plus a quadratic
drift-mismatch integral; the split can be taken at either end of the time
interval (forward drifts + initial marginals, or backward drifts + terminal
marginals) and both totals must agree.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .grid import DENSITY_FLOOR, DensityField, require_negligible_mass, require_same_grid
from .grid import require_finite_positive
from .sde import path_integral


def kl_divergence(p: DensityField, q: DensityField) -> float:
    """Divergence integral of p log(p/q), with 0 log 0 = 0.

    Points where p or q sits at or below DENSITY_FLOOR times its own peak
    contribute nothing. Where q does, p may carry at most STRAY_MASS_TOL of
    mass (grid.require_negligible_mass); more raises SupportViolation rather
    than returning an arbitrary large number.
    """
    require_same_grid(p, q)
    pv, qv = p.values, q.values
    live = pv > DENSITY_FLOOR * pv.max()
    q_dead = qv <= DENSITY_FLOOR * qv.max()
    require_negligible_mass(p, live & q_dead, "p")
    live &= ~q_dead
    ratio = np.ones_like(pv)
    np.divide(pv, qv, out=ratio, where=live)
    integrand = np.where(live, pv * np.log(ratio), 0.0)
    return float(np.dot(p.grid.weights, integrand))


@dataclass(frozen=True)
class EntropyReport:
    """One Girsanov decomposition of a path-space relative entropy.

    total = static_term + kinetic_term; the kinetic term is a Monte Carlo
    estimate with the reported standard error, the static term is a
    quadrature value.
    """

    static_term: float
    kinetic_term: float
    total: float
    direction: str
    mc_std_error: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _girsanov(q, p, drift_q, drift_p, ens, sigma2, direction: str) -> EntropyReport:
    """KL(q, p) plus the per-path drift mismatch |dq - dp|^2 / (2 sigma2) dt, averaged.

    Forward integrals use left endpoints (matching the forward Euler-Maruyama
    discretization), backward ones use right endpoints.
    """
    require_finite_positive(sigma2, "sigma2")
    static = kl_divergence(q, p)

    def mismatch2(x, t):
        return (np.asarray(drift_q(x, t), dtype=float)
                - np.asarray(drift_p(x, t), dtype=float)) ** 2

    endpoint = {"forward": "left", "backward": "right"}[direction]
    acc = path_integral(ens, mismatch2, endpoint) / (2.0 * sigma2)
    se = float(acc.std(ddof=1) / np.sqrt(acc.shape[0])) if acc.shape[0] > 1 else float("nan")
    kinetic = float(acc.mean())
    return EntropyReport(static, kinetic, static + kinetic, direction, se)


def path_entropy_forward(
    q0: DensityField,
    p0: DensityField,
    beta_q,
    beta_p,
    ens,
    sigma2: float,
) -> EntropyReport:
    """Forward Girsanov decomposition: initial marginals plus forward drifts.

    The ensemble must be distributed under the law whose drift is beta_q;
    drifts are callables (x_array, t) -> array.
    """
    return _girsanov(q0, p0, beta_q, beta_p, ens, sigma2, "forward")


def path_entropy_backward(
    q1: DensityField,
    p1: DensityField,
    gamma_q,
    gamma_p,
    ens,
    sigma2: float,
) -> EntropyReport:
    """Backward Girsanov decomposition: terminal marginals plus backward drifts."""
    return _girsanov(q1, p1, gamma_q, gamma_p, ens, sigma2, "backward")
