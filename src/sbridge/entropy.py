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
from .grid import _Cells, require_finite_positive
from .sde import GridDrift, _mc_mean, _read, _require_ensemble_sigma2, path_integral


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
    discretization), backward ones use right endpoints. sigma2 must be the
    ensemble's own.
    """
    require_finite_positive(sigma2, "sigma2")
    _require_ensemble_sigma2(ens, sigma2)
    static = kl_divergence(q, p)
    # drift tables read at one cell per row, on the grid of the first one
    grid = next((d.grid for d in (drift_q, drift_p) if isinstance(d, GridDrift)), None)
    cells = _Cells(grid, ens.n_paths) if grid is not None else None
    buf_q, buf_p = np.empty(ens.n_paths), np.empty(ens.n_paths)

    def mismatch2(x, t):
        if cells is not None:
            cells.find(x)
        d = np.subtract(_read(drift_q, cells, x, t, buf_q), _read(drift_p, cells, x, t, buf_p),
                        out=buf_q)
        return np.square(d, out=d)

    endpoint = {"forward": "left", "backward": "right"}[direction]
    acc = path_integral(ens, mismatch2, endpoint) / (2.0 * sigma2)
    kinetic, se = _mc_mean(acc)
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
