"""Forward and reverse-time Euler-Maruyama simulation and Monte Carlo checks.

Trajectories are generated from counter-based substreams (Philox keyed by the
master seed, one jump per path block) so ensembles are bit-reproducible and
blocks could run concurrently without changing the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DriftBlowup,
    EmptyEnsemble,
    ExcessiveClamping,
    TimeNotStored,
)
from .grid import (
    DensityField,
    Grid1D,
    ScalarField,
    gradient,
    interp_uniform,
    laplacian,
    log_gradient,
    normalize,
    require_same_grid,
    require_time_grid,
    stored_time_index,
)

#: paths per RNG substream block; fixed so results never depend on scheduling
BLOCK_SIZE = 16384

#: a run fails validation when more than this fraction of drift evaluations clamp
CLAMP_BUDGET = 1e-3


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled trajectories on a common time grid.

    positions has shape (n_paths, n_times), in increasing-time order whatever
    the simulation direction. It views time-major storage (positions given in
    another layout are copied), so each column positions[:, k] is contiguous.
    """

    times: np.ndarray
    positions: np.ndarray
    sigma2: float
    seed: int
    direction: str

    def __post_init__(self):
        times = require_time_grid(self.times, 2)
        if self.positions.ndim != 2 or self.positions.shape[1] != times.shape[0]:
            raise ValueError("positions must be (n_paths, n_times)")
        if self.positions.shape[0] < 1:
            raise EmptyEnsemble("need n_paths >= 1")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", np.ascontiguousarray(self.positions.T).T)

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]


class GridDrift:
    """Drift field sampled on a grid at strictly increasing stored times.

    Lookup is nearest-neighbor in time (the SDE step must line up with the
    storage grid) and linear in space by uniform-grid index arithmetic
    (grid.interp_uniform). Positions outside the grid are clamped and
    counted; runs exceeding the clamp budget fail validation.
    """

    def __init__(self, times, fields):
        times = require_time_grid(times, 1)
        if times.shape[0] != len(fields):
            raise ValueError(f"need one field per stored time, got {len(fields)} fields")
        self.grid = require_same_grid(*fields)
        self.times = times
        self.table = np.stack([f.values for f in fields])
        # a time within one storage step beyond either end still maps to it
        self._slot_tol = np.min(np.diff(times)) if times.shape[0] > 1 else np.inf
        self.n_eval = 0
        self.n_clamped = 0

    def _time_slot(self, t: float) -> int:
        if t < self.times[0] - self._slot_tol or t > self.times[-1] + self._slot_tol:
            raise TimeNotStored(
                f"drift requested at t={t}, stored range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return int(np.argmin(np.abs(self.times - t)))

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        self.n_eval += x.size
        self.n_clamped += int(np.count_nonzero((x < self.grid.x_min) | (x > self.grid.x_max)))
        return interp_uniform(self.grid, self.table[self._time_slot(t)], x)

    @property
    def clamp_fraction(self) -> float:
        return self.n_clamped / self.n_eval if self.n_eval else 0.0


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    # jumped() advances the Philox counter by 2^128 per block: disjoint streams
    return np.random.Generator(np.random.Philox(key=seed).jumped(block_index + 1))


def _initial_positions(rho, u: np.ndarray) -> np.ndarray:
    """Inverse trapezoid-CDF sampling; piecewise-linear within cells."""
    grid = rho.grid
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * grid.h * (rho.values[:-1] + rho.values[1:]))])
    cdf /= cdf[-1]
    # the abscissa is the CDF, not a uniform grid, so interp_uniform does not apply
    return np.interp(u, cdf, grid.points)


def _simulate(drift, rho_start, sigma2, times, n_paths, seed, backward: bool):
    times = require_time_grid(times, 2)
    if n_paths < 1:
        raise EmptyEnsemble("need n_paths >= 1")
    if not 0 <= sigma2 < np.inf:  # sigma2 = 0 samples the noiseless ODE
        raise ValueError(f"need finite sigma2 >= 0, got {sigma2}")
    sigma = np.sqrt(sigma2)
    n_times = times.shape[0]
    # a drift table bounds each increment by its width, and its clamps by CLAMP_BUDGET
    table = isinstance(drift, GridDrift)
    width = drift.grid.x_max - drift.grid.x_min if table else None
    ev0, cl0 = (drift.n_eval, drift.n_clamped) if table else (0, 0)

    # time-major: each step writes one contiguous row
    positions = np.empty((n_times, n_paths))
    dts = np.diff(times)
    sign = -1.0 if backward else 1.0
    steps = range(n_times - 2, -1, -1) if backward else range(n_times - 1)
    for b, start in enumerate(range(0, n_paths, BLOCK_SIZE)):
        stop = min(start + BLOCK_SIZE, n_paths)
        rng = _block_generator(seed, b)
        x = _initial_positions(rho_start, rng.random(stop - start))
        positions[-1 if backward else 0, start:stop] = x
        for k in steps:
            # step k joins times k and k+1; the drift is read where the step starts
            src, dst = (k + 1, k) if backward else (k, k + 1)
            inc = rng.standard_normal(x.shape[0])
            inc *= sigma * np.sqrt(dts[k])
            inc += np.asarray(drift(x, times[src]), dtype=float) * (sign * dts[k])
            peak = float(np.max(np.abs(inc)))  # NaN or inf if any entry is
            if not np.isfinite(peak):
                raise DriftBlowup("non-finite Euler-Maruyama increment")
            if table and peak > width:
                raise DriftBlowup(f"increment {peak:.3g} exceeds domain width {width:.3g}")
            x = np.add(x, inc, out=positions[dst, start:stop])

    if table:
        evals, clamped = drift.n_eval - ev0, drift.n_clamped - cl0
        if evals and clamped / evals > CLAMP_BUDGET:
            raise ExcessiveClamping(f"{clamped}/{evals} drift evaluations left the grid "
                                    f"(budget {CLAMP_BUDGET:.1e})")
    return PathEnsemble(
        times=times,
        positions=positions.T,
        sigma2=sigma2,
        seed=seed,
        direction="backward" if backward else "forward",
    )


def sample_forward(beta, rho0: DensityField, sigma2, times, n_paths, seed) -> PathEnsemble:
    """Euler-Maruyama: x_{k+1} = x_k + beta(x_k, t_k) dt + sigma sqrt(dt) z_k.

    Initial positions are drawn from rho0 by inverting its trapezoid CDF.
    Identical arguments and seed give a bit-identical ensemble.
    """
    return _simulate(beta, rho0, sigma2, times, n_paths, seed, backward=False)


def sample_backward(gamma, rho1: DensityField, sigma2, times, n_paths, seed) -> PathEnsemble:
    """Reverse-time Euler-Maruyama from a terminal density.

    Steps x_k = x_{k+1} - gamma(x_{k+1}, t_{k+1}) dt + sigma sqrt(dt) z_k from
    the last time down to the first; positions are stored in increasing-time
    order with direction tag "backward".
    """
    return _simulate(gamma, rho1, sigma2, times, n_paths, seed, backward=True)


def empirical_density(ens: PathEnsemble, t: float, grid: Grid1D) -> DensityField:
    """Histogram over point-centered grid cells, normalized to unit trapezoid mass."""
    k = stored_time_index(ens.times, t)
    x = np.clip(ens.positions[:, k], grid.x_min, grid.x_max)
    edges = np.concatenate([
        [grid.x_min - grid.h / 2],
        grid.points[:-1] + grid.h / 2,
        [grid.x_max + grid.h / 2],
    ])
    counts, _ = np.histogram(x, bins=edges)
    return normalize(ScalarField(grid, counts.astype(float)))


def duality_check(beta, gamma, rho: DensityField, sigma2, t: float = 0.0) -> float:
    """Sup-norm defect of beta - gamma = sigma2 * grad log rho over the density bulk.

    The bulk is where rho exceeds 1e-6 of its peak; the score is realized as
    the derivative of log rho, exact for Gaussian densities.
    """
    grid = rho.grid
    x = grid.points
    score = log_gradient(rho).values
    defect = (
        np.asarray(beta(x, t), dtype=float)
        - np.asarray(gamma(x, t), dtype=float)
        - sigma2 * score
    )
    # the bulk leaves out the tails, where drift tables are masked or clamped
    bulk = rho.values > 1e-6 * rho.values.max()
    return float(np.max(np.abs(defect[bulk])))


@dataclass(frozen=True)
class GeneratorCheckResult:
    """Both sides of the Dynkin identity and their Monte Carlo discrepancy."""

    lhs: float
    rhs: float
    discrepancy: float
    std_error: float


def path_integral(ens: PathEnsemble, g, endpoint: str = "left") -> np.ndarray:
    """Per-path Riemann sums of g(x_k, t_k) * (t_{k+1} - t_k) over the steps.

    g maps (positions at one time, t) -> array. "left" evaluates it at the
    start of each step (the forward Euler-Maruyama discretization), "right"
    at its end.
    """
    shift = {"left": 0, "right": 1}[endpoint]
    rows = ens.positions.T  # contiguous, one row per time
    acc = np.zeros(ens.n_paths)
    for k, dt in enumerate(np.diff(ens.times)):
        acc += np.asarray(g(rows[k + shift], ens.times[k + shift]), dtype=float) * dt
    return acc


def generator_check(f: ScalarField, ens: PathEnsemble, beta, sigma2) -> GeneratorCheckResult:
    """Dynkin/Ito consistency for a time-independent test function.

    Compares E[f(x(T)) - f(x(0))] against E of the time integral of
    (beta * f' + sigma2/2 * f''), both estimated on the same trajectories so
    the standard error applies to the per-path difference.
    """
    grid = f.grid
    fp = gradient(f).values
    fpp = laplacian(f).values

    def generator(x, t):
        drift = np.asarray(beta(x, t), dtype=float)
        return drift * interp_uniform(grid, fp, x) + 0.5 * sigma2 * interp_uniform(grid, fpp, x)

    rhs_acc = path_integral(ens, generator)
    lhs_paths = (interp_uniform(grid, f.values, ens.positions[:, -1])
                 - interp_uniform(grid, f.values, ens.positions[:, 0]))
    diff = lhs_paths - rhs_acc
    se = float(diff.std(ddof=1) / np.sqrt(ens.n_paths)) if ens.n_paths > 1 else float("nan")
    return GeneratorCheckResult(
        lhs=float(lhs_paths.mean()),
        rhs=float(rhs_acc.mean()),
        discrepancy=float(abs(diff.mean())),
        std_error=se,
    )


def empirical_energy(ens: PathEnsemble, drift) -> float:
    """Diagnostic E of the integral of drift^2 dt along the ensemble."""
    return float(path_integral(
        ens, lambda x, t: np.asarray(drift(x, t), dtype=float) ** 2).mean())
