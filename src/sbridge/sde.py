"""Forward and reverse-time Euler-Maruyama simulation and path functionals.

Trajectories are generated from one random stream per path block (SFC64
keyed by the master seed and the block index through a SeedSequence), so
ensembles are bit-reproducible. The samplers run on two threads: a helper
thread draws each block's scaled Gaussian increments in the serial order,
while the calling thread reads the drifts and takes the steps. Each stream
is read by one thread in a fixed order, so the output never depends on
scheduling. Among the path functionals is the Girsanov split of the
path entropy of one diffusion law with respect to another: a marginal
divergence (grid.kl_divergence) plus a quadratic drift-mismatch integral,
taken at either end of the time interval (forward drifts + initial
marginals, or backward drifts + terminal marginals); both totals must agree.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DriftBlowup, ExcessiveClamping, TimeNotStored
from .grid import (
    DensityField,
    Grid1D,
    ScalarField,
    _Cells,
    _gradient_values,
    _laplacian_values,
    _log_gradient_values,
    _slopes,
    kl_divergence,
    normalize,
    require_count,
    require_finite_positive,
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
    the simulation direction. It views time-major float storage (other layouts,
    dtypes and nested lists are copied), so each column positions[:, k] is contiguous.
    sigma2 is the diffusion coefficient the paths were sampled with.
    """

    times: np.ndarray
    positions: np.ndarray
    sigma2: float
    seed: int
    direction: str

    def __post_init__(self):
        times = require_time_grid(self.times, 2)
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[0] < 1 or positions.shape[1] != times.shape[0]:
            raise ValueError("positions must be (n_paths >= 1, n_times)")
        # min and max propagate NaN and inf without a full-size temporary
        if not np.isfinite(positions.min()) or not np.isfinite(positions.max()):
            raise ValueError("positions must be finite")
        _require_sigma2(self.sigma2)
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", np.ascontiguousarray(positions.T).T)

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]


class GridDrift:
    """Drift field sampled on a grid at strictly increasing stored times.

    table is the tuple of the fields' read-only values, one row per stored
    time, viewed without a copy. Lookup is nearest-neighbor in time (the SDE
    step must line up with the storage grid) and linear in space by
    uniform-grid index arithmetic (grid._Cells). Positions outside
    the grid are clamped and counted; runs exceeding the clamp budget fail
    validation. Callers reading several tables on one grid at the same
    positions find the cells once (grid._Cells) and read each with _at_cell.
    """

    def __init__(self, times, fields):
        times = require_time_grid(times, 1)
        if times.shape[0] != len(fields):
            raise ValueError(f"need one field per stored time, got {len(fields)} fields")
        self.grid = require_same_grid(*fields)
        self.times = times
        self.table = tuple(f.values for f in fields)
        # a time within one storage step beyond either end still maps to it
        self._slot_tol = np.min(np.diff(times)) if times.shape[0] > 1 else np.inf
        self.n_eval = 0
        self.n_clamped = 0

    def _time_slot(self, t: float) -> int:
        t = np.float64(t)  # None reads as NaN
        # written so that a NaN t fails the range test
        if not self.times[0] - self._slot_tol <= t <= self.times[-1] + self._slot_tol:
            raise TimeNotStored(
                f"drift requested at t={t}, stored range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return int(np.argmin(np.abs(self.times - t)))

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        return self._at_cell(_Cells(self.grid, x.shape).find(x), t)

    def _at_cell(self, cells, t, out=None):
        """The stored row at t read at found _Cells of this grid (into out), counted as a call."""
        self.n_eval += cells.j.size
        self.n_clamped += cells.n_out
        row = self.table[self._time_slot(t)]
        return cells.lerp(row, _slopes(self.grid, row), out)


def _read(drift, cells, x, t, out) -> np.ndarray:
    """drift at (x, t): a GridDrift on the grid of cells, found at x, reads into out."""
    if cells is not None and isinstance(drift, GridDrift) and drift.grid == cells.grid:
        return drift._at_cell(cells, t, out)
    return np.asarray(drift(x, t), dtype=float)


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    # SeedSequence hashes the entropy list (seed, block) into the SFC64 state, so
    # each block has its own stream and its paths depend on nothing else
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block_index])))


def _trapezoid_cdf(rho) -> np.ndarray:
    """Normalized trapezoid CDF of rho at its grid points.

    np.interp(u, cdf, grid.points) maps uniforms to positions, piecewise-linear
    within cells; the abscissa is the CDF, not a uniform grid, so grid._Cells
    does not apply.
    """
    grid = rho.grid
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * grid.h * (rho.values[:-1] + rho.values[1:]))])
    cdf /= cdf[-1]
    return cdf


class _Increments:
    """Helper thread that writes each block's scaled Gaussian increments into positions.

    It fills the rows in the serial order, block by block and within a block
    in step order: row dst of block b gets standard normals from rngs[b] times
    scales[k], and wait() returns once the next row is done. The thread never
    reads a drift. Leaving the with-block, normally or by an exception, stops
    it at its next row and joins it; an exception in the thread is raised by
    wait() instead.
    """

    def __init__(self, positions, rngs, spans, steps, scales):
        self._ready = threading.Semaphore(0)
        self._stop = threading.Event()
        self._failure = []
        self._thread = threading.Thread(
            target=self._fill, args=(positions, rngs, spans, steps, scales))

    def _fill(self, positions, rngs, spans, steps, scales):
        try:
            for rng, (start, stop) in zip(rngs, spans):
                for k, _, dst in steps:
                    if self._stop.is_set():
                        return
                    row = rng.standard_normal(out=positions[dst, start:stop])
                    row *= scales[k]
                    self._ready.release()
        # any exception, an interrupt too, is raised again by wait() on the
        # calling thread, which must not wait for a row that never comes
        except BaseException as exc:
            self._failure.append(exc)
            self._ready.release()

    def wait(self) -> None:
        """Block until the next row is filled; raise the thread's exception if it failed."""
        self._ready.acquire()
        if self._failure:
            raise self._failure[0]

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()


def _require_sigma2(sigma2) -> None:
    """ValueError unless sigma2 is a finite real >= 0 (sigma2 = 0 is the noiseless ODE)."""
    if not (isinstance(sigma2, numbers.Real) and 0 <= sigma2 < np.inf):
        raise ValueError(f"need finite sigma2 >= 0, got {sigma2}")


def _require_ensemble_sigma2(ens: PathEnsemble, sigma2) -> None:
    """ValueError unless sigma2 is the one the paths of ens were sampled with.

    A path functional scored at another sigma2 (the Girsanov split,
    generator_check) would read a different diffusion than the sampled one.
    """
    if sigma2 != ens.sigma2:
        raise ValueError(f"sigma2 {sigma2} differs from the ensemble's {ens.sigma2}")


def _mc_mean(samples: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of per-path samples and its standard error (ddof=1; NaN for one path)."""
    n = samples.shape[0]
    se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return float(samples.mean()), se


def _simulate(drift, rho_start, sigma2, times, n_paths, seed, backward: bool):
    times = require_time_grid(times, 2)
    require_count(n_paths, 1, "n_paths")
    require_count(seed, 0, "seed")
    _require_sigma2(sigma2)
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
    # step k joins times k and k+1; the drift is read at src, where the step starts
    steps = ([(k, k + 1, k) for k in range(n_times - 2, -1, -1)] if backward
             else [(k, k, k + 1) for k in range(n_times - 1)])
    spans = [(start, min(start + BLOCK_SIZE, n_paths)) for start in range(0, n_paths, BLOCK_SIZE)]
    rngs = [_block_generator(seed, b) for b in range(len(spans))]
    # each stream gives its block's start uniforms before the helper thread draws its normals
    first = positions[-1 if backward else 0]
    for rng, (start, stop) in zip(rngs, spans):
        rng.random(out=first[start:stop])
    cdf, points = _trapezoid_cdf(rho_start), rho_start.grid.points
    with _Increments(positions, rngs, spans, steps, sigma * np.sqrt(dts)) as increments:
        for start, stop in spans:
            x = first[start:stop]
            x[:] = np.interp(x, cdf, points)
            drift_dt = np.empty(stop - start)
            for k, src, dst in steps:
                np.multiply(drift(x, times[src]), sign * dts[k], out=drift_dt)
                # the increment is built in the destination row, then x is added
                increments.wait()
                inc = positions[dst, start:stop]
                inc += drift_dt
                peak = max(float(inc.max()), -float(inc.min()))  # NaN or inf if any entry is
                if not np.isfinite(peak):
                    raise DriftBlowup("non-finite Euler-Maruyama increment")
                if table and peak > width:
                    raise DriftBlowup(f"increment {peak:.3g} exceeds domain width {width:.3g}")
                x = np.add(inc, x, out=inc)

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
    seed is an integer >= 0. Paths are drawn in blocks of BLOCK_SIZE, and the
    random numbers of block b depend only on seed and b: identical arguments
    give a bit-identical ensemble, and a full block's paths do not change
    with n_paths.

    A helper thread draws the increments sigma sqrt(dt) z_k ahead of the
    steps; beta is read only on the calling thread, so a drift need not be
    thread-safe. The helper thread is joined before the call returns or
    raises, and the output never depends on how the threads are scheduled.
    """
    return _simulate(beta, rho0, sigma2, times, n_paths, seed, backward=False)


def sample_backward(gamma, rho1: DensityField, sigma2, times, n_paths, seed) -> PathEnsemble:
    """Reverse-time Euler-Maruyama from a terminal density.

    Steps x_k = x_{k+1} - gamma(x_{k+1}, t_{k+1}) dt + sigma sqrt(dt) z_k from
    the last time down to the first; positions are stored in increasing-time
    order with direction tag "backward". The seed and the blocks of paths are
    those of sample_forward: block b's random numbers depend only on seed and b.
    As there, a helper thread draws the increments, gamma is read only on the
    calling thread, and the output never depends on scheduling.
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
    _require_sigma2(sigma2)
    grid = rho.grid
    x = grid.points
    score = _log_gradient_values(rho.values, grid.h)
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
    if endpoint not in ("left", "right"):
        raise ValueError(f"unknown endpoint {endpoint!r}")
    shift = int(endpoint == "right")
    rows = ens.positions.T  # contiguous, one row per time
    acc = np.zeros(ens.n_paths)
    term = np.empty(ens.n_paths)
    for k, dt in enumerate(np.diff(ens.times)):
        acc += np.multiply(g(rows[k + shift], ens.times[k + shift]), dt, out=term)
    return acc


def generator_check(f: ScalarField, ens: PathEnsemble, beta, sigma2) -> GeneratorCheckResult:
    """Dynkin/Ito consistency for a time-independent test function.

    Compares E[f(x(T)) - f(x(0))] against E of the time integral of
    (beta * f' + sigma2/2 * f''), both estimated on the same trajectories so
    the standard error applies to the per-path difference. sigma2 must be
    the ensemble's own.
    """
    _require_ensemble_sigma2(ens, sigma2)
    grid = f.grid
    fp = _gradient_values(f.values, grid.h)
    fpp = _laplacian_values(f.values, grid.h)
    slope_fp, slope_fpp = _slopes(grid, fp), _slopes(grid, fpp)
    # one cell per row for f', f'' and a drift table on f's grid, then for f at both ends
    cells = _Cells(grid, ens.n_paths)
    buf = [np.empty(ens.n_paths) for _ in range(3)]

    def generator(x, t):
        cells.find(x)
        out = np.multiply(_read(beta, cells, x, t, buf[0]), cells.lerp(fp, slope_fp, buf[1]),
                          out=buf[1])
        diffusion = cells.lerp(fpp, slope_fpp, buf[2])
        diffusion *= 0.5 * sigma2
        out += diffusion
        return out

    rhs_acc = path_integral(ens, generator)
    slope_f = _slopes(grid, f.values)
    lhs_paths = cells.find(ens.positions[:, -1]).lerp(f.values, slope_f)
    lhs_paths -= cells.find(ens.positions[:, 0]).lerp(f.values, slope_f, buf[0])
    mean, se = _mc_mean(lhs_paths - rhs_acc)
    return GeneratorCheckResult(
        lhs=float(lhs_paths.mean()),
        rhs=float(rhs_acc.mean()),
        discrepancy=abs(mean),
        std_error=se,
    )


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
