"""Uniform 1-D grids, real and complex fields, trapezoid quadrature, finite differences.

Every other module builds on the types here. Fields are immutable after
construction and carry their grid with them; mixing grids raises GridMismatch
instead of resampling silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonPositiveMass, SupportViolation, TimeNotStored

#: largest quadrature mass a unit-mass density may carry where a reference
#: vanishes and still count as supported by it
STRAY_MASS_TOL = 1e-10

#: a density at or below this fraction of its peak vanishes there: the bridge
#: solver lifts its marginals to it, and divergences drop such points
DENSITY_FLOOR = 1e-30


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_i = x_min + i*h with trapezoid quadrature weights."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")
        require_finite_positive(self.x_max - self.x_min, "x_max - x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.setflags(write=False)
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.h)
        w[0] = w[-1] = self.h / 2.0
        w.setflags(write=False)
        return w


class ScalarField:
    """Real-valued samples on a grid: checked finite, copied and made read-only."""

    dtype = float

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"expected {grid.n_points} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n_points}, " \
               f"range=[{self.values.min():.3g}, {self.values.max():.3g}])"


class DensityField(ScalarField):
    """Nonnegative field with unit trapezoid mass.

    mass_tol is the accepted deviation of the trapezoid integral from 1;
    pass mass_tol=None to skip the check (used for diagnostic densities
    whose mass defect is itself the quantity under study).
    """

    def __init__(self, grid: Grid1D, values, mass_tol: float | None = 1e-6):
        super().__init__(grid, values)
        if np.any(self.values < 0):
            raise NonPositiveMass("density values must be nonnegative")
        if mass_tol is not None:
            mass = integrate(self)
            if abs(mass - 1.0) > mass_tol:
                raise NonPositiveMass(
                    f"density mass {mass!r} deviates from 1 beyond {mass_tol}"
                )


class ComplexField(ScalarField):
    """Complex-valued samples on a grid, checked and stored as a ScalarField's."""

    dtype = complex

    def __repr__(self):
        return f"ComplexField(n={self.grid.n_points})"


def require_same_grid(*objs):
    """Raise GridMismatch unless all arguments share one grid (by value)."""
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid != g0:
            raise GridMismatch(f"grids differ: {g0} vs {o.grid}")
    return g0


def require_finite_positive(value, what: str) -> None:
    """Raise ValueError unless value is finite and > 0; what names it in the message."""
    if not 0 < value < np.inf:
        raise ValueError(f"need finite {what} > 0, got {value}")


def require_time_grid(times, min_len: int) -> np.ndarray:
    """times as a float array; ValueError unless 1-D, strictly increasing and min_len long."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < min_len or np.any(np.diff(times) <= 0):
        raise ValueError(f"times must be a 1-D strictly increasing grid of >= {min_len} times")
    return times


def stored_time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time nearest t; TimeNotStored beyond 1e-9 * max(span, 1) of it."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(times[-1] - times[0], 1.0):
        raise TimeNotStored(f"t={t} is not on the stored time grid")
    return i


def require_negligible_mass(rho: ScalarField, where: np.ndarray, what: str) -> None:
    """Raise SupportViolation when rho carries more than STRAY_MASS_TOL of mass on where.

    where marks the points at which a reference density vanishes; what names
    rho in the message.
    """
    stray = float(np.dot(rho.grid.weights[where], rho.values[where]))
    if stray > STRAY_MASS_TOL:
        raise SupportViolation(f"{what} carries mass {stray:.3e} where its reference vanishes")


def integrate(f) -> float:
    """Trapezoid quadrature of a field over its grid."""
    return float(np.dot(f.grid.weights, f.values))


def inner(f, g) -> float:
    """Quadrature pairing <f, g> = sum_i w_i f_i g_i."""
    require_same_grid(f, g)
    return float(np.dot(f.grid.weights, f.values * g.values))


def interp_uniform(grid: Grid1D, values: np.ndarray, x) -> np.ndarray:
    """np.interp(x, grid.points, values), with the cell found from (x - x_min)/h.

    Slope and offset use np.interp's arithmetic, so the two agree bit for bit
    except within rounding of a node. Beyond a wall: the wall value; NaN: NaN.
    """
    xc = np.clip(np.asarray(x, dtype=float), grid.x_min, grid.x_max)
    # fmax sends NaN to cell 0 (a bare cast would give INT_MIN); NaN survives in xc
    j = np.fmax((xc - grid.x_min) / grid.h, 0.0).astype(np.intp)
    slope = np.empty(grid.n_points)
    np.divide(np.diff(values), np.diff(grid.points), out=slope[:-1])
    slope[-1] = 0.0  # x_max may land in cell n-1, at offset 0
    # slope_j * (x - x_j) + values_j, in place: temporaries dominate at 1e4+ points
    xc -= grid.points[j]
    xc *= slope[j]
    xc += values[j]
    return xc


def _gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # np.gradient on the last axis: central differences inside, one-sided at the ends
    return np.gradient(values, h, axis=-1, edge_order=2)


def _log_gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # floored at the smallest normal float, so tails give no -inf
    return _gradient_values(np.log(np.maximum(values, np.finfo(float).tiny)), h)


def gradient(f: ScalarField) -> ScalarField:
    """First derivative: central differences, one-sided second-order endpoints."""
    return ScalarField(f.grid, _gradient_values(f.values, f.grid.h))


def _laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    n = values.shape[0]
    out = np.empty_like(values)
    out[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / h**2
    if n >= 4:
        out[0] = (2 * values[0] - 5 * values[1] + 4 * values[2] - values[3]) / h**2
        out[-1] = (2 * values[-1] - 5 * values[-2] + 4 * values[-3] - values[-4]) / h**2
    else:
        out[0] = out[1]
        out[-1] = out[1]
    return out


def laplacian(f: ScalarField) -> ScalarField:
    """Second derivative: 3-point stencil inside, one-sided second-order endpoints."""
    return ScalarField(f.grid, _laplacian_values(f.values, f.grid.h))


def normalize(f: ScalarField) -> DensityField:
    """Divide a nonnegative field by its trapezoid mass."""
    if np.any(f.values < 0):
        raise NonPositiveMass("cannot normalize a field with negative values")
    mass = integrate(f)
    if not mass > 0:
        raise NonPositiveMass(f"cannot normalize: mass {mass!r}")
    return DensityField(f.grid, f.values / mass, mass_tol=1e-10)


def log_gradient(f: ScalarField) -> ScalarField:
    """Derivative of log f, i.e. the score f'/f realized as d/dx log f.

    Values are floored at the smallest normal float before the log so tails
    cannot produce -inf; the realization through log makes the result exact
    for Gaussian-shaped fields (quadratic log), which the analytic oracles
    rely on.
    """
    return ScalarField(f.grid, _log_gradient_values(f.values, f.grid.h))


def l1_distance(f, g) -> float:
    """Quadrature L1 distance between two fields."""
    require_same_grid(f, g)
    return float(np.dot(f.grid.weights, np.abs(f.values - g.values)))

