"""Uniform 1-D grids, real and complex fields, trapezoid quadrature, finite differences.

Every other module builds on the types here. Fields are immutable after
construction and carry their grid with them; mixing grids raises GridMismatch
instead of resampling silently. The L1 distance and the Kullback-Leibler
divergence sit with the floor and stray-mass rules they read.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (GridMismatch, InfiniteEntropy, InvalidInterval, NonPositiveMass,
                     SupportViolation, TimeNotStored)

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
        require_count(self.n_points, 3, "n_points")
        real = all(isinstance(end, numbers.Real) for end in (self.x_min, self.x_max))
        require_finite_positive(self.x_max - self.x_min if real else None, "x_max - x_min")
        # a width of a few subnormals leaves an end weight of 0, whose log is -inf
        require_finite_positive(self.h / 2.0, "end weight h / 2")

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
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def _view(cls, grid: Grid1D, values: np.ndarray):
        """A field over values already checked and read-only, without a second check or a copy."""
        field = cls.__new__(cls)
        field.grid, field.values = grid, values
        return field

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n_points}, " \
               f"range=[{self.values.min():.3g}, {self.values.max():.3g}])"


class DensityField(ScalarField):
    """Nonnegative field with unit trapezoid mass.

    mass_tol is the accepted deviation of the trapezoid integral from 1;
    pass mass_tol=None to skip the check (used for diagnostic densities
    whose mass defect is itself the quantity under study). Any other
    mass_tol must be a real >= 0, else ValueError.
    """

    def __init__(self, grid: Grid1D, values, mass_tol: float | None = 1e-6):
        if mass_tol is not None and not (isinstance(mass_tol, numbers.Real) and mass_tol >= 0):
            raise ValueError(f"need mass_tol >= 0 or None, got {mass_tol!r}")
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
    """Raise ValueError unless value is a finite real > 0; what names it in the message."""
    if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
        raise ValueError(f"need finite {what} > 0, got {value}")


def require_count(n, minimum: int, what: str) -> None:
    """Raise ValueError unless n is an integer (Python or numpy, not bool) >= minimum."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"need an integer {what} >= {minimum}, got {n!r}")


def require_time_grid(times, min_len: int, equal_steps: bool = False) -> np.ndarray:
    """times as a float array: 1-D, finite, strictly increasing and at least min_len long.

    With equal_steps, time k must also lie within _time_tol of
    t0 + k (t1 - t0) / n. Anything else raises InvalidInterval, a ValueError.
    This is the one test of a time grid: the stored times of ensembles, drift
    tables and wavefunction paths, the samplers' grids, the steps that
    quantum_bridge evolves back on, and the interval [s, t] of a transition
    kernel, passed as two times.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.shape[0] < min_len or not np.isfinite(times).all()
            or np.any(np.diff(times) <= 0) or (equal_steps and np.max(np.abs(
                times - np.linspace(times[0], times[-1], times.shape[0]))) > _time_tol(times))):
        raise InvalidInterval(f"need a 1-D finite strictly increasing"
                              f"{' equally spaced' if equal_steps else ''} grid of >= {min_len} times")
    return times


def _time_tol(times: np.ndarray) -> float:
    """The stored-time tolerance of a time grid, 1e-9 * max(span, 1)."""
    return 1e-9 * max(times[-1] - times[0], 1.0)


def stored_time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time nearest t; TimeNotStored beyond _time_tol(times) of it."""
    t = np.float64(t)  # None reads as NaN
    i = int(np.argmin(np.abs(times - t)))
    # written so that a NaN t fails the match
    if not abs(times[i] - t) <= _time_tol(times):
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


class _Cells:
    """Cell index j and offset x - x_j of a row of positions, in reused buffers.

    find(x) is the cell step: it clips the positions to the walls, counts in
    n_out those beyond them, and sets j and the offset; NaN goes to cell 0
    and stays NaN in the offset. lerp is the lerp step: it reads one table
    at those cells, with the slopes of _slopes. The two steps give
    np.interp(x, grid.points, values) by np.interp's arithmetic, bit for bit
    except within rounding of a node; beyond a wall the wall value; NaN
    gives NaN. A caller reading several tables at the same positions runs
    the cell step once. The buffers serve every row of one shape, so a loop
    over the rows of an ensemble allocates no n-sized array per row; without
    that, glibc returns freed rows to the system and page-faults them back.
    """

    def __init__(self, grid: Grid1D, shape):
        self.grid = grid
        self.j = np.empty(shape, dtype=np.intp)
        self.offset = np.empty(shape)
        self._spare = np.empty(shape)
        self.n_out = 0

    def find(self, x) -> "_Cells":
        g = self.grid
        x = np.asarray(x, dtype=float)
        self.n_out = int(np.count_nonzero((x < g.x_min) | (x > g.x_max)))
        np.clip(x, g.x_min, g.x_max, out=self.offset)
        cell = np.subtract(self.offset, g.x_min, out=self._spare)
        cell /= g.h
        # fmax sends NaN to cell 0 (a bare cast would give INT_MIN)
        np.copyto(self.j, np.fmax(cell, 0.0, out=cell), casting="unsafe")
        # j lies in [0, n - 1]; mode="clip" only spares take's copy of out
        self.offset -= g.points.take(self.j, out=self._spare, mode="clip")
        return self

    def lerp(self, values: np.ndarray, slope: np.ndarray, out=None) -> np.ndarray:
        """slope_j * (x - x_j) + values_j, into out or a new array."""
        out = slope.take(self.j, out=out, mode="clip")
        out *= self.offset
        out += values.take(self.j, out=self._spare, mode="clip")
        return out


def _slopes(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """np.interp's slope of each cell; 0 in the last, where x_max lands at offset 0."""
    slope = np.zeros(grid.n_points)
    x = grid.points
    np.divide(values[1:] - values[:-1], x[1:] - x[:-1], out=slope[:-1])
    return slope


def _gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # np.gradient on the last axis: central differences inside, one-sided at the ends
    return np.gradient(values, h, axis=-1, edge_order=2)


def _log_gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # the score f'/f as d/dx log f, floored at the smallest normal float so tails
    # give no -inf; exact for Gaussian-shaped fields (quadratic log), which the
    # analytic oracles rely on
    return _gradient_values(np.log(np.maximum(values, np.finfo(float).tiny)), h)


def _laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    # 3-point stencil inside, one-sided second-order ends (the inner value on 3 points)
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


def normalize(f: ScalarField) -> DensityField:
    """Divide a nonnegative field by its trapezoid mass; DensityField refuses negative values."""
    mass = integrate(f)
    if not mass > 0:
        raise NonPositiveMass(f"cannot normalize: mass {mass!r}")
    return DensityField(f.grid, f.values / mass, mass_tol=1e-10)


def l1_distance(f, g) -> float:
    """Quadrature L1 distance between two fields."""
    require_same_grid(f, g)
    return float(np.dot(f.grid.weights, np.abs(f.values - g.values)))


def kl_divergence(p: DensityField, q: DensityField) -> float:
    """Divergence integral of p log(p/q), with 0 log 0 = 0.

    Points where p or q sits at or below DENSITY_FLOOR times its own peak
    contribute nothing. Where q does, p may carry at most STRAY_MASS_TOL of
    mass (grid.require_negligible_mass); more raises SupportViolation rather
    than returning an arbitrary large number. A value that overflows, which
    needs a grid spacing of about 1e-306 or less, raises InfiniteEntropy.
    """
    require_same_grid(p, q)
    pv, qv = p.values, q.values
    live = pv > DENSITY_FLOOR * pv.max()
    q_dead = qv <= DENSITY_FLOOR * qv.max()
    require_negligible_mass(p, live & q_dead, "p")
    live &= ~q_dead
    ratio = np.ones_like(pv)
    np.divide(pv, qv, out=ratio, where=live)
    # an overflow gives an infinite value, refused below
    with np.errstate(over="ignore"):
        integrand = np.where(live, pv * np.log(ratio), 0.0)
    value = float(np.dot(p.grid.weights, integrand))
    if not np.isfinite(value):
        raise InfiniteEntropy(f"divergence is {value!r}: p log(p/q) overflowed")
    return value
