"""Uniform 1-D grids, real and complex fields, trapezoid quadrature, gradient stencils.

Every other module builds on the types here. Fields are immutable after
construction and carry their grid with them; mixing grids raises GridMismatch
instead of resampling silently. The Gaussian, indicator and mixture densities
the pipelines start from sit beside normalize; the L1 distance and the
Kullback-Leibler divergence sit with the floor and stray-mass rules they read.
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
        for name, end in (("x_min", self.x_min), ("x_max", self.x_max)):
            if not -np.inf < _real(end) < np.inf:
                raise ValueError(f"need a finite real {name}, got {end!r}")
        require_finite_positive(self.x_max - self.x_min, "x_max - x_min")
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
        if mass_tol is not None and not _real(mass_tol) >= 0:
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


def require_same_grid(*objs):
    """Raise GridMismatch unless all arguments share one grid (by value)."""
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid != g0:
            raise GridMismatch(f"grids differ: {g0} vs {o.grid}")
    return g0


def _real(value) -> float:
    """float(value) for a real number other than a bool, else NaN, which each caller refuses."""
    return float(value) if isinstance(value, numbers.Real) and type(value) is not bool else np.nan


def _real_array(values) -> np.ndarray:
    """The array form of _real: integer and float dtypes as floats, anything else all NaN."""
    raw = np.asarray(values)
    return raw.astype(float, copy=False) if raw.dtype.kind in "iuf" else np.full(raw.shape, np.nan)


def require_finite_positive(value, what: str) -> None:
    """Raise ValueError unless value is a finite real > 0; what names it in the message."""
    if not 0 < _real(value) < np.inf:
        raise ValueError(f"need finite {what} > 0, got {value}")


def require_count(n, minimum: int, what: str) -> None:
    """Raise ValueError unless n is an integer (Python or numpy, not bool) >= minimum."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"need an integer {what} >= {minimum}, got {n!r}")


def require_time_grid(times, equal_steps: bool = False) -> np.ndarray:
    """times as a float array: 1-D, finite, strictly increasing and at least two long.

    Entries are read by _real_array: a bool, a string or None is NaN.
    With equal_steps, time k must also lie within _time_tol of
    t0 + k (t1 - t0) / n. Anything else raises InvalidInterval, a ValueError.
    This is the one test of a time grid: the stored times of ensembles, drift
    tables and wavefunction paths, the samplers' grids, the steps that
    quantum_bridge evolves back on, and the interval [s, t] of a transition
    kernel, passed as two times.
    """
    times = _real_array(times)
    if (times.ndim != 1 or times.shape[0] < 2 or not np.isfinite(times).all()
            or np.any(np.diff(times) <= 0) or (equal_steps and np.max(np.abs(
                times - np.linspace(times[0], times[-1], times.shape[0]))) > _time_tol(times))):
        raise InvalidInterval(f"need a 1-D finite strictly increasing"
                              f"{' equally spaced' if equal_steps else ''} grid of >= 2 times")
    return times


def _time_tol(times: np.ndarray) -> float:
    """The stored-time tolerance of a time grid, 1e-9 * max(span, 1)."""
    return 1e-9 * max(times[-1] - times[0], 1.0)


def stored_time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time nearest t; TimeNotStored beyond _time_tol(times) of it."""
    x = _real(t)
    i = int(np.argmin(np.abs(times - x)))
    # written so that a NaN x fails the match
    if not abs(times[i] - x) <= _time_tol(times):
        raise TimeNotStored(f"t={t!r} is not on the stored time grid")
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


def _gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # np.gradient on the last axis: central differences inside, one-sided at the ends
    return np.gradient(values, h, axis=-1, edge_order=2)


def _log_gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    # the score f'/f as d/dx log f, floored at the smallest normal float so tails
    # give no -inf; exact for Gaussian-shaped fields (quadratic log), which the
    # analytic oracles rely on
    return _gradient_values(np.log(np.maximum(values, np.finfo(float).tiny)), h)


def normalize(f: ScalarField) -> DensityField:
    """Divide a nonnegative field by its trapezoid mass; DensityField refuses negative values."""
    mass = integrate(f)
    if not mass > 0:
        raise NonPositiveMass(f"cannot normalize: mass {mass!r}")
    return DensityField(f.grid, f.values / mass, mass_tol=1e-10)


def gaussian_density(grid: Grid1D, mean: float, var: float) -> DensityField:
    require_finite_positive(var, "var")
    x = grid.points
    # anything but a real number reads as NaN, a non-finite field
    return normalize(ScalarField(grid, np.exp(-((x - _real(mean)) ** 2) / (2.0 * var))))


def indicator_density(grid: Grid1D, a: float, b: float) -> DensityField:
    a, b = _real(a), _real(b)  # anything but a real number reads as NaN, refused here
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    x = grid.points
    return normalize(ScalarField(grid, ((x >= a) & (x <= b)).astype(float)))


#: each kind of mixture component: its density and the keys of its arguments
_KINDS = {"gaussian": (gaussian_density, ("mean", "var")),
          "indicator": (indicator_density, ("a", "b"))}


def mixture_density(grid: Grid1D, components) -> DensityField:
    """components: iterable of (weight, descriptor dict); ValueError names any other item.

    A descriptor is {"kind": "gaussian", "mean": ..., "var": ...} or
    {"kind": "indicator", "a": ..., "b": ...}.
    """
    total = np.zeros(grid.n_points)
    for item in components:
        spec = item[1] if isinstance(item, (tuple, list)) and len(item) == 2 else None
        if isinstance(spec, dict) and spec.get("kind") not in _KINDS:
            raise ValueError(f"unknown density kind {spec.get('kind')!r}")
        if not isinstance(spec, dict) or not all(key in spec for key in _KINDS[spec["kind"]][1]):
            raise ValueError(f"a mixture component is (weight, descriptor), got {item!r}")
        weight = _real(item[0])  # anything but a real number reads as NaN, refused here
        if not weight >= 0:
            raise ValueError(f"mixture weights must be nonnegative, got {weight}")
        density, keys = _KINDS[spec["kind"]]
        total += weight * density(grid, *(spec[key] for key in keys)).values
    return normalize(ScalarField(grid, total))


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
