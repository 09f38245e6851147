"""Uniform 1-D grids, real and complex fields, trapezoid quadrature, finite differences.

Every other module builds on the types here. Fields are immutable after
construction and carry their grid with them; mixing grids raises GridMismatch
instead of resampling silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryMassWarning, GridMismatch, NonPositiveMass

#: relative magnitude below which a field value counts as negligible at the walls
BOUNDARY_NEGLIGIBLE = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_i = x_min + i*h with trapezoid quadrature weights."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")

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

    def index_of(self, x: float) -> int:
        """Index of the grid point equal to x; raises if x is off-grid."""
        i = int(round((x - self.x_min) / self.h))
        if i < 0 or i >= self.n_points or abs(self.points[i] - x) > 1e-9 * self.h:
            raise ValueError(f"{x} is not a grid point of {self}")
        return i


class ScalarField:
    """Real-valued samples on a grid."""

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=float)
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


class ComplexField:
    """Complex-valued samples on a grid."""

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=complex)
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
        return f"ComplexField(n={self.grid.n_points})"


def require_same_grid(*objs):
    """Raise GridMismatch unless all arguments share one grid (by value)."""
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid != g0:
            raise GridMismatch(f"grids differ: {g0} vs {o.grid}")
    return g0


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
    # np.gradient: central differences inside, second-order one-sided at the ends
    return np.gradient(values, h, edge_order=2)


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


def log_gradient(f: ScalarField, floor: float = 0.0) -> ScalarField:
    """Derivative of log f, i.e. the score f'/f realized as d/dx log f.

    Values are floored before the log so tails cannot produce -inf; the
    realization through log makes the result exact for Gaussian-shaped
    fields (quadratic log), which the analytic oracles rely on.
    """
    v = np.maximum(f.values, max(floor, np.finfo(float).tiny))
    return ScalarField(f.grid, _gradient_values(np.log(v), f.grid.h))


def boundary_fraction(f) -> float:
    """Largest wall magnitude relative to the field's peak magnitude."""
    mags = np.abs(f.values)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    return float(max(mags[0], mags[-1]) / peak)


def check_boundary_mass(f, rel_tol: float = BOUNDARY_NEGLIGIBLE, what: str = "field"):
    """Warn when a field is not negligible at the domain walls.

    The endpoint derivative stencils only stay irrelevant when the domain is
    wide enough that fields vanish there; this is the monitor for that premise.
    """
    frac = boundary_fraction(f)
    if frac > rel_tol:
        warnings.warn(
            f"{what} carries relative magnitude {frac:.2e} at the domain walls "
            f"(tolerance {rel_tol:.1e}); widen the domain",
            BoundaryMassWarning,
            stacklevel=2,
        )


def l1_distance(f, g) -> float:
    """Quadrature L1 distance between two fields."""
    require_same_grid(f, g)
    return float(np.dot(f.grid.weights, np.abs(f.values - g.values)))


def sup_distance(f, g) -> float:
    require_same_grid(f, g)
    return float(np.max(np.abs(f.values - g.values)))


# ---------------------------------------------------------------------------
# CSV serialization: two columns "x,value" for real fields, three columns
# "x,re,im" for complex ones, full double precision.

FLOAT_FMT = "%.17g"


def write_field_csv(path, f) -> None:
    x = f.grid.points
    with open(path, "w") as fh:
        if np.iscomplexobj(f.values):
            fh.write("x,re,im\n")
            for xi, vi in zip(x, f.values):
                fh.write(
                    f"{FLOAT_FMT % xi},{FLOAT_FMT % vi.real},{FLOAT_FMT % vi.imag}\n"
                )
        else:
            fh.write("x,value\n")
            for xi, vi in zip(x, f.values):
                fh.write(f"{FLOAT_FMT % xi},{FLOAT_FMT % vi}\n")


def _read_columns(path, expected_header):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header!r}, got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    x = data[:, 0]
    if x.shape[0] < 3:
        raise ValueError(f"{path}: need at least 3 rows")
    h = np.diff(x)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0):
        raise ValueError(f"{path}: grid spacing is not uniform")
    grid = Grid1D(float(x[0]), float(x[-1]), x.shape[0])
    return grid, data


def read_scalar_field(path) -> ScalarField:
    grid, data = _read_columns(path, "x,value")
    return ScalarField(grid, data[:, 1])


def read_complex_field(path) -> ComplexField:
    grid, data = _read_columns(path, "x,re,im")
    return ComplexField(grid, data[:, 1] + 1j * data[:, 2])
