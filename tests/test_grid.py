import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from scipy.special import erf

from sbridge.errors import GridMismatch, NonPositiveMass
from sbridge.grid import (
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    _laplacian_values,
    _log_gradient_values,
    integrate,
    l1_distance,
    normalize,
    require_same_grid,
)
from sbridge.sde import GridDrift


def test_grid_basic_invariants():
    g = Grid1D(-2.0, 3.0, 11)
    assert g.h == pytest.approx(0.5)
    assert np.all(np.diff(g.points) > 0)
    assert g.weights[0] == g.weights[-1] == g.h / 2
    assert np.all(g.weights[1:-1] == g.h)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 5)
    for lo, hi in [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)]:
        with pytest.raises(ValueError):
            Grid1D(lo, hi, 11)


@pytest.mark.parametrize("x_max", [5e-324, 1e-323])
def test_grid_whose_end_weight_underflows_is_refused(x_max):
    # h = 0 at 5e-324; at 1e-323, h is the smallest subnormal and h / 2 is 0,
    # so the log-domain propagation would read log(0) = -inf at the walls
    with pytest.raises(ValueError, match="end weight"):
        Grid1D(0.0, x_max, 3)


def test_integrate_constant_exact():
    g = Grid1D(0.0, 1.0, 17)
    assert integrate(ScalarField(g, np.ones(17))) == pytest.approx(1.0, abs=0)


def test_integrate_linear_exact():
    g = Grid1D(0.0, 1.0, 101)
    f = ScalarField(g, g.points)
    assert integrate(f) == pytest.approx(0.5, abs=1e-12)


def test_integrate_standard_normal_erf_oracle():
    g = Grid1D(-8.0, 8.0, 401)
    f = ScalarField(g, np.exp(-g.points**2 / 2) / np.sqrt(2 * np.pi))
    expected = erf(8.0 / np.sqrt(2.0))  # mass actually inside [-8, 8]
    assert integrate(f) == pytest.approx(expected, abs=1e-6)


def test_gradient_constant_zero():
    g = Grid1D(-1.0, 1.0, 33)
    df = _gradient_values(np.full(33, 4.7), g.h)
    assert np.all(df[1:-1] == 0)
    # endpoint stencils combine three equal values; roundoff only
    assert np.max(np.abs(df)) < 1e-13


def test_gradient_exact_on_quadratics():
    g = Grid1D(-1.0, 1.0, 41)
    df = _gradient_values(g.points**2, g.h)
    assert np.max(np.abs(df[1:-1] - 2 * g.points[1:-1])) < 1e-10
    # one-sided second-order endpoints are exact on quadratics too
    assert abs(df[0] + 2.0) < 1e-10 and abs(df[-1] - 2.0) < 1e-10


def test_gradient_second_order_richardson():
    def interior_err(n):
        g = Grid1D(0.0, np.pi, n)
        df = _gradient_values(np.sin(g.points), g.h)
        return np.max(np.abs(df[1:-1] - np.cos(g.points[1:-1])))

    ratio = interior_err(101) / interior_err(201)
    assert 3.5 < ratio < 4.5


def test_laplacian_exact_on_quadratics_and_constants():
    g = Grid1D(-1.0, 1.0, 41)
    lap = _laplacian_values(g.points**2, g.h)
    assert np.max(np.abs(lap - 2.0)) < 1e-9
    assert np.all(_laplacian_values(np.full(41, 3.0), g.h) == 0)
    # on 3 points the ends take the one inner value, still exact on a quadratic
    g3 = Grid1D(-1.0, 1.0, 3)
    assert np.max(np.abs(_laplacian_values(g3.points**2, g3.h) - 2.0)) < 1e-9


def test_laplacian_second_order_on_sin():
    def err(n):
        g = Grid1D(0.0, np.pi, n)
        lap = _laplacian_values(np.sin(g.points), g.h)
        return np.max(np.abs(lap[1:-1] + np.sin(g.points[1:-1])))

    ratio = err(101) / err(201)
    assert 3.5 < ratio < 4.5


def test_normalize_constant():
    g = Grid1D(0.0, 1.0, 21)
    d = normalize(ScalarField(g, np.full(21, 2.0)))
    assert np.allclose(d.values, 1.0)


def test_normalize_idempotent():
    g = Grid1D(-3.0, 3.0, 121)
    d = normalize(ScalarField(g, np.exp(-g.points**2)))
    d2 = normalize(d)
    assert np.max(np.abs(d2.values - d.values)) < 1e-12


def test_normalize_indicator_hand_quadrature():
    g = Grid1D(0.0, 1.0, 201)
    chi = (g.points <= 0.5).astype(float)
    # trapezoid mass of the indicator by hand: h/2 + 99 h + h = 100.5 h
    mass = 100.5 * g.h
    d = normalize(ScalarField(g, chi))
    assert d.values[0] == pytest.approx(1.0 / mass, rel=1e-12)
    assert d.values[0] == pytest.approx(2.0, rel=1e-2)


def test_normalize_rejects_bad_mass():
    g = Grid1D(0.0, 1.0, 11)
    with pytest.raises(NonPositiveMass):
        normalize(ScalarField(g, np.zeros(11)))
    values = np.ones(11)
    values[3] = -0.5
    with pytest.raises(NonPositiveMass):
        normalize(ScalarField(g, values))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalized_mass_property(seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(-5.0, 5.0, 201)
    f = ScalarField(g, rng.uniform(0.1, 3.0, size=201))
    assert abs(integrate(normalize(f)) - 1.0) < 1e-10


@pytest.mark.parametrize("seed", [3, 4])
def test_gradient_laplacian_linearity(seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(-2.0, 2.0, 101)
    f = rng.standard_normal(101)
    h = rng.standard_normal(101)
    a, b = 1.7, -0.3
    combo = a * f + b * h
    for op in (_gradient_values, _laplacian_values):
        lhs = op(combo, g.h)
        rhs = a * op(f, g.h) + b * op(h, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1, np.max(np.abs(rhs)))


def test_gradient_of_even_field_is_odd():
    g = Grid1D(-4.0, 4.0, 161)
    f = np.cosh(np.cos(g.points)) * np.exp(-g.points**2)
    df = _gradient_values(f, g.h)
    assert np.max(np.abs(df + df[::-1])) < 1e-10


def test_log_gradient_exact_on_gaussian():
    g = Grid1D(-6.0, 6.0, 241)
    rho = normalize(ScalarField(g, np.exp(-g.points**2 / 0.8)))
    score = _log_gradient_values(rho.values, g.h)
    assert np.max(np.abs(score + 2 * g.points / 0.8)) < 1e-9


def test_grid_mismatch_is_hard_error():
    g1 = Grid1D(0.0, 1.0, 11)
    g2 = Grid1D(0.0, 1.0, 21)
    with pytest.raises(GridMismatch):
        require_same_grid(ScalarField(g1, np.ones(11)), ScalarField(g2, np.ones(21)))
    g = Grid1D(-8.0, 8.0, 101)
    tight = ScalarField(g, np.exp(-g.points**2))
    assert l1_distance(tight, tight) == 0.0


def test_fields_are_immutable():
    g = Grid1D(0.0, 1.0, 11)
    f = ScalarField(g, np.ones(11))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_density_field_checks():
    g = Grid1D(0.0, 1.0, 11)
    with pytest.raises(NonPositiveMass):
        DensityField(g, np.full(11, -1.0))
    with pytest.raises(NonPositiveMass):
        DensityField(g, np.full(11, 3.0))  # mass 3, not 1
    DensityField(g, np.full(11, 3.0), mass_tol=None)  # diagnostic escape hatch


@st.composite
def interp_cases(draw):
    n = draw(st.integers(3, 2001))
    x_min = draw(st.floats(-100.0, 100.0))
    width = draw(st.floats(1e-3, 200.0))
    grid = Grid1D(x_min, x_min + width, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.floats(1e-6, 1e6)) * rng.standard_normal(n)
    beyond = width * 10.0 ** rng.uniform(-12.0, 2.0, 20)
    x = np.concatenate([
        grid.x_min + width * rng.random(200),  # inside, in random order
        grid.x_min - beyond,
        grid.x_max + beyond,
        grid.points[rng.integers(0, n, 50)],  # exactly on nodes
        [grid.x_min, grid.x_max],
    ])
    return grid, values, x


def _read_row(grid, values, x):
    # one stored time: the public reader of a table row, its cell step then its lerp step
    return GridDrift([0.0], [ScalarField(grid, values)])(x, 0.0)


@given(interp_cases())
def test_grid_drift_matches_np_interp(case):
    grid, values, x = case
    ref = np.interp(x, grid.points, values)
    out = _read_row(grid, values, x)
    assert np.all(np.abs(out - ref) <= 1e-12 * np.max(np.abs(values)))
    assert out[-1] == values[-1] and out[-2] == values[0]


def test_grid_drift_nan_gives_nan_without_warning():
    g = Grid1D(-1.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _read_row(g, g.points**2, np.array([np.nan, 0.5, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == 0.25


def test_grid_drift_scalar_and_integer_input():
    g = Grid1D(-1.0, 1.0, 5)
    for x in (0.3, np.float64(-2.0), np.asarray(0.7), 1, np.array([0, 1, -3])):
        assert np.array_equal(_read_row(g, g.points**2, x), np.interp(x, g.points, g.points**2))
