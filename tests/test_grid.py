import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from scipy.special import erf

from sbridge import gaussian_density
from sbridge.errors import GridMismatch, NonPositiveMass, SupportViolation
from sbridge.grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    _log_gradient_values,
    integrate,
    kl_divergence,
    l1_distance,
    normalize,
    require_same_grid,
)

from oracles import gaussian_kl


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


def test_field_repr_names_the_type_size_and_value_range():
    g = Grid1D(0.0, 1.0, 5)
    assert repr(ScalarField(g, [0.5, 1.0, 2.0, 3.0, -1.25])) == "ScalarField(n=5, range=[-1.25, 3])"
    # complex values order by real part, then imaginary part
    psi = ComplexField(g, [0.5, 1j, -0.25 + 0.5j, 2.0, 0.0])
    assert repr(psi) == "ComplexField(n=5, range=[-0.25+0.5j, 2+0j])"


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


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-10.0, 10.0, 801)


def test_kl_identical_is_exactly_zero(grid):
    p = gaussian_density(grid, 0.3, 0.7)
    assert kl_divergence(p, p) == 0.0


def test_kl_two_cell_oracle():
    # two unit cells with p = (0.5, 0.5), q = (0.25, 0.75):
    # 0.5 ln 2 + 0.5 ln(2/3), quadrature converges to it as the jump sharpens
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    g = Grid1D(0.0, 2.0, 2001)
    left = g.points <= 1.0
    p = normalize(ScalarField(g, np.where(left, 0.5, 0.5)))
    q = normalize(ScalarField(g, np.where(left, 0.25, 0.75)))
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(0.143841, abs=1e-6)


def test_kl_gaussian_closed_form(grid):
    p = gaussian_density(grid, 0.0, 1.0)
    q = gaussian_density(grid, 0.0, 2.0)
    assert kl_divergence(p, q) == pytest.approx(gaussian_kl(1.0, 2.0), abs=1e-6)
    assert gaussian_kl(1.0, 2.0) == pytest.approx(0.096574, abs=1e-6)


def test_kl_support_violation(grid):
    p = gaussian_density(grid, 0.0, 1.0)
    chi = (np.abs(grid.points) <= 2.0).astype(float)
    q = normalize(ScalarField(grid, chi))
    with pytest.raises(SupportViolation):
        kl_divergence(p, q)


@st.composite
def tailed_pairs(draw):
    # q = N(0, 1/2) drops below 1e-30 of its peak at |x| > 8.3 but stays positive
    grid = Grid1D(-10.0, 10.0, 401)
    q = gaussian_density(grid, 0.0, 0.5)
    p = gaussian_density(grid, draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 0.25)))
    far = np.abs(grid.points) >= 8.0
    shape = draw(hnp.arrays(float, int(far.sum()), elements=st.floats(1e-6, 1.0)))
    tail = np.zeros(grid.n_points)
    tail[far] = shape / np.dot(grid.weights[far], shape) * draw(st.floats(0.0, 1e-20))
    return p, DensityField(grid, p.values + tail), q


@given(tailed_pairs())
def test_kl_ignores_a_negligible_tail_over_tiny_q(case):
    p, p_tailed, q = case
    kl = kl_divergence(p_tailed, q)
    assert np.isfinite(kl) and kl >= 0.0
    assert abs(kl - kl_divergence(p, q)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kl_nonnegative_random_pairs(grid, seed):
    rng = np.random.default_rng(seed)
    p = normalize(ScalarField(grid, rng.uniform(0.05, 1.0, grid.n_points)))
    q = normalize(ScalarField(grid, rng.uniform(0.05, 1.0, grid.n_points)))
    assert kl_divergence(p, q) >= 0.0
    assert kl_divergence(p, p) == 0.0
