import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from scipy.special import erf

from sbridge.errors import (
    DegenerateDenominator,
    GridMismatch,
    InvalidInterval,
    TimeMismatch,
    TruncationWarning,
)
from sbridge.grid import Grid1D, ScalarField, inner, integrate, normalize
from sbridge.kernels import (
    compose,
    heat_kernel,
    log_heat_propagate,
    propagate_backward,
    propagate_forward,
    two_sided_density,
    two_sided_profile,
)


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-10.0, 10.0, 401)


@pytest.fixture(scope="module")
def k01(grid):
    return heat_kernel(grid, 0.0, 1.0, 1.0)


def gaussian(grid, mean, var):
    return normalize(ScalarField(grid, np.exp(-((grid.points - mean) ** 2) / (2 * var))))


def test_heat_kernel_diagonal_value(grid, k01):
    i = grid.index_of(0.0)
    assert k01.density(0.0, 0.0) == pytest.approx((2 * np.pi) ** -0.5, abs=1e-7)
    assert k01.matrix[i, i] == pytest.approx((2 * np.pi) ** -0.5 * grid.weights[i])


def test_heat_kernel_symmetry_in_arguments(grid, k01):
    w = grid.weights
    unfolded = k01.matrix / w[None, :]
    assert np.array_equal(unfolded, unfolded.T)


def test_heat_kernel_interior_row_sums(grid, k01):
    # rows with a 6-sigma margin keep all but an erf-bounded tail of their mass
    sums = k01.row_sums()
    interior = np.abs(grid.points) <= 4.0
    tail_bound = 1.0 - erf(6.0 / np.sqrt(2.0))
    assert np.max(np.abs(sums[interior] - 1.0)) < max(1e-6, 2 * tail_bound)


def test_heat_kernel_rejects_bad_arguments(grid):
    with pytest.raises(InvalidInterval):
        heat_kernel(grid, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        heat_kernel(grid, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel(grid, 0.0, 1.0, -1.0)


def test_truncation_warning_on_narrow_domain():
    narrow = Grid1D(-2.0, 2.0, 81)
    with pytest.warns(TruncationWarning):
        heat_kernel(narrow, 0.0, 1.0, 1.0)


def test_compose_matches_direct_kernel_on_bulk(grid, k01):
    k12 = heat_kernel(grid, 1.0, 2.0, 1.0)
    k02 = heat_kernel(grid, 0.0, 2.0, 1.0)
    composed = compose(k01, k12)
    assert composed.s == 0.0 and composed.t == 2.0
    bulk = np.abs(grid.points) <= 5.0
    err = np.max(np.abs(composed.matrix[np.ix_(bulk, bulk)]
                        - k02.matrix[np.ix_(bulk, bulk)]))
    assert err < 1e-4


def test_compose_with_near_identity_kernel(grid, k01):
    eps = 1e-3
    tail = heat_kernel(grid, 1.0, 1.0 + eps, 1.0)
    perturbed = compose(k01, tail)
    bulk = np.abs(grid.points) <= 5.0
    err = np.max(np.abs(perturbed.matrix[np.ix_(bulk, bulk)]
                        - k01.matrix[np.ix_(bulk, bulk)]))
    assert 0 < err < 5e-3


def test_compose_preserves_interior_stochasticity(grid, k01):
    k12 = heat_kernel(grid, 1.0, 2.0, 1.0)
    composed = compose(k01, k12)
    sums = composed.row_sums()
    # interior margin of the composed kernel itself: 6 sigma sqrt(u - s)
    interior = np.abs(grid.points) <= 10.0 - 6.0 * np.sqrt(composed.t - composed.s)
    assert np.max(np.abs(sums[interior] - 1.0)) < 2e-6


def test_compose_validates_times_and_grids(grid, k01):
    with pytest.raises(TimeMismatch):
        compose(k01, heat_kernel(grid, 1.5, 2.0, 1.0))
    other = Grid1D(-10.0, 10.0, 201)
    with pytest.raises(GridMismatch):
        compose(k01, heat_kernel(other, 1.0, 2.0, 1.0))


def test_propagate_forward_conserves_mass(grid, k01):
    rho = gaussian(grid, 0.0, 0.25)
    out = propagate_forward(k01, rho)
    assert integrate(out) == pytest.approx(1.0, abs=1e-6)


def test_propagate_forward_gaussian_convolution_oracle(grid):
    k = heat_kernel(grid, 0.0, 0.5, 1.0)
    rho = gaussian(grid, 0.0, 0.25)
    out = propagate_forward(k, rho)
    target = np.exp(-grid.points**2 / (2 * 0.75)) / np.sqrt(2 * np.pi * 0.75)
    assert np.max(np.abs(out.values - target)) < 1e-5


def test_propagate_forward_fixes_constants_in_interior(grid, k01):
    ones = ScalarField(grid, np.ones(grid.n_points))
    out = propagate_forward(k01, ones)
    interior = np.abs(grid.points) <= 4.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_propagate_backward_harmonicity_of_constants(grid, k01):
    ones = ScalarField(grid, np.ones(grid.n_points))
    out = propagate_backward(k01, ones)
    interior = np.abs(grid.points) <= 4.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_backward_is_adjoint_not_inverse(grid, k01):
    rho = gaussian(grid, 1.0, 0.5)
    round_trip = propagate_backward(k01, propagate_forward(k01, rho))
    # smoothing twice, not undoing: the round trip is far from the input
    assert np.max(np.abs(round_trip.values - rho.values)) > 1e-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adjoint_duality_pairing(grid, k01, seed):
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, rng.uniform(0.0, 1.0, grid.n_points))
    g = ScalarField(grid, rng.uniform(0.0, 1.0, grid.n_points))
    lhs = inner(propagate_backward(k01, g), f)
    rhs = inner(g, propagate_forward(k01, f))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_log_propagation_matches_linear(grid, k01):
    rho = gaussian(grid, -1.0, 0.3)
    log_in = np.log(np.maximum(rho.values, 1e-300))
    out = np.exp(log_heat_propagate(grid, log_in, k01.variance))
    assert np.max(np.abs(out - propagate_forward(k01, rho).values)) < 1e-12
    assert np.max(np.abs(out - propagate_backward(k01, rho).values)) < 1e-12


def test_two_sided_profile_is_conditional_density(grid, k01):
    k12 = heat_kernel(grid, 1.0, 2.0, 1.0)
    for x, z in [(0.0, 0.0), (-1.0, 2.0), (3.0, -2.0)]:
        q = two_sided_profile(k01, k12, x, z)
        assert abs(np.dot(grid.weights, q) - 1.0) < 1e-5


def test_two_sided_brownian_bridge_moments(grid):
    k_first = heat_kernel(grid, 0.0, 0.5, 1.0)
    k_second = heat_kernel(grid, 0.5, 1.0, 1.0)
    q = two_sided_profile(k_first, k_second, 0.0, 0.0)
    mean = np.dot(grid.weights, grid.points * q)
    var = np.dot(grid.weights, grid.points**2 * q)
    assert abs(mean) < 1e-8
    assert var == pytest.approx(0.25, abs=1e-4)  # t (u - t) / (u - s)


def test_two_sided_density_single_point(grid):
    k_first = heat_kernel(grid, 0.0, 0.5, 1.0)
    k_second = heat_kernel(grid, 0.5, 1.0, 1.0)
    q0 = two_sided_density(k_first, k_second, 0.0, 0.0, 0.0)
    # pinned bridge at midpoint: N(0, 0.25) at its mode
    assert q0 == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.25), rel=1e-4)


def test_two_sided_degenerate_denominator(grid):
    k_first = heat_kernel(grid, 0.0, 1e-4, 1.0)
    k_second = heat_kernel(grid, 1e-4, 2e-4, 1.0)
    with pytest.raises(DegenerateDenominator):
        two_sided_profile(k_first, k_second, -10.0, 10.0)


def test_truncation_warning_on_under_resolved_kernel():
    # sqrt(sigma2 dt) = 0.022 is below h = 0.04: rows sum to about 1.0042
    grid = Grid1D(-8.0, 8.0, 401)
    with pytest.warns(TruncationWarning, match="under-resolved"):
        heat_kernel(grid, 0.0, 0.01, 0.05)


def test_resolved_kernel_is_silent(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        heat_kernel(grid, 0.0, 1.0, 1.0)


def brute_log_propagate(grid, log_f, variance):
    """Max-shifted log-sum-exp over the analytic log kernel, one n x n array."""
    idx = np.arange(grid.n_points)
    d = np.subtract.outer(idx, idx) * grid.h
    terms = (-(d**2) / (2.0 * variance) - 0.5 * np.log(2.0 * np.pi * variance)
             + np.log(grid.weights) + log_f)
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


@st.composite
def propagation_cases(draw):
    n = draw(st.integers(3, 301))
    grid = Grid1D(-8.0, 8.0, n)
    # variance log-uniform from 1e-3 h^2 (far under-resolved) to 100
    v = grid.h**2 * 10.0 ** draw(st.floats(-3.0, np.log10(100.0 / grid.h**2)))
    log_f = draw(hnp.arrays(float, n, elements=st.floats(-700.0, 700.0)))
    return grid, log_f, v


@given(propagation_cases())
def test_log_heat_propagate_matches_brute_force(case):
    grid, log_f, v = case
    ref = brute_log_propagate(grid, log_f, v)
    out = log_heat_propagate(grid, log_f, v)
    assert np.all(np.abs(out - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_heat_propagate_underflowing_rows_are_exact():
    # a 1400 spread in log f with a near-diagonal kernel: the linear sums of
    # the low rows are exactly 0 and only the log-domain rows are finite
    grid = Grid1D(-8.0, 8.0, 201)
    log_f = np.linspace(-700.0, 700.0, grid.n_points)
    v = 1e-3 * grid.h**2
    out = log_heat_propagate(grid, log_f, v)
    ref = brute_log_propagate(grid, log_f, v)
    assert np.all(np.isfinite(out)) and out.min() < -690.0
    assert np.max(np.abs(out - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


def test_log_heat_propagate_of_all_zero_input_is_minus_inf(grid):
    out = log_heat_propagate(grid, np.full(grid.n_points, -np.inf), 1.0)
    assert np.all(out == -np.inf)


def test_log_heat_propagate_rejects_bad_input(grid):
    with pytest.raises(ValueError):
        log_heat_propagate(grid, np.zeros(grid.n_points), 0.0)
    with pytest.raises(ValueError):
        log_heat_propagate(grid, np.zeros(grid.n_points - 1), 1.0)
    with pytest.raises(ValueError):
        log_heat_propagate(grid, np.full(grid.n_points, np.nan), 1.0)
