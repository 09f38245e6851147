import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given
from scipy.special import erf

from sbridge.errors import InvalidInterval, TruncationWarning
from sbridge.grid import Grid1D, ScalarField, inner, integrate, normalize
from sbridge.kernels import _MAX_VARIANCE, TransitionKernel, heat_kernel, log_heat_propagate

from oracles import heat_matrix


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-10.0, 10.0, 401)


@pytest.fixture(scope="module")
def k01(grid):
    return heat_kernel(grid, 0.0, 1.0, 1.0)


def gaussian(grid, mean, var):
    return normalize(ScalarField(grid, np.exp(-((grid.points - mean) ** 2) / (2 * var))))


def propagate(f, variance):
    """The Wiener kernel of the given variance applied to a positive field f."""
    with np.errstate(divide="ignore"):
        log_f = np.log(f.values)
    return ScalarField(f.grid, np.exp(log_heat_propagate(f.grid, log_f, variance)))


def point_mass(grid, i):
    """Unit-mass spike at x_i: propagating it gives column i of the unfolded kernel."""
    values = np.zeros(grid.n_points)
    values[i] = 1.0 / grid.weights[i]
    return ScalarField(grid, values)


def test_heat_kernel_diagonal_value(grid, k01):
    i = grid.n_points // 2  # x_i = 0
    column = propagate(point_mass(grid, i), k01.variance).values
    assert column[i] == pytest.approx((2 * np.pi) ** -0.5, abs=1e-7)


def test_heat_kernel_symmetry_in_arguments(grid, k01):
    unfolded = np.column_stack(
        [propagate(point_mass(grid, i), k01.variance).values for i in range(grid.n_points)]
    )
    assert np.array_equal(unfolded, unfolded.T)


def test_heat_kernel_interior_row_sums(grid, k01):
    # rows with a 6-sigma margin keep all but an erf-bounded tail of their mass
    sums = propagate(ScalarField(grid, np.ones(grid.n_points)), k01.variance).values
    interior = np.abs(grid.points) <= 4.0
    tail_bound = 1.0 - erf(6.0 / np.sqrt(2.0))
    assert np.max(np.abs(sums[interior] - 1.0)) < max(1e-6, 2 * tail_bound)


def test_heat_kernel_rejects_bad_arguments(grid):
    with pytest.raises(InvalidInterval):
        heat_kernel(grid, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        heat_kernel(grid, 2.0, 1.0, 1.0)
    for s, t in [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)]:
        with pytest.raises(InvalidInterval):
            TransitionKernel(grid, s, t, 1.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            heat_kernel(grid, 0.0, 1.0, bad)
        with pytest.raises(ValueError):
            TransitionKernel(grid, 0.0, 1.0, bad)


def test_heat_kernel_builds_no_matrix():
    # the n x n float array alone would be 30.5 MB at n = 2001
    grid = Grid1D(-8.0, 8.0, 2001)
    tracemalloc.start()
    try:
        heat_kernel(grid, 0.0, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_truncation_warning_on_narrow_domain():
    narrow = Grid1D(-2.0, 2.0, 81)
    with pytest.warns(TruncationWarning):
        heat_kernel(narrow, 0.0, 1.0, 1.0)


def test_compose_matches_direct_kernel_on_bulk(grid, k01):
    # v1 then v2 equals v1 + v2, up to the domain cut of the intermediate field
    bulk = np.flatnonzero(np.abs(grid.points) <= 5.0)
    for i in bulk:
        spike = point_mass(grid, i)
        two_step = propagate(propagate(spike, 1.0), 1.0).values
        direct = propagate(spike, 2.0).values
        # folded by the source weight, as kernel entries K[., i] = p(., x_i) w_i
        err = np.max(np.abs(two_step[bulk] - direct[bulk])) * grid.weights[i]
        assert err < 1e-4


def test_compose_with_near_identity_kernel(grid, k01):
    # a near-identity second step moves the result, but only a little
    bulk = np.flatnonzero(np.abs(grid.points) <= 5.0)
    for i in bulk:
        once = propagate(point_mass(grid, i), 1.0)
        near = propagate(once, 1e-3).values
        err = np.max(np.abs(near[bulk] - once.values[bulk])) * grid.weights[i]
        assert 0 < err < 5e-3


def test_compose_preserves_interior_stochasticity(grid, k01):
    # the two-step kernel keeps its interior rows stochastic, with its own 6-sigma margin
    ones = ScalarField(grid, np.ones(grid.n_points))
    sums = propagate(propagate(ones, 1.0), 1.0).values
    interior = np.abs(grid.points) <= 10.0 - 6.0 * np.sqrt(2.0)
    assert np.max(np.abs(sums[interior] - 1.0)) < 2e-6


def test_propagate_forward_conserves_mass(grid, k01):
    rho = gaussian(grid, 0.0, 0.25)
    out = propagate(rho, k01.variance)
    assert integrate(out) == pytest.approx(1.0, abs=1e-6)


def test_propagate_forward_gaussian_convolution_oracle(grid):
    k = heat_kernel(grid, 0.0, 0.5, 1.0)
    rho = gaussian(grid, 0.0, 0.25)
    out = propagate(rho, k.variance)
    target = np.exp(-grid.points**2 / (2 * 0.75)) / np.sqrt(2 * np.pi * 0.75)
    assert np.max(np.abs(out.values - target)) < 1e-5


def test_propagate_forward_fixes_constants_in_interior(grid, k01):
    ones = ScalarField(grid, np.ones(grid.n_points))
    out = propagate(ones, k01.variance)
    interior = np.abs(grid.points) <= 4.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_propagate_backward_harmonicity_of_constants(grid, k01):
    # the backward map K^T (w g) / w of the symmetric Wiener kernel is the engine itself
    ones = ScalarField(grid, np.ones(grid.n_points))
    out = propagate(ones, k01.variance)
    interior = np.abs(grid.points) <= 4.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_backward_is_adjoint_not_inverse(grid, k01):
    rho = gaussian(grid, 1.0, 0.5)
    round_trip = propagate(propagate(rho, k01.variance), k01.variance)
    # smoothing twice, not undoing: the round trip is far from the input
    assert np.max(np.abs(round_trip.values - rho.values)) > 1e-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adjoint_duality_pairing(grid, k01, seed):
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, rng.uniform(0.0, 1.0, grid.n_points))
    g = ScalarField(grid, rng.uniform(0.0, 1.0, grid.n_points))
    lhs = inner(propagate(g, k01.variance), f)
    rhs = inner(g, propagate(f, k01.variance))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_log_propagation_matches_linear(grid, k01):
    rho = gaussian(grid, -1.0, 0.3)
    log_in = np.log(np.maximum(rho.values, 1e-300))
    out = np.exp(log_heat_propagate(grid, log_in, k01.variance))
    matrix = heat_matrix(grid, k01.variance)
    w = grid.weights
    # forward K rho and backward (adjoint) K^T (w rho) / w of the matrix oracle
    assert np.max(np.abs(out - matrix @ rho.values)) < 1e-12
    assert np.max(np.abs(out - (matrix.T @ (w * rho.values)) / w)) < 1e-12


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


@st.composite
def interior_row_cases(draw):
    n = draw(st.integers(3, 401))
    half = draw(st.floats(1.0, 20.0))
    grid = Grid1D(-half, half, n)
    # variance log-uniform from 1e-3 h^2 (far under-resolved) to a 6-sigma margin of half
    v = grid.h**2 * 10.0 ** draw(st.floats(-3.0, np.log10((half / 6.0) ** 2 / grid.h**2)))
    return grid, v


@given(interior_row_cases())
def test_interior_rows_lose_no_mass(case):
    # rows with a 6-sigma margin lose at most about 2 Phi(-6) to the domain cut,
    # and aliasing only adds mass (Poisson summation)
    grid, v = case
    margin = 6.0 * np.sqrt(v)
    interior = (grid.points >= grid.x_min + margin) & (grid.points <= grid.x_max - margin)
    assume(interior.any())
    sums = np.exp(log_heat_propagate(grid, np.zeros(grid.n_points), v))[interior]
    assert sums.min() >= 1.0 - 1e-8


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


def test_batched_rows_equal_single_variance_calls():
    # the first variance takes the exact log-sum-exp fallback rows (see the
    # test above); the others are the spans of a sigma2 = 0.01 bridge
    grid = Grid1D(-8.0, 8.0, 201)
    log_f = np.linspace(-700.0, 700.0, grid.n_points)
    variances = np.array([1e-3 * grid.h**2, 0.0025, 0.005, 0.01, 1.0])
    rows = log_heat_propagate(grid, log_f, variances)
    assert rows.shape == (variances.size, grid.n_points) and rows[0].min() < -690.0
    for row, v in zip(rows, variances):
        assert np.array_equal(row, log_heat_propagate(grid, log_f, v))
    assert log_heat_propagate(grid, log_f, variances[:0]).shape == (0, grid.n_points)
    assert np.all(log_heat_propagate(grid, np.full(grid.n_points, -np.inf), variances) == -np.inf)
    with pytest.raises(ValueError):
        log_heat_propagate(grid, log_f, [1.0, 0.0])


def test_log_heat_propagate_of_all_zero_input_is_minus_inf(grid):
    out = log_heat_propagate(grid, np.full(grid.n_points, -np.inf), 1.0)
    assert np.all(out == -np.inf)


def test_log_heat_propagate_rejects_bad_input(grid):
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            log_heat_propagate(grid, np.zeros(grid.n_points), bad)
    with pytest.raises(ValueError):
        log_heat_propagate(grid, np.zeros(grid.n_points - 1), 1.0)
    with pytest.raises(ValueError):
        log_heat_propagate(grid, np.full(grid.n_points, np.nan), 1.0)


@st.composite
def finite_propagation_cases(draw):
    n = draw(st.integers(3, 40))
    half = 10.0 ** draw(st.floats(-300.0, 150.0))
    # variance log-uniform over the whole accepted range, subnormal to _MAX_VARIANCE
    v = min(10.0 ** draw(st.floats(-323.0, np.log10(_MAX_VARIANCE))), _MAX_VARIANCE)
    log_f = draw(hnp.arrays(float, n, elements=st.floats(-1e300, 1e300)))
    return Grid1D(-half, half, n), log_f, v


@example((Grid1D(-1e150, 1e150, 40), np.linspace(-1e300, 1e300, 40), 5e-324))
@example((Grid1D(-1e-300, 1e-300, 3), np.array([1e300, -1e300, 0.0]), _MAX_VARIANCE))
@given(finite_propagation_cases())
def test_log_heat_propagate_keeps_finite_logs_finite(case):
    # the fact that keeps the bridge potentials finite at every solver step.
    # Offsets far beyond the kernel width overflow -d^2 / (2 v) to -inf, an
    # exact zero weight; the diagonal weight 1 keeps every row's sum positive
    grid, log_f, v = case
    out = log_heat_propagate(grid, log_f, v)
    assert np.all(np.isfinite(out))


def test_variance_whose_normaliser_overflows_is_refused(grid):
    # 2 pi v overflows above _MAX_VARIANCE, and -0.5 log(2 pi v) would be -inf
    zeros = np.zeros(grid.n_points)
    assert np.all(np.isfinite(log_heat_propagate(grid, zeros, _MAX_VARIANCE)))
    with pytest.raises(ValueError, match="normaliser"):
        log_heat_propagate(grid, zeros, np.nextafter(_MAX_VARIANCE, np.inf))
    with pytest.raises(ValueError, match="normaliser"):
        heat_kernel(grid, 0.0, 1.0, 1e308)
    with pytest.raises(ValueError, match="normaliser"):
        TransitionKernel(grid, 0.0, 1.0, 1e308)
