import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sbridge.bridge import half_bridge
from sbridge.errors import InfiniteEntropy, SupportViolation
from sbridge.families import gaussian_density
from sbridge.grid import DensityField, Grid1D, ScalarField, kl_divergence, normalize
from sbridge.sde import (
    GridDrift,
    PathEnsemble,
    path_entropy_backward,
    path_entropy_forward,
    sample_backward,
    sample_forward,
)


def gaussian_kl(var1, var2):
    """Closed form for centered Gaussians: (v1/v2 + ln(v2/v1) - 1) / 2."""
    return 0.5 * (var1 / var2 + np.log(var2 / var1) - 1.0)


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


def test_equal_laws_give_zero_total(grid):
    rho = gaussian_density(grid, 0.0, 0.5)
    beta = lambda x, t: -x
    times = np.linspace(0.0, 1.0, 501)
    ens = sample_forward(beta, rho, 1.0, times, 5000, seed=5)
    fwd = path_entropy_forward(rho, rho, beta, beta, ens, 1.0)
    assert fwd.static_term == 0.0
    assert abs(fwd.total) <= 3.0 * fwd.mc_std_error + 1e-12
    gamma = lambda x, t: x  # stationary backward drift
    bwd = path_entropy_backward(rho, rho, gamma, gamma, ens, 1.0)
    assert abs(bwd.total) <= 3.0 * bwd.mc_std_error + 1e-12


def test_constant_drift_mismatch_kinetic_value(grid):
    rho = gaussian_density(grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 201)
    ens = sample_forward(lambda x, t: np.ones_like(x), rho, 1.0, times, 2000, seed=6)
    rep = path_entropy_forward(
        rho, rho, lambda x, t: np.ones_like(x), lambda x, t: np.zeros_like(x), ens, 1.0
    )
    # deterministic integrand: kinetic = c^2 T / (2 sigma^2) with zero noise
    assert rep.kinetic_term == pytest.approx(0.5, abs=1e-12)
    assert rep.mc_std_error == pytest.approx(0.0, abs=1e-15)
    assert rep.total == rep.static_term + rep.kinetic_term


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_path_entropy_rejects_non_positive_or_non_finite_sigma2(grid, bad):
    rho = gaussian_density(grid, 0.0, 1.0)
    zero = lambda x, t: np.zeros_like(x)
    ens = sample_forward(zero, rho, 1.0, np.linspace(0.0, 1.0, 11), 10, seed=8)
    with pytest.raises(ValueError):
        path_entropy_forward(rho, rho, zero, zero, ens, bad)
    with pytest.raises(ValueError):
        path_entropy_backward(rho, rho, zero, zero, ens, bad)


def test_path_entropy_refuses_a_sigma2_other_than_the_ensembles(grid):
    rho = gaussian_density(grid, 0.0, 1.0)
    zero = lambda x, t: np.zeros_like(x)
    one = lambda x, t: np.ones_like(x)
    ens = sample_forward(zero, rho, 1.0, np.linspace(0.0, 1.0, 11), 10, seed=8)
    # scored at 4 instead of 1, the kinetic term would read 1/8 instead of 1/2
    with pytest.raises(ValueError, match="ensemble"):
        path_entropy_forward(rho, rho, one, zero, ens, 4.0)
    with pytest.raises(ValueError, match="ensemble"):
        path_entropy_backward(rho, rho, one, zero, ens, 4.0)
    assert path_entropy_forward(rho, rho, one, zero, ens, 1.0).kinetic_term == pytest.approx(0.5)


@pytest.mark.parametrize("same_grid", [True, False])
def test_drift_tables_score_as_plain_callables_do(grid, same_grid):
    # two tables on one grid share each row's cell; on two grids each finds
    # its own: either way the totals and the lookup counters are those of the
    # same tables called one at a time
    rng = np.random.default_rng(43)
    times = np.linspace(0.0, 1.0, 21)
    grid_p = grid if same_grid else Grid1D(-6.0, 6.0, 301)
    values_q = rng.standard_normal((21, grid.n_points))
    values_p = rng.standard_normal((21, grid_p.n_points))

    def tables():
        return (GridDrift(times, [ScalarField(grid, v) for v in values_q]),
                GridDrift(times, [ScalarField(grid_p, v) for v in values_p]))

    # about 3 % of the positions lie beyond x = +-10, more beyond +-6
    ens = PathEnsemble(times, 4.5 * rng.standard_normal((400, 21)), 1.0, 0, "forward")
    q, p = gaussian_density(grid, 0.0, 1.0), gaussian_density(grid, 0.3, 1.2)
    read, called = tables(), tables()
    plain = [lambda x, t, d=d: d(x, t) for d in called]
    for entropy in (path_entropy_forward, path_entropy_backward):
        assert entropy(q, p, *read, ens, 1.0) == entropy(q, p, *plain, ens, 1.0)
    counts = [(d.n_eval, d.n_clamped) for d in read]
    assert counts == [(d.n_eval, d.n_clamped) for d in called]
    assert counts[0][0] == 2 * 20 * 400 and counts[0][1] > 0


def test_kinetic_scales_inversely_with_sigma2(grid):
    rho = gaussian_density(grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 201)
    kinetics = {}
    for sigma2 in (0.5, 1.0, 2.0):
        ens = sample_forward(lambda x, t: np.zeros_like(x), rho, sigma2, times,
                             2000, seed=7)  # common random numbers
        rep = path_entropy_forward(
            rho, rho, lambda x, t: np.ones_like(x), lambda x, t: np.zeros_like(x),
            ens, sigma2,
        )
        kinetics[sigma2] = rep.kinetic_term
    assert kinetics[0.5] / kinetics[1.0] == pytest.approx(2.0, rel=1e-10)
    assert kinetics[2.0] / kinetics[1.0] == pytest.approx(0.5, rel=1e-10)


def test_forward_backward_totals_agree_ou_vs_brownian(grid):
    # Q: stationary OU (beta = -x, var 1/2); P: Brownian from N(0, 1)
    q0 = gaussian_density(grid, 0.0, 0.5)
    p0 = gaussian_density(grid, 0.0, 1.0)
    p1 = gaussian_density(grid, 0.0, 2.0)
    beta_q = lambda x, t: -x
    beta_p = lambda x, t: np.zeros_like(x)
    gamma_q = lambda x, t: x
    gamma_p = lambda x, t: x / (1.0 + t)

    times = np.linspace(0.0, 1.0, 1001)
    ens = sample_forward(beta_q, q0, 1.0, times, 20000, seed=8)
    fwd = path_entropy_forward(q0, p0, beta_q, beta_p, ens, 1.0)
    bwd = path_entropy_backward(q0, p1, gamma_q, gamma_p, ens, 1.0)

    analytic = gaussian_kl(0.5, 1.0) + 0.25  # static + stationary kinetic
    assert fwd.total == pytest.approx(analytic, abs=3 * fwd.mc_std_error + 2e-3)
    assert abs(fwd.total - bwd.total) <= 3.0 * (fwd.mc_std_error + bwd.mc_std_error) + 2e-3
    assert fwd.kinetic_term >= -fwd.mc_std_error
    assert bwd.kinetic_term >= -bwd.mc_std_error


def test_half_bridge_girsanov_cross_check(grid):
    # prior: Brownian from N(0,1) on [0,1]; observed terminal density N(0,1)
    rho1 = gaussian_density(grid, 0.0, 1.0)
    prior_t1 = gaussian_density(grid, 0.0, 2.0)
    gamma_p = lambda x, t: x / (1.0 + t)

    times = np.linspace(0.0, 1.0, 1001)
    ens = sample_backward(gamma_p, rho1, 1.0, times, 20000, seed=9)

    bwd = path_entropy_backward(rho1, prior_t1, gamma_p, gamma_p, ens, 1.0)
    assert bwd.kinetic_term == 0.0  # identical backward drifts
    assert bwd.mc_std_error == 0.0
    assert bwd.total == pytest.approx(gaussian_kl(1.0, 2.0), abs=1e-6)

    # forward split of the same law: q(0) = N(0, 3/4), beta_q = -x / (3 - t)
    q0 = gaussian_density(grid, 0.0, 0.75)
    p0 = gaussian_density(grid, 0.0, 1.0)
    beta_q = lambda x, t: -x / (3.0 - t)
    beta_p = lambda x, t: np.zeros_like(x)
    fwd = path_entropy_forward(q0, p0, beta_q, beta_p, ens, 1.0)
    assert fwd.total == pytest.approx(gaussian_kl(1.0, 2.0), rel=0.05)


def test_report_serialization(grid):
    rho = gaussian_density(grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_forward(lambda x, t: np.zeros_like(x), rho, 1.0, times, 100, seed=10)
    rep = path_entropy_forward(
        rho, rho, lambda x, t: np.zeros_like(x), lambda x, t: np.zeros_like(x), ens, 1.0
    )
    import json

    blob = json.loads(rep.to_json())
    assert set(blob) == {"static_term", "kinetic_term", "total", "direction", "mc_std_error"}
    assert blob["direction"] == "forward"
    assert blob["total"] == blob["static_term"] + blob["kinetic_term"]


def _zero(x, t):
    return np.zeros_like(x)


def _overflowing_pair():
    """A point mass against a spread density on a 5-point grid of spacing 2.5e-307.

    The point mass reads 8e306 at the wall, where log(p/q) = 48: p log(p/q)
    overflows although both densities clear the floor there.
    """
    tiny = Grid1D(0.0, 1e-306, 5)
    point = normalize(ScalarField(tiny, [1.0, 0.0, 0.0, 0.0, 0.0]))
    spread = normalize(ScalarField(tiny, np.exp(-12.0 * np.arange(5.0))[::-1]))
    return point, spread


@pytest.mark.parametrize("call", [
    pytest.param(lambda p, q, fwd, bwd: kl_divergence(p, q), id="kl_divergence"),
    pytest.param(lambda p, q, fwd, bwd: path_entropy_forward(p, q, _zero, _zero, fwd, 1.0),
                 id="path_entropy_forward"),
    pytest.param(lambda p, q, fwd, bwd: path_entropy_backward(p, q, _zero, _zero, bwd, 1.0),
                 id="path_entropy_backward"),
    pytest.param(lambda p, q, fwd, bwd: half_bridge(q, _zero, p, 0.0, 1.0, 1.0), id="half_bridge"),
])
def test_overflowing_divergence_raises_infinite_entropy(call):
    point, spread = _overflowing_pair()
    times = np.linspace(0.0, 1.0, 3)
    fwd = sample_forward(_zero, point, 1.0, times, 10, seed=1)
    bwd = sample_backward(_zero, point, 1.0, times, 10, seed=1)
    # the overflow gives the typed error, not a numpy warning
    with pytest.raises(InfiniteEntropy):
        call(point, spread, fwd, bwd)
