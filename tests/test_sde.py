import hashlib
import warnings

import numpy as np
import pytest

from sbridge.errors import (
    DriftBlowup,
    EmptyEnsemble,
    ExcessiveClamping,
    TimeNotStored,
)
from sbridge.families import gaussian_density, gaussian_packet
from sbridge.grid import Grid1D, ScalarField, integrate, l1_distance
from sbridge.quantum import QuantumModel, evolve
from sbridge.sde import (
    GridDrift,
    PathEnsemble,
    duality_check,
    empirical_density,
    empirical_energy,
    generator_check,
    path_integral,
    sample_backward,
    sample_forward,
)

ZERO = lambda x, t: np.zeros_like(x)

#: time grids every constructor and sampler refuses: 2-D, decreasing, repeated
BAD_TIMES = (np.array([[0.0, 0.5, 1.0]]), np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-10.0, 10.0, 401)


def point_start(grid, eps=1e-6):
    return gaussian_density(grid, 0.0, eps)


#: SHA-256 of positions.tobytes() for 20000 paths (two Philox blocks) x 21
#: times, seed 2024; recorded while ensembles were still stored path-major
GOLDEN = {
    ("zero", "forward"): "f469fdbe1f6a24a4a6d71b5b1b4a53ff95c011e1500a181d3354cfb1c57689e0",
    ("zero", "backward"): "296154f01ce36700a032447704a1a2f77bb7d471ee014b8e14a998bd5216057f",
    ("ou", "forward"): "ef97dd9f4121388b7d953f95421d994e821362fb824c53cc9afd56b7d1400c1a",
    ("ou", "backward"): "a8f469debfee46b974749aa22ea4f51b1ff9fc43582ec927f0a475af5a2bee14",
}


@pytest.mark.parametrize("drift_name,direction", sorted(GOLDEN))
def test_golden_ensemble_hash(grid, drift_name, direction):
    drift = {"zero": ZERO, "ou": lambda x, t: -x}[drift_name]
    sample = {"forward": sample_forward, "backward": sample_backward}[direction]
    ens = sample(drift, gaussian_density(grid, 0.0, 0.5), 1.0,
                 np.linspace(0.0, 1.0, 21), 20000, 2024)
    digest = hashlib.sha256(ens.positions.tobytes()).hexdigest()
    assert digest == GOLDEN[drift_name, direction]
    assert ens.positions.shape == (20000, 21)
    for k in (0, 10, 20):
        assert ens.positions[:, k].flags.c_contiguous


def test_seed_determinism(grid):
    rho0 = gaussian_density(grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 51)
    a = sample_forward(ZERO, rho0, 1.0, times, 3000, seed=42)
    b = sample_forward(ZERO, rho0, 1.0, times, 3000, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = sample_forward(ZERO, rho0, 1.0, times, 3000, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_brownian_variance_growth(grid):
    # variance at t=1 from a near-point start: 1 within 3 sqrt(2/N)
    times = np.linspace(0.0, 1.0, 201)
    n = 100_000
    ens = sample_forward(ZERO, point_start(grid), 1.0, times, n, seed=7)
    var = ens.positions[:, -1].var()
    assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / n) + 1e-4


def test_noiseless_drift_follows_ode(grid):
    times = np.linspace(0.0, 1.0, 2001)
    rho_start = gaussian_density(grid, 1.0, 1e-12)
    ens = sample_forward(lambda x, t: -x, rho_start, 0.0, times, 10, seed=1)
    # sigma -> 0: Euler path of dx/dt = -x, O(dt) accurate against its own start
    expected = ens.positions[:, 0] * np.exp(-1.0)
    assert np.max(np.abs(ens.positions[:, -1] - expected)) < 1e-3


def test_ou_stationary_variance(grid):
    times = np.linspace(0.0, 2.0, 1001)
    n = 20000
    ens = sample_forward(lambda x, t: -x, gaussian_density(grid, 0.0, 0.5),
                         1.0, times, n, seed=11)
    se = np.sqrt(2.0 / n) * 0.5  # std error of a Gaussian variance estimate
    for k in (0, 250, 500, 1000):
        var = ens.positions[:, k].var()
        assert abs(var - 0.5) < 3.0 * se + 1.5e-3  # 3 sigma + O(dt) bias


def test_backward_brownian_spreads(grid):
    times = np.linspace(0.0, 1.0, 501)
    n = 50000
    ens = sample_backward(ZERO, gaussian_density(grid, 0.0, 1.0), 1.0, times, n, seed=3)
    assert ens.direction == "backward"
    var0 = ens.positions[:, 0].var()
    assert abs(var0 - 2.0) < 3.0 * np.sqrt(2.0 / n) * 2.0 + 1e-3
    # terminal column reproduces rho1 by construction
    d1 = empirical_density(ens, 1.0, grid)
    assert l1_distance(d1, gaussian_density(grid, 0.0, 1.0)) < 0.05


def test_noiseless_backward_flow(grid):
    times = np.linspace(0.0, 1.0, 2001)
    rho1 = gaussian_density(grid, 1.0, 1e-12)
    ens = sample_backward(lambda x, t: -x, rho1, 0.0, times, 5, seed=5)
    # reverse flow of dx/dt = -x: x(0) = e * x(1), O(dt) accurate
    expected = ens.positions[:, -1] * np.e
    assert np.max(np.abs(ens.positions[:, 0] - expected)) < 5e-3


def test_empirical_density_unit_mass_and_spike(grid):
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_forward(ZERO, point_start(grid), 1e-20, times, 500, seed=9)
    d = empirical_density(ens, 0.0, grid)
    assert abs(integrate(d) - 1.0) < 1e-12
    # all paths exactly at one point: a single-bin spike
    frozen = PathEnsemble(times, np.full((500, 11), 2.5), 1.0, 0, "forward")
    spike = empirical_density(frozen, 0.0, grid)
    assert np.count_nonzero(spike.values) == 1
    assert abs(integrate(spike) - 1.0) < 1e-12


def test_empirical_density_matches_gaussian(grid):
    times = np.linspace(0.0, 1.0, 201)
    ens = sample_forward(ZERO, point_start(grid), 1.0, times, 100_000, seed=13)
    # histogram noise scales with the bin count: compare on the n=201 grid
    hist_grid = Grid1D(-10.0, 10.0, 201)
    d = empirical_density(ens, 1.0, hist_grid)
    assert l1_distance(d, gaussian_density(hist_grid, 0.0, 1.0)) < 0.02


def test_time_not_stored(grid):
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_forward(ZERO, point_start(grid), 1.0, times, 10, seed=1)
    path = evolve(gaussian_packet(grid), QuantumModel.free(grid), 0.0, 1.0, 10)
    # ensembles and wavefunction paths share one stored-time rule
    for t in (0.123, 1.0 + 2e-9):
        with pytest.raises(TimeNotStored):
            empirical_density(ens, t, grid)
        with pytest.raises(TimeNotStored):
            path.density_at(t)
    # within 1e-9 of the unit span, a time is the stored one
    assert np.array_equal(empirical_density(ens, 0.3 + 5e-10, grid).values,
                          empirical_density(ens, 0.3, grid).values)
    assert np.array_equal(path.density_at(0.3 + 5e-10).values, path.density_at(0.3).values)


def test_duality_ou_stationary(grid):
    rho = gaussian_density(grid, 0.0, 0.5)  # exp(-x^2)
    val = duality_check(lambda x, t: -x, lambda x, t: x, rho, 1.0)
    assert val < 1e-8


def test_duality_brownian_marginal(grid):
    t = 0.7
    rho = gaussian_density(grid, 0.0, 1.0 + t)
    val = duality_check(ZERO, lambda x, tt: x / (1.0 + t), rho, 1.0, t=t)
    assert val < 1e-8


def test_generator_check_martingale(grid):
    f = ScalarField(grid, grid.points)
    times = np.linspace(0.0, 1.0, 201)
    ens = sample_forward(ZERO, point_start(grid), 1.0, times, 20000, seed=17)
    res = generator_check(f, ens, ZERO, 1.0)
    assert res.discrepancy < 3.0 * res.std_error + 1e-12


def test_generator_check_brownian_second_moment(grid):
    f = ScalarField(grid, grid.points**2)
    times = np.linspace(0.0, 1.0, 1001)
    ens = sample_forward(ZERO, point_start(grid), 1.0, times, 100_000, seed=19)
    res = generator_check(f, ens, ZERO, 1.0)
    assert res.rhs == pytest.approx(1.0, abs=1e-3)
    assert res.lhs == pytest.approx(1.0, abs=3 * np.sqrt(2.0 / 100_000) + 1e-3)
    assert res.discrepancy < 3.0 * res.std_error


def test_generator_check_ou_stationary_balance(grid):
    f = ScalarField(grid, grid.points**2)
    times = np.linspace(0.0, 1.0, 1001)
    ens = sample_forward(lambda x, t: -x, gaussian_density(grid, 0.0, 0.5),
                         1.0, times, 50000, seed=23)
    res = generator_check(f, ens, lambda x, t: -x, 1.0)
    # 2 E[x (-x)] + sigma^2 = 0 at stationarity: both sides vanish
    assert res.discrepancy < 3.0 * res.std_error + 2e-3


def test_grid_drift_interpolation_and_clamping(grid):
    times = np.array([0.0, 1.0])
    fields = [ScalarField(grid, grid.points), ScalarField(grid, 2.0 * grid.points)]
    drift = GridDrift(times, fields)
    x = np.array([0.5, -2.0])
    assert np.allclose(drift(x, 0.0), x)
    assert np.allclose(drift(x, 1.0), 2 * x)
    assert np.allclose(drift(x, 0.4), x)  # nearest-neighbor lookup in time
    assert drift.clamp_fraction == 0.0
    drift(np.array([11.0]), 0.0)
    assert drift.n_clamped == 1
    with pytest.raises(TimeNotStored):
        drift(x, 5.0)


def test_grid_drift_clamp_count_and_nan(grid):
    drift = GridDrift(np.array([0.0, 1.0]), [ScalarField(grid, grid.points)] * 2)
    x = np.array([-10.5, -10.0, 3.0, 10.0, 10.0 + 1e-9, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = drift(x, 0.0)
    # only x < x_min or x > x_max count; x_max itself and NaN do not
    assert drift.n_clamped == 2 and drift.n_eval == 6
    assert np.array_equal(out[:5], [-10.0, -10.0, 3.0, 10.0, 10.0])
    assert np.isnan(out[5])


def test_grid_drift_rejects_unordered_times(grid):
    fields = [ScalarField(grid, k * grid.points) for k in (1.0, 2.0, 3.0)]
    for times in BAD_TIMES:
        with pytest.raises(ValueError, match="strictly increasing"):
            GridDrift(times, fields)


def test_path_integral_left_and_right_sums():
    times = np.array([0.0, 0.5, 1.5, 2.0])
    ens = PathEnsemble(times, np.vstack([times, 2.0 * times]), 1.0, 0, "forward")
    assert ens.positions[:, 1].flags.c_contiguous  # path-major input is stored time-major
    g = lambda x, t: x * t
    # g = c t^2 on path c: left sum c (0 + 0.25*1 + 2.25*0.5), right c (0.25*0.5 + 2.25 + 4*0.5)
    assert np.array_equal(path_integral(ens, g), [1.375, 2.75])
    assert np.array_equal(path_integral(ens, g, "right"), [4.375, 8.75])


def test_excessive_clamping_fails_validation():
    small = Grid1D(-0.5, 0.5, 11)
    fields = [ScalarField(small, np.zeros(11))] * 2
    drift = GridDrift(np.array([0.0, 1.0]), fields)
    rho0 = gaussian_density(small, 0.0, 0.02)
    times = np.linspace(0.0, 1.0, 51)
    with pytest.raises(ExcessiveClamping):
        sample_forward(drift, rho0, 1.0, times, 2000, seed=29)


def test_drift_blowup_detection():
    small = Grid1D(-1.0, 1.0, 11)
    fields = [ScalarField(small, np.full(11, 1000.0))] * 2
    drift = GridDrift(np.array([0.0, 1.0]), fields)
    rho0 = gaussian_density(small, 0.0, 0.05)
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DriftBlowup):
        sample_forward(drift, rho0, 1e-6, times, 10, seed=31)


def test_non_finite_drift_is_a_blowup(grid):
    nan_drift = lambda x, t: np.full_like(x, np.nan)
    with pytest.raises(DriftBlowup):
        sample_forward(nan_drift, point_start(grid), 1.0, np.linspace(0, 1, 5), 10, seed=1)
    with pytest.raises(DriftBlowup):
        sample_backward(nan_drift, point_start(grid), 1.0, np.linspace(0, 1, 5), 10, seed=1)


def test_ensemble_validation(grid):
    five = np.linspace(0, 1, 5)
    with pytest.raises(EmptyEnsemble):
        sample_forward(ZERO, point_start(grid), 1.0, five, 0, seed=1)
    for sample in (sample_forward, sample_backward):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                sample(ZERO, point_start(grid), bad, five, 10, seed=1)
        # sigma2 = 0 samples the noiseless ODE: with zero drift no path moves
        ens = sample(ZERO, point_start(grid), 0.0, five, 10, seed=1)
        assert np.all(ens.positions == ens.positions[:, :1])
    for times in BAD_TIMES:
        with pytest.raises(ValueError, match="strictly increasing"):
            PathEnsemble(times, np.zeros((2, 3)), 1.0, 0, "forward")
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_forward(ZERO, point_start(grid), 1.0, times, 10, seed=1)


def test_empirical_energy_constant_drift(grid):
    times = np.linspace(0.0, 1.0, 101)
    ens = sample_forward(lambda x, t: np.full_like(x, 2.0), point_start(grid),
                         1e-12, times, 10, seed=37)
    assert empirical_energy(ens, lambda x, t: np.full_like(x, 2.0)) == pytest.approx(4.0)
