import dataclasses
import hashlib
import sys
import threading
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sbridge import gaussian_density, gaussian_packet, sde
from sbridge.errors import (
    DriftBlowup,
    ExcessiveClamping,
    InfiniteEntropy,
    NonPositiveMass,
    TimeNotStored,
)
from sbridge.grid import (
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    integrate,
    kl_divergence,
    l1_distance,
    normalize,
)
from sbridge.quantum import QuantumModel, drifts, evolve
from sbridge.sde import (
    BLOCK_SIZE,
    GridDrift,
    PathEnsemble,
    _laplacian_values,
    duality_check,
    empirical_density,
    generator_check,
    path_entropy_backward,
    path_entropy_forward,
    path_integral,
    sample_backward,
    sample_forward,
)

from oracles import gaussian_kl, serial_euler_maruyama

ZERO = lambda x, t: np.zeros_like(x)

#: time grids every constructor and sampler refuses: 2-D, decreasing, repeated, non-finite
BAD_TIMES = (np.array([[0.0, 0.5, 1.0]]), np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]),
             np.array([0.0, np.nan, 1.0]), np.array([0.0, 0.5, np.inf]))


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-10.0, 10.0, 401)


@pytest.fixture(scope="module")
def fine_grid():
    return Grid1D(-10.0, 10.0, 801)


def point_start(grid, eps=1e-6):
    return gaussian_density(grid, 0.0, eps)


#: SHA-256 of positions.tobytes() (path-major bytes) for 20000 paths x 21
#: times, seed 2024: two blocks, a full one of BLOCK_SIZE paths and one of 3616
GOLDEN = {
    ("zero", "forward"): "02ddf34d457a0e6bdb9f4d4055761b08bfc99789cbef8a7fb3bdc7123c1ca582",
    ("zero", "backward"): "b80aeb82dec2986e3017c0903636ff2b2de2bcdad5b7908b3f5aa85c1c4af637",
    ("ou", "forward"): "9f85d8b77599499b818800c270d1baf41ddee16023abf6d9a056b670a9e6d535",
    ("ou", "backward"): "61fa248bbd9bfe623215f2736cd1a5e69453e87d99d1234b8632789794dcbc18",
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


@pytest.mark.parametrize("sample", [sample_forward, sample_backward])
def test_each_block_has_its_own_stream(grid, sample):
    # block b's paths depend only on (seed, b): a full block does not change
    # with n_paths, and another seed or block index gives another stream
    rho, times, ou = gaussian_density(grid, 0.0, 0.5), np.linspace(0.0, 1.0, 5), lambda x, t: -x
    full = sample(ou, rho, 1.0, times, BLOCK_SIZE, seed=5).positions
    more = sample(ou, rho, 1.0, times, BLOCK_SIZE + 7, seed=5).positions
    other = sample(ou, rho, 1.0, times, BLOCK_SIZE + 7, seed=6).positions
    assert np.array_equal(more[:BLOCK_SIZE], full)
    for block in (slice(0, BLOCK_SIZE), slice(BLOCK_SIZE, None)):
        assert not np.array_equal(other[block], more[block])
    # the second block's first draws, its start positions, are neither those
    # of the first block of its seed nor those of the next seed
    start = 0 if sample is sample_forward else -1
    assert not np.array_equal(more[BLOCK_SIZE:, start], more[:7, start])
    assert not np.array_equal(more[BLOCK_SIZE:, start], other[:7, start])


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
    frozen = PathEnsemble(times, np.full((500, 11), 2.5), 1.0)
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
    for t in (0.123, 1.0 + 2e-9, np.nan):
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


@pytest.mark.parametrize("same_grid", [True, False])
def test_generator_check_reads_a_drift_table_as_a_plain_callable_does(grid, same_grid):
    # a table on f's grid reads the cell of f' and f''; on another grid it
    # finds its own: either way the figures and the lookup counters are those
    # of the table called as a function
    rng = np.random.default_rng(47)
    times = np.linspace(0.0, 1.0, 21)
    beta_grid = grid if same_grid else Grid1D(-6.0, 6.0, 301)
    values = rng.standard_normal((21, beta_grid.n_points))
    read, called = (GridDrift(times, [ScalarField(beta_grid, v) for v in values])
                    for _ in range(2))
    ens = PathEnsemble(times, 4.5 * rng.standard_normal((400, 21)), 1.0)
    f = ScalarField(grid, np.sin(grid.points))
    assert (generator_check(f, ens, read, 1.0)
            == generator_check(f, ens, lambda x, t: called(x, t), 1.0))
    assert (read.n_eval, read.n_clamped) == (called.n_eval, called.n_clamped)
    assert read.n_eval == 20 * 400 and read.n_clamped > 0


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
    # row 0 of a two-row table: the public reader of a row, its cell step then its lerp step
    rows = [ScalarField(grid, values), ScalarField(grid, np.zeros(grid.n_points))]
    return GridDrift([0.0, 1.0], rows)(x, 0.0)


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


def test_grid_drift_interpolation_and_clamping(grid):
    times = np.array([0.0, 1.0])
    fields = [ScalarField(grid, grid.points), ScalarField(grid, 2.0 * grid.points)]
    drift = GridDrift(times, fields)
    x = np.array([0.5, -2.0])
    assert np.allclose(drift(x, 0.0), x)
    assert np.allclose(drift(x, 1.0), 2 * x)
    assert np.allclose(drift(x, 0.4), x)  # nearest-neighbor lookup in time
    assert drift.n_clamped == 0
    drift(np.array([11.0]), 0.0)
    assert drift.n_clamped == 1
    for t in (5.0, np.nan):
        with pytest.raises(TimeNotStored):
            drift(x, t)


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


def test_grid_drift_views_its_fields():
    # a stacked copy of 401 rows at n = 2001 would take 6.4 MB
    grid = Grid1D(-8.0, 8.0, 2001)
    model = QuantumModel.free(grid)
    decs = [drifts(gaussian_packet(grid, k0=0.01 * k), model) for k in range(401)]
    assert np.shares_memory(decs[0].beta.values, decs[0].beta.values)  # one stored array
    fields = [d.beta for d in decs]
    times = np.linspace(0.0, 1.0, 401)
    tracemalloc.start()
    try:
        drift = GridDrift(times, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert all(np.shares_memory(row, f.values) for row, f in zip(drift.table, fields))


def test_grid_drift_rejects_unordered_times(grid):
    fields = [ScalarField(grid, k * grid.points) for k in (1.0, 2.0, 3.0)]
    for times in BAD_TIMES:
        with pytest.raises(ValueError, match="strictly increasing"):
            GridDrift(times, fields)


def test_path_integral_left_and_right_sums():
    times = np.array([0.0, 0.5, 1.5, 2.0])
    ens = PathEnsemble(times, np.vstack([times, 2.0 * times]), 1.0)
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


@pytest.mark.parametrize("table", [True, False], ids=["grid-drift", "callable"])
@pytest.mark.parametrize("sample", [sample_forward, sample_backward])
def test_a_start_density_of_zero_mass_is_refused(grid, sample, table):
    # a start density without mass has no CDF to invert: every start would be NaN
    times = np.linspace(0.0, 1.0, 5)
    drift = _ou_table(grid, times) if table else ZERO
    empty = DensityField(grid, np.zeros(grid.n_points), mass_tol=None)
    with pytest.raises(NonPositiveMass):
        sample(drift, empty, 1.0, times, 10, seed=1)


def test_ensemble_validation(grid):
    five = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="integer"):
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
            PathEnsemble(times, np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_forward(ZERO, point_start(grid), 1.0, times, 10, seed=1)
    # a hand-built ensemble: finite positions and the samplers' sigma2 rule
    for bad in (np.nan, np.inf, -np.inf):
        positions = np.zeros((4, 5))
        positions[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PathEnsemble(five, positions, 1.0)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma2"):
            PathEnsemble(five, np.zeros((4, 5)), bad)
    assert PathEnsemble(five, np.zeros((4, 5)), 0.0).sigma2 == 0.0
    # positions as nested lists: a well-shaped one builds, as time-major floats
    listed = PathEnsemble(five, [[0.0] * 5] * 4, 1.0)
    assert listed.positions.dtype == float and listed.positions.T.flags.c_contiguous
    # ragged, non-numeric and wrongly shaped positions are a ValueError
    for bad in ([[0.0] * 5, [0.0] * 4], [["a"] * 5] * 4, [[0.0] * 4] * 4, [0.0] * 5, [[[0.0] * 5]]):
        with pytest.raises(ValueError):
            PathEnsemble(five, bad, 1.0)


def test_empirical_energy_constant_drift(grid):
    times = np.linspace(0.0, 1.0, 101)
    ens = sample_forward(lambda x, t: np.full_like(x, 2.0), point_start(grid),
                         1e-12, times, 10, seed=37)
    drift = lambda x, t: np.full_like(x, 2.0)
    assert path_integral(ens, lambda x, t: drift(x, t) ** 2).mean() == pytest.approx(4.0)


def _ou_table(grid, times):
    return GridDrift(times, [ScalarField(grid, -grid.points)] * len(times))


@pytest.mark.parametrize("n_paths", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7])
@pytest.mark.parametrize("table", [True, False], ids=["grid-drift", "callable"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_samplers_equal_the_serial_reference(grid, n_paths, table, backward):
    # the helper thread draws what the serial loop drew, so the bytes agree
    times = np.linspace(0.0, 1.0, 11)
    drift = _ou_table(grid, times) if table else (lambda x, t: -x * (1.0 + t))
    rho = gaussian_density(grid, 0.5, 0.5)
    sample = sample_backward if backward else sample_forward
    ens = sample(drift, rho, 0.7, times, n_paths, seed=17)
    ref = serial_euler_maruyama(drift, rho, 0.7, times, n_paths, 17, backward)
    assert np.array_equal(ens.positions, ref)


@pytest.mark.parametrize("sample", [sample_forward, sample_backward])
def test_drifts_run_on_the_calling_thread(grid, sample):
    callers = set()

    def drift(x, t):
        callers.add(threading.get_ident())
        return -x

    sample(drift, gaussian_density(grid, 0.0, 0.5), 1.0, np.linspace(0.0, 1.0, 21),
           2 * BLOCK_SIZE + 3, seed=3)
    assert callers == {threading.get_ident()}


def test_concurrent_sampler_calls_under_fast_thread_switching(grid):
    # three callers, each with its own helper thread, on two cores: every
    # row handed over between threads must hold the serial loop's values
    times, rho = np.linspace(0.0, 1.0, 21), gaussian_density(grid, 0.0, 0.5)
    ou = lambda x, t: -x
    results = {}

    def call(seed):
        results[seed] = sample_forward(ou, rho, 1.0, times, BLOCK_SIZE + 5, seed).positions

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,), daemon=True) for seed in (1, 2, 3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed in (1, 2, 3):
        ref = serial_euler_maruyama(ou, rho, 1.0, times, BLOCK_SIZE + 5, seed)
        assert np.array_equal(results[seed], ref)


def _nan_from_step_5():
    calls = []

    def drift(x, t):
        calls.append(t)
        return np.full_like(x, np.nan) if len(calls) == 6 else -x
    return drift


def _raises_value_error(x, t):
    raise ValueError("drift failed")


@pytest.mark.parametrize("sample", [sample_forward, sample_backward])
@pytest.mark.parametrize("make_drift, error", [
    pytest.param(lambda g, times: _nan_from_step_5(), DriftBlowup, id="non-finite-at-step-5"),
    pytest.param(lambda g, times: _raises_value_error, ValueError, id="drift-raises"),
    pytest.param(lambda g, times: _ou_table(g, times[:3]), TimeNotStored, id="time-not-stored"),
    pytest.param(lambda g, times: _ou_table(Grid1D(-1.0, 1.0, 11), times), ExcessiveClamping,
                 id="excessive-clamping"),
])
def test_no_thread_outlives_a_failed_sampler_call(grid, sample, make_drift, error):
    times = np.linspace(0.0, 1.0, 41)
    drift = make_drift(grid, times)
    before = threading.active_count()
    with pytest.raises(error):
        sample(drift, gaussian_density(grid, 0.0, 0.5), 1.0, times, 2 * BLOCK_SIZE + 3, seed=4)
    assert threading.active_count() == before


def test_a_drift_exception_propagates_unchanged(grid):
    raised = ValueError("drift failed")

    def drift(x, t):
        raise raised

    with pytest.raises(ValueError) as info:
        sample_forward(drift, point_start(grid), 1.0, np.linspace(0.0, 1.0, 5), 10, seed=1)
    assert info.value is raised


class _Failure(Exception):
    pass


class _NormalsFailAt:
    """A block generator whose standard_normal raises _Failure from call number fail_at on."""

    def __init__(self, rng, fail_at):
        self._rng, self._calls, self._fail_at = rng, 0, fail_at

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self._calls += 1
        if self._calls >= self._fail_at:
            raise _Failure("normal draw failed")
        return self._rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("fail_at", [1, 4])
@pytest.mark.parametrize("sample", [sample_forward, sample_backward])
def test_a_failure_in_the_helper_thread_reaches_the_caller(grid, monkeypatch, sample, fail_at):
    blocks = sde._block_generator
    monkeypatch.setattr(sde, "_block_generator",
                        lambda seed, b: _NormalsFailAt(blocks(seed, b), fail_at))
    raised = []

    def call():
        try:
            sample(ZERO, point_start(grid), 1.0, np.linspace(0.0, 1.0, 21), 10, seed=1)
        except _Failure as exc:
            raised.append(exc)

    # the sampler runs on a daemon thread, so a sampler left waiting fails the test, not the run
    before = threading.active_count()
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "the sampler waits for a row the helper thread never filled"
    assert [str(exc) for exc in raised] == ["normal draw failed"]
    assert threading.active_count() == before


def test_equal_laws_give_zero_total(fine_grid):
    rho = gaussian_density(fine_grid, 0.0, 0.5)
    beta = lambda x, t: -x
    times = np.linspace(0.0, 1.0, 501)
    ens = sample_forward(beta, rho, 1.0, times, 5000, seed=5)
    fwd = path_entropy_forward(rho, rho, beta, beta, ens, 1.0)
    assert fwd.static_term == 0.0
    assert abs(fwd.total) <= 3.0 * fwd.mc_std_error + 1e-12
    gamma = lambda x, t: x  # stationary backward drift
    bwd = path_entropy_backward(rho, rho, gamma, gamma, ens, 1.0)
    assert abs(bwd.total) <= 3.0 * bwd.mc_std_error + 1e-12


def test_constant_drift_mismatch_kinetic_value(fine_grid):
    rho = gaussian_density(fine_grid, 0.0, 1.0)
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
def test_path_entropy_rejects_non_positive_or_non_finite_sigma2(fine_grid, bad):
    rho = gaussian_density(fine_grid, 0.0, 1.0)
    zero = lambda x, t: np.zeros_like(x)
    ens = sample_forward(zero, rho, 1.0, np.linspace(0.0, 1.0, 11), 10, seed=8)
    with pytest.raises(ValueError):
        path_entropy_forward(rho, rho, zero, zero, ens, bad)
    with pytest.raises(ValueError):
        path_entropy_backward(rho, rho, zero, zero, ens, bad)


def test_path_entropy_refuses_a_sigma2_other_than_the_ensembles(fine_grid):
    rho = gaussian_density(fine_grid, 0.0, 1.0)
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
def test_drift_tables_score_as_plain_callables_do(fine_grid, same_grid):
    # two tables on one grid share each row's cell; on two grids each finds
    # its own: either way the totals and the lookup counters are those of the
    # same tables called one at a time
    rng = np.random.default_rng(43)
    times = np.linspace(0.0, 1.0, 21)
    grid_p = fine_grid if same_grid else Grid1D(-6.0, 6.0, 301)
    values_q = rng.standard_normal((21, fine_grid.n_points))
    values_p = rng.standard_normal((21, grid_p.n_points))

    def tables():
        return (GridDrift(times, [ScalarField(fine_grid, v) for v in values_q]),
                GridDrift(times, [ScalarField(grid_p, v) for v in values_p]))

    # about 3 % of the positions lie beyond x = +-10, more beyond +-6
    ens = PathEnsemble(times, 4.5 * rng.standard_normal((400, 21)), 1.0)
    q, p = gaussian_density(fine_grid, 0.0, 1.0), gaussian_density(fine_grid, 0.3, 1.2)
    read, called = tables(), tables()
    plain = [lambda x, t, d=d: d(x, t) for d in called]
    for entropy in (path_entropy_forward, path_entropy_backward):
        assert entropy(q, p, *read, ens, 1.0) == entropy(q, p, *plain, ens, 1.0)
    counts = [(d.n_eval, d.n_clamped) for d in read]
    assert counts == [(d.n_eval, d.n_clamped) for d in called]
    assert counts[0][0] == 2 * 20 * 400 and counts[0][1] > 0


def test_kinetic_scales_inversely_with_sigma2(fine_grid):
    rho = gaussian_density(fine_grid, 0.0, 1.0)
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


def test_forward_backward_totals_agree_ou_vs_brownian(fine_grid):
    # Q: stationary OU (beta = -x, var 1/2); P: Brownian from N(0, 1)
    q0 = gaussian_density(fine_grid, 0.0, 0.5)
    p0 = gaussian_density(fine_grid, 0.0, 1.0)
    p1 = gaussian_density(fine_grid, 0.0, 2.0)
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


def test_half_bridge_girsanov_cross_check(fine_grid):
    # prior: Brownian from N(0,1) on [0,1]; observed terminal density N(0,1)
    rho1 = gaussian_density(fine_grid, 0.0, 1.0)
    prior_t1 = gaussian_density(fine_grid, 0.0, 2.0)
    gamma_p = lambda x, t: x / (1.0 + t)

    times = np.linspace(0.0, 1.0, 1001)
    ens = sample_backward(gamma_p, rho1, 1.0, times, 20000, seed=9)

    bwd = path_entropy_backward(rho1, prior_t1, gamma_p, gamma_p, ens, 1.0)
    assert bwd.kinetic_term == 0.0  # identical backward drifts
    assert bwd.mc_std_error == 0.0
    assert bwd.total == pytest.approx(gaussian_kl(1.0, 2.0), abs=1e-6)

    # forward split of the same law: q(0) = N(0, 3/4), beta_q = -x / (3 - t)
    q0 = gaussian_density(fine_grid, 0.0, 0.75)
    p0 = gaussian_density(fine_grid, 0.0, 1.0)
    beta_q = lambda x, t: -x / (3.0 - t)
    beta_p = lambda x, t: np.zeros_like(x)
    fwd = path_entropy_forward(q0, p0, beta_q, beta_p, ens, 1.0)
    assert fwd.total == pytest.approx(gaussian_kl(1.0, 2.0), rel=0.05)


def test_report_serialization(fine_grid):
    rho = gaussian_density(fine_grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_forward(lambda x, t: np.zeros_like(x), rho, 1.0, times, 100, seed=10)
    rep = path_entropy_forward(
        rho, rho, lambda x, t: np.zeros_like(x), lambda x, t: np.zeros_like(x), ens, 1.0
    )
    blob = dataclasses.asdict(rep)
    assert set(blob) == {"static_term", "kinetic_term", "total", "direction", "mc_std_error"}
    assert blob["direction"] == "forward"
    assert blob["total"] == blob["static_term"] + blob["kinetic_term"]


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
    pytest.param(lambda p, q, fwd, bwd: path_entropy_forward(p, q, ZERO, ZERO, fwd, 1.0),
                 id="path_entropy_forward"),
    pytest.param(lambda p, q, fwd, bwd: path_entropy_backward(p, q, ZERO, ZERO, bwd, 1.0),
                 id="path_entropy_backward"),
])
def test_overflowing_divergence_raises_infinite_entropy(call):
    point, spread = _overflowing_pair()
    times = np.linspace(0.0, 1.0, 3)
    fwd = sample_forward(ZERO, point, 1.0, times, 10, seed=1)
    bwd = sample_backward(ZERO, point, 1.0, times, 10, seed=1)
    # the overflow gives the typed error, not a numpy warning
    with pytest.raises(InfiniteEntropy):
        call(point, spread, fwd, bwd)
