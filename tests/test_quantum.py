import hashlib
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sbridge import box_mode, gaussian_density, gaussian_packet
from sbridge.errors import (
    BoundaryMassWarning,
    InvalidInterval,
    NonPositiveMass,
    SupportViolation,
    TerminalMismatch,
    ZeroProbabilityRegion,
)
from sbridge.grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    _log_gradient_values,
    integrate,
    normalize,
)
from sbridge.quantum import (
    _CAYLEY_SEGMENT,
    _cayley,
    WALL_MASS_TOL,
    QuantumModel,
    WavefunctionPath,
    collapse,
    drifts,
    energy,
    evolve,
    finite_action,
    hjb_residual,
    norm_l2,
    normalize_wavefunction,
    quantum_bridge,
)

from oracles import box_mode_energy, cayley_step


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-8.0, 8.0, 401)


@pytest.fixture(scope="module")
def model(grid):
    return QuantumModel.free(grid)


@pytest.fixture(scope="module")
def packet(grid):
    return gaussian_packet(grid, center=0.0, sigma0=1.0)


def cn_step(psi, model, dt):
    # the Cayley step evolve takes, applied to one state; a random state goes to
    # it directly, since evolve would warn at its walls
    return ComplexField(model.grid, _cayley(model, dt)(psi.values))


def overlap(a, b):
    return complex(np.dot(a.grid.weights, np.conj(a.values) * b.values))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_model_rejects_non_positive_or_non_finite_constants(grid, bad):
    zero = ScalarField(grid, np.zeros(grid.n_points))
    with pytest.raises(ValueError):
        QuantumModel(bad, 1.0, zero, grid)
    with pytest.raises(ValueError):
        QuantumModel(1.0, bad, zero, grid)
    with pytest.raises(ValueError):
        gaussian_packet(grid, sigma0=bad)


def test_step_preserves_norm(model, packet):
    out = cn_step(packet, model, 1e-2)
    assert abs(norm_l2(out) - 1.0) < 1e-12


def test_step_exact_reversibility(model, packet):
    fwd = cn_step(packet, model, 1e-2)
    back = cn_step(fwd, model, -1e-2)
    assert np.max(np.abs(back.values - packet.values)) < 1e-12


@pytest.mark.parametrize("dt", [1e-2, -1e-2])
def test_step_matches_dense_cayley_oracle(grid, dt):
    model = QuantumModel(1.3, 0.7, ScalarField(grid, 0.5 * grid.points**2), grid)
    psi = gaussian_packet(grid, center=-1.0, sigma0=0.6, k0=2.0)
    out = cn_step(psi, model, dt)
    ref = cayley_step(psi.values, model.hbar, model.m, model.potential.values, grid.h, dt)
    assert np.max(np.abs(out.values - ref)) < 1e-12


#: unknowns per block of the Cayley factor: a segment and its separator
BLOCK = _CAYLEY_SEGMENT + 1


@pytest.mark.parametrize("n_inner", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                     2 * BLOCK + 1])
def test_step_on_every_block_layout(n_inner):
    # one unknown, a padded block, whole blocks, and one unknown past them
    grid = Grid1D(-2.0, 2.0, n_inner + 2)
    rng = np.random.default_rng(n_inner)
    model = QuantumModel(1.3, 0.7, ScalarField(grid, 5.0 * rng.random(grid.n_points)), grid)
    psi = normalize_wavefunction(
        ComplexField(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points))
    )
    out = cn_step(psi, model, 1e-2)
    assert abs(norm_l2(out) - 1.0) < 1e-12
    back = cn_step(out, model, -1e-2)
    assert np.max(np.abs(back.values - psi.values)) < 1e-12
    ref = cayley_step(psi.values, model.hbar, model.m, model.potential.values, grid.h, 1e-2)
    assert np.max(np.abs(out.values - ref)) < 1e-12


@pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
def test_step_rejects_zero_and_non_finite_dt(model, packet, dt):
    with pytest.raises(ValueError):
        cn_step(packet, model, dt)


@st.composite
def step_cases(draw):
    n = draw(st.integers(11, 401))
    x_min = draw(st.floats(-20.0, 5.0))
    grid = Grid1D(x_min, x_min + draw(st.floats(0.5, 30.0)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    potential = ScalarField(grid, draw(st.floats(0.0, 50.0)) * rng.random(n))
    model = QuantumModel(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)), potential, grid)
    dt = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-4.0, 1.0))
    psi = normalize_wavefunction(
        ComplexField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    )
    return model, psi, dt


@given(step_cases())
def test_step_invariants_on_random_models(case):
    model, psi, dt = case
    out = psi
    for _ in range(5):
        out = cn_step(out, model, dt)
    assert abs(norm_l2(out) - 1.0) <= 1e-12
    e0 = energy(psi, model)
    assert abs(energy(out, model) - e0) <= 1e-12 * abs(e0)
    back = cn_step(cn_step(psi, model, dt), model, -dt)
    assert np.max(np.abs(back.values - psi.values)) <= 1e-11 * np.max(np.abs(psi.values))


def test_free_packet_width_law(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 400)
    rho = path.density_at(1.0)
    x = grid.points
    mean = np.dot(grid.weights, x * rho.values)
    var = np.dot(grid.weights, (x - mean) ** 2 * rho.values)
    # dispersion: sigma^2(t) = sigma0^2 (1 + (hbar t / (2 m sigma0^2))^2)
    assert var == pytest.approx(1.25, abs=1e-3)


def test_box_mode_picks_up_pure_phase(grid):
    model = QuantumModel.free(grid)
    psi0 = box_mode(grid, n_mode=3)
    # the sine mode fills the box, so mass sits next to the walls
    with pytest.warns(BoundaryMassWarning):
        path = evolve(psi0, model, 0.0, 1.0, 200)
    e3 = box_mode_energy(grid, 3, 1.0, 1.0)
    analytic = ComplexField(grid, psi0.values * np.exp(-1j * e3 * 1.0))
    assert abs(overlap(path.states[-1], analytic)) > 1.0 - 1e-6


def test_box_mode_is_exact_step_eigenvector(grid, model):
    # walls at x_min and x_max: the discrete sine is an eigenvector of the
    # interior 3-point operator with E = (hbar^2 / m h^2)(1 - cos(k h)), and
    # the Cayley step multiplies it by (1 - i E dt/2) / (1 + i E dt/2)
    dt = 1e-2
    psi = box_mode(grid, n_mode=3)
    k = 3 * np.pi / (grid.x_max - grid.x_min)
    e_h = (1.0 - np.cos(k * grid.h)) / grid.h**2
    factor = (1.0 - 0.5j * e_h * dt) / (1.0 + 0.5j * e_h * dt)
    out = cn_step(psi, model, dt)
    assert np.max(np.abs(out.values - factor * psi.values)) < 1e-12
    assert energy(psi, model) == pytest.approx(e_h, rel=1e-12)


def test_evolve_warns_when_packet_reaches_wall(model, packet):
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryMassWarning)
        evolve(packet, model, 0.0, 1.0, 200)
    runaway = gaussian_packet(model.grid, center=2.0, sigma0=0.5, k0=8.0)
    with pytest.warns(BoundaryMassWarning):
        evolve(runaway, model, 0.0, 1.0, 200)


#: SHA-256 of every stored state of evolve, then of quantum_bridge, on the
#: trap of _trap_paths; recorded with the partitioned block solve of the
#: Cayley step (numpy 2.4, OpenBLAS 0.3.31), whose rounding a different BLAS
#: kernel may not reproduce bit for bit
GOLDEN_TRAP = "e47f24fb2dfbe586dfedfdc02794eba31cef9a6029e991be99b6e962fb470677"

#: SHA-256 of the stacked beta, then gamma, of drifts over every state of each
#: path of _trap_paths, recorded with the same solver as GOLDEN_TRAP
GOLDEN_TRAP_DRIFTS = "4b63c64ec7d229f23d047f88a3d1f48a7b43fed4d5d5a325b14d67de1bf9800a"


def _trap_paths():
    grid = Grid1D(-10.0, 10.0, 201)
    model = QuantumModel(1.0, 1.0, ScalarField(grid, grid.points**2 / 8.0), grid)
    psi0 = gaussian_packet(grid, center=-1.0, sigma0=1.0, k0=1.0)
    path = evolve(psi0, model, 0.0, 1.0, 40)
    return path, quantum_bridge(path, gaussian_density(grid, 0.5, 1.0))


def test_golden_trap_paths():
    digest = hashlib.sha256()
    for p in _trap_paths():
        digest.update(p.psi.tobytes())
    assert digest.hexdigest() == GOLDEN_TRAP


def test_golden_trap_drift_tables():
    digest = hashlib.sha256()
    for p in _trap_paths():
        ds = [drifts(s, p.model) for s in p.states]
        assert sum((~d.mask).sum() for d in ds) > 0  # the tails are masked
        digest.update(np.stack([d.beta.values for d in ds]).tobytes())
        digest.update(np.stack([d.gamma.values for d in ds]).tobytes())
    assert digest.hexdigest() == GOLDEN_TRAP_DRIFTS


def test_trap_paths_follow_the_dense_cayley_oracle():
    # evolve runs forward, quantum_bridge backward, 40 steps each
    for path, dt in zip(_trap_paths(), (1.0 / 40, -1.0 / 40)):
        rows = path.psi if dt > 0 else path.psi[::-1]
        model, ref = path.model, rows[0]
        for row in rows[1:]:
            ref = cayley_step(ref, model.hbar, model.m, model.potential.values, model.grid.h, dt)
            assert np.max(np.abs(row - ref)) < 1e-12


def test_evolve_warns_once_for_many_wall_steps(model):
    runaway = gaussian_packet(model.grid, center=2.0, sigma0=0.5, k0=8.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = evolve(runaway, model, 0.0, 1.0, 200)
    h = model.grid.h
    wall = h * (np.abs(path.psi[1:, 1]) ** 2 + np.abs(path.psi[1:, -2]) ** 2)
    assert np.count_nonzero(wall > WALL_MASS_TOL) > 10
    assert [w.category for w in caught] == [BoundaryMassWarning]


def test_path_refuses_wrong_shape(model, packet):
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        WavefunctionPath(times, np.stack([packet.values] * 3), model)
    with pytest.raises(ValueError, match="shape"):
        WavefunctionPath(times, np.stack([packet.values[:-1]] * 2), model)
    with pytest.raises(ValueError, match="shape"):
        WavefunctionPath(times, packet.values, model)
    # 2-D, decreasing, repeated and non-finite time grids
    for bad in ([[0.0, 0.5, 1.0]], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, np.nan, 1.0],
                [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError, match="strictly increasing"):
            WavefunctionPath(np.array(bad), np.stack([packet.values] * 3), model)


def test_path_refuses_non_finite_entry_and_names_the_row(model, packet):
    psi = np.stack([packet.values] * 4)
    psi[2, 7] = np.nan
    with pytest.raises(ValueError, match="state 2 has a non-finite entry"):
        WavefunctionPath(np.arange(4.0), psi, model)
    psi[2, 7] = packet.values[7]
    psi[3, 0] = np.inf
    with pytest.raises(ValueError, match="state 3 has a non-finite entry"):
        WavefunctionPath(np.arange(4.0), psi, model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
def test_path_check_names_the_first_bad_row_of_a_later_block(model, packet, bad):
    psi = np.stack([packet.values] * 40)
    psi[39] *= 2.0
    psi[37, 200] = bad
    with pytest.raises(ValueError, match="state 37 has a non-finite entry"):
        WavefunctionPath(np.arange(40.0), psi, model)
    psi[37, 200] = packet.values[200]
    with pytest.raises(ValueError, match="state 39 has norm 2.0"):
        WavefunctionPath(np.arange(40.0), psi, model)


def test_path_refuses_non_unit_norm_row_and_names_it(model, packet):
    psi = np.stack([packet.values] * 4)
    psi[1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="state 1 has norm"):
        WavefunctionPath(np.arange(4.0), psi, model)


def test_path_stores_psi_read_only(model, packet):
    path = evolve(packet, model, 0.0, 0.1, 5)
    assert path.psi.shape == (6, model.grid.n_points)
    assert not path.psi.flags.writeable
    assert all(np.array_equal(s.values, row) for s, row in zip(path.states, path.psi))


def test_evolve_zero_duration_is_refused(model, packet):
    # every path has two ends: t_to == t_from is a zero step, refused like any other
    with pytest.raises(ValueError, match="time step"):
        evolve(packet, model, 0.5, 0.5, 10)


def test_evolve_round_trip(model, packet):
    fwd = evolve(packet, model, 0.0, 1.0, 200)
    back = evolve(fwd.states[-1], model, 1.0, 0.0, 200)
    assert np.max(np.abs(back.states[0].values - packet.values)) < 1e-10
    # backward paths store times in increasing order
    assert back.times[0] == 0.0 and back.times[-1] == 1.0
    assert np.all(np.diff(back.times) > 0)


def test_density_identity_along_path(model, packet):
    path = evolve(packet, model, 0.0, 1.0, 50)
    for s in path.states:
        rho = np.abs(s.values) ** 2
        assert abs(np.dot(model.grid.weights, rho) - 1.0) < 1e-8


def test_energy_conserved_in_harmonic_trap(grid):
    v = ScalarField(grid, 0.5 * grid.points**2)
    model = QuantumModel(1.0, 1.0, v, grid)
    psi = gaussian_packet(grid, center=1.0, sigma0=0.8)
    path = evolve(psi, model, 0.0, 2.0, 400)
    energies = [energy(s, model) for s in path.states]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    assert drift < 1e-6


def test_drifts_of_real_gaussian(grid, model):
    sigma0 = 0.8
    psi = gaussian_packet(grid, center=0.0, sigma0=sigma0)
    d = drifts(psi, model)
    bulk = np.abs(grid.points) <= 4.0
    v, u = (d.beta.values + d.gamma.values) / 2, (d.beta.values - d.gamma.values) / 2
    assert np.max(np.abs(v[bulk])) < 1e-10
    expected_u = -grid.points / (2.0 * sigma0**2)
    assert np.max(np.abs(u[bulk] - expected_u[bulk])) < 1e-8
    assert np.max(np.abs(d.beta.values[bulk] - expected_u[bulk])) < 1e-8


def test_drifts_of_plane_wave_packet(grid, model):
    k0 = 1.0
    psi = gaussian_packet(grid, center=0.0, sigma0=4.0, k0=k0)
    d = drifts(psi, model)
    bulk = np.abs(grid.points) <= 0.5
    v, u = (d.beta.values + d.gamma.values) / 2, (d.beta.values - d.gamma.values) / 2
    assert np.max(np.abs(v[bulk] - k0)) < 1e-3
    assert np.max(np.abs(u[bulk])) < 2e-2


def test_nelson_drift_identity(grid, model, packet):
    # beta equals (hbar/m) d/dx (Re log psi + Im log psi) with the log
    # derivative realized node-safely from the state itself
    psi = gaussian_packet(grid, center=0.5, sigma0=1.2, k0=0.7)
    d = drifts(psi, model)
    rho = np.abs(psi.values) ** 2
    re_part = 0.5 * _log_gradient_values(rho, grid.h)
    grad = np.gradient(psi.values.real, grid.h, edge_order=2) \
        + 1j * np.gradient(psi.values.imag, grid.h, edge_order=2)
    im_part = np.imag(grad / psi.values)
    lhs = (model.hbar / model.m) * (re_part + im_part)
    mask = d.mask
    assert np.max(np.abs(lhs[mask] - d.beta.values[mask])) < 1e-10


def test_drift_mask_is_read_only(model, packet):
    mask = drifts(packet, model).mask
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


@pytest.mark.parametrize("n", [201, 2001])
def test_conjugate_state_has_the_time_reversed_drifts(n):
    # psi* is psi run backward in time: (beta, gamma) becomes (-gamma, -beta), bit for
    # bit, on the same mask; every state of the trap path and of its reconditioning
    grid = Grid1D(-10.0, 10.0, n)
    trap = QuantumModel(1.0, 1.0, ScalarField(grid, grid.points**2 / 8.0), grid)
    path = evolve(gaussian_packet(grid, center=-1.0, sigma0=1.0, k0=1.0), trap, 0.0, 1.0, 40)
    for p in (path, quantum_bridge(path, gaussian_density(grid, 0.5, 1.0))):
        for state in p.states:
            d = drifts(state, trap)
            rev = drifts(ComplexField(grid, np.conj(state.values)), trap)
            assert np.array_equal(rev.beta.values, -d.gamma.values)
            assert np.array_equal(rev.gamma.values, -d.beta.values)
            assert np.array_equal(rev.mask, d.mask)


def test_quantum_bridge_identity_case(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 400)
    rho1 = DensityField(grid, np.abs(path.states[-1].values) ** 2, mass_tol=1e-6)
    tilde = quantum_bridge(path, rho1)
    assert np.max(np.abs(tilde.states[-1].values - path.states[-1].values)) < 1e-12
    worst = max(
        np.max(np.abs(ts.values - ps.values))
        for ts, ps in zip(tilde.states, path.states)
    )
    assert worst < 1e-10


def test_quantum_bridge_collapse_density(grid, model, packet):
    path = evolve(packet, model, 0.0, 0.5, 100)
    psi1 = path.states[-1]
    region = (0.0, grid.x_max)
    chi = grid.points >= 0.0
    rho1 = normalize(ScalarField(grid, np.where(chi, np.abs(psi1.values) ** 2, 0.0)))
    # the cut at x = 0 spreads mass to the walls on the way back to t0
    with pytest.warns(BoundaryMassWarning):
        tilde = quantum_bridge(path, rho1)
    collapsed, _ = collapse(psi1, region)
    assert np.max(np.abs(tilde.states[-1].values - collapsed.values)) < 1e-12


def test_quantum_bridge_keeps_unit_norm(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 200)
    rho1 = gaussian_density(grid, 0.5, 1.2)
    tilde = quantum_bridge(path, rho1)
    for s in tilde.states:
        assert abs(norm_l2(s) - 1.0) < 1e-8


def test_quantum_bridge_refuses_terminal_mass_off_one(grid, model, packet):
    # mass 1 + 5e-7 passes DensityField's 1e-6 default but not the path's norm tolerance
    path = evolve(packet, model, 0.0, 1.0, 40)
    rho1 = DensityField(grid, (1.0 + 5e-7) * path.density_at(1.0).values)
    with pytest.raises(NonPositiveMass, match="terminal density has mass 1.0000005"):
        quantum_bridge(path, rho1)


def test_quantum_bridge_refuses_unequal_time_steps(model, packet):
    # evolve runs back on equal steps: these states would come back on [0, .25, .5, .75, 1]
    path = WavefunctionPath([0.0, 0.1, 0.2, 0.5, 1.0], np.tile(packet.values, (5, 1)), model)
    with pytest.raises(InvalidInterval):
        quantum_bridge(path, path.density_at(1.0))
    # the rounded times of evolve, forward and backward, pass
    for t_from, t_to in [(0.1, 0.7), (0.7, 0.1)]:
        path = evolve(packet, model, t_from, t_to, 7)
        tilde = quantum_bridge(path, path.density_at(path.t1))
        assert np.max(np.abs(tilde.times - path.times)) < 1e-12


def test_quantum_bridge_support_violation(grid, model):
    psi = gaussian_packet(grid, center=0.0, sigma0=0.4)
    path = evolve(psi, model, 0.0, 0.01, 2)
    rho1 = gaussian_density(grid, 7.0, 0.01)
    with pytest.raises(SupportViolation):
        quantum_bridge(path, rho1)


def test_quantum_bridge_idempotent(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 200)
    rho1 = gaussian_density(grid, 0.4, 1.1)
    tilde = quantum_bridge(path, rho1)
    rho_tilde1 = DensityField(grid, np.abs(tilde.states[-1].values) ** 2, mass_tol=1e-6)
    again = quantum_bridge(tilde, rho_tilde1)
    worst = max(
        np.max(np.abs(a.values - b.values))
        for a, b in zip(again.states, tilde.states)
    )
    assert worst < 1e-10


def test_hjb_residual_zero_for_identity(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 100)
    assert hjb_residual(path, path) < 1e-12


def test_hjb_residual_small_for_real_bridge(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 400)
    rho1 = gaussian_density(grid, 0.5, 1.3)
    tilde = quantum_bridge(path, rho1)
    assert hjb_residual(path, tilde) < 1e-3


def test_hjb_residual_large_for_non_solution(grid, model, packet):
    # rescale every stored state by the terminal amplitude ratio: the
    # terminal state is the bridge's, but the path no longer solves the
    # Schrodinger equation
    path = evolve(packet, model, 0.0, 1.0, 400)
    tilde = quantum_bridge(path, gaussian_density(grid, 0.5, 1.3))
    psi1 = np.abs(path.states[-1].values)
    live = psi1 > 0.0
    ratio = np.where(live, np.abs(tilde.states[-1].values) / np.where(live, psi1, 1.0), 0.0)
    fake = WavefunctionPath(
        path.times,
        np.array([normalize_wavefunction(ComplexField(grid, ratio * s.values)).values
                  for s in path.states]),
        model,
    )
    assert hjb_residual(path, fake) > 0.5


def hjb_per_step(path, tilde):
    """hjb_residual's sum written one step at a time, with the same stencil arithmetic."""
    m = path.model
    c = m.hbar**2 / (2.0 * m.m * m.grid.h**2)
    diag, off = 2.0 * c + m.potential.values[1:-1], -c

    def schr(p, k, dt):
        a, b = p.psi[k], p.psi[k + 1]
        mid = 0.5 * (a + b)
        interior = mid[1:-1]
        h_mid = diag * interior
        h_mid[:-1] += off * interior[1:]
        h_mid[1:] += off * interior[:-1]
        return interior, (b[1:-1] - a[1:-1]) / dt + (1j / m.hbar) * h_mid

    total = 0.0
    for k in range(path.times.shape[0] - 1):
        dt = path.times[k + 1] - path.times[k]
        (mid_p, s_p), (mid_q, s_q) = schr(path, k, dt), schr(tilde, k, dt)
        rho_p, rho_q = np.abs(mid_p) ** 2, np.abs(mid_q) ** 2
        mask = (rho_p > 1e-12 * rho_p.max()) & (rho_q > 1e-12 * rho_q.max())
        res = s_q[mask] / mid_q[mask] - s_p[mask] / mid_p[mask]
        total += dt * float(np.sum(np.abs(res) ** 2))
    return float(np.sqrt(m.grid.h * total))


@pytest.mark.parametrize("n_steps", [1, 16, 37])
def test_hjb_residual_blocks_match_a_per_step_sum(grid, packet, n_steps):
    trap = QuantumModel(1.0, 1.0, ScalarField(grid, grid.points**2 / 8.0), grid)
    path = evolve(packet, trap, 0.0, 0.5, n_steps)
    tilde = quantum_bridge(path, gaussian_density(grid, 0.4, 1.1))
    # a path that does not solve the model but ends on the bridge's state
    fake = WavefunctionPath(path.times, np.concatenate([path.psi[:-1], tilde.psi[-1:]]), trap)
    for other in (tilde, fake):
        ref = hjb_per_step(path, other)
        assert ref > 0.0
        assert hjb_residual(path, other) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_hjb_terminal_condition_slice(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 100)
    rho1 = gaussian_density(grid, 0.3, 1.2)
    tilde = quantum_bridge(path, rho1)
    psi1 = path.states[-1].values
    tpsi1 = tilde.states[-1].values
    rho = np.abs(psi1) ** 2
    mask = rho > 1e-10 * rho.max()
    log_ratio = np.log(tpsi1[mask] / psi1[mask])
    expected = 0.5 * np.log(rho1.values[mask] / rho[mask])
    assert np.max(np.abs(log_ratio - expected)) < 1e-12


def test_hjb_rejects_phase_shifted_terminal(grid, model, packet):
    path = evolve(packet, model, 0.0, 1.0, 50)
    shifted = WavefunctionPath(path.times, np.exp(1j * 0.3) * path.psi, model)
    with pytest.raises(TerminalMismatch):
        hjb_residual(path, shifted)


def test_collapse_full_domain(grid, packet):
    out, p1 = collapse(packet, (grid.x_min, grid.x_max))
    assert p1 == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(out.values - packet.values)) < 1e-12


def test_collapse_half_line_symmetry(grid, packet):
    out, p1 = collapse(packet, (0.0, grid.x_max))
    assert p1 == pytest.approx(0.5, abs=1e-10)
    assert np.all(out.values[grid.points < 0.0] == 0.0)
    assert abs(norm_l2(out) - 1.0) < 1e-12


def test_collapse_erf_oracle():
    from scipy.special import erf

    fine = Grid1D(-8.0, 8.0, 8001)
    psi = gaussian_packet(fine, center=0.0, sigma0=1.0)  # |psi|^2 = N(0, 1)
    out, p1 = collapse(psi, (-1.0, 1.0))
    assert p1 == pytest.approx(erf(1.0 / np.sqrt(2.0)), abs=1e-6)
    assert erf(1.0 / np.sqrt(2.0)) == pytest.approx(0.682689, abs=1e-6)
    assert abs(norm_l2(out) - 1.0) < 1e-12
    outside = (fine.points < -1.0) | (fine.points > 1.0)
    assert np.all(out.values[outside] == 0.0)


def test_collapse_union_of_regions(grid, packet):
    out, p1 = collapse(packet, [(-2.0, -1.0), (1.0, 2.0)])
    assert np.all(out.values[np.abs(grid.points) < 1.0] == 0.0)
    assert 0.0 < p1 < 1.0
    assert abs(norm_l2(out) - 1.0) < 1e-12
    # overlapping regions merge into their union
    merged, q1 = collapse(packet, (-1.0, 1.0))
    out, p1 = collapse(packet, [(0.0, 1.0), (-1.0, 0.5)])
    assert p1 == q1 and np.array_equal(out.values, merged.values)


def test_collapse_gap_without_grid_points_is_one_run():
    # at h = 0.04 no grid point lies in the gap (0.01, 0.02): D is one run of
    # points from -1 to 1, and p1 is its trapezoid, as for (-1, 1)
    fine = Grid1D(-8.0, 8.0, 401)
    psi = gaussian_packet(fine, center=0.0, sigma0=1.0)  # |psi|^2 = N(0, 1)
    regions = [(-1.0, 0.01), (0.02, 1.0)]
    out, p1 = collapse(psi, regions)
    whole, q1 = collapse(psi, (-1.0, 1.0))
    assert p1 == q1 and np.array_equal(out.values, whole.values)
    cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    exact = cdf(0.01) - cdf(-1.0) + cdf(1.0) - cdf(0.02)
    # one trapezoid per region leaves out the cell [0, 0.04] the state keeps
    x, rho = fine.points, np.abs(psi.values) ** 2
    per_region = sum(np.trapezoid(rho[(x >= a) & (x <= b)], dx=fine.h) for a, b in regions)
    assert per_region - exact == pytest.approx(-1.2e-2, abs=1e-3)
    assert p1 - exact == pytest.approx(3.9e-3, abs=1e-4)


def test_collapse_zero_probability_region(grid, packet):
    with pytest.raises(ZeroProbabilityRegion):
        collapse(packet, (20.0, 30.0))
    masked = ComplexField(grid, np.where(grid.points < 0, packet.values, 0.0))
    with pytest.raises(ZeroProbabilityRegion):
        collapse(masked, (2.0, 3.0))


def test_finite_action_box_mode():
    g = Grid1D(0.0, np.pi, 401)
    psi = box_mode(g, n_mode=1)  # gradient norm k^2 = 1
    # one state held over a unit time: the action is that state's gradient norm
    still = WavefunctionPath([0.0, 1.0], [psi.values, psi.values], QuantumModel.free(g))
    assert finite_action(still) == pytest.approx(1.0, abs=1e-3)


def test_finite_action_gaussian_packet():
    g = Grid1D(-8.0, 8.0, 801)
    psi = gaussian_packet(g, center=0.0, sigma0=1.0)
    still = WavefunctionPath([0.0, 1.0], [psi.values, psi.values], QuantumModel.free(g))
    assert finite_action(still) == pytest.approx(0.25, abs=1e-4)


def test_finite_action_phase_invariance(grid, model, packet):
    path = evolve(packet, model, 0.0, 0.5, 50)
    rotated = WavefunctionPath(path.times, np.exp(1j * 1.1) * path.psi, model)
    assert abs(finite_action(path) - finite_action(rotated)) < 1e-12
    assert np.isfinite(finite_action(path))
