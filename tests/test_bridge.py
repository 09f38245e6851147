import dataclasses
import functools
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from sbridge.bridge import (
    BridgeProblem,
    BridgeSolution,
    bridge_density,
    bridge_drift_fields,
    floor_density,
    solve_schrodinger_system,
    time_reverse,
    wiener_backward_drift_fields,
    wiener_marginal_flow,
)
import sbridge.bridge
from sbridge.errors import NoConvergence, TimeNotStored, TruncationWarning
from sbridge.families import gaussian_density, indicator_density, mixture_density
from sbridge.grid import (Grid1D, ScalarField, _log_gradient_values, integrate, kl_divergence,
                          normalize)
from sbridge.kernels import TransitionKernel, heat_kernel
from sbridge.sde import GridDrift, path_entropy_forward, sample_forward

from oracles import (gaussian_bridge_marginal, heat_matrix, log_apply, log_heat_matrix,
                     plain_scaling)


@pytest.fixture(scope="module")
def setup():
    grid = Grid1D(-8.0, 8.0, 401)
    kernel = heat_kernel(grid, 0.0, 1.0, 1.0)
    rho0 = gaussian_density(grid, -1.0, 0.1)
    rho1 = gaussian_density(grid, 1.0, 0.1)
    problem = BridgeProblem(rho0, rho1, kernel, 1.0)
    sol = solve_schrodinger_system(problem, tol=1e-10, max_iter=5000)
    return grid, kernel, problem, sol


def test_trivial_bridge_prior_marginal(setup):
    grid, kernel, _, _ = setup
    rho0 = gaussian_density(grid, 0.0, 0.5)
    rho1 = normalize(wiener_marginal_flow(rho0, [0.0, 1.0], 1.0)[-1])
    problem = BridgeProblem(rho0, rho1, kernel, 1.0)
    sol = solve_schrodinger_system(problem, tol=1e-10)
    assert sol.iterations == 1
    assert sol.residual < 1e-10
    # potentials carry the trivial gauge: phi1 constant over the bulk
    bulk = np.abs(grid.points) <= 3.0
    phi1 = np.exp(sol.log_phi1)[bulk]
    assert phi1.max() / phi1.min() - 1.0 < 1e-6


def test_gaussian_problem_against_independent_linear_ipf(setup):
    grid, kernel, problem, sol = setup
    assert sol.residual < 1e-10
    assert sol.iterations < 500
    res0, res1 = sol.marginal_residuals()
    assert max(res0, res1) < 1e-8

    # independent oracle: mass-vector linear-domain IPF on the closed-form matrix
    matrix = heat_matrix(grid, kernel.variance)
    w = grid.weights
    a = w * problem.rho0.values
    b = w * problem.rho1.values
    u = np.ones_like(b)
    v = a.copy()
    for _ in range(5000):
        u = b / (matrix @ v)
        v = a / (matrix.T @ u)
        if np.abs(u * (matrix @ v) - b).sum() < 1e-12:
            break
    # compare gauge-invariant observable: the terminal-side potential product
    plan_marginal = np.exp(sol.log_phi1) * np.exp(
        np.log(np.maximum(matrix @ (w * np.exp(sol.log_phihat0)), 1e-300))
    ) / w
    oracle_marginal = u * (matrix @ v) / w
    assert np.max(np.abs(plan_marginal - oracle_marginal)) < 1e-8


def test_solver_rejects_impossible_budget(setup):
    grid, kernel, problem, _ = setup
    with pytest.raises(NoConvergence):
        solve_schrodinger_system(problem, tol=1e-14, max_iter=2)


def test_bridge_density_boundary_conditions(setup):
    grid, kernel, problem, sol = setup
    d0 = bridge_density(sol, 0.0)
    d1 = bridge_density(sol, 1.0)
    assert np.max(np.abs(d0.values - problem.rho0.values)) < 1e-8
    assert np.max(np.abs(d1.values - problem.rho1.values)) < 1e-8
    # times within 1e-12 of an end are that end
    assert np.array_equal(bridge_density(sol, -1e-13).values, d0.values)
    assert np.array_equal(bridge_density(sol, 1.0 + 1e-13).values, d1.values)


def test_bridge_density_mass_without_renormalization(setup):
    _, _, _, sol = setup
    for t in np.linspace(0.0, 1.0, 11):
        d = bridge_density(sol, t)
        assert abs(integrate(d) - 1.0) < 1e-6


def test_symmetric_problem_midpoint_density_is_even(setup):
    _, _, _, sol = setup
    d = bridge_density(sol, 0.5)
    assert np.max(np.abs(d.values - d.values[::-1])) < 1e-8


def test_trivial_bridge_drift_is_prior_drift(setup):
    grid, kernel, _, _ = setup
    rho0 = gaussian_density(grid, 0.0, 0.5)
    rho1 = normalize(wiener_marginal_flow(rho0, [0.0, 1.0], 1.0)[-1])
    sol = solve_schrodinger_system(BridgeProblem(rho0, rho1, kernel, 1.0), tol=1e-12)
    drift = bridge_drift_fields(sol, [0.5])[0]
    bulk = np.abs(grid.points) <= 3.0
    assert np.max(np.abs(drift.values[bulk])) < 1e-8


@pytest.mark.filterwarnings("ignore::sbridge.errors.TruncationWarning")
def test_pinned_bridge_drift_matches_brownian_bridge():
    # near-delta pins keep all mass within |x| < 2, so the narrow domain is fine
    grid = Grid1D(-4.0, 4.0, 1601)
    kernel = heat_kernel(grid, 0.0, 1.0, 1.0)
    rho0 = gaussian_density(grid, 0.0, 1e-3)
    rho1 = gaussian_density(grid, 0.0, 1e-3)
    sol = solve_schrodinger_system(BridgeProblem(rho0, rho1, kernel, 1.0), tol=1e-10)
    for t in (0.3, 0.5, 0.7):
        drift = bridge_drift_fields(sol, [t])[0]
        sel = (np.abs(grid.points) >= 0.3) & (np.abs(grid.points) <= 1.5)
        expected = -grid.points[sel] / (1.0 - t)
        rel = np.abs(drift.values[sel] - expected) / np.abs(expected)
        assert np.max(rel) < 0.02


def test_gaussian_bridge_drift_is_affine(setup):
    grid, _, _, sol = setup
    drift = bridge_drift_fields(sol, [0.5])[0]
    bulk = np.abs(grid.points) <= 2.5
    x = grid.points[bulk]
    y = drift.values[bulk]
    coef = np.polyfit(x, y, 1)
    assert np.max(np.abs(y - np.polyval(coef, x))) < 1e-3


def test_half_bridge_values(setup):
    grid, kernel, _, _ = setup
    rho0 = gaussian_density(grid, 0.0, 1.0)
    prior_t1 = normalize(wiener_marginal_flow(rho0, [0.0, 1.0], 1.0)[-1])

    # the half bridge keeps the prior's backward drift; its relative entropy is
    # the divergence of rho1 from the prior marginal at t1
    assert kl_divergence(prior_t1, prior_t1) == 0.0

    rho1 = gaussian_density(grid, 0.0, 1.0)
    # closed-form Gaussian divergence: 1/2 (1/2 + ln 2 - 1)
    expected = 0.5 * (0.5 + np.log(2.0) - 1.0)
    assert kl_divergence(rho1, prior_t1) == pytest.approx(expected, abs=1e-6)


def test_double_time_reversal_is_identity(setup):
    _, _, _, sol = setup
    back = time_reverse(time_reverse(sol))
    assert np.max(np.abs(back.log_phi1 - sol.log_phi1)) < 1e-10
    assert np.max(np.abs(back.log_phihat0 - sol.log_phihat0)) < 1e-10


def test_time_reversal_matches_independently_solved_reverse(setup):
    _, kernel, problem, sol = setup
    reversed_sol = time_reverse(sol)
    fresh = solve_schrodinger_system(
        BridgeProblem(problem.rho1, problem.rho0, kernel, 1.0), tol=1e-12
    )
    for t in (0.25, 0.5, 0.75):
        d_rev = bridge_density(reversed_sol, t)
        d_fresh = bridge_density(fresh, t)
        assert np.max(np.abs(d_rev.values - d_fresh.values)) < 1e-8
        # reflected original density
        d_orig = bridge_density(sol, 1.0 - t)
        assert np.max(np.abs(d_rev.values - d_orig.values)) < 1e-8


def test_reversed_drift_satisfies_duality(setup):
    grid, kernel, problem, sol = setup
    t = 0.5  # symmetric instant; t' = t0 + t1 - t = t
    fwd_rev = bridge_drift_fields(time_reverse(sol), [t])[0]
    fwd_orig = bridge_drift_fields(sol, [t])[0]
    rho_t = bridge_density(sol, t)
    # backward drift of the original by the drift/density duality
    gamma_orig = fwd_orig.values - 1.0 * _log_gradient_values(rho_t.values, grid.h)
    bulk = np.abs(grid.points) <= 2.5
    assert np.max(np.abs(fwd_rev.values[bulk] + gamma_orig[bulk])) < 1e-3


def test_gauge_freedom_leaves_observables_unchanged(setup):
    _, _, problem, sol = setup
    c = 37.5
    rescaled = BridgeSolution(
        problem=problem,
        log_phi1=sol.log_phi1 + np.log(c),
        log_phihat0=sol.log_phihat0 - np.log(c),
        iterations=sol.iterations,
        residual=sol.residual,
    )
    d1 = bridge_density(sol, 0.5)
    d2 = bridge_density(rescaled, 0.5)
    assert np.max(np.abs(d1.values - d2.values)) < 1e-12
    b1 = bridge_drift_fields(sol, [0.5])[0]
    b2 = bridge_drift_fields(rescaled, [0.5])[0]
    assert np.max(np.abs(b1.values - b2.values)) < 1e-12


def test_residual_history_is_monotone(setup):
    # over-relaxation may raise a residual (the safeguard allows up to twice
    # the best); on this problem the rate-read omega never does
    _, _, _, sol = setup
    hist = sol.residual_history
    assert np.all(np.diff(hist) <= 1e-14)


def test_path_entropy_matches_static_plan_entropy(setup):
    grid, kernel, problem, sol = setup
    # static route: H(Q, P) from the discrete endpoint plan, P = Wiener from rho0
    w = grid.weights
    a = w * problem.rho0.values
    b = w * problem.rho1.values
    static_plan = float(
        b @ sol.log_phi1 + a @ (sol.log_phihat0 - np.log(problem.rho0.values))
    )

    # dynamic route: GIR1 with beta_P = 0 and Q sampled under the bridge drift
    store = np.linspace(0.0, 1.0, 101)
    drift = GridDrift(store, bridge_drift_fields(sol, store))
    times = np.linspace(0.0, 1.0, 501)
    ens = sample_forward(drift, problem.rho0, 1.0, times, n_paths=20000, seed=99)
    report = path_entropy_forward(
        problem.rho0, problem.rho0, drift, lambda x, t: 0 * x, ens, 1.0
    )
    assert report.static_term == 0.0
    assert abs(report.total - static_plan) < 0.05 * static_plan


def test_wiener_flow_and_backward_drift_fields():
    grid = Grid1D(-10.0, 10.0, 401)
    rho0 = gaussian_density(grid, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 11)
    flow = wiener_marginal_flow(rho0, times, 1.0)
    target = gaussian_density(grid, 0.0, 2.0)
    assert np.max(np.abs(flow[-1].values - target.values)) < 1e-6
    gammas = wiener_backward_drift_fields(rho0, times, 1.0)
    bulk = np.abs(grid.points) <= 3.0
    expected = grid.points[bulk] / 2.0  # x / (1 + t) at t = 1
    assert np.max(np.abs(gammas[-1].values[bulk] - expected)) < 1e-4
    for bad in ([0.0, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError, match="strictly increasing"):
            wiener_marginal_flow(rho0, bad, 1.0)


def test_wiener_flow_mass_with_under_resolved_steps():
    # sqrt(sigma2 dt) = 0.022 < h = 0.04: a compounded one-step kernel grows the mass
    grid = Grid1D(-8.0, 8.0, 401)
    rho0 = gaussian_density(grid, -1.0, 0.25)
    flow = wiener_marginal_flow(rho0, np.linspace(0.0, 1.0, 101), 0.05)
    assert abs(integrate(flow[-1]) - 1.0) < 1e-6


def test_drift_fields_match_per_time_drift(setup):
    # one batched sweep, t0 and t1 included, equals the single-time drifts bit for bit
    _, _, _, sol = setup
    times = np.linspace(0.0, 1.0, 11)
    for sl in (sol, time_reverse(sol)):
        for t, f in zip(times, bridge_drift_fields(sl, times)):
            assert np.array_equal(f.values, bridge_drift_fields(sl, [t])[0].values)


def test_flow_rows_equal_single_time_flows():
    grid = Grid1D(-8.0, 8.0, 401)
    rho0 = gaussian_density(grid, -1.0, 0.25)
    times = np.linspace(0.0, 1.0, 11)
    flow = wiener_marginal_flow(rho0, times, 0.05)
    drifts = wiener_backward_drift_fields(rho0, times, 0.05)
    assert flow[0] is rho0
    assert np.array_equal(drifts[0].values,
                          wiener_backward_drift_fields(rho0, times[:1], 0.05)[0].values)
    for k in range(1, times.size):
        assert np.array_equal(flow[k].values,
                              wiener_marginal_flow(rho0, times[[0, k]], 0.05)[-1].values)
        assert np.array_equal(drifts[k].values,
                              wiener_backward_drift_fields(rho0, times[[0, k]], 0.05)[-1].values)


@pytest.mark.parametrize("sigma2", [1.0, 0.2, 0.05])
def test_gaussian_bridge_matches_closed_form(sigma2):
    grid = Grid1D(-10.0, 10.0, 801)
    ends = (-1.0, 0.25, 1.0, 0.25)
    problem = BridgeProblem(gaussian_density(grid, *ends[:2]), gaussian_density(grid, *ends[2:]),
                            heat_kernel(grid, 0.0, 1.0, sigma2), sigma2)
    sol = solve_schrodinger_system(problem, tol=1e-12)
    for t in (0.25, 0.5, 0.75):
        exact = gaussian_bridge_marginal(grid.points, t, *ends, sigma2)
        assert np.dot(grid.weights, np.abs(bridge_density(sol, t).values - exact)) <= 1e-10


#: sigma2, grid size, and the iteration counts of plain scaling and of the
#: over-relaxed solver on the benchmark's Fortet marginals over [-8, 8], tol 1e-9
FORTET_COUNTS = [(1.0, 801, 11, 10), (0.2, 401, 41, 20), (0.05, 401, 162, 49),
                 (0.01, 161, 808, 806)]


def fortet_problem(sigma2, n):
    grid = Grid1D(-8.0, 8.0, n)
    rho1 = mixture_density(grid, [(0.6, {"kind": "gaussian", "mean": 0.5, "var": 0.1}),
                                  (0.4, {"kind": "gaussian", "mean": 1.8, "var": 0.1})])
    return BridgeProblem(gaussian_density(grid, -1.0, 0.25), rho1,
                         heat_kernel(grid, 0.0, 1.0, sigma2), sigma2)


@functools.cache
def fortet_pair(sigma2, n):
    """The over-relaxed solve, run with warnings as errors, and the plain reference."""
    problem = fortet_problem(sigma2, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_schrodinger_system(problem)
    return sol, plain_scaling(problem.kernel.grid, problem.rho0.values, problem.rho1.values, sigma2)


@pytest.mark.parametrize("sigma2, n, plain, over", FORTET_COUNTS)
def test_over_relaxed_solve_takes_fewer_iterations(sigma2, n, plain, over):
    sol, (_, _, ref_iterations) = fortet_pair(sigma2, n)
    assert ref_iterations == plain
    assert sol.iterations == over <= plain
    assert sol.residual < 1e-9 and max(sol.marginal_residuals()) < 1e-8


# at sigma2 = 0.01 the grid under-resolves the half-span kernel, so the
# midpoint mass is off by 7e-5 in both solves of the same discrete problem
@pytest.mark.filterwarnings("ignore::sbridge.errors.MassDefectWarning")
@pytest.mark.parametrize("sigma2, n", [case[:2] for case in FORTET_COUNTS])
def test_over_relaxed_densities_match_plain_reference(sigma2, n):
    sol, (log_phi1, log_phihat0, _) = fortet_pair(sigma2, n)
    grid = sol.problem.kernel.grid
    for t in (0.0, 0.5, 1.0):
        log_phi = log_phi1 if t == 1.0 else log_apply(log_heat_matrix(grid, sigma2 * (1 - t)),
                                                      log_phi1)
        log_phihat = log_phihat0 if t == 0.0 else log_apply(log_heat_matrix(grid, sigma2 * t),
                                                            log_phihat0)
        ref = np.exp(log_phi + log_phihat)
        assert np.max(np.abs(bridge_density(sol, t).values - ref)) < 1e-8


def test_safeguard_rescues_the_small_sigma2_solve(monkeypatch):
    # at sigma2 = 0.01 the rate read from the history gives an omega that
    # diverges; the safeguard falls back to plain scaling, which converges
    # with no warning (fortet_pair solves with warnings as errors)
    sol, _ = fortet_pair(0.01, 161)
    history = sol.residual_history
    assert np.any(history[1:] > 2.0 * np.minimum.accumulate(history)[:-1])
    assert sol.residual < 1e-9
    monkeypatch.setattr(sbridge.bridge, "_SAFEGUARD", np.inf)
    with pytest.raises(NoConvergence) as failed:
        solve_schrodinger_system(sol.problem, max_iter=300)
    assert failed.value.residual > 1.0


def test_narrow_solve_over_exact_zero_kernel_band():
    # at sigma2 = 0.05 kernel entries vanish exactly beyond |x - y| = 8.6
    grid = Grid1D(-8.0, 8.0, 401)
    kernel = heat_kernel(grid, 0.0, 1.0, 0.05)
    assert np.any(heat_matrix(grid, kernel.variance) == 0.0)
    rho0 = gaussian_density(grid, -1.0, 0.25)
    rho1 = mixture_density(grid, [
        (0.6, {"kind": "gaussian", "mean": 0.5, "var": 0.1}),
        (0.4, {"kind": "gaussian", "mean": 1.8, "var": 0.1}),
    ])
    sol = solve_schrodinger_system(BridgeProblem(rho0, rho1, kernel, 0.05), tol=1e-9)
    assert max(sol.marginal_residuals()) < 1e-8


def test_mixture_density_components(setup):
    grid = setup[0]
    gauss = {"kind": "gaussian", "mean": 0.5, "var": 0.1}
    single = mixture_density(grid, [(2.0, gauss)])
    assert np.max(np.abs(single.values - gaussian_density(grid, 0.5, 0.1).values)) < 1e-14
    box = mixture_density(grid, [(1.0, {"kind": "indicator", "a": -1.0, "b": 1.0})])
    assert np.all(box.values[np.abs(grid.points) > 1.0] == 0.0)
    with pytest.raises(ValueError):
        mixture_density(grid, [(1.0, {"kind": "csv", "path": "rho.csv"})])
    with pytest.raises(ValueError):
        mixture_density(grid, [(-0.5, gauss), (1.5, gauss)])
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            gaussian_density(grid, 0.0, bad)


def test_problem_rejects_kernel_of_other_variance(setup):
    grid, kernel, problem, _ = setup
    with pytest.raises(ValueError):
        BridgeProblem(problem.rho0, problem.rho1, kernel, 0.5)
    with pytest.warns(TruncationWarning):
        wide = heat_kernel(grid, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        BridgeProblem(problem.rho0, problem.rho1, wide, 1.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            BridgeProblem(problem.rho0, problem.rho1, kernel, bad)


def test_times_outside_the_problem_interval_are_rejected(setup):
    _, _, _, sol = setup
    with pytest.raises(TimeNotStored):
        bridge_drift_fields(sol, [0.5, 1.5])
    with pytest.raises(TimeNotStored):
        bridge_drift_fields(sol, [-0.5])
    with pytest.raises(TimeNotStored):
        bridge_density(sol, np.nan)


#: weight, mean and variance of the first component, mean and variance of the second
MIXTURES = st.tuples(st.floats(0.2, 0.8), st.floats(-1.5, 1.5), st.floats(0.05, 0.5),
                     st.floats(-1.5, 1.5), st.floats(0.05, 0.5))


def two_gaussians(grid, w, m1, v1, m2, v2):
    return mixture_density(grid, [(w, {"kind": "gaussian", "mean": m1, "var": v1}),
                                  (1.0 - w, {"kind": "gaussian", "mean": m2, "var": v2})])


# wide-sigma2 kernels are truncated by the domain and warn so; the two
# invariants below are exact for the truncated discrete problem all the same
@pytest.mark.filterwarnings("ignore::sbridge.errors.TruncationWarning")
@pytest.mark.filterwarnings("ignore::sbridge.errors.MassDefectWarning")
@settings(max_examples=20)
@example(sigma2=0.01, a=(0.3, -1.5, 0.05, 1.0, 0.2), b=(0.7, -0.5, 0.1, 1.5, 0.05))
@given(sigma2=st.floats(-2.0, np.log10(4.0)).map(lambda e: 10.0**e), a=MIXTURES, b=MIXTURES)
def test_bridge_marginals_and_reversal_over_gaussian_mixtures(sigma2, a, b):
    # sigma2 = 0.01 is where linear-domain scaling underflows
    grid = Grid1D(-4.0, 4.0, 201)
    kernel = heat_kernel(grid, 0.0, 1.0, sigma2)
    problem = BridgeProblem(two_gaussians(grid, *a), two_gaussians(grid, *b), kernel, sigma2)
    sol = solve_schrodinger_system(problem)
    assert max(sol.marginal_residuals()) < 1e-8
    fresh = solve_schrodinger_system(BridgeProblem(problem.rho1, problem.rho0, kernel, sigma2))
    reversed_sol = time_reverse(sol)
    for t in (0.25, 0.5, 0.75):
        d_rev = bridge_density(reversed_sol, t)
        d_fresh = bridge_density(fresh, t)
        assert np.max(np.abs(d_rev.values - d_fresh.values)) < 1e-8


@st.composite
def scaled_problems(draw):
    # a domain [-L, L] of any scale, sigma2 a random multiple of L^2, and
    # marginals of random values with exact zeros, so the floor is exercised
    n = draw(st.integers(5, 40))
    half = 10.0 ** draw(st.floats(-150.0, 150.0))
    grid = Grid1D(-half, half, n)
    sigma2 = half**2 * 10.0 ** draw(st.floats(-1.5, 0.5))
    marginals = []
    for _ in range(2):
        values = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
        values[draw(st.integers(0, n - 1))] = 1.0
        marginals.append(normalize(ScalarField(grid, values)))
    return BridgeProblem(*marginals, TransitionKernel(grid, 0.0, 1.0, sigma2), sigma2)


@given(scaled_problems())
def test_solver_potentials_and_drifts_are_finite(problem):
    # floored marginals have finite logs and propagation keeps logs finite,
    # so no potential of the solver and no drift can degenerate
    try:
        sol = solve_schrodinger_system(problem, max_iter=300)
    except NoConvergence:
        assume(False)
    assert np.all(np.isfinite(sol.log_phi1)) and np.all(np.isfinite(sol.log_phihat0))
    for t in (0.0, 0.5, 1.0):
        assert np.all(np.isfinite(bridge_drift_fields(sol, [t])[0].values))


def test_floor_that_underflows_is_refused():
    # on a domain 2e300 wide a unit-mass density peaks near 1e-300, so
    # DENSITY_FLOOR times its peak underflows to 0, whose log is -inf
    grid = Grid1D(-1e300, 1e300, 21)
    rho = indicator_density(grid, -2e299, 2e299)
    with pytest.raises(ValueError, match="underflows"):
        floor_density(rho)


@pytest.mark.parametrize("name, values", [
    pytest.param("log_phi1", lambda v: np.append(v[:-1], -np.inf), id="minus-inf-phi1"),
    pytest.param("log_phihat0", lambda v: np.append(np.nan, v[1:]), id="nan-phihat0"),
    pytest.param("log_phi1", lambda v: v[:-1], id="short-phi1"),
    pytest.param("log_phihat0", lambda v: np.stack([v, v]), id="2d-phihat0"),
])
def test_solution_refuses_non_finite_or_misshapen_potentials(setup, name, values):
    _, _, _, sol = setup
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(sol, **{name: values(getattr(sol, name))})


def test_wiener_flow_refuses_a_variance_whose_normaliser_overflows(setup):
    grid = setup[0]
    with pytest.raises(ValueError, match="normaliser"):
        wiener_marginal_flow(gaussian_density(grid, 0.0, 1.0), [0.0, 1.0], 1e308)
