"""Inputs, pipelines and checks of the three benchmark workloads.

build_inputs() is the set-up: the grids, models and marginals a pipeline
needs. run_pipeline() runs one paper pipeline on them and returns its
figures and the outcome of every correctness check. Only public sbridge
functions are called, each through the tracer, so a traced run can charge
the time to the module that owns the call. NOTES.md says why each workload
exists and which checks fail at the seed.
"""

from __future__ import annotations

import numpy as np

import sbridge as sb
from sbridge.errors import ToolkitError

WORKLOADS = ("nelson_recondition", "fortet_wide", "fortet_narrow")

#: full sizes are the benchmark; toy sizes only exercise the code for the smoke test
SIZES = {
    "nelson_recondition": {
        "full": {"n": 2001, "n_side": 2401, "steps": 400, "paths": 10_000, "n_hist": 201},
        "toy": {"n": 201, "n_side": 241, "steps": 40, "paths": 400, "n_hist": 41},
    },
    "fortet_wide": {
        "full": {"n": 801, "n_times": 101, "paths": 30_000, "n_hist": 201},
        "toy": {"n": 161, "n_times": 21, "paths": 400, "n_hist": 41},
    },
    "fortet_narrow": {
        "full": {"n": 401, "n_times": 101, "paths": 30_000, "n_hist": 201},
        "toy": {"n": 161, "n_times": 21, "paths": 400, "n_hist": 41},
    },
}

#: sigma^2 of the Wiener prior in the two Fortet workloads
FORTET_SIGMA2 = {"fortet_wide": 1.0, "fortet_narrow": 0.05}

#: tolerances, each that of the tier-1 test covering the same invariant
MARGINAL_TOL = 1e-8
COLLAPSE_TOL = 1e-12
HJB_TOL = 1e-3
ENERGY_TOL = 1e-10
GIRSANOV_ABS = 2e-3

#: checks that fail at the seed commit; they are counted in fail_fraction but
#: do not make a run incorrect (see NOTES.md for the cause of each)
SEED_FAILURES = {
    "nelson_recondition": ("collapse_leg", "side_leg_kl", "hjb_residual"),
    "fortet_wide": (),
    "fortet_narrow": ("girsanov_agreement",),
}


def build_inputs(workload: str, size: str) -> dict:
    """Grids, models and marginals of one workload (the timed set-up)."""
    cfg = dict(SIZES[workload][size])
    if workload == "nelson_recondition":
        return {"cfg": cfg, "main": _quantum_leg(cfg["n"], 10.0, 1.0),
                "side": _quantum_leg(cfg["n_side"], 12.0, 0.7)}
    grid = sb.Grid1D(-8.0, 8.0, cfg["n"])
    return {
        "cfg": cfg,
        "grid": grid,
        "sigma2": FORTET_SIGMA2[workload],
        "times": np.linspace(0.0, 1.0, cfg["n_times"]),
        "rho0": sb.gaussian_density(grid, -1.0, 0.25),
        "rho1": sb.mixture_density(grid, [
            (0.6, {"kind": "gaussian", "mean": 0.5, "var": 0.1}),
            (0.4, {"kind": "gaussian", "mean": 1.8, "var": 0.1}),
        ]),
    }


def _quantum_leg(n: int, half_width: float, sigma0: float) -> dict:
    """Harmonic trap V = x^2/8 with hbar = m = 1 and a packet centred at -1, k0 = 1."""
    grid = sb.Grid1D(-half_width, half_width, n)
    potential = sb.ScalarField(grid, grid.points**2 / 8.0)
    return {
        "grid": grid,
        "model": sb.QuantumModel(1.0, 1.0, potential, grid),
        "psi0": sb.gaussian_packet(grid, center=-1.0, sigma0=sigma0, k0=1.0),
        "rho1": sb.gaussian_density(grid, 0.5, 1.0),
    }


def run_pipeline(workload: str, inputs: dict, seeds, tracer) -> dict:
    """One full pipeline; returns {"checks": [...], "figures": {...}}."""
    checks = Checks(workload)
    if workload == "nelson_recondition":
        figures = _nelson(inputs, seeds, tracer, checks)
    else:
        figures = _fortet(inputs, seeds, tracer, checks)
    return {"checks": checks.records, "figures": figures}


class Checks:
    """Outcome of each correctness check, with the error class of a failure.

    Statistical checks compare a Monte Carlo estimate against a multiple of
    its standard error; they fail now and then by design, so they count in
    fail_fraction but never make a run incorrect.
    """

    def __init__(self, workload: str):
        self.seed_failures = SEED_FAILURES[workload]
        self.records: list[dict] = []

    def add(self, name: str, compute, limit: float, statistical: bool = False):
        """Run compute() -> value and pass it when value <= limit.

        An sbridge error or validation ValueError from compute() fails the
        check under that error's class; any other exception propagates.
        """
        value, error, message = None, None, None
        try:
            value = float(compute())
        except (ToolkitError, ValueError) as exc:
            error, message = type(exc).__name__, str(exc)
        if error is None and not value <= limit:
            error = "ToleranceExceeded"
        self.records.append({
            "name": name,
            "ok": error is None,
            "error": error,
            "message": message,
            "value": value,
            "limit": limit,
            "statistical": statistical,
            "seed_failure": name in self.seed_failures,
        })


def _coarse_l1(ens, t: float, target, n_hist: int) -> float:
    """L1 distance of the ensemble's histogram at t from target, on n_hist cells."""
    grid = target.grid
    stride = (grid.n_points - 1) // (n_hist - 1)
    coarse = sb.Grid1D(grid.x_min, grid.x_max, n_hist)
    ref = sb.normalize(sb.ScalarField(coarse, target.values[::stride]))
    return sb.l1_distance(sb.empirical_density(ens, t, coarse), ref)


def _girsanov(checks: Checks, fwd, bwd) -> dict:
    allowed = 3.0 * (fwd.mc_std_error + bwd.mc_std_error) + GIRSANOV_ABS
    checks.add("girsanov_agreement", lambda: abs(fwd.total - bwd.total), allowed,
               statistical=True)
    return {
        "girsanov_forward": fwd.total,
        "girsanov_backward": bwd.total,
        "girsanov_gap": abs(fwd.total - bwd.total) / abs(fwd.total),
        "mc_se": fwd.mc_std_error + bwd.mc_std_error,
    }


def _ensemble_figures(drifts, ens) -> dict:
    evals = sum(d.n_eval for d in drifts)
    clamped = sum(d.n_clamped for d in drifts)
    return {
        "n_paths": ens.n_paths,
        "n_steps": ens.times.shape[0] - 1,
        "ensemble_mb": ens.positions.nbytes / 2**20,
        "clamp_fraction": clamped / evals,
    }


def _nelson(inp: dict, seeds, tr, checks: Checks) -> dict:
    cfg, main = inp["cfg"], inp["main"]
    model, grid = main["model"], main["grid"]
    sigma2 = model.sigma2

    path = tr.call("quantum.evolve", sb.evolve, main["psi0"], model, 0.0, 1.0, cfg["steps"])
    tilde = tr.call("quantum.quantum_bridge", sb.quantum_bridge, path, main["rho1"])
    energies = [tr.call("quantum.energy", sb.energy, s, model) for s in path.states]
    energy_defect = (max(energies) - min(energies)) / abs(energies[0])
    checks.add("energy_conserved", lambda: energy_defect, ENERGY_TOL)

    times = path.times
    d_p = [tr.call("quantum.drifts", sb.drifts, s, model) for s in path.states]
    d_q = [tr.call("quantum.drifts", sb.drifts, s, model) for s in tilde.states]
    beta_p = tr.grid_drift(times, [d.beta for d in d_p])
    gamma_p = tr.grid_drift(times, [d.gamma for d in d_p])
    beta_q = tr.grid_drift(times, [d.beta for d in d_q])
    gamma_q = tr.grid_drift(times, [d.gamma for d in d_q])
    rho_p0 = tr.call("quantum.density_at", path.density_at, path.t0)
    rho_p1 = tr.call("quantum.density_at", path.density_at, path.t1)
    rho_q0 = tr.call("quantum.density_at", tilde.density_at, tilde.t0)
    rho_q1 = tr.call("quantum.density_at", tilde.density_at, tilde.t1)

    n_paths = cfg["paths"]
    ens_f = tr.call("sde.sample_forward", sb.sample_forward,
                    beta_q, rho_q0, sigma2, times, n_paths, seeds[0])
    ens_b = tr.call("sde.sample_backward", sb.sample_backward,
                    gamma_q, rho_q1, sigma2, times, n_paths, seeds[1])
    sampled = _ensemble_figures((beta_q, gamma_q), ens_f)

    fwd = tr.call("entropy.path_entropy_forward", sb.path_entropy_forward,
                  rho_q0, rho_p0, beta_q, beta_p, ens_f, sigma2)
    bwd = tr.call("entropy.path_entropy_backward", sb.path_entropy_backward,
                  rho_q1, rho_p1, gamma_q, gamma_p, ens_f, sigma2)
    figures = _girsanov(checks, fwd, bwd)

    x2 = sb.ScalarField(grid, grid.points**2)
    gen = tr.call("sde.generator_check", sb.generator_check, x2, ens_f, beta_q, sigma2)
    checks.add("generator_check", lambda: gen.discrepancy, 3.0 * gen.std_error,
               statistical=True)

    with tr.span("sde.empirical_density"):
        l1_f = _coarse_l1(ens_f, tilde.t1, rho_q1, cfg["n_hist"])
        l1_b = _coarse_l1(ens_b, tilde.t0, rho_q0, cfg["n_hist"])

    # Terminal legs: nothing downstream uses them, so fixing one later
    # changes pass_fraction without moving wall_s.
    def collapse_leg():
        collapsed, _ = tr.call("quantum.collapse", sb.collapse, path.states[-1],
                               (0.0, grid.x_max))
        rho_c = sb.DensityField(grid, np.abs(collapsed.values) ** 2)
        tilde_c = tr.call("quantum.quantum_bridge", sb.quantum_bridge, path, rho_c)
        return np.max(np.abs(tilde_c.states[-1].values - collapsed.values))

    checks.add("collapse_leg", collapse_leg, COLLAPSE_TOL)

    def side_leg():
        side = inp["side"]
        side_path = tr.call("quantum.evolve", sb.evolve, side["psi0"], side["model"],
                            0.0, 1.0, cfg["steps"])
        side_tilde = tr.call("quantum.quantum_bridge", sb.quantum_bridge,
                             side_path, side["rho1"])
        rho0 = sb.DensityField(side["grid"], np.abs(side["psi0"].values) ** 2)
        rho_t0 = tr.call("quantum.density_at", side_tilde.density_at, side_tilde.t0)
        kl = tr.call("entropy.kl_divergence", sb.kl_divergence, rho_t0, rho0)
        return 0.0 if np.isfinite(kl) else np.inf

    checks.add("side_leg_kl", side_leg, 0.0)

    hjb = [np.nan]

    def hjb_leg():
        hjb[0] = tr.call("quantum.hjb_residual", sb.hjb_residual, path, tilde)
        return hjb[0]

    checks.add("hjb_residual", hjb_leg, HJB_TOL)

    figures.update(sampled)
    figures.update({
        "density_l1": 0.5 * (l1_f + l1_b),
        "energy_defect": energy_defect,
        "hjb_residual": hjb[0],
        "evolve_steps": cfg["steps"],
    })
    return figures


def _zero_drift(x, t):
    return np.zeros_like(x)


def _fortet(inp: dict, seeds, tr, checks: Checks) -> dict:
    cfg, grid, times = inp["cfg"], inp["grid"], inp["times"]
    sigma2 = inp["sigma2"]

    kernel = tr.call("kernels.heat_kernel", sb.heat_kernel, grid, times[0], times[-1], sigma2)
    problem = tr.call("bridge.BridgeProblem", sb.BridgeProblem,
                      inp["rho0"], inp["rho1"], kernel, sigma2)
    # the bridge and its Wiener prior both start from the solver's floored marginals
    rho0, rho1 = problem.rho0, problem.rho1
    sol = tr.call("bridge.solve_schrodinger_system", sb.solve_schrodinger_system,
                  problem, tol=1e-9)
    residuals = tr.call("bridge.marginal_residuals", sol.marginal_residuals)
    checks.add("marginal_residuals", lambda: max(residuals), MARGINAL_TOL)

    beta_fields = tr.call("bridge.bridge_drift_fields", sb.bridge_drift_fields, sol, times)
    rev = tr.call("bridge.time_reverse", sb.time_reverse, sol)
    rev_fields = tr.call("bridge.bridge_drift_fields", sb.bridge_drift_fields, rev, times)
    # the reversed bridge's forward drift at s is minus the backward drift at 1 - s
    gamma_fields = [sb.ScalarField(grid, -f.values) for f in reversed(rev_fields)]
    flow = tr.call("bridge.wiener_marginal_flow", sb.wiener_marginal_flow, rho0, times, sigma2)
    gamma_p_fields = tr.call("bridge.wiener_backward_drift_fields",
                             sb.wiener_backward_drift_fields, rho0, times, sigma2)

    beta_q = tr.grid_drift(times, beta_fields)
    gamma_q = tr.grid_drift(times, gamma_fields)
    gamma_p = tr.grid_drift(times, gamma_p_fields)

    n_paths = cfg["paths"]
    ens_f = tr.call("sde.sample_forward", sb.sample_forward,
                    beta_q, rho0, sigma2, times, n_paths, seeds[0])
    ens_b = tr.call("sde.sample_backward", sb.sample_backward,
                    gamma_q, rho1, sigma2, times, n_paths, seeds[1])
    sampled = _ensemble_figures((beta_q, gamma_q), ens_f)

    fwd = tr.call("entropy.path_entropy_forward", sb.path_entropy_forward,
                  rho0, rho0, beta_q, _zero_drift, ens_f, sigma2)
    bwd = tr.call("entropy.path_entropy_backward", sb.path_entropy_backward,
                  rho1, flow[-1], gamma_q, gamma_p, ens_f, sigma2)
    figures = _girsanov(checks, fwd, bwd)

    with tr.span("sde.empirical_density"):
        l1_f = _coarse_l1(ens_f, times[-1], rho1, cfg["n_hist"])
        l1_b = _coarse_l1(ens_b, times[0], rho0, cfg["n_hist"])

    figures.update(sampled)
    figures.update({
        "density_l1": 0.5 * (l1_f + l1_b),
        "solve_iters": sol.iterations,
        "marginal_residual": max(residuals),
        "drift_times": 2 * len(times),
        "flow_mass": sb.integrate(flow[-1]),
        "kernel_mb": grid.n_points**2 * 8 * (2 if "log_matrix" in vars(kernel) else 1) / 2**20,
    })
    return figures
