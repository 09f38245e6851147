"""Packaging metadata: every declared console script must resolve, and the
package loads only what its callers run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_name_importable_callables():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


#: toy Nelson and Fortet pipelines, run on numpy alone in a fresh interpreter
PIPELINES = """\
import sys
import numpy as np
import sbridge as sb
g = sb.Grid1D(-8.0, 8.0, 201)
model = sb.QuantumModel(1.0, 1.0, sb.ScalarField(g, g.points**2 / 8.0), g)
path = sb.evolve(sb.gaussian_packet(g, -1.0, 1.0, k0=1.0), model, 0.0, 1.0, 40)
tilde = sb.quantum_bridge(path, sb.gaussian_density(g, 0.5, 1.0))
assert abs(sb.norm_l2(tilde.states[0]) - 1.0) < 1e-12
beta_p = sb.GridDrift(path.times, [sb.drifts(s, model).beta for s in path.states])
decs = [sb.drifts(s, model) for s in tilde.states]
beta_q = sb.GridDrift(tilde.times, [d.beta for d in decs])
gamma_q = sb.GridDrift(tilde.times, [d.gamma for d in decs])
rho_q0, rho_p0 = tilde.density_at(tilde.t0), path.density_at(path.t0)
ens = sb.sample_forward(beta_q, rho_q0, model.sigma2, tilde.times, 400, 1)
report = sb.path_entropy_forward(rho_q0, rho_p0, beta_q, beta_p, ens, model.sigma2)
assert np.isfinite(report.total)
# two path blocks each way: the same seed gives the same bytes
for sample, drift, rho in ((sb.sample_forward, beta_q, rho_q0),
                           (sb.sample_backward, gamma_q, tilde.density_at(tilde.t1))):
    a, b = (sample(drift, rho, model.sigma2, tilde.times, 16385, 1) for _ in range(2))
    assert a.positions.tobytes() == b.positions.tobytes()
# toy Fortet bridge: solver, drifts of the bridge and of its reversal,
# backward drifts of the Wiener prior, backward sampling, Girsanov split
times = np.linspace(0.0, 1.0, 21)
rho_a, rho_b = sb.gaussian_density(g, -1.0, 0.25), sb.gaussian_density(g, 1.0, 0.25)
problem = sb.BridgeProblem(rho_a, rho_b, sb.heat_kernel(g, 0.0, 1.0, 1.0), 1.0)
sol = sb.solve_schrodinger_system(problem)
assert len(sb.bridge_drift_fields(sol, times)) == len(times)
rev_fields = sb.bridge_drift_fields(sb.time_reverse(sol), times)
gamma_b = sb.GridDrift(times, [sb.ScalarField(g, -f.values) for f in reversed(rev_fields)])
gamma_w = sb.GridDrift(times, sb.wiener_backward_drift_fields(problem.rho0, times, 1.0))
ens_b = sb.sample_backward(gamma_b, problem.rho1, 1.0, times, 400, 2)
prior_t1 = sb.wiener_marginal_flow(problem.rho0, times, 1.0)[-1]
fortet = sb.path_entropy_backward(problem.rho1, prior_t1, gamma_b, gamma_w, ens_b, 1.0)
assert sol.residual < 1e-9 and np.isfinite(fortet.total)
# over-relaxed scaling at sigma2 = 0.05, where plain scaling takes 162 iterations
rho_m = sb.mixture_density(g, [(0.6, {"kind": "gaussian", "mean": 0.5, "var": 0.1}),
                               (0.4, {"kind": "gaussian", "mean": 1.8, "var": 0.1})])
narrow = sb.solve_schrodinger_system(
    sb.BridgeProblem(rho_a, rho_m, sb.heat_kernel(g, 0.0, 1.0, 0.05), 0.05))
assert narrow.residual < 1e-9 and narrow.iterations < 100, narrow.iterations
assert "scipy" not in sys.modules and "json" not in sys.modules
print(report)
print(fortet)
"""


def test_the_nelson_and_fortet_pipelines_load_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests
    src = str(PYPROJECT.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PIPELINES], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
