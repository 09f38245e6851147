"""Packaging metadata: every declared console script must resolve, and the
package loads only what its callers run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_name_importable_callables():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


def test_the_nelson_pipeline_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests
    script = (
        "import sys\n"
        "import sbridge as sb\n"
        "g = sb.Grid1D(-8.0, 8.0, 201)\n"
        "model = sb.QuantumModel.free(g)\n"
        "path = sb.evolve(sb.gaussian_packet(g, 0.0, 1.0), model, 0.0, 0.1, 4)\n"
        "tilde = sb.quantum_bridge(path, sb.gaussian_density(g, 0.5, 1.0))\n"
        "sb.drifts(tilde.states[0], model)\n"
        "assert 'scipy' not in sys.modules\n"
        "print(abs(sb.norm_l2(tilde.states[0]) - 1.0) < 1e-12)\n"
    )
    src = str(PYPROJECT.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
