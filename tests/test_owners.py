"""One owner per numerical rule.

Each rule below is written once in the code of sbridge (comments and
docstrings aside), and every caller goes through that owner, so an input the
owner refuses is refused on every path into it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import sbridge
from sbridge.bridge import half_bridge, wiener_backward_drift_fields, wiener_marginal_flow
from sbridge.errors import InvalidInterval
from sbridge.families import gaussian_density
from sbridge.grid import Grid1D, ScalarField
from sbridge.sde import duality_check, generator_check, sample_forward

SRC = Path(sbridge.__file__).resolve().parent


def _code(path: Path) -> str:
    """The code of one module as ast.unparse writes it: no comments, no docstrings."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree)


CODE = {path.name: _code(path) for path in sorted(SRC.glob("*.py"))}

#: (signature, owner module, counted over the whole package or in the owner only)
OWNERS = [
    # Monte Carlo mean and standard error: sde._mc_mean
    ("std(ddof=1)", "sde.py", True),
    # sigma2 is the ensemble's: sde._require_ensemble_sigma2
    ("!= ens.sigma2", "sde.py", True),
    # time grids and intervals: grid.require_time_grid
    ("raise InvalidInterval", "grid.py", True),
    # squared trapezoid norm along the last axis: quantum._norm_sq
    ("** 2 @ grid.weights", "quantum.py", True),
    # gradient stencil: grid._gradient_values
    ("np.gradient(", "grid.py", True),
    # the Wiener span: bridge._wiener_span (kernels.py defines and calls the engine too)
    ("log_heat_propagate(", "bridge.py", False),
    # the Cayley factor: quantum._cayley
    ("zgttrf(", "quantum.py", True),
]


@pytest.mark.parametrize("signature, owner, package_wide", OWNERS)
def test_each_rule_has_one_owner(signature, owner, package_wide):
    modules = CODE if package_wide else {owner: CODE[owner]}
    found = {name: code.count(signature) for name, code in modules.items() if signature in code}
    assert found == {owner: 1}


GRID = Grid1D(-8.0, 8.0, 161)
RHO = gaussian_density(GRID, 0.0, 1.0)
ZERO = lambda x, t: np.zeros_like(x)


def _generator_check_at_4():
    # an ensemble sampled at sigma2 = 1, scored at 4: rhs 4.0 instead of 1.0
    ens = sample_forward(ZERO, RHO, 1.0, np.linspace(0.0, 1.0, 5), 10, seed=1)
    return generator_check(ScalarField(GRID, GRID.points**2), ens, ZERO, 4.0)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: half_bridge(RHO, ZERO, RHO, 1.0, 0.0, -1.0), InvalidInterval,
                 id="half_bridge-reversed-interval-negative-sigma2"),
    pytest.param(lambda: half_bridge(RHO, ZERO, RHO, 1.0, 0.0, 1.0), InvalidInterval,
                 id="half_bridge-reversed-interval"),
    pytest.param(lambda: half_bridge(RHO, ZERO, RHO, 0.0, np.nan, 1.0), InvalidInterval,
                 id="half_bridge-nan-t1"),
    pytest.param(lambda: half_bridge(RHO, ZERO, RHO, 0.0, 1.0, -1.0), ValueError,
                 id="half_bridge-negative-sigma2"),
    pytest.param(lambda: wiener_marginal_flow(RHO, [0.0], np.nan), ValueError,
                 id="wiener_marginal_flow-one-time-nan-sigma2"),
    pytest.param(lambda: wiener_backward_drift_fields(RHO, [0.0], -1.0), ValueError,
                 id="wiener_backward_drift_fields-one-time-negative-sigma2"),
    pytest.param(lambda: duality_check(ZERO, ZERO, RHO, np.nan), ValueError,
                 id="duality_check-nan-sigma2"),
    pytest.param(_generator_check_at_4, ValueError,
                 id="generator_check-sigma2-other-than-the-ensembles"),
])
def test_sigma2_and_interval_checks_reach_every_caller(call, error):
    with pytest.raises(error):
        call()
