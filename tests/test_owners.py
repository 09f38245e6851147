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
from sbridge.bridge import (
    BridgeProblem,
    half_bridge,
    solve_schrodinger_system,
    wiener_backward_drift_fields,
    wiener_marginal_flow,
)
from sbridge.errors import InvalidInterval
from sbridge.families import box_mode, gaussian_density, gaussian_packet
from sbridge.grid import Grid1D, ScalarField
from sbridge.kernels import heat_kernel
from sbridge.quantum import QuantumModel, WavefunctionPath, evolve, hjb_residual, quantum_bridge
from sbridge.sde import duality_check, generator_check, sample_backward, sample_forward

SRC = Path(sbridge.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


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
    ("np.linalg.inv(segments)", "quantum.py", True),
    # a divergence that overflows: grid.kl_divergence, for half_bridge and the Girsanov split
    ("raise InfiniteEntropy", "grid.py", True),
    # the one thread the package starts: the sampler's helper, sde._Increments
    ("threading.Thread(", "sde.py", True),
    # the one random stream per path block: sde._block_generator
    ("np.random.Generator(", "sde.py", True),
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


def _count_calls():
    packet, free = gaussian_packet(GRID, 0.0, 1.0), QuantumModel.free(GRID)
    five = np.linspace(0.0, 1.0, 5)
    kernel = heat_kernel(GRID, 0.0, 1.0, 1.0)
    problem = BridgeProblem(RHO, gaussian_density(GRID, 1.0, 1.0), kernel, 1.0)
    return {
        "grid": lambda n: Grid1D(0.0, 1.0, n),
        "evolve": lambda n: evolve(packet, free, 0.0, 0.1, n),
        "box_mode": lambda n: box_mode(GRID, n),
        "sample_forward": lambda n: sample_forward(ZERO, RHO, 1.0, five, n, seed=1),
        "sample_backward": lambda n: sample_backward(ZERO, RHO, 1.0, five, n, seed=1),
        "sample_forward seed": lambda s: sample_forward(ZERO, RHO, 1.0, five, 4, seed=s),
        "sample_backward seed": lambda s: sample_backward(ZERO, RHO, 1.0, five, 4, seed=s),
        "solve_schrodinger_system": lambda n: solve_schrodinger_system(problem, max_iter=n),
    }


@pytest.mark.parametrize("owner, n", [
    ("grid", 3.5), ("grid", 4.0), ("grid", True), ("grid", 2),
    ("evolve", 2.5), ("evolve", 0), ("evolve", True),
    ("box_mode", 1.5), ("box_mode", 0), ("box_mode", True),
    ("sample_forward", 2.5), ("sample_forward", True),
    ("sample_backward", 2.5), ("sample_backward", np.float64(3.0)),
    ("sample_forward seed", None), ("sample_forward seed", 2.5),
    ("sample_forward seed", True), ("sample_forward seed", -1),
    ("sample_backward seed", None), ("sample_backward seed", -1),
    ("solve_schrodinger_system", 2.5), ("solve_schrodinger_system", True),
])
def test_counts_are_refused_at_entry(owner, n):
    with pytest.raises(ValueError, match="integer"):
        _count_calls()[owner](n)


@pytest.mark.parametrize("owner", ["grid", "evolve", "box_mode", "sample_forward",
                                   "sample_forward seed"])
def test_numpy_integer_counts_are_counts(owner):
    _count_calls()[owner](np.int64(4))


def _nudged_path_pair():
    # time 2 of 5 moved 1e-10 off equal spacing, inside the stored-time tolerance 1e-9
    path = evolve(gaussian_packet(GRID, 0.0, 1.0), QuantumModel.free(GRID), 0.0, 0.1, 4)
    times = path.times.copy()
    times[2] += 1e-10
    path = WavefunctionPath(times, path.psi, path.model)
    return path, quantum_bridge(path, path.density_at(path.t1))


@pytest.mark.parametrize("call", [
    pytest.param(lambda p, q: p.density_at(p.times[2] - 1e-10), id="density_at"),
    pytest.param(lambda p, q: hjb_residual(p, q), id="hjb_residual"),
])
def test_stored_time_tolerance_reaches_every_caller(call):
    # quantum_bridge returns equal steps for a path within the tolerance of
    # them, so every reader of the pair must accept its times
    call(*_nudged_path_pair())


def _imports(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)]


def test_private_names_are_imported_only_from_grid():
    # grid is the base layer; every other module keeps its private helpers to itself
    found = {(path.name, node.module, alias.name)
             for path in sorted(SRC.glob("*.py")) for node in _imports(path)
             for alias in node.names if node.level == 1 and alias.name.startswith("_")}
    assert found and {module for _, module, _ in found} == {"grid"}


def test_the_benchmark_calls_only_exported_names():
    called = set()
    for path in (BENCH / "workloads.py", BENCH / "spans.py"):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "sbridge"}
        called |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases}
        called |= {alias.name for node in _imports(path) if node.module == "sbridge"
                   for alias in node.names}
    assert called and not {name for name in called if not hasattr(sbridge, name)}


def _raised_or_warned(path: Path) -> set:
    """Names a module raises (bare or called) or passes to warnings.warn."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(getattr(getattr(node.exc, "func", node.exc), "id", None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "warn" and getattr(node.func.value, "id", None) == "warnings"):
            args = node.args + [keyword.value for keyword in node.keywords]
            names |= {getattr(arg, "id", None) for arg in args}
    return names


def test_every_error_class_has_a_raise_site():
    # a class cannot outlive the last code that raises or warns it
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)} - {"ToolkitError"}
    used = set().union(*(_raised_or_warned(path) for path in sorted(SRC.glob("*.py"))))
    assert classes and not classes - used


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found |= {(path.name, name) for name in names if name.split(".")[0] == "scipy"}
    assert not found
