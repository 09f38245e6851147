"""One owner per numerical rule.

Each rule below is written once in the code of sbridge (comments and
docstrings aside), and every caller goes through that owner, so an input the
owner refuses is refused on every path into it.
"""

import ast
from functools import cache
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import sbridge
from sbridge import (box_mode, gaussian_density, gaussian_packet, indicator_density,
                     mixture_density)
from sbridge.bridge import (
    BridgeProblem,
    bridge_density,
    bridge_drift_fields,
    heat_kernel,
    log_heat_propagate,
    solve_schrodinger_system,
    wiener_backward_drift_fields,
    wiener_marginal_flow,
)
from sbridge.errors import GridMismatch, InvalidInterval, NonPositiveMass, TimeNotStored
from sbridge.grid import ComplexField, DensityField, Grid1D, ScalarField
from sbridge.quantum import (QuantumModel, WavefunctionPath, collapse, evolve, hjb_residual,
                             normalize_wavefunction, quantum_bridge)
from sbridge.sde import (GridDrift, PathEnsemble, duality_check, empirical_density,
                         generator_check, path_integral, sample_backward, sample_forward)

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
    # the Wiener span: bridge._wiener_span, the one call site of the propagation engine
    ("= log_heat_propagate(", "bridge.py", True),
    # the Cayley factor: quantum._cayley
    ("np.linalg.inv(segments)", "quantum.py", True),
    # a divergence that overflows: grid.kl_divergence, for the Girsanov split too
    ("raise InfiniteEntropy", "grid.py", True),
    # the one thread the package starts: the sampler's helper, sde._Increments
    ("threading.Thread(", "sde.py", True),
    # the helper thread's one handoff channel: each filled row, or its exception
    ("queue.SimpleQueue(", "sde.py", True),
    # the one random stream per path block: sde._block_generator
    ("np.random.Generator(", "sde.py", True),
    # sigma2 = hbar / m: QuantumModel.sigma2
    ("hbar / ", "quantum.py", True),
    # a scalar argument is a real number other than a bool: grid._real
    ("isinstance(value, numbers.Real)", "grid.py", True),
    # an array's entries are integers or floats, anything else NaN: grid._real_array
    ("dtype.kind in 'iuf'", "grid.py", True),
]


@pytest.mark.parametrize("signature, owner, package_wide", OWNERS)
def test_each_rule_has_one_owner(signature, owner, package_wide):
    modules = CODE if package_wide else {owner: CODE[owner]}
    found = {name: code.count(signature) for name, code in modules.items() if signature in code}
    assert found == {owner: 1}


def test_no_module_reads_a_number_through_np_float64():
    # np.float64(...) takes a numeric string, a bool or a one-element list; grid._real does not
    assert not {name for name, code in CODE.items() if "np.float64(" in code}


GRID = Grid1D(-8.0, 8.0, 161)
RHO = gaussian_density(GRID, 0.0, 1.0)
ZERO = lambda x, t: np.zeros_like(x)


def _generator_check_at_4():
    # an ensemble sampled at sigma2 = 1, scored at 4: rhs 4.0 instead of 1.0
    ens = sample_forward(ZERO, RHO, 1.0, np.linspace(0.0, 1.0, 5), 10, seed=1)
    return generator_check(ScalarField(GRID, GRID.points**2), ens, ZERO, 4.0)


def _problem():
    kernel = heat_kernel(GRID, 0.0, 1.0, 1.0)
    return BridgeProblem(RHO, gaussian_density(GRID, 1.0, 1.0), kernel, 1.0)


def _ensemble():
    return sample_forward(ZERO, RHO, 1.0, np.linspace(0.0, 1.0, 5), 10, seed=1)


def _table():
    return GridDrift([0.0, 1.0], [ScalarField(GRID, np.zeros(161))] * 2)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: duality_check(ZERO, ZERO, RHO, np.nan), ValueError,
                 id="duality_check-nan-sigma2"),
    pytest.param(_generator_check_at_4, ValueError,
                 id="generator_check-sigma2-other-than-the-ensembles"),
    # None is refused as ValueError, never a TypeError from a comparison
    pytest.param(lambda: heat_kernel(GRID, 0.0, 1.0, None), ValueError, id="heat_kernel-None"),
    pytest.param(lambda: BridgeProblem(RHO, RHO, heat_kernel(GRID, 0.0, 1.0, 1.0), None),
                 ValueError, id="BridgeProblem-None-sigma2"),
    pytest.param(lambda: QuantumModel(None, 1.0, ScalarField(GRID, np.zeros(161)), GRID),
                 ValueError, id="QuantumModel-None-hbar"),
    pytest.param(lambda: QuantumModel(1.0, 0.0, ScalarField(GRID, np.zeros(161)), GRID),
                 ValueError, id="QuantumModel-zero-m"),
    pytest.param(lambda: QuantumModel(1.0, -1.0, ScalarField(GRID, np.zeros(161)), GRID),
                 ValueError, id="QuantumModel-negative-m"),
    pytest.param(lambda: QuantumModel(1.0, np.inf, ScalarField(GRID, np.zeros(161)), GRID),
                 ValueError, id="QuantumModel-inf-m"),
    pytest.param(lambda: gaussian_density(GRID, 0.0, None), ValueError,
                 id="gaussian_density-None-var"),
    pytest.param(lambda: sample_forward(ZERO, RHO, None, np.linspace(0.0, 1.0, 5), 10, seed=1),
                 ValueError, id="sample_forward-None-sigma2"),
    pytest.param(lambda: duality_check(ZERO, ZERO, RHO, None), ValueError,
                 id="duality_check-None-sigma2"),
    pytest.param(lambda: heat_kernel(GRID, None, 1.0, 1.0), ValueError, id="heat_kernel-None-s"),
    pytest.param(lambda: indicator_density(GRID, None, 1.0), ValueError,
                 id="indicator_density-None-a"),
    pytest.param(lambda: mixture_density(GRID, [(None, {"kind": "gaussian", "mean": 0.0,
                                                        "var": 1.0})]),
                 ValueError, id="mixture_density-None-weight"),
    pytest.param(lambda: gaussian_density(GRID, None, 1.0), ValueError,
                 id="gaussian_density-None-mean"),
    pytest.param(lambda: gaussian_packet(GRID, None, 1.0), ValueError,
                 id="gaussian_packet-None-center"),
    pytest.param(lambda: evolve(gaussian_packet(GRID), QuantumModel.free(GRID), None, 1.0, 4),
                 ValueError, id="evolve-None-t_from"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), (None, 1.0)), ValueError,
                 id="collapse-None-region-end"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), (np.nan, 1.0)), ValueError,
                 id="collapse-nan-region-end"),
    # a time matched against stored or covered times is TimeNotStored, None as NaN
    pytest.param(lambda: bridge_density(solve_schrodinger_system(_problem()), None),
                 TimeNotStored, id="bridge_density-None-t"),
    pytest.param(lambda: _path_under(QuantumModel.free(GRID)).density_at(None), TimeNotStored,
                 id="density_at-None-t"),
    pytest.param(lambda: empirical_density(_ensemble(), None, GRID), TimeNotStored,
                 id="empirical_density-None-t"),
    pytest.param(lambda: _table()(GRID.points, None), TimeNotStored, id="GridDrift-None-t"),
    # the propagation engine reads its variances and log values by grid._real_array
    pytest.param(lambda: log_heat_propagate(GRID, np.zeros(161), True), ValueError,
                 id="log_heat_propagate-bool-variance"),
    pytest.param(lambda: log_heat_propagate(GRID, np.zeros(161), "1"), ValueError,
                 id="log_heat_propagate-str-variance"),
    pytest.param(lambda: log_heat_propagate(GRID, np.zeros(161), None), ValueError,
                 id="log_heat_propagate-None-variance"),
    pytest.param(lambda: log_heat_propagate(GRID, ["0"] * 161, 1.0), ValueError,
                 id="log_heat_propagate-str-log_f"),
    # the entries of a time array are read as grid._real reads a scalar
    pytest.param(lambda: GridDrift(["0", "1"], [ScalarField(GRID, np.zeros(161))] * 2),
                 InvalidInterval, id="GridDrift-str-times"),
    pytest.param(lambda: GridDrift([False, True], [ScalarField(GRID, np.zeros(161))] * 2),
                 InvalidInterval, id="GridDrift-bool-times"),
    pytest.param(lambda: sample_forward(ZERO, RHO, 1.0, ["0", "0.5"], 10, seed=1),
                 InvalidInterval, id="sample_forward-str-times"),
    pytest.param(lambda: wiener_marginal_flow(RHO, ["0", "1"], 1.0), InvalidInterval,
                 id="wiener_marginal_flow-str-times"),
    pytest.param(lambda: PathEnsemble(["0", "1"], np.zeros((4, 2)), 1.0), InvalidInterval,
                 id="PathEnsemble-str-times"),
    pytest.param(lambda: PathEnsemble([False, True], np.zeros((4, 2)), 1.0), InvalidInterval,
                 id="PathEnsemble-bool-times"),
    pytest.param(lambda: WavefunctionPath(["0", "1"], _unit_path().psi[:2], _unit_path().model),
                 InvalidInterval, id="WavefunctionPath-str-times"),
    pytest.param(lambda: WavefunctionPath([None, 1.0], _unit_path().psi[:2], _unit_path().model),
                 InvalidInterval, id="WavefunctionPath-None-time"),
    pytest.param(lambda: bridge_drift_fields(_solution(), ["0.5"]), TimeNotStored,
                 id="bridge_drift_fields-str-t"),
    pytest.param(lambda: bridge_drift_fields(_solution(), [True]), TimeNotStored,
                 id="bridge_drift_fields-bool-t"),
    # times is a 1-D sequence: a bare time or a nested list is no such sequence
    pytest.param(lambda: bridge_drift_fields(_solution(), 0.5), InvalidInterval,
                 id="bridge_drift_fields-scalar-times"),
    pytest.param(lambda: bridge_drift_fields(_solution(), [[0.5]]), InvalidInterval,
                 id="bridge_drift_fields-nested-times"),
    pytest.param(lambda: path_integral(_ensemble(), ZERO, "middle"), ValueError,
                 id="path_integral-unknown-endpoint"),
    # a tolerance no residual can fall below, or that accepts any mass
    pytest.param(lambda: solve_schrodinger_system(_problem(), tol=0.0), ValueError,
                 id="solve_schrodinger_system-zero-tol"),
    pytest.param(lambda: solve_schrodinger_system(_problem(), tol=np.nan), ValueError,
                 id="solve_schrodinger_system-nan-tol"),
    pytest.param(lambda: solve_schrodinger_system(_problem(), tol=-1e-9), ValueError,
                 id="solve_schrodinger_system-negative-tol"),
    pytest.param(lambda: DensityField(GRID, 2.0 * RHO.values, mass_tol=np.nan), ValueError,
                 id="DensityField-nan-mass_tol"),
    pytest.param(lambda: DensityField(GRID, RHO.values, mass_tol=-1.0), ValueError,
                 id="DensityField-negative-mass_tol"),
])
def test_sigma2_and_interval_checks_reach_every_caller(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("times", [[0, 1], np.arange(2), [0.0, 1.0], [np.int64(0), 1.0]],
                         ids=["int-list", "int-array", "float-list", "mixed"])
def test_integer_and_float_time_arrays_are_times(times):
    table = GridDrift(times, [ScalarField(GRID, np.zeros(161))] * 2)
    assert table.times.dtype == float and table.times.tolist() == [0.0, 1.0]
    assert len(bridge_drift_fields(_solution(), times)) == 2


def _count_calls():
    packet, free = gaussian_packet(GRID, 0.0, 1.0), QuantumModel.free(GRID)
    five = np.linspace(0.0, 1.0, 5)
    problem = _problem()
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
    ("sample_forward", 2.5), ("sample_forward", True), ("sample_forward", None),
    ("sample_forward", 0), ("sample_backward", 2.5), ("sample_backward", np.float64(3.0)),
    ("sample_backward", 0.5),
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


def _path_under(model):
    return evolve(gaussian_packet(model.grid, 0.0, 1.0), model, 0.0, 0.1, 4)


@pytest.mark.parametrize("call, error", [
    # a model mismatch is a ValueError, or GridMismatch when the grids differ
    pytest.param(lambda: hjb_residual(_path_under(QuantumModel.free(GRID)),
                                      _path_under(QuantumModel.free(GRID, m=2.0))),
                 ValueError, id="hjb_residual-other-m"),
    pytest.param(lambda: hjb_residual(_path_under(QuantumModel.free(GRID)),
                                      _path_under(QuantumModel.free(Grid1D(-8.0, 8.0, 81)))),
                 GridMismatch, id="hjb_residual-other-grid"),
    # normalizing zero mass is NonPositiveMass
    pytest.param(lambda: normalize_wavefunction(ComplexField(GRID, np.zeros(GRID.n_points))),
                 NonPositiveMass, id="normalize_wavefunction-zero-state"),
    # an ensemble of no paths is a count below its minimum: ValueError
    pytest.param(lambda: PathEnsemble(np.linspace(0.0, 1.0, 5), np.empty((0, 5)), 1.0),
                 ValueError, id="PathEnsemble-no-rows"),
    pytest.param(lambda: GridDrift([0.0, 1.0], [ScalarField(GRID, np.zeros(161))]), ValueError,
                 id="GridDrift-fewer-fields-than-times"),
    # a field is one finite value per grid point
    pytest.param(lambda: ScalarField(GRID, np.zeros(160)), ValueError,
                 id="ScalarField-wrong-shape"),
    pytest.param(lambda: ScalarField(GRID, np.full(161, np.inf)), ValueError,
                 id="ScalarField-non-finite"),
    pytest.param(lambda: indicator_density(GRID, 1.0, 1.0), ValueError,
                 id="indicator_density-empty-interval"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), (1.0, -1.0)), ValueError,
                 id="collapse-reversed-region"),
    pytest.param(lambda: hjb_residual(
        _path_under(QuantumModel.free(GRID)),
        evolve(gaussian_packet(GRID, 0.0, 1.0), QuantumModel.free(GRID), 0.0, 0.2, 4)),
                 ValueError, id="hjb_residual-other-times"),
])
def test_each_condition_raises_one_class(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, error, message", [
    # a refused grid end or time is named with the value given
    pytest.param(lambda: Grid1D(0.0, None, 5), ValueError, "finite real x_max, got None",
                 id="Grid1D-None-x_max"),
    pytest.param(lambda: Grid1D("a", 1.0, 5), ValueError, "finite real x_min, got 'a'",
                 id="Grid1D-str-x_min"),
    pytest.param(lambda: Grid1D(False, True, 5), ValueError, "finite real x_min, got False",
                 id="Grid1D-bool-ends"),
    pytest.param(lambda: _path_under(QuantumModel.free(GRID)).density_at("0.5"), TimeNotStored,
                 "t='0.5' is not on the stored time grid", id="density_at-str-t"),
    # a sigma2 refused on a flow of two times, not the interval of one
    pytest.param(lambda: wiener_marginal_flow(RHO, [0.0, 1.0], np.nan), ValueError, "sigma2",
                 id="wiener_marginal_flow-nan-sigma2"),
    pytest.param(lambda: wiener_backward_drift_fields(RHO, [0.0, 1.0], -1.0), ValueError,
                 "sigma2", id="wiener_backward_drift_fields-negative-sigma2"),
    # log values are checked before numpy broadcasts them against the weights
    pytest.param(lambda: log_heat_propagate(GRID, np.zeros((2, 161)), 1.0), ValueError,
                 r"expected 161 log values, got shape \(2, 161\)",
                 id="log_heat_propagate-wrong-shape"),
    pytest.param(lambda: log_heat_propagate(Grid1D(-1.0, 1.0, 11), [0.0], 1.0), ValueError,
                 r"expected 11 log values, got shape \(1,\)", id="log_heat_propagate-one-value"),
    pytest.param(lambda: log_heat_propagate(GRID, np.zeros(160), 1.0), ValueError,
                 r"expected 161 log values, got shape \(160,\)",
                 id="log_heat_propagate-one-short"),
    # regions is one (a, b) pair or an iterable of pairs, named as given when refused
    pytest.param(lambda: collapse(gaussian_packet(GRID), ([0.5], 1.0)), ValueError,
                 r"one \(a, b\) pair or an iterable of pairs, got \(\[0\.5\], 1\.0\)",
                 id="collapse-list-region-end"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), (0.0, 1.0, 2.0)), ValueError,
                 r"pairs, got \(0\.0, 1\.0, 2\.0\)", id="collapse-triple"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), 1.0), ValueError, "pairs, got 1.0",
                 id="collapse-scalar-regions"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), []), ValueError, r"pairs, got \[\]",
                 id="collapse-no-regions"),
    pytest.param(lambda: collapse(gaussian_packet(GRID), [(0.0, 1.0), (2.0,)]), ValueError,
                 r"pairs, got \[\(0\.0, 1\.0\), \(2\.0,\)\]", id="collapse-short-pair"),
    # a mixture component is a (weight, descriptor) pair, named as given when refused
    pytest.param(lambda: mixture_density(GRID, [(1.0, {"kind": "gaussian", "mean": 0.0})]),
                 ValueError, r"got \(1\.0, \{'kind': 'gaussian', 'mean': 0\.0\}\)",
                 id="mixture_density-missing-var"),
    pytest.param(lambda: mixture_density(GRID, [(1.0, 3.0)]), ValueError,
                 r"component is .*, got \(1\.0, 3\.0\)", id="mixture_density-float-descriptor"),
    pytest.param(lambda: mixture_density(GRID, [(1.0,)]), ValueError,
                 r"component is .*, got \(1\.0,\)", id="mixture_density-no-descriptor"),
])
def test_refusal_names_the_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


@cache
def _unit_path():
    return evolve(gaussian_packet(GRID), QuantumModel.free(GRID), 0.0, 1.0, 4)


@cache
def _solution():
    return solve_schrodinger_system(_problem())


#: every reader of a scalar argument, with 1.0 a value it accepts, and the
#: class it refuses anything but a real number with (grid._real reads NaN)
SCALAR_READERS = {
    "Grid1D-x_min": (lambda v: Grid1D(v, 2.0, 5), ValueError),
    "Grid1D-x_max": (lambda v: Grid1D(0.0, v, 5), ValueError),
    "DensityField-mass_tol": (lambda v: DensityField(GRID, RHO.values, mass_tol=v), ValueError),
    "gaussian_density-var": (lambda v: gaussian_density(GRID, 0.0, v), ValueError),
    "QuantumModel-hbar": (lambda v: QuantumModel(v, 1.0, ScalarField(GRID, np.zeros(161)), GRID),
                          ValueError),
    "QuantumModel-m": (lambda v: QuantumModel(1.0, v, ScalarField(GRID, np.zeros(161)), GRID),
                       ValueError),
    "sample_forward-sigma2": (lambda v: sample_forward(ZERO, RHO, v, [0.0, 1.0], 4, seed=1),
                              ValueError),
    "density_at-t": (lambda v: _unit_path().density_at(v), TimeNotStored),
    "empirical_density-t": (lambda v: empirical_density(_ensemble(), v, GRID), TimeNotStored),
    "GridDrift-t": (lambda v: _table()(GRID.points, v), TimeNotStored),
    "bridge_density-t": (lambda v: bridge_density(_solution(), v), TimeNotStored),
    "heat_kernel-s": (lambda v: heat_kernel(GRID, v, 2.0, 1.0), InvalidInterval),
    "heat_kernel-t": (lambda v: heat_kernel(GRID, 0.0, v, 1.0), InvalidInterval),
    "evolve-t_from": (lambda v: evolve(gaussian_packet(GRID), QuantumModel.free(GRID), v, 0.0, 4),
                      ValueError),
    "evolve-t_to": (lambda v: evolve(gaussian_packet(GRID), QuantumModel.free(GRID), 0.0, v, 4),
                    ValueError),
    "collapse-a": (lambda v: collapse(gaussian_packet(GRID), (v, 2.0)), ValueError),
    "collapse-b": (lambda v: collapse(gaussian_packet(GRID), (0.0, v)), ValueError),
    "gaussian_density-mean": (lambda v: gaussian_density(GRID, v, 1.0), ValueError),
    "indicator_density-a": (lambda v: indicator_density(GRID, v, 2.0), ValueError),
    "indicator_density-b": (lambda v: indicator_density(GRID, 0.0, v), ValueError),
    "mixture_density-weight": (lambda v: mixture_density(GRID, [(v, {"kind": "gaussian",
                                                                     "mean": 0.0, "var": 1.0})]),
                               ValueError),
    "gaussian_packet-center": (lambda v: gaussian_packet(GRID, v, 1.0), ValueError),
    "gaussian_packet-k0": (lambda v: gaussian_packet(GRID, 0.0, 1.0, v), ValueError),
}

#: what numpy's float64 read as 1.0, and None
NON_REALS = {"bool": True, "str": "1", "list": [1.0], "None": None}


@pytest.mark.parametrize("reader, value", [
    pytest.param(reader, value, id=f"{reader}-{kind}")
    for reader in SCALAR_READERS for kind, value in NON_REALS.items()
    # None is the documented "skip the mass check"
    if (reader, kind) != ("DensityField-mass_tol", "None")
])
def test_a_scalar_argument_is_a_real_number(reader, value):
    call, error = SCALAR_READERS[reader]
    call(1.0)
    with pytest.raises(error):
        call(value)


def _imports(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)]


def test_private_names_are_imported_only_from_grid():
    # grid is the base layer; every other module keeps its private helpers to itself
    found = {(path.name, node.module, alias.name)
             for path in sorted(SRC.glob("*.py")) for node in _imports(path)
             for alias in node.names if node.level == 1 and alias.name.startswith("_")}
    assert found and {module for _, module, _ in found} == {"grid"}


def test_no_two_public_names_are_one_object():
    # an alias is a second name to learn for one object
    objects = [getattr(sbridge, name) for name in dir(sbridge) if not name.startswith("_")]
    objects = [obj for obj in objects if not isinstance(obj, ModuleType)]
    assert len({id(obj) for obj in objects}) == len(objects)


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
