"""Time-dependent Schrodinger solver and its stochastic-mechanics companions.

Evolution uses the implicit midpoint (Cayley/Crank-Nicolson) scheme with
homogeneous Dirichlet walls at the grid endpoints x_min and x_max. One
convention holds throughout the module: the Hamiltonian acts on the interior
nodes, the endpoint entries of a state pass through every step unchanged, and
norms are trapezoid quadratures. The step therefore preserves the trapezoid
norm exactly, a negative step is exactly inverse to a positive one, and the
box modes of families.box_mode are exact eigenvectors. On top of the evolved
wavefunctions sit the current/osmotic drift decomposition, the terminal
reconditioning of a wavefunction path on a new terminal density, the
log-ratio transport residual, the region-conditioning (collapse) operator,
and the gradient-action diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    BoundaryMassWarning,
    GridMismatch,
    TerminalMismatch,
    ZeroProbabilityRegion,
)
from .grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    require_negligible_mass,
)

#: relative probability-density floor below which a point counts as a node
NODE_FLOOR = 1e-12

#: per-step tolerance on relative probability mass at the walls
WALL_MASS_TOL = 1e-10


@dataclass(frozen=True)
class QuantumModel:
    """Particle of mass m in potential V(x) with action constant hbar."""

    hbar: float
    m: float
    potential: ScalarField
    grid: Grid1D

    def __post_init__(self):
        if not (0 < self.hbar < np.inf and 0 < self.m < np.inf):
            raise ValueError(f"need finite hbar > 0 and m > 0, got {self.hbar}, {self.m}")
        if self.potential.grid != self.grid:
            raise GridMismatch("potential lives on a different grid")

    @property
    def sigma2(self) -> float:
        """Diffusion coefficient hbar/m of the associated diffusion."""
        return self.hbar / self.m

    @classmethod
    def free(cls, grid: Grid1D, hbar: float = 1.0, m: float = 1.0) -> "QuantumModel":
        return cls(hbar, m, ScalarField(grid, np.zeros(grid.n_points)), grid)

    def matches(self, other: "QuantumModel") -> bool:
        return (
            self.grid == other.grid
            and self.hbar == other.hbar
            and self.m == other.m
            and np.array_equal(self.potential.values, other.potential.values)
        )


def _dirichlet_apply_h(model: QuantumModel, values: np.ndarray) -> np.ndarray:
    """Hamiltonian action -(hbar^2/2m) L + V on the interior nodes 1..n-2.

    The walls sit at x_min and x_max: the 3-point stencil reads zero there,
    whatever the endpoint entries of values hold, and the result has n - 2
    entries. This is the operator the Cayley step factorizes, so the
    quadratic form <psi, H psi> is conserved exactly along the evolution.
    """
    c = model.hbar**2 / (2.0 * model.m * model.grid.h**2)
    inner = values[1:-1]
    out = (2.0 * c + model.potential.values[1:-1]) * inner
    out[:-1] -= c * inner[1:]
    out[1:] -= c * inner[:-1]
    return out


def crank_nicolson_step(psi: ComplexField, model: QuantumModel, dt: float) -> ComplexField:
    """One implicit-midpoint step of duration dt (negative dt runs backward).

    Solves (I + i dt/(2 hbar) H) psi' = (I - i dt/(2 hbar) H) psi on the
    interior nodes with the tridiagonal Dirichlet Hamiltonian H, walls at
    x_min and x_max. The endpoint entries pass through unchanged, so the
    step is exactly unitary in the trapezoid norm of norm_l2, step(-dt)
    inverts step(+dt) exactly on every entry, and box_mode is an exact
    eigenvector.
    """
    if psi.grid != model.grid:
        raise GridMismatch("state and model grids differ")
    if not (np.isfinite(dt) and dt != 0):
        raise ValueError(f"need a finite nonzero time step, got {dt}")
    c = model.hbar**2 / (2.0 * model.m * model.grid.h**2)
    theta = 1j * dt / (2.0 * model.hbar)

    rhs = psi.values[1:-1] - theta * _dirichlet_apply_h(model, psi.values)
    ab = np.empty((3, rhs.shape[0]), dtype=complex)
    ab[0] = ab[2] = theta * (-c)  # super- and subdiagonal of (I + theta H)
    ab[1] = 1.0 + theta * (2.0 * c + model.potential.values[1:-1])
    out = psi.values.copy()
    # psi and the returned ComplexField both reject non-finite values
    out[1:-1] = solve_banded((1, 1), ab, rhs, check_finite=False)
    return ComplexField(model.grid, out)


@dataclass(frozen=True)
class WavefunctionPath:
    """Unit-norm states stored on an increasing time grid."""

    times: np.ndarray
    states: tuple
    model: QuantumModel

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.shape[0] != len(self.states):
            raise ValueError("need one state per time")
        if times.shape[0] > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        for k, s in enumerate(self.states):
            if s.grid != self.model.grid:
                raise GridMismatch("state grid differs from model grid")
            nrm = norm_l2(s)
            if abs(nrm - 1.0) > 1e-8:
                raise ValueError(f"state {k} has norm {nrm!r}, expected 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> ComplexField:
        span = max(self.times[-1] - self.times[0], 1.0)
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * span:
            raise ValueError(f"t={t} not stored on the path")
        return self.states[i]

    def density_at(self, t: float) -> DensityField:
        psi = self.state_at(t)
        return DensityField(self.model.grid, np.abs(psi.values) ** 2, mass_tol=1e-6)


def norm_l2(psi: ComplexField) -> float:
    """Trapezoid L2 norm sqrt(integral |psi|^2 dx).

    This is the norm crank_nicolson_step conserves: its walls sit at x_min
    and x_max, where the trapezoid weight is h/2 and the entries never change.
    """
    return float(np.sqrt(np.dot(psi.grid.weights, np.abs(psi.values) ** 2)))


def normalize_wavefunction(psi: ComplexField) -> ComplexField:
    nrm = norm_l2(psi)
    if nrm == 0:
        raise ZeroProbabilityRegion("cannot normalize the zero state")
    return ComplexField(psi.grid, psi.values / nrm)


def evolve(
    psi: ComplexField,
    model: QuantumModel,
    t_from: float,
    t_to: float,
    n_steps: int,
) -> WavefunctionPath:
    """Propagate over [t_from, t_to] storing all n_steps + 1 states.

    Direction follows the sign of t_to - t_from; states are stored in
    increasing-time order either way. A zero-duration request returns the
    input as a single-state path. A BoundaryMassWarning is raised, once,
    when the probability mass on the nodes next to the walls exceeds
    WALL_MASS_TOL: the packet has reached a wall and reflects there.
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if t_to == t_from:
        return WavefunctionPath(np.array([t_from]), (psi,), model)
    dt = (t_to - t_from) / n_steps
    h = model.grid.h
    states = [psi]
    wall_warned = False
    for _ in range(n_steps):
        psi = crank_nicolson_step(psi, model, dt)
        if not wall_warned:
            # the endpoint entries never change; a packet reaching a wall
            # shows on the nodes next to it
            wall = h * (abs(psi.values[1]) ** 2 + abs(psi.values[-2]) ** 2)
            if wall > WALL_MASS_TOL:
                warnings.warn(
                    f"probability mass {wall:.2e} at the walls exceeds "
                    f"{WALL_MASS_TOL:.0e}; reflections will contaminate the run",
                    BoundaryMassWarning,
                    stacklevel=2,
                )
                wall_warned = True
        states.append(psi)
    times = t_from + dt * np.arange(n_steps + 1)
    if dt < 0:
        times = times[::-1]
        states = states[::-1]
    return WavefunctionPath(times, tuple(states), model)


@dataclass(frozen=True)
class DriftDecomposition:
    """Current (v) and osmotic (u) drifts with their combinations.

    beta = v + u and gamma = v - u are the forward/backward drifts, and
    v - i u is the complex drift. mask marks points safely away from nodes;
    flagged points carry zeros.
    """

    v: ScalarField
    u: ScalarField
    beta: ScalarField
    gamma: ScalarField
    mask: np.ndarray


def drifts(psi: ComplexField, model: QuantumModel) -> DriftDecomposition:
    """Current/osmotic decomposition of the drift of the |psi|^2 diffusion.

    u = (hbar/2m) d/dx log|psi|^2 and v = (hbar/m) Im(psi'/psi); both are
    computed from derivatives of the state itself, never from an unwrapped
    phase. Points with |psi|^2 at or below NODE_FLOOR times the peak are
    masked out and set to zero.
    """
    if psi.grid != model.grid:
        raise GridMismatch("state and model grids differ")
    grid = model.grid
    rho = np.abs(psi.values) ** 2
    mask = rho > NODE_FLOOR * rho.max()

    log_rho = np.log(np.maximum(rho, np.finfo(float).tiny))
    u_vals = (model.hbar / (2.0 * model.m)) * _gradient_values(log_rho, grid.h)

    safe_psi = np.where(mask, psi.values, 1.0)
    grad_psi = _gradient_values(psi.values, grid.h)
    v_vals = (model.hbar / model.m) * np.imag(grad_psi / safe_psi)

    u_vals = np.where(mask, u_vals, 0.0)
    v_vals = np.where(mask, v_vals, 0.0)
    mk = lambda a: ScalarField(grid, a)
    return DriftDecomposition(
        v=mk(v_vals),
        u=mk(u_vals),
        beta=mk(v_vals + u_vals),
        gamma=mk(v_vals - u_vals),
        mask=mask,
    )


def quantum_bridge(path: WavefunctionPath, rho1: DensityField) -> WavefunctionPath:
    """Recondition a wavefunction path on a new terminal density.

    The terminal state is replaced by sqrt(rho1 / |psi(t1)|^2) * psi(t1) --
    same phase, new amplitude, with no phase ever extracted -- and evolved
    backward to t0 under the same model. SupportViolation is raised when
    rho1 places more than STRAY_MASS_TOL of mass over the node region of
    the reference state (grid.require_negligible_mass); points where the
    reference density is not representable at all contribute zero.
    """
    if rho1.grid != path.model.grid:
        raise GridMismatch("terminal density grid differs from model grid")
    grid = path.model.grid
    psi1 = path.states[-1]
    rho = np.abs(psi1.values) ** 2
    require_negligible_mass(rho1, rho <= NODE_FLOOR * rho.max(), "terminal density")
    # replace the amplitude pointwise wherever the reference density is
    # representable, so the identity case stays exact to roundoff
    dead = rho < 1e-250
    ratio = np.where(dead, 0.0, rho1.values / np.where(dead, 1.0, rho))
    tilde1 = ComplexField(grid, np.sqrt(ratio) * psi1.values)
    n_steps = max(len(path.times) - 1, 1)
    return evolve(tilde1, path.model, path.t1, path.t0, n_steps)


def hjb_residual(
    path: WavefunctionPath,
    tilde_path: WavefunctionPath,
    terminal_tol: float = 1e-10,
) -> float:
    """Space-time L2 residual of the log-ratio transport equation.

    With r = tilde_psi / psi, the log-ratio solves the verification equation
    exactly when (d/dt + v_q d/dx - i hbar/(2m) d2/dx2) r = 0, and for
    smooth fields that operator divided by r equals
    Schr(tilde_psi)/tilde_psi - Schr(psi)/psi with Schr = d/dt + (i/hbar) H.
    The residual is this difference written in the evolution's own terms,
    at the Crank-Nicolson midpoints k + 1/2 of each step:

        S(phi) = (phi^{k+1} - phi^k)/dt + (i/hbar) H phi^{k+1/2},
        residual = S(tilde_psi)/tilde_psi^{k+1/2} - S(psi)/psi^{k+1/2},

    with H the Dirichlet operator of crank_nicolson_step and phi^{k+1/2} the
    mean of the two states. S is the Crank-Nicolson equation itself, so it
    vanishes on the interior nodes for every path evolve produces: for two
    solutions of the same model the residual is zero up to roundoff, on any
    grid and step, while a path that does not solve the model gives an O(1)
    value. The L2 norm runs over the interior nodes where neither midpoint
    state has a node (density above NODE_FLOOR times its peak), weighted by
    the trapezoid weights and the step lengths. Also asserts the terminal
    ratio is real positive (phase invariance at t1) within terminal_tol.
    """
    if not path.model.matches(tilde_path.model):
        raise GridMismatch("paths evolve under different models")
    if path.times.shape != tilde_path.times.shape or not np.allclose(
        path.times, tilde_path.times, rtol=0, atol=1e-12 * max(1.0, abs(path.t1))
    ):
        raise ValueError("paths must share the same time grid")
    model = path.model
    if path.times.shape[0] < 2:
        raise ValueError("need at least 2 stored times for the midpoint stencil")

    def off_node(values):
        rho = np.abs(values) ** 2
        return rho > NODE_FLOOR * rho.max()

    # terminal condition: ratio real and positive where defined
    p1, q1 = path.states[-1].values, tilde_path.states[-1].values
    mask_T = off_node(p1) & off_node(q1)
    phase_defect = 0.0
    if mask_T.any():
        phase_defect = float(np.max(np.abs(np.angle(q1[mask_T] / p1[mask_T]))))
    if phase_defect > terminal_tol:
        raise TerminalMismatch(
            f"terminal log-ratio has imaginary part {phase_defect:.3e} "
            f"(tolerance {terminal_tol:.0e})"
        )

    def midpoint_defect(p, k, dt):
        a, b = p.states[k].values, p.states[k + 1].values
        mid = 0.5 * (a + b)
        defect = (b[1:-1] - a[1:-1]) / dt + (1j / model.hbar) * _dirichlet_apply_h(model, mid)
        return mid[1:-1], defect

    total = 0.0
    for k in range(path.times.shape[0] - 1):
        dt = path.times[k + 1] - path.times[k]
        mid_p, s_p = midpoint_defect(path, k, dt)
        mid_q, s_q = midpoint_defect(tilde_path, k, dt)
        mask = off_node(mid_p) & off_node(mid_q)
        res = s_q[mask] / mid_q[mask] - s_p[mask] / mid_p[mask]
        total += dt * float(np.sum(np.abs(res) ** 2))
    return float(np.sqrt(model.grid.h * total))


def _merge_regions(regions):
    regs = sorted((float(a), float(b)) for a, b in regions)
    merged = []
    for a, b in regs:
        if b < a:
            raise ValueError(f"region [{a}, {b}] is reversed")
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def collapse(psi: ComplexField, regions) -> tuple[ComplexField, float]:
    """Condition a state on the region union D: (chi_D psi / ||chi_D psi||, p1).

    regions is one (a, b) pair or an iterable of pairs. p1, the probability
    of finding the particle in D, is the trapezoid integral of |psi|^2 over
    each region (region-edge grid points half-weighted); the collapsed state
    is exactly zero outside D and normalized in the grid's L2 norm.
    """
    if np.ndim(regions) == 1:
        regions = [tuple(regions)]
    merged = _merge_regions(regions)
    grid = psi.grid
    x = grid.points
    tol = 1e-9 * grid.h
    rho = np.abs(psi.values) ** 2

    mask = np.zeros(grid.n_points, dtype=bool)
    p1 = 0.0
    for a, b in merged:
        inside = (x >= a - tol) & (x <= b + tol)
        mask |= inside
        idx = np.nonzero(inside)[0]
        if idx.shape[0] >= 2:
            seg = rho[idx]
            p1 += grid.h * (seg.sum() - 0.5 * (seg[0] + seg[-1]))
    if not mask.any() or p1 <= 0.0:
        raise ZeroProbabilityRegion(f"regions {merged} carry no probability mass")

    chi_psi = np.where(mask, psi.values, 0.0)
    nrm = np.sqrt(float(np.dot(grid.weights, np.abs(chi_psi) ** 2)))
    return ComplexField(grid, chi_psi / nrm), float(p1)


def gradient_norm_sq(psi: ComplexField) -> float:
    """Squared L2 norm of the spatial derivative, integral of |psi'|^2 dx."""
    g = _gradient_values(psi.values, psi.grid.h)
    return float(np.dot(psi.grid.weights, np.abs(g) ** 2))


def finite_action(path: WavefunctionPath) -> float:
    """Time integral (trapezoid) of the gradient norm along the path.

    Always finite on a grid; its stability under refinement is the check
    that the underlying state has finite action.
    """
    values = np.array([gradient_norm_sq(s) for s in path.states])
    if path.times.shape[0] == 1:
        return float(values[0])
    return float(np.trapezoid(values, path.times))


def energy(psi: ComplexField, model: QuantumModel) -> float:
    """Expected energy <psi, H psi> with the evolution's own Dirichlet operator.

    H acts on the interior nodes with the walls at x_min and x_max, and the
    pairing runs over those nodes, where the trapezoid weight is h. Using
    the operator the Cayley step factorizes makes this exactly conserved
    along evolve for a time-independent potential.
    """
    if psi.grid != model.grid:
        raise GridMismatch("state and model grids differ")
    h_psi = _dirichlet_apply_h(model, psi.values)
    return float(model.grid.h * np.vdot(psi.values[1:-1], h_psi).real)
