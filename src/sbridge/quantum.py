"""Time-dependent Schrodinger solver and its stochastic-mechanics companions.

Evolution uses the implicit midpoint (Cayley/Crank-Nicolson) scheme with
homogeneous Dirichlet walls at the grid endpoints x_min and x_max. One
convention holds throughout the module: the Hamiltonian acts on the interior
nodes, the endpoint entries of a state pass through every step unchanged, and
norms are trapezoid quadratures. The step therefore preserves the trapezoid
norm exactly, a negative step is exactly inverse to a positive one, and the
box modes of families.box_mode are exact eigenvectors. evolve builds the
step's factor once, a partitioned solve from numpy alone (_cayley), and
writes each step into one row of a time-major array, which a
WavefunctionPath stores. On top of the evolved wavefunctions sit Nelson's
forward and backward drifts of a state, the terminal reconditioning of a
path on a new terminal density, the log-ratio transport residual, the
collapse operator and the gradient-action diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryMassWarning,
    NonPositiveMass,
    TerminalMismatch,
    ZeroProbabilityRegion,
)
from .grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    _gradient_values,
    _log_gradient_values,
    _time_tol,
    require_count,
    require_finite_positive,
    require_negligible_mass,
    require_same_grid,
    require_time_grid,
    stored_time_index,
)

#: |psi|^2 at or below this fraction of its peak is a node, where the phase
#: and with it the drifts and the log-ratio are left undefined
NODE_FLOOR = 1e-12

#: largest deviation from 1 of the trapezoid norm of a stored state
NORM_TOL = 1e-8

#: per-step tolerance on relative probability mass at the walls
WALL_MASS_TOL = 1e-10

#: largest phase of the terminal ratio tilde_psi/psi that hjb_residual accepts
TERMINAL_PHASE_TOL = 1e-10

#: unknowns per segment of the Cayley factor, each followed by a separator; up to
#: 3267 unknowns the separators' system is under 100 x 100, which OpenBLAS inverts on one thread
_CAYLEY_SEGMENT = 32

#: rows per block where a check runs over all states or steps of a path; a
#: block bounds the temporaries, a full (n_times, n_points) stack would not
_ROW_BLOCK = 16


@dataclass(frozen=True)
class QuantumModel:
    """Particle of mass m in potential V(x) with action constant hbar."""

    hbar: float
    m: float
    potential: ScalarField
    grid: Grid1D

    def __post_init__(self):
        require_finite_positive(self.hbar, "hbar")
        require_finite_positive(self.m, "m")
        require_same_grid(self.potential, self)

    @property
    def sigma2(self) -> float:
        """Diffusion coefficient hbar/m of the associated diffusion."""
        return self.hbar / self.m

    @classmethod
    def free(cls, grid: Grid1D, hbar: float = 1.0, m: float = 1.0) -> "QuantumModel":
        return cls(hbar, m, ScalarField(grid, np.zeros(grid.n_points)), grid)


def _off_node(rho: np.ndarray) -> np.ndarray:
    """Points where the density rho = |psi|^2 lies above NODE_FLOOR times its peak.

    A stack of densities is taken row by row, each against its own peak.
    """
    return rho > NODE_FLOOR * rho.max(axis=-1, keepdims=True)


def _dirichlet_bands(model: QuantumModel):
    """(diagonal 2c + V, off-diagonal -c) of H on the interior nodes, c = hbar^2/(2 m h^2)."""
    c = model.hbar**2 / (2.0 * model.m * model.grid.h**2)
    return 2.0 * c + model.potential.values[1:-1], -c


def _dirichlet_apply_h(model: QuantumModel, values: np.ndarray) -> np.ndarray:
    """Hamiltonian action -(hbar^2/2m) L + V on the interior nodes 1..n-2.

    The walls sit at x_min and x_max: the 3-point stencil reads zero there,
    whatever the endpoint entries of values hold, and the result has n - 2
    entries along the last axis (a stack of states is taken row by row).
    This is the operator the Cayley step factorizes, so the quadratic form
    <psi, H psi> is conserved exactly along the evolution.
    """
    diag, off = _dirichlet_bands(model)
    interior = values[..., 1:-1]
    out = diag * interior
    out[..., :-1] += off * interior[..., 1:]
    out[..., 1:] += off * interior[..., :-1]
    return out


def _cayley(model: QuantumModel, dt: float):
    """Return step(src), the implicit-midpoint step of the state src over dt (dt < 0 runs back).

    theta = i dt/(2 hbar), and (I + theta H) is factored once for every step of evolve; the
    step is 2 (I + theta H)^-1 - I = (I + theta H)^-1 (I - theta H) on the interior, and the
    walls pass the endpoint entries through. The unknowns run in blocks of _CAYLEY_SEGMENT
    and a separator, the last one padded with identity rows. The segments are inverted as a
    stack, their tridiagonal Schur complement on the separators once; a step costs about
    32 n + (n/33)^2 complex products. No inverse is singular or large: a segment's matrix is
    normal with eigenvalues 1 + theta lambda, lambda real, and the inverse of the Schur
    complement is a block of (I + theta H)^-1; each has norm <= 1.
    """
    require_finite_positive(abs(dt), "time step |dt|")
    h_diag, h_off = _dirichlet_bands(model)
    theta = 1j * dt / (2.0 * model.hbar)
    n, size = h_diag.shape[0], _CAYLEY_SEGMENT + 1
    n_blocks = -(-n // size)
    pad = n_blocks * size - n
    diag = np.pad(1.0 + theta * h_diag, (0, pad), constant_values=1.0).reshape(n_blocks, size)
    # off[j, k] couples unknown k of block j to the next one
    off = np.pad(np.full(n - 1, theta * h_off), (0, pad + 1)).reshape(n_blocks, size)
    i = np.arange(_CAYLEY_SEGMENT)
    segments = np.zeros((n_blocks, _CAYLEY_SEGMENT, _CAYLEY_SEGMENT), dtype=complex)
    segments[:, i, i] = diag[:, :-1]
    segments[:, i[1:], i[:-1]] = segments[:, i[:-1], i[1:]] = off[:, :-2]
    inv = np.linalg.inv(segments)
    # separator j meets segment j through to_sep[j] and segment j + 1 through
    # from_sep[j]; the right and left spikes are the segments' answers to them
    to_sep, from_sep = off[:, -2], off[:-1, -1]
    right, left = to_sep[:, None] * inv[:, :, -1], from_sep[:, None] * inv[1:, :, 0]
    schur = np.diag(diag[:, -1] - to_sep * right[:, -1] - np.append(from_sep * left[:, 0], 0.0))
    coupling = np.diag(to_sep[1:] * left[:, -1], 1)
    schur_inv = np.linalg.inv(schur - coupling - coupling.T)

    def step(src: np.ndarray) -> np.ndarray:
        x = np.zeros((n_blocks, size), dtype=complex)
        x.ravel()[:n] = src[1:-1]
        seg = (inv @ x[:, :-1, None])[..., 0]
        sep = x[:, -1] - to_sep * seg[:, -1]
        sep[:-1] -= from_sep * seg[1:, 0]
        # einsum calls no BLAS, whose threads wake for a product this size (ms on a busy machine)
        sep = np.einsum("ij,j->i", schur_inv, sep)
        seg -= right * sep[:, None]
        seg[1:] -= left * sep[:-1, None]
        x[:, :-1], x[:, -1] = seg, sep
        out = src.copy()
        out[1:-1] = 2.0 * x.ravel()[:n] - src[1:-1]
        return out

    return step


def _norm_sq(grid: Grid1D, values: np.ndarray):
    """Squared trapezoid norm of values along the last axis (row by row for a stack)."""
    return np.abs(values) ** 2 @ grid.weights


@dataclass(frozen=True)
class WavefunctionPath:
    """Unit-norm states of one model on a strictly increasing time grid.

    psi is one (n_times, n_points) complex array, row k the state at
    times[k]. It is stored without a copy and made read-only, after every
    row is checked to be finite and of unit trapezoid norm.
    """

    times: np.ndarray
    psi: np.ndarray
    model: QuantumModel

    def __post_init__(self):
        times = require_time_grid(self.times, 1)
        psi = np.asarray(self.psi, dtype=complex)
        grid = self.model.grid
        shape = (times.shape[0], grid.n_points)
        if psi.shape != shape:
            raise ValueError(f"need psi of shape (n_times, n_points) = {shape}, got {psi.shape}")
        for start in range(0, shape[0], _ROW_BLOCK):
            # a NaN or inf entry makes its row's norm NaN or inf, so one test finds both
            norms = np.sqrt(_norm_sq(grid, psi[start:start + _ROW_BLOCK]))
            bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
            if bad.size:
                k = start + int(bad[0])
                if not np.all(np.isfinite(psi[k])):
                    raise ValueError(f"state {k} has a non-finite entry")
                raise ValueError(f"state {k} has norm {float(norms[bad[0]])!r}, expected 1")
        psi.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "psi", psi)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def states(self) -> tuple:
        """The stored states as ComplexFields viewing the checked, read-only rows."""
        return tuple(ComplexField._view(self.model.grid, row) for row in self.psi)

    def density_at(self, t: float) -> DensityField:
        """|psi|^2 at a stored time t; TimeNotStored for any other t."""
        k = stored_time_index(self.times, t)
        return DensityField(self.model.grid, np.abs(self.psi[k]) ** 2)


def norm_l2(psi: ComplexField) -> float:
    """Trapezoid L2 norm sqrt(integral |psi|^2 dx).

    This is the norm the Cayley step of evolve conserves: its walls sit at
    x_min and x_max, where the trapezoid weight is h/2 and the entries never change.
    """
    return float(np.sqrt(_norm_sq(psi.grid, psi.values)))


def normalize_wavefunction(psi: ComplexField) -> ComplexField:
    nrm = norm_l2(psi)
    if nrm == 0:
        raise NonPositiveMass("cannot normalize the zero state")
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
    input as a single-state path. One BoundaryMassWarning is raised when the
    probability mass on the nodes next to the walls exceeds WALL_MASS_TOL
    after any step: the packet has reached a wall and reflects there.
    """
    require_count(n_steps, 1, "n_steps")
    require_same_grid(psi, model)
    # None reads as NaN, whose step _cayley refuses
    t_from, t_to = np.float64(t_from), np.float64(t_to)
    if t_to == t_from:
        return WavefunctionPath(np.array([t_from]), psi.values[None, :], model)
    dt = (t_to - t_from) / n_steps
    step = _cayley(model, dt)
    rows = np.empty((n_steps + 1, model.grid.n_points), dtype=complex)
    # row order[i] holds the state after i steps, so rows run in increasing time
    order = np.arange(n_steps + 1) if dt > 0 else np.arange(n_steps, -1, -1)
    rows[order[0]] = psi.values
    for k, k_next in zip(order, order[1:]):
        rows[k_next] = step(rows[k])
    # the endpoint entries never change; a packet reaching a wall shows on
    # the nodes next to it
    wall = model.grid.h * (np.abs(rows[order[1:], 1]) ** 2 + np.abs(rows[order[1:], -2]) ** 2)
    if wall.max() > WALL_MASS_TOL:
        warnings.warn(
            f"probability mass up to {wall.max():.2e} at the walls exceeds "
            f"{WALL_MASS_TOL:.0e}; reflections will contaminate the run",
            BoundaryMassWarning,
            stacklevel=2,
        )
    return WavefunctionPath(t_from + dt * order, rows, model)


@dataclass(frozen=True)
class DriftDecomposition:
    """Nelson's forward (beta) and backward (gamma) drifts of one state, and their node mask.

    beta = v + u and gamma = v - u are stored, read-only, and a GridDrift views
    them without a copy; Nelson's current drift is v = (beta + gamma)/2, his
    osmotic drift u = (beta - gamma)/2, and v - i u is the complex drift. mask
    (read-only) marks points safely away from nodes; flagged points carry zeros.
    """

    beta: ScalarField
    gamma: ScalarField
    mask: np.ndarray


def drifts(psi: ComplexField, model: QuantumModel) -> DriftDecomposition:
    """Forward and backward drifts beta = v + u and gamma = v - u of the |psi|^2 diffusion.

    u = (hbar/2m) d/dx log|psi|^2 and v = (hbar/m) Im(psi'/psi); both are
    computed from derivatives of the state itself, never from an unwrapped
    phase. Points with |psi|^2 at or below NODE_FLOOR times the peak are
    masked out and set to zero; the stored beta, gamma and mask are read-only.
    """
    require_same_grid(psi, model)
    grid = model.grid
    rho = np.abs(psi.values) ** 2
    mask = _off_node(rho)
    mask.setflags(write=False)
    u = np.where(mask, (0.5 * model.sigma2) * _log_gradient_values(rho, grid.h), 0.0)
    safe_psi = np.where(mask, psi.values, 1.0)
    grad_psi = _gradient_values(psi.values, grid.h)
    v = np.where(mask, model.sigma2 * np.imag(grad_psi / safe_psi), 0.0)
    return DriftDecomposition(ScalarField(grid, v + u), ScalarField(grid, v - u), mask)


def quantum_bridge(path: WavefunctionPath, rho1: DensityField) -> WavefunctionPath:
    """Recondition a wavefunction path on a new terminal density.

    The terminal state is replaced by sqrt(rho1 / |psi(t1)|^2) * psi(t1) --
    same phase, new amplitude, with no phase ever extracted -- and evolved
    backward to t0 under the same model. SupportViolation is raised when
    rho1 places more than STRAY_MASS_TOL of mass over the node region of
    the reference state (grid.require_negligible_mass); points where the
    reference density is not representable at all contribute zero.
    NonPositiveMass is raised, never a renormalization, when the new state
    misses unit norm by more than NORM_TOL, and InvalidInterval when the
    path's times are not equally spaced within the stored-time tolerance.
    """
    require_same_grid(rho1, path.model)
    # evolve runs back on equal steps: only an equally spaced path gets its own times back
    require_time_grid(path.times, 1, equal_steps=True)
    grid = path.model.grid
    psi1 = path.psi[-1]
    rho = np.abs(psi1) ** 2
    require_negligible_mass(rho1, ~_off_node(rho), "terminal density")
    # replace the amplitude pointwise wherever the reference density is
    # representable, so the identity case stays exact to roundoff; below
    # 1e-250 the ratio rho1/rho would overflow, and such points carry no mass
    dead = rho < 1e-250
    ratio = np.where(dead, 0.0, rho1.values / np.where(dead, 1.0, rho))
    tilde1 = ComplexField(grid, np.sqrt(ratio) * psi1)
    nrm = norm_l2(tilde1)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NonPositiveMass(f"terminal density has mass {nrm**2!r} where the reference "
                              f"is representable; the new state would have norm {nrm!r}")
    n_steps = max(len(path.times) - 1, 1)
    return evolve(tilde1, path.model, path.t1, path.t0, n_steps)


def hjb_residual(path: WavefunctionPath, tilde_path: WavefunctionPath) -> float:
    """Space-time L2 residual of the log-ratio transport equation.

    With r = tilde_psi / psi, the log-ratio solves the verification equation
    exactly when (d/dt + v_q d/dx - i hbar/(2m) d2/dx2) r = 0, and for
    smooth fields that operator divided by r equals
    Schr(tilde_psi)/tilde_psi - Schr(psi)/psi with Schr = d/dt + (i/hbar) H.
    The residual is this difference written in the evolution's own terms,
    at the Crank-Nicolson midpoints k + 1/2 of each step:

        S(phi) = (phi^{k+1} - phi^k)/dt + (i/hbar) H phi^{k+1/2},
        residual = S(tilde_psi)/tilde_psi^{k+1/2} - S(psi)/psi^{k+1/2},

    with H the Dirichlet operator of the Cayley step and phi^{k+1/2} the
    mean of the two states. S is the Crank-Nicolson equation itself, so it
    vanishes on the interior nodes for every path evolve produces: for two
    solutions of the same model the residual is zero up to roundoff, on any
    grid and step, while a path that does not solve the model gives an O(1)
    value. The L2 norm runs over the interior nodes where neither midpoint
    state has a node (density above NODE_FLOOR times its peak), weighted by
    the trapezoid weights and the step lengths. Also asserts the terminal
    ratio is real positive (phase invariance at t1) within TERMINAL_PHASE_TOL.
    Paths on different grids raise GridMismatch; another hbar, m or V, ValueError.
    """
    model, other = path.model, tilde_path.model
    require_same_grid(model, other)
    if (model.hbar != other.hbar or model.m != other.m
            or not np.array_equal(model.potential.values, other.potential.values)):
        raise ValueError("paths evolve under different models")
    if path.times.shape != tilde_path.times.shape or not np.allclose(
        path.times, tilde_path.times, rtol=0, atol=_time_tol(path.times)
    ):
        raise ValueError("paths must share the same time grid")
    require_time_grid(path.times, 2)  # the midpoint stencil needs one step

    # terminal condition: ratio real and positive where defined
    p1, q1 = path.psi[-1], tilde_path.psi[-1]
    mask_T = _off_node(np.abs(p1) ** 2) & _off_node(np.abs(q1) ** 2)
    phase_defect = 0.0
    if mask_T.any():
        phase_defect = float(np.max(np.abs(np.angle(q1[mask_T] / p1[mask_T]))))
    if phase_defect > TERMINAL_PHASE_TOL:
        raise TerminalMismatch(
            f"terminal log-ratio has imaginary part {phase_defect:.3e} "
            f"(tolerance {TERMINAL_PHASE_TOL:.0e})"
        )

    def midpoint_defect(p, steps, dt):
        # S and the midpoint state of the steps in a block, one row per step
        a, b = p.psi[steps], p.psi[steps.start + 1:steps.stop + 1]
        mid = 0.5 * (a + b)
        defect = (b[:, 1:-1] - a[:, 1:-1]) / dt + (1j / model.hbar) * _dirichlet_apply_h(model, mid)
        return mid[:, 1:-1], defect

    dts = np.diff(path.times)
    total = 0.0
    for start in range(0, dts.shape[0], _ROW_BLOCK):
        steps = slice(start, min(start + _ROW_BLOCK, dts.shape[0]))
        dt = dts[steps, None]
        mid_p, s_p = midpoint_defect(path, steps, dt)
        mid_q, s_q = midpoint_defect(tilde_path, steps, dt)
        mask = _off_node(np.abs(mid_p) ** 2) & _off_node(np.abs(mid_q) ** 2)
        res = np.divide(s_q, mid_q, out=np.zeros_like(s_q), where=mask)
        res -= np.divide(s_p, mid_p, out=np.zeros_like(s_p), where=mask)
        total += float(dts[steps] @ (np.abs(res) ** 2).sum(axis=1))
    return float(np.sqrt(model.grid.h * total))


def _merge_regions(regions):
    # np.float64 reads None as NaN
    regs = sorted((float(np.float64(a)), float(np.float64(b))) for a, b in regions)
    if not np.isfinite(regs).all():
        raise ValueError(f"region ends must be finite, got {regs}")
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
    return normalize_wavefunction(ComplexField(grid, chi_psi)), float(p1)


def finite_action(path: WavefunctionPath) -> float:
    """Time integral (trapezoid) of the gradient norm along the path.

    Always finite on a grid; its stability under refinement is the check
    that the underlying state has finite action.
    """
    values = _norm_sq(path.model.grid, _gradient_values(path.psi, path.model.grid.h))
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
    require_same_grid(psi, model)
    h_psi = _dirichlet_apply_h(model, psi.values)
    return float(model.grid.h * np.vdot(psi.values[1:-1], h_psi).real)
