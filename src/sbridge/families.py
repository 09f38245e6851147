"""Named analytic families of densities and wavefunctions.

Gaussian and indicator densities and their mixtures, minimum-uncertainty
wave packets and the Dirichlet box modes of the quantum solver: the inputs
the pipelines and the test batteries build their problems from.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, DensityField, Grid1D, ScalarField, normalize
from .grid import require_count, require_finite_positive
from .quantum import normalize_wavefunction


def gaussian_density(grid: Grid1D, mean: float, var: float) -> DensityField:
    require_finite_positive(var, "var")
    x = grid.points
    # None reads as NaN, a non-finite field
    return normalize(ScalarField(grid, np.exp(-((x - np.float64(mean)) ** 2) / (2.0 * var))))


def indicator_density(grid: Grid1D, a: float, b: float) -> DensityField:
    a, b = np.float64(a), np.float64(b)  # None reads as NaN, refused here
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    x = grid.points
    return normalize(ScalarField(grid, ((x >= a) & (x <= b)).astype(float)))


def mixture_density(grid: Grid1D, components) -> DensityField:
    """components: iterable of (weight, descriptor dict).

    A descriptor is {"kind": "gaussian", "mean": ..., "var": ...} or
    {"kind": "indicator", "a": ..., "b": ...}.
    """
    total = np.zeros(grid.n_points)
    for weight, spec in components:
        weight = np.float64(weight)  # None reads as NaN, refused here
        if not weight >= 0:
            raise ValueError(f"mixture weights must be nonnegative, got {weight}")
        total += weight * _component(grid, spec).values
    return normalize(ScalarField(grid, total))


def _component(grid: Grid1D, spec) -> DensityField:
    kind = spec.get("kind")
    if kind == "gaussian":
        return gaussian_density(grid, spec["mean"], spec["var"])
    if kind == "indicator":
        return indicator_density(grid, spec["a"], spec["b"])
    raise ValueError(f"unknown density kind {kind!r}")


def gaussian_packet(
    grid: Grid1D, center: float = 0.0, sigma0: float = 1.0, k0: float = 0.0
) -> ComplexField:
    """Minimum-uncertainty packet exp(-(x-c)^2/(4 sigma0^2) + i k0 x), unit norm.

    |psi|^2 is a Gaussian density with standard deviation sigma0; k0 is the
    carrier wavenumber (group velocity hbar k0 / m).
    """
    require_finite_positive(sigma0, "sigma0")
    x = grid.points
    # None reads as NaN, a non-finite field
    psi = np.exp(-((x - np.float64(center)) ** 2) / (4.0 * sigma0**2) + 1j * k0 * x)
    return normalize_wavefunction(ComplexField(grid, psi))


def box_mode(grid: Grid1D, n_mode: int = 1) -> ComplexField:
    """n-th Dirichlet eigenstate sin(n pi (x - x_min) / L) of the domain box."""
    require_count(n_mode, 1, "n_mode")
    x = grid.points
    length = grid.x_max - grid.x_min
    vals = np.sin(n_mode * np.pi * (x - grid.x_min) / length)
    return normalize_wavefunction(ComplexField(grid, vals.astype(complex)))


def box_mode_energy(grid: Grid1D, n_mode: int, hbar: float, m: float) -> float:
    """Energy hbar^2 k^2 / (2 m), k = n pi / L, of the n-th box mode."""
    require_count(n_mode, 1, "n_mode")
    require_finite_positive(hbar, "hbar")
    require_finite_positive(m, "m")
    k = n_mode * np.pi / (grid.x_max - grid.x_min)
    return hbar**2 * k**2 / (2.0 * m)

