"""Independent reference implementations for the tests.

Written from closed forms, sharing no code with the library, so a test can
compare the library against them.
"""

import numpy as np


def heat_matrix(grid, variance):
    """Folded Wiener kernel K[i, j] = p_v(x_i - x_j) w_j, one n x n array.

    p_v is the Gaussian density of the given variance and w the trapezoid
    weights, so K @ f applies the kernel to f by quadrature.
    """
    x = np.linspace(grid.x_min, grid.x_max, grid.n_points)
    w = np.full(grid.n_points, (grid.x_max - grid.x_min) / (grid.n_points - 1))
    w[0] = w[-1] = w[1] / 2.0
    d = np.subtract.outer(x, x)
    return np.exp(-(d**2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance) * w[None, :]


def cayley_step(psi, hbar, m, potential, h, dt):
    """One Crank-Nicolson step by a dense solve, walls at the grid endpoints.

    H = -(hbar^2/2m) d2/dx2 + V on the interior nodes, 3-point stencil; the
    interior solves (I + i dt/(2 hbar) H) psi' = (I - i dt/(2 hbar) H) psi
    and the endpoint entries are kept.
    """
    c = hbar**2 / (2.0 * m * h**2)
    n = psi.shape[0] - 2
    ham = np.diag(2.0 * c + potential[1:-1]) - c * (np.eye(n, k=1) + np.eye(n, k=-1))
    a = 0.5j * dt / hbar * ham
    out = psi.astype(complex)
    out[1:-1] = np.linalg.solve(np.eye(n) + a, (np.eye(n) - a) @ psi[1:-1])
    return out
