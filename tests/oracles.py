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
