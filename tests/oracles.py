"""Independent reference implementations for the tests.

Written from closed forms, sharing no code with the library, so a test can
compare the library against them.
"""

import numpy as np


def _nodes(grid):
    """Grid points and trapezoid weights, computed afresh."""
    x = np.linspace(grid.x_min, grid.x_max, grid.n_points)
    w = np.full(grid.n_points, (grid.x_max - grid.x_min) / (grid.n_points - 1))
    w[0] = w[-1] = w[1] / 2.0
    return x, w


def heat_matrix(grid, variance):
    """Folded Wiener kernel K[i, j] = p_v(x_i - x_j) w_j, one n x n array.

    p_v is the Gaussian density of the given variance and w the trapezoid
    weights, so K @ f applies the kernel to f by quadrature.
    """
    x, w = _nodes(grid)
    d = np.subtract.outer(x, x)
    return np.exp(-(d**2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance) * w[None, :]


def log_heat_matrix(grid, variance):
    """log K[i, j] of heat_matrix, formed in the log domain, so no entry underflows."""
    x, w = _nodes(grid)
    d = np.subtract.outer(x, x)
    return -(d**2) / (2.0 * variance) - 0.5 * np.log(2.0 * np.pi * variance) + np.log(w)[None, :]


def log_apply(log_k, log_f):
    """log (K @ exp(log_f)) by a max-shifted log-sum-exp over each full row."""
    terms = log_k + log_f[None, :]
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def plain_scaling(grid, rho0, rho1, variance, tol=1e-9, max_iter=5000):
    """Plain log-domain scaling for the Schrodinger system over one kernel span.

    rho0 and rho1 are the (floored, positive) marginal values. Alternates
    log phi1 = log rho1 - log K phihat0 and log phihat0 = log rho0 - log K phi1
    until the L1 defect of the terminal marginal is below tol; returns
    (log_phi1, log_phihat0, iterations). Raises RuntimeError after max_iter.
    """
    _, w = _nodes(grid)
    log_k = log_heat_matrix(grid, variance)
    log_rho0, log_rho1 = np.log(rho0), np.log(rho1)
    log_phi1, log_phihat0 = np.zeros_like(log_rho1), log_rho0.copy()
    for iterations in range(1, max_iter + 1):
        log_phihat1 = log_apply(log_k, log_phihat0)
        if np.dot(w, np.abs(np.exp(log_phi1 + log_phihat1) - rho1)) < tol:
            return log_phi1, log_phihat0, iterations
        log_phi1 = log_rho1 - log_phihat1
        log_phihat0 = log_rho0 - log_apply(log_k, log_phi1)
    raise RuntimeError(f"plain scaling did not converge in {max_iter} iterations")


def gaussian_bridge_marginal(x, t, mean0, var0, mean1, var1, sigma2):
    """Density at t in [0, 1] of the bridge from N(mean0, var0) to N(mean1, var1).

    The prior is the Wiener process of diffusion coefficient sigma2 over
    [0, 1]. By the closed form of Bunne, Hsieh, Cuturi and Krause (AISTATS
    2023) the marginal is Gaussian with mean (1 - t) mean0 + t mean1 and variance
    (1 - t)^2 var0 + t^2 var1 + 2 t (1 - t) c + sigma2 t (1 - t), where
    c = (sqrt(4 var0 var1 + sigma2^2) - sigma2) / 2 is the endpoint covariance.
    """
    c = 0.5 * (np.sqrt(4.0 * var0 * var1 + sigma2**2) - sigma2)
    mean = (1.0 - t) * mean0 + t * mean1
    var = (1.0 - t) ** 2 * var0 + t**2 * var1 + 2.0 * t * (1.0 - t) * c + sigma2 * t * (1.0 - t)
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


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


def box_mode_energy(grid, n_mode, hbar, m):
    """Continuum energy hbar^2 k^2 / (2 m), k = n pi / L, of the n-th mode of the box."""
    k = n_mode * np.pi / (grid.x_max - grid.x_min)
    return hbar**2 * k**2 / (2.0 * m)


def serial_euler_maruyama(drift, rho, sigma2, times, n_paths, seed, backward=False):
    """Euler-Maruyama on one thread, path blocks one after another; (n_paths, n_times).

    Block b of 16384 paths draws from SFC64 keyed by SeedSequence([seed, b]):
    first its start uniforms, mapped through the inverse trapezoid CDF of rho,
    then one row of standard normals per step in step order. A step reads the
    drift where it starts: forward x_{k+1} = x_k + drift(x_k, t_k) dt + sigma
    sqrt(dt) z, backward x_k = x_{k+1} - drift(x_{k+1}, t_{k+1}) dt + sigma
    sqrt(dt) z.
    """
    grid = rho.grid
    x_grid, w = _nodes(grid)
    values = rho.values
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * w[1] * (values[:-1] + values[1:]))])
    cdf /= cdf[-1]
    n_times = len(times)
    dts = np.diff(times)
    steps = range(n_times - 2, -1, -1) if backward else range(n_times - 1)
    out = np.empty((n_times, n_paths))
    for b, start in enumerate(range(0, n_paths, 16384)):
        stop = min(start + 16384, n_paths)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, b])))
        x = np.interp(rng.random(stop - start), cdf, x_grid)
        out[-1 if backward else 0, start:stop] = x
        for k in steps:
            src, dst = (k + 1, k) if backward else (k, k + 1)
            inc = rng.standard_normal(stop - start) * (np.sqrt(sigma2) * np.sqrt(dts[k]))
            inc += np.asarray(drift(x, times[src]), dtype=float) * ((-1.0 if backward else 1.0)
                                                                    * dts[k])
            x = inc + x
            out[dst, start:stop] = x
    return out.T


def mccann_density(grid, rho0, rho1, t):
    """Density at time t of McCann's displacement interpolation from rho0 to rho1.

    In 1-D the optimal transport map is monotone, so the interpolant's
    quantile function is F_t^-1 = (1 - t) F_0^-1 + t F_1^-1. F_0 and F_1 are
    the trapezoid CDFs of the positive marginal values, linear between nodes,
    so both quantile functions are linear between the merged levels u of the
    two CDFs, and F_t is linear between the points (1 - t) F_0^-1(u) +
    t F_1^-1(u). The density is the gradient of F_t at the nodes (central
    differences inside, one-sided at the ends).
    """
    x, w = _nodes(grid)

    def cdf(rho):
        c = np.concatenate([[0.0], np.cumsum(0.5 * w[1] * (rho[:-1] + rho[1:]))])
        return c / c[-1]

    f0, f1 = cdf(rho0), cdf(rho1)
    u = np.union1d(f0, f1)
    x_t = (1.0 - t) * np.interp(u, f0, x) + t * np.interp(u, f1, x)
    return np.gradient(np.interp(x, x_t, u), w[1])
