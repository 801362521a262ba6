"""Pointwise views of the library's objects, built on its public API for
the tests that check them: P_n(D, t) at one point, a state's u(t), the
truncated mean-free kernel, the density a state defines on a dynamics
grid and the amplitudes of a traced branch."""

import math

import numpy as np

from onsager.dynamics import grid_mass
from onsager.polybasis import legendre_table
from onsager.solver import state_norm


def zonal(D, n, t):
    """P_n(D, t), the last row of legendre_table, for a float or array t."""
    out = legendre_table(D, n, np.atleast_1d(np.asarray(t, dtype=float)))[n]
    return float(out[0]) if np.ndim(t) == 0 else out


def u_at(state, t):
    """u(t) = sum_n u_n P_{2n}(D, t) of a solver state, t = cos theta."""
    table = legendre_table(state.D, 2 * state.N,
                           np.atleast_1d(np.asarray(t, dtype=float)))
    out = state.coeffs @ table[2::2]
    return float(out[0]) if np.ndim(t) == 0 else out


def khat_eval(spec, gamma):
    """Mean-zero truncated kernel -sum_n k_n P_{2n}(D, cos gamma) at an
    array of angles."""
    return -(spec.coeffs
             @ legendre_table(spec.D, 2 * spec.n_max, np.cos(gamma))[2::2])


def density_on_grid(state, grid):
    """The density e^(-u) of a solver state at the nodes of a dynamics
    grid, normalized in the grid's cell volumes."""
    u = u_at(state, np.cos(grid.points))
    f = np.exp(-(u - u.min()))
    return f / grid_mass(f, grid)


def amplitudes(branch, sign):
    """Norms of a branch's points with the given sign of u_mode, nearest
    the origin first."""
    return [state_norm(p.state.coeffs) for p in branch.points
            if math.copysign(1, p.state.coeffs[branch.mode - 1]) == sign]
