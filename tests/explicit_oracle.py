"""The explicit finite-volume step, kept as the test oracle for the
semi-implicit `dynamics.step`: forward Euler on the same
exponential-fitting (Scharfetter-Gummel) face fluxes over the node gaps,
stable only for small dt; it takes dt up to `step_limit`, at most half
the forward-Euler diagonal bound at every D.  A uniform density is a
bitwise fixed point of it, and its flux form conserves mass to rounding
at every step."""

import numpy as np

from onsager.dynamics import grid_mass, potential_on_grid


class StepSizeError(ValueError):
    """Requested dt exceeds the explicit stability limit `step_limit`."""


def step_limit(grid):
    """min(h^2/4, min_i w_i / (2 (s_(i-1/2) + s_(i+1/2)))): the face
    conductances s of cell i over its volume w_i bound the forward-Euler
    diagonal, and h^2/4 is the smaller term at D = 3."""
    s_faces = np.pad(grid.faces, 1)
    return min(grid.h ** 2 / 4.0,
               0.5 * np.min(grid.weights / (s_faces[1:] + s_faces[:-1])))


def explicit_step(f, spec, lam, dt, grid):
    """One conservative forward-Euler update with fluxes
    s M_face (phi_(i+1) - phi_i) / (theta_(i+1) - theta_i), phi = f e^U,
    M_face = sqrt(b_i b_(i+1)), b = e^(-(U - min U)), in the grid's cell
    volumes sigma_(D-1) w_i, w the zonal Gauss weights; sigma_(D-1)
    cancels."""
    limit = step_limit(grid)
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={dt} exceeds the explicit stability limit {limit}")
    f = np.asarray(f, dtype=float)
    potential = potential_on_grid(f, spec, lam, grid)
    boltzmann = np.exp(-(potential - potential.min()))
    phi = f / boltzmann
    m_face = np.sqrt(boltzmann[1:] * boltzmann[:-1])
    fluxes = grid.faces * m_face * np.diff(phi)
    div = np.empty_like(f)
    div[0] = fluxes[0]
    div[-1] = -fluxes[-1]
    div[1:-1] = fluxes[1:] - fluxes[:-1]
    return f + dt * div / grid.weights


def explicit_relax(f0, spec, lam, dt, grid, settle_tol, max_steps):
    """Explicit steps from f0 (normalized) until the l1 change
    grid_mass(|f_next - f|) / dt < settle_tol; returns the last density,
    or raises RuntimeError after max_steps."""
    f = np.asarray(f0, dtype=float) / grid_mass(f0, grid)
    for _ in range(max_steps):
        f_next = explicit_step(f, spec, lam, dt, grid)
        settled = grid_mass(np.abs(f_next - f), grid) / dt < settle_tol
        f = f_next
        if settled:
            return f
    raise RuntimeError(f"not settled after {max_steps} steps")
