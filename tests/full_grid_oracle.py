"""The dynamics on the whole zonal Gauss rule, kept as the test oracle for
the folded grid of `dynamics.make_grid`: the grid of all G nodes t in
(-1, 1), its moments, potential and energy, its semi-implicit step and
its evolve loop, as they ran before the grid kept only the nodes t >= 0.
An even density stays even on the whole grid to rounding, which is what
the fold rests on; then the equator face carries no flux, and the rows of
the nodes t > 0 are the folded rows halved.  The record is the oracle's
own: a `dynamics.ThetaGrid` reads the folded rule's mode table."""

import math
from dataclasses import dataclass

import numpy as np

from onsager.errors import DivergenceError
from onsager.polybasis import legendre_table, surface_area, zonal_rule


@dataclass(frozen=True)
class FullGrid:
    """All G nodes of zonal_rule(D, G), pole first: theta ascending,
    t = cos theta the rule's nodes, the rule's weights as cell volumes
    over sigma_(D-1), faces at the G - 1 node midpoints, and the nominal
    node spacing h = pi/(G + 1)."""

    D: int
    points: np.ndarray
    t: np.ndarray
    weights: np.ndarray
    faces: np.ndarray
    h: float


def make_full_grid(D, G):
    """Nodes theta_i = arccos t_i of the G-point rule zonal_rule(D, G),
    ascending, with the rule's weights as cell volumes over sigma_(D-1)
    and sin^(D-2) over the node gaps at the G - 1 midpoints."""
    nodes, weights = zonal_rule(D, G)
    t = nodes[::-1]
    theta = np.arccos(t)
    faces = np.sin(0.5 * (theta[1:] + theta[:-1])) ** (D - 2) / np.diff(theta)
    return FullGrid(D=D, points=theta, t=t, weights=weights, faces=faces,
                    h=math.pi / (G + 1))


def full_mass(f, grid):
    """int f dsigma in the cell volumes."""
    return surface_area(grid.D - 1) * float(grid.weights @ f)


def full_moments(f, grid, n_modes):
    """a_n = int f P_2n dsigma / int f dsigma, n = 1..n_modes, less the
    moments of the isotropic density in the same weights."""
    table = legendre_table(grid.D, 2 * n_modes, grid.t)[2::2]
    w = grid.weights
    return table @ (w * f) / (w @ f) - table @ w / w.sum()


def full_potential(f, spec, lam, grid):
    """lam (k0 - sum_n k_n a_n P_2n) from the density's own moments."""
    table = legendre_table(grid.D, 2 * spec.n_max, grid.t)[2::2]
    a = full_moments(f, grid, spec.n_max)
    return lam * (spec.k0 - (np.asarray(spec.coeffs) * a) @ table)


def full_energy(f, spec, lam, grid):
    """int f (log f + U(f)/2) dsigma in the cell volumes."""
    safe = np.where(f > 0.0, f, 1.0)
    return full_mass(f * (np.log(safe) + 0.5 * full_potential(
        f, spec, lam, grid)), grid)


@np.errstate(all="ignore")
def full_step(f, spec, lam, dt, grid):
    """One semi-implicit step, (w b / dt) phi - div(a grad phi) = w f / dt
    with a the Scharfetter-Gummel conductances, by a Thomas sweep over
    every node; returns b phi rescaled to the mass of f."""
    f = np.asarray(f, dtype=float)
    potential = full_potential(f, spec, lam, grid)
    weights = grid.weights
    boltzmann = np.exp(-(potential - potential.min()))
    cond = dt * grid.faces * np.sqrt(boltzmann[1:] * boltzmann[:-1])
    diag = weights * boltzmann
    diag[1:] += cond
    diag[:-1] += cond
    pivots = diag.tolist()
    rhs = (weights * f).tolist()
    off = cond.tolist()
    for i, p in enumerate(pivots):
        if p == 0.0 or not abs(p) < math.inf:
            raise DivergenceError(f"pivot {p} at node {i}")
        if i < len(off):
            w = off[i] / p
            pivots[i + 1] -= w * off[i]
            rhs[i + 1] += w * rhs[i]
    phi = rhs
    phi[-1] /= pivots[-1]
    for i in range(len(off) - 1, -1, -1):
        phi[i] = (rhs[i] + off[i] * phi[i + 1]) / pivots[i]
    f_next = boltzmann * np.array(phi)
    f_next *= (weights @ f) / (weights @ f_next)
    if not np.all((f_next >= 0.0) & (f_next < math.inf)):
        raise DivergenceError("density is negative or not finite")
    return f_next


def full_evolve(f0, spec, lam, dt, t_max, grid, record_every=1):
    """`dynamics.evolve`'s loop on `full_step`: f0 normalized to mass 1,
    steps of dt with the last one shortened to end at t_max, a stop once
    a step changes the density by less than 1e-10 dt in l1; returns the
    recorded times, densities and energies and whether it stopped early."""
    f = np.array(f0, dtype=float)
    f /= full_mass(f, grid)
    n_steps = math.ceil(t_max / dt)
    if n_steps and (n_steps - 1) * dt >= t_max:
        n_steps -= 1
    times, densities = [0.0], [f.copy()]
    energies = [full_energy(f, spec, lam, grid)]
    t, settled = 0.0, False
    for k in range(1, n_steps + 1):
        t_next = k * dt if k < n_steps else t_max
        f_next = full_step(f, spec, lam, t_next - t, grid)
        settled = full_mass(np.abs(f_next - f), grid) < 1e-10 * (t_next - t)
        f, t = f_next, t_next
        if k % record_every == 0 or k == n_steps or settled:
            times.append(t)
            densities.append(f.copy())
            energies.append(full_energy(f, spec, lam, grid))
        if settled:
            break
    return times, densities, energies, settled
