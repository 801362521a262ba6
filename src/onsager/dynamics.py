"""Time integration of the axisymmetric orientation dynamics
df/dt = (1/sin^(D-2)) d/dtheta [ sin^(D-2) (df/dtheta + f dU/dtheta) ],
used as a stability oracle and an energy-dissipation check for the
self-consistency solver."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError
from .kernel import KernelSpec
from .polybasis import legendre_table, surface_area, zonal_rule

__all__ = [
    "ThetaGrid",
    "Trajectory",
    "make_grid",
    "grid_mass",
    "grid_moments",
    "potential_on_grid",
    "grid_energy",
    "step",
    "evolve",
]

MIN_POINTS = 32
# default step DT_PER_H2 h^2, set by measurement: the README run settles
# within 7e-13 of the h^2/8 limit, every energy rise below 1e-15 relative
DT_PER_H2 = 32.0


@dataclass(frozen=True)
class ThetaGrid:
    """Gauss nodes on (0, pi) with positive cell volumes; zero-flux faces
    at the poles.  weights are the zonal Gauss weights w_i, the cell
    volumes over sigma_(D-1); faces are sin^(D-2) at the interior faces,
    the midpoints of consecutive nodes, over the node gaps.  h = pi/(G+1)
    is the nominal node spacing that sizes the default step."""

    D: int
    points: np.ndarray
    weights: np.ndarray
    faces: np.ndarray
    h: float

    def __post_init__(self):
        for array in (self.points, self.weights, self.faces):
            array.setflags(write=False)

    @property
    def G(self) -> int:
        return self.points.size


def make_grid(D: int, G: int) -> ThetaGrid:
    """Nodes theta_i = arccos t_i of the G-point zonal Gauss rule
    zonal_rule(D, G), in ascending order, with the rule's weights w as
    cell volumes over sigma_(D-1): positive at every D, exact for
    polynomials in cos theta of degree <= 2G - 1, and, the rule being
    symmetric, already in the order of the nodes."""
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if G < MIN_POINTS:
        raise ValueError(f"grid needs at least {MIN_POINTS} points, got {G}")
    nodes, weights = zonal_rule(D, G)
    theta = np.arccos(nodes[::-1])
    faces = np.sin(0.5 * (theta[1:] + theta[:-1])) ** (D - 2) / np.diff(theta)
    return ThetaGrid(D=D, points=theta, weights=weights, faces=faces,
                     h=math.pi / (G + 1))


@lru_cache(maxsize=64)
def _moment_tables(D: int, G: int, n_modes: int):
    """Mode values P_2n at the grid nodes and the moments of the
    discretely uniform density in the Gauss weights."""
    nodes, weights = zonal_rule(D, G)
    table = legendre_table(D, 2 * n_modes, nodes[::-1])[2::2]
    # moments of the uniform density in the same weights; subtracting
    # them in grid_moments makes the uniform density exactly mean-free
    base = (table @ weights) / weights.sum()
    return table, base


def grid_mass(f: np.ndarray, grid: ThetaGrid) -> float:
    """Total probability int f dsigma in the grid's cell volumes.

    These are the volumes `step` conserves, so this quantity is invariant
    under `step` to rounding."""
    return surface_area(grid.D - 1) * float(grid.weights @ f)


def grid_moments(f: np.ndarray, grid: ThetaGrid, n_modes: int) -> np.ndarray:
    """Zonal moments a_n = int f P_{2n} dsigma, n = 1..n_modes.

    Computed in the cell volumes, normalized by the mass in the same
    volumes and with the uniform-density moments subtracted, so a
    constant density has exactly zero moments."""
    table, base = _moment_tables(grid.D, grid.G, n_modes)
    return (table @ (grid.weights * f)) / float(grid.weights @ f) - base


def potential_on_grid(f: np.ndarray, spec: KernelSpec, lam: float,
                      grid: ThetaGrid) -> np.ndarray:
    """Mean-field potential lam (k0 - sum_n k_n a_n P_{2n}) from the
    density's own zonal moments."""
    if grid.D != spec.D:
        raise ValueError("grid and kernel dimension mismatch")
    a = grid_moments(f, grid, spec.n_max)
    table, _ = _moment_tables(grid.D, grid.G, spec.n_max)
    return lam * (spec.k0 - (spec.coeffs * a) @ table)


def grid_energy(f: np.ndarray, spec: KernelSpec, lam: float,
                grid: ThetaGrid) -> float:
    """Free energy int f (log f + U(f)/2) dsigma on the grid."""
    potential = potential_on_grid(f, spec, lam, grid)
    safe = np.where(f > 0.0, f, 1.0)
    return surface_area(grid.D - 1) * float(
        grid.weights @ (f * (np.log(safe) + 0.5 * potential)))


# non-finite intermediates surface as a DivergenceError
@np.errstate(all="ignore")
def step(f: np.ndarray, spec: KernelSpec, lam: float, dt: float,
         grid: ThetaGrid) -> np.ndarray:
    """Advance the density one semi-implicit step of any size dt > 0.

    With U from f, b = e^(-(U - min U)) and the exponential-fitting
    (Scharfetter-Gummel) face conductances
    a = sin^(D-2) sqrt(b_i b_(i+1)) / (theta_(i+1) - theta_i) at the face
    midway between two nodes, phi solves the tridiagonal M-matrix system
    (w b / dt) phi - div(a grad phi) = w f / dt in the positive Gauss
    weights w, and the step returns b phi.  The cell volumes and face
    areas carry the common factor sigma_(D-1), left out here: it would
    underflow the outer volumes at large D (D = 343 on 256 points).
    Densities proportional to e^(-U) carry zero flux, so the discrete
    equilibria are the self-consistency fixed points.  Every k_n >= 0
    (KernelSpec checks it) makes the interaction energy concave on
    mass-preserving perturbations, so this is a convex splitting (Eyre):
    positivity, mass and energy decay hold with no step limit.  Raises
    DivergenceError when a Boltzmann factor vanishes or the new density is
    negative or not finite."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    f = np.asarray(f, dtype=float)
    potential = potential_on_grid(f, spec, lam, grid)
    weights = grid.weights
    boltzmann = np.exp(-(potential - potential.min()))
    cond = dt * grid.faces * np.sqrt(boltzmann[1:] * boltzmann[:-1])
    diag = weights * boltzmann
    diag[1:] += cond
    diag[:-1] += cond
    # Thomas sweep, off-diagonal -cond: every pivot is at least w_i b_i,
    # which underflows only with b, so zero or non-finite pivots stop it
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
    # the rows sum to mass conservation; rescaling removes the solve's
    # rounding, up to about eps dt/h^2 per step
    f_next *= (weights @ f) / (weights @ f_next)
    if not np.all((f_next >= 0.0) & (f_next < math.inf)):
        raise DivergenceError("density is negative or not finite")
    return f_next


@dataclass
class Trajectory:
    """Sampled history of a dynamics run."""

    times: list
    densities: list
    energies: list
    terminated_early: bool = False

    @property
    def final_density(self) -> np.ndarray:
        return self.densities[-1]


def evolve(f0: np.ndarray, spec: KernelSpec, lam: float, dt: float,
           t_max: float, grid: ThetaGrid, record_every: int = 1) -> Trajectory:
    """Integrate f0, normalized to mass 1, to t_max, recording (t,
    density, energy) every record_every steps; the last step is shortened
    to end at t_max.  The run stops early once a step of size dt changes
    the density by sum_i V_i |f_next - f|_i < 1e-10 dt in l1, V the cell
    volumes: like the solver's sum_n |c_n|, no surface area, no square.
    """
    if not (0 < dt < math.inf and 0 <= t_max < math.inf and record_every >= 1):
        raise ValueError("need finite dt > 0 and t_max >= 0 and record_every "
                         f">= 1, got {dt}, {t_max}, {record_every}")
    f = np.array(f0, dtype=float)
    if np.any(f < 0.0):
        raise ValueError("initial density must be nonnegative")
    mass = grid_mass(f, grid)
    if mass <= 0 or not math.isfinite(mass):
        raise ValueError("initial density must have positive finite mass")
    f /= mass
    n_steps = math.ceil(t_max / dt)
    if n_steps and (n_steps - 1) * dt >= t_max:
        # t_max / dt rounded up past a whole number of steps
        n_steps -= 1
    traj = Trajectory(times=[0.0], densities=[f.copy()],
                      energies=[grid_energy(f, spec, lam, grid)])
    t = 0.0
    for k in range(1, n_steps + 1):
        t_next = k * dt if k < n_steps else t_max
        try:
            f_next = step(f, spec, lam, t_next - t, grid)
        except DivergenceError as err:
            raise DivergenceError(f"density diverged at t={t_next}: {err}",
                                  last_time=t) from None
        settled = grid_mass(np.abs(f_next - f), grid) < 1e-10 * (t_next - t)
        f, t = f_next, t_next
        if k % record_every == 0 or k == n_steps or settled:
            traj.times.append(t)
            traj.densities.append(f.copy())
            traj.energies.append(grid_energy(f, spec, lam, grid))
        if settled:
            traj.terminated_early = True
            break
    return traj

