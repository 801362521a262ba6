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
from .polybasis import _jacobi_rule_cached, legendre_table, surface_area

__all__ = [
    "ThetaGrid",
    "Trajectory",
    "make_grid",
    "grid_mass",
    "grid_norm",
    "grid_moments",
    "potential_on_grid",
    "grid_energy",
    "step",
    "evolve",
    "density_on_grid",
]

MIN_POINTS = 32
# default step DT_PER_H2 h^2, set by measurement: the README run settles
# within 7e-13 of the h^2/8 limit, every energy rise below 1e-15 relative
DT_PER_H2 = 32.0


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform interior grid on (0, pi); zero-flux faces at the poles."""

    D: int
    points: np.ndarray
    h: float

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def G(self) -> int:
        return self.points.size


def make_grid(D: int, G: int) -> ThetaGrid:
    """Interior nodes theta_i = i h, i = 1..G, h = pi/(G+1)."""
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if G < MIN_POINTS:
        raise ValueError(f"grid needs at least {MIN_POINTS} points, got {G}")
    h = math.pi / (G + 1)
    return ThetaGrid(D=D, points=h * np.arange(1, G + 1), h=h)


@lru_cache(maxsize=64)
def _face_sines(D: int, G: int) -> np.ndarray:
    """sin^(D-2) at the interior cell faces."""
    h = math.pi / (G + 1)
    faces = h * (np.arange(1, G) + 0.5)
    return np.sin(faces) ** (D - 2)


@lru_cache(maxsize=64)
def _moment_tables(D: int, G: int, n_modes: int):
    """Interpolatory quadrature weights on the grid nodes for integrals
    against sin^(D-2) theta dtheta, plus mode values and the moments of
    the discretely uniform density.

    The nodes are Chebyshev-spaced in t = cos theta, so weights exact for
    all polynomials of degree < G follow from a discrete sine transform of
    the Chebyshev-U moments of the weight (1 - t^2)^((D-3)/2); for smooth
    densities the moment error then decays spectrally in G, far below the
    O(h^2) of a plain midpoint sum.
    """
    h = math.pi / (G + 1)
    theta = h * np.arange(1, G + 1)
    nodes, jw = _jacobi_rule_cached(G // 2 + 2, (D - 3) / 2)
    # U_k(cos phi) = sin((k+1) phi) / sin phi
    phi = np.arccos(nodes)
    m = np.sin(np.outer(np.arange(1, G + 1), phi)) @ (jw / np.sin(phi))
    sines = np.sin(np.outer(theta, np.arange(1, G + 1)))
    weights = surface_area(D - 1) * np.sin(theta) * (
        (2.0 / (G + 1)) * (sines @ m))
    table = legendre_table(D, 2 * n_modes, np.cos(theta))[2::2]
    # moments of the uniform density in the same weights; subtracting
    # them in grid_moments makes the uniform density exactly mean-free
    base = (table @ weights) / weights.sum()
    return weights, table, base


def grid_mass(f: np.ndarray, grid: ThetaGrid) -> float:
    """Total probability int f dsigma in the grid's cell volumes.

    The cell volumes are the interpolatory node weights, which are also
    the volumes `step` conserves, so this quantity is invariant under
    `step` to rounding."""
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    return float(np.dot(weights, f))


def grid_norm(f: np.ndarray, grid: ThetaGrid) -> float:
    """Sphere L2 norm of a grid function in the absolute node weights
    (an under-resolved grid at large D has negative interpolatory
    weights), scaled by max|f| before squaring so that densities of size
    1/sigma_D do not overflow."""
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    f = np.abs(np.asarray(f, dtype=float))
    scale = float(f.max()) or 1.0
    return scale * math.sqrt(float(np.abs(weights) @ (f / scale) ** 2))


def grid_moments(f: np.ndarray, grid: ThetaGrid, n_modes: int) -> np.ndarray:
    """Zonal moments a_n = int f P_{2n} dsigma, n = 1..n_modes.

    Computed from the interpolatory node weights, normalized by the mass
    in the same weights and with the uniform-density moments subtracted,
    so a constant density has exactly zero moments."""
    weights, table, base = _moment_tables(grid.D, grid.G, n_modes)
    mass = float(weights @ f)
    return (table @ (weights * f)) / mass - base


def potential_on_grid(f: np.ndarray, spec: KernelSpec, lam: float,
                      grid: ThetaGrid) -> np.ndarray:
    """Mean-field potential lam (k0 - sum_n k_n a_n P_{2n}) from the
    density's own zonal moments."""
    a = grid_moments(f, grid, spec.n_max)
    _, table, _ = _moment_tables(grid.D, grid.G, spec.n_max)
    return lam * (spec.k0 - (spec.coeffs * a) @ table)


def grid_energy(f: np.ndarray, spec: KernelSpec, lam: float,
                grid: ThetaGrid) -> float:
    """Free energy int f (log f + U(f)/2) dsigma on the grid."""
    potential = potential_on_grid(f, spec, lam, grid)
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    safe = np.where(f > 0.0, f, 1.0)
    return float(np.dot(weights, f * (np.log(safe) + 0.5 * potential)))


# non-finite intermediates surface as a DivergenceError
@np.errstate(all="ignore")
def step(f: np.ndarray, spec: KernelSpec, lam: float, dt: float,
         grid: ThetaGrid) -> np.ndarray:
    """Advance the density one semi-implicit step of any size dt > 0.

    With U from f, b = e^(-(U - min U)) and the exponential-fitting
    (Scharfetter-Gummel) face conductances
    a = sigma_(D-1) sin^(D-2) sqrt(b_i b_(i+1)) / h, phi solves the
    tridiagonal M-matrix system (V b / dt) phi - div(a grad phi) = V f / dt
    in the node weights V, and the step returns b phi.  Densities
    proportional to e^(-U) carry zero flux, so the discrete equilibria
    are the self-consistency fixed points.  Every k_n >= 0 (KernelSpec
    checks it) makes the interaction energy concave on mass-preserving
    perturbations, so this is a convex splitting (Eyre): positivity, mass
    and energy decay hold with no step limit.  Raises DivergenceError when
    a Boltzmann factor vanishes or the new density is negative or not
    finite."""
    f = np.asarray(f, dtype=float)
    potential = potential_on_grid(f, spec, lam, grid)
    volumes, _, _ = _moment_tables(grid.D, grid.G, 1)
    boltzmann = np.exp(-(potential - potential.min()))
    cond = (dt * surface_area(grid.D - 1) / grid.h
            * _face_sines(grid.D, grid.G)
            * np.sqrt(boltzmann[1:] * boltzmann[:-1]))
    diag = volumes * boltzmann
    diag[1:] += cond
    diag[:-1] += cond
    # Thomas sweep, off-diagonal -cond.  With V > 0 every pivot is at
    # least V_i b_i; some V near the poles are negative at large D, so only
    # zero or non-finite pivots stop it, and the result is checked.
    pivots = diag.tolist()
    rhs = (volumes * f).tolist()
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
    f_next *= (volumes @ f) / (volumes @ f_next)
    if not np.all((f_next >= 0.0) & (f_next < math.inf)):
        raise DivergenceError("density is negative or not finite")
    return f_next


@dataclass
class Trajectory:
    """Sampled history of a dynamics run."""

    times: list
    densities: list
    energies: list
    grid: ThetaGrid
    terminated_early: bool = False

    @property
    def final_density(self) -> np.ndarray:
        return self.densities[-1]


def evolve(f0: np.ndarray, spec: KernelSpec, lam: float, dt: float,
           t_max: float, grid: ThetaGrid, record_every: int = 1,
           settle_tol: float = 1e-10) -> Trajectory:
    """Integrate to t_max, recording (t, density, energy) every
    record_every steps; the last step is shortened to end at t_max, and
    the run stops early once ||f_next - f|| / dt < settle_tol.
    """
    f = np.array(f0, dtype=float)
    mass = grid_mass(f, grid)
    if mass <= 0 or not math.isfinite(mass):
        raise ValueError("initial density must have positive finite mass")
    f /= mass
    n_steps = int(math.ceil(t_max / dt))
    traj = Trajectory(times=[0.0], densities=[f.copy()],
                      energies=[grid_energy(f, spec, lam, grid)], grid=grid)
    t = 0.0
    for k in range(1, n_steps + 1):
        t_next = k * dt if k < n_steps else t_max
        try:
            f_next = step(f, spec, lam, t_next - t, grid)
        except DivergenceError as err:
            raise DivergenceError(f"density diverged at t={t_next}: {err}",
                                  last_time=t) from None
        settled = grid_norm(f_next - f, grid) / (t_next - t) < settle_tol
        f, t = f_next, t_next
        if k % record_every == 0 or k == n_steps or settled:
            traj.times.append(t)
            traj.densities.append(f.copy())
            traj.energies.append(grid_energy(f, spec, lam, grid))
        if settled:
            traj.terminated_early = True
            break
    return traj


def density_on_grid(state, lam: float, grid: ThetaGrid) -> np.ndarray:
    """Grid samples of the density e^(-u)/beta defined by a solver state,
    normalized in the grid's discrete measure."""
    u = state.eval(np.cos(grid.points))
    f = np.exp(-(u - u.min()))
    return f / grid_mass(f, grid)
