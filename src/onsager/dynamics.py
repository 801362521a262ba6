"""Time integration of the axisymmetric orientation dynamics
df/dt = (1/sin^(D-2)) d/dtheta [ sin^(D-2) (df/dtheta + f dU/dtheta) ],
used as a stability oracle and an energy-dissipation check for the
self-consistency solver."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, StepSizeError
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
    m = np.empty(G)
    u_prev = np.ones_like(nodes)
    m[0] = float(jw @ u_prev)
    if G > 1:
        u = 2.0 * nodes
        m[1] = float(jw @ u)
        for k in range(2, G):
            u, u_prev = 2.0 * nodes * u - u_prev, u
            m[k] = float(jw @ u)
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
    the volumes the flux-form update conserves, so this quantity is
    invariant under `step` to rounding."""
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    return float(np.dot(weights, f))


def grid_norm(f: np.ndarray, grid: ThetaGrid) -> float:
    """Sphere L2 norm of a grid function."""
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    return math.sqrt(float(np.dot(weights, np.asarray(f) ** 2)))


def grid_moments(f: np.ndarray, grid: ThetaGrid, n_modes: int) -> np.ndarray:
    """Zonal moments a_n = int f P_{2n} dsigma, n = 1..n_modes.

    Computed from the interpolatory node weights, normalized by the mass
    in the same weights (the flux-form conserved mass differs from the
    true mass by O(h^2), the interpolatory one does not) and with the
    uniform-density moments subtracted, so a constant density has exactly
    zero moments."""
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
                grid: ThetaGrid, potential: np.ndarray | None = None,
                ) -> float:
    """Free energy int f (log f + U(f)/2) dsigma on the grid."""
    if potential is None:
        potential = potential_on_grid(f, spec, lam, grid)
    weights, _, _ = _moment_tables(grid.D, grid.G, 1)
    safe = np.where(f > 0.0, f, 1.0)
    return float(np.dot(weights, f * (np.log(safe) + 0.5 * potential)))


def _flux_step(f, potential, grid, dt):
    """One conservative finite-volume update given the potential.

    Exponential-fitting fluxes s M_face (phi_{i+1} - phi_i)/h with
    phi = f e^U and M_face = e^(-(U_i + U_{i+1})/2): densities
    proportional to e^(-U) carry zero flux exactly, so the discrete
    equilibria coincide with the self-consistency fixed points instead of
    being displaced by O(h^2).

    The cell volumes are the interpolatory node weights; with the same
    weights in grid_energy the update is an exact discrete gradient flow,
    so the free energy is a Lyapunov function of the scheme and not only
    of the continuum limit."""
    s_faces = _face_sines(grid.D, grid.G)
    volumes, _, _ = _moment_tables(grid.D, grid.G, 1)
    h = grid.h
    shifted = potential - potential.min()
    # non-finite intermediates surface as a divergence error downstream
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        boltzmann = np.exp(-shifted)
        phi = f / boltzmann
        m_face = np.sqrt(boltzmann[1:] * boltzmann[:-1])
        fluxes = (surface_area(grid.D - 1) * s_faces * m_face
                  * np.diff(phi) / h)
    div = np.empty_like(f)
    div[0] = fluxes[0]
    div[-1] = -fluxes[-1]
    div[1:-1] = fluxes[1:] - fluxes[:-1]
    return f + dt * div / volumes


def _check_dt(dt: float, grid: ThetaGrid):
    limit = grid.h ** 2 / 4.0
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={dt} exceeds the explicit stability limit h^2/4={limit}")


def step(f: np.ndarray, spec: KernelSpec, lam: float, dt: float,
         grid: ThetaGrid) -> np.ndarray:
    """Advance the density one explicit step; mass is conserved exactly
    (flux form with zero flux at the poles)."""
    _check_dt(dt, grid)
    potential = potential_on_grid(f, spec, lam, grid)
    return _flux_step(np.asarray(f, dtype=float), potential, grid, dt)


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
    record_every steps; stops early once ||f_next - f|| / dt < settle_tol.
    """
    _check_dt(dt, grid)
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
        potential = potential_on_grid(f, spec, lam, grid)
        f_next = _flux_step(f, potential, grid, dt)
        t = k * dt
        if not np.all(np.isfinite(f_next)):
            raise DivergenceError(
                f"density diverged at t={t}", last_time=t - dt)
        delta = grid_norm(f_next - f, grid)
        f = f_next
        settled = delta / dt < settle_tol
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
