"""Time integration of the axisymmetric orientation dynamics
df/dt = (1/sin^(D-2)) d/dtheta [ sin^(D-2) (df/dtheta + f dU/dtheta) ],
used as a stability oracle and an energy-dissipation check for the
self-consistency solver.  Densities are even in t = cos theta, like every
solver state, so the grid keeps the zonal Gauss rule's nodes t >= 0 only,
folded as the solver's density pass folds it; the equator is a zero-flux
face."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError
from .kernel import KernelSpec
from .polybasis import _folded_rule, legendre_table, surface_area

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

# fewest nodes of the rule behind a grid (`make_grid`'s G, `--grid`);
# the grid keeps (G + 1) // 2 of them
MIN_POINTS = 32
# default step DT_PER_H2 h^2, set by measurement: the README run settles
# within 7e-13 of the h^2/8 limit, every energy rise below 1e-15 relative
DT_PER_H2 = 32.0


@dataclass(frozen=True, eq=False)
class ThetaGrid:
    """Cells on (0, pi/2] for densities even in t = cos theta, each
    standing for itself and its mirror image theta -> pi - theta: the
    nodes t >= 0 of an R-point zonal Gauss rule, pole first, with positive
    cell volumes and zero-flux faces at the pole and at the equator,
    across which an even density carries no flux.  t are the rule's nodes
    themselves, points theta_i = arccos t_i ascending (cos theta_i need
    not round back to t_i); weights are the rule's weights w_i doubled at
    t > 0 (an odd rule's middle node t = 0, the last, keeps its own), the
    cell volumes over sigma_(D-1); faces are 2 sin^(D-2), doubled like the
    weights, at the interior faces, the midpoints of consecutive nodes,
    over the node gaps.  h = pi/(R+1) is the nominal node spacing of the
    rule, which sizes the default step.  G counts the grid's nodes,
    (R + 1) // 2, not the rule's.  Grids compare by identity, so the mode
    tables are cached per grid."""

    D: int
    points: np.ndarray
    t: np.ndarray
    weights: np.ndarray
    faces: np.ndarray
    h: float

    def __post_init__(self):
        for array in (self.points, self.t, self.weights, self.faces):
            array.setflags(write=False)

    @property
    def G(self) -> int:
        return self.points.size


def make_grid(D: int, G: int) -> ThetaGrid:
    """The G-point zonal Gauss rule zonal_rule(D, G) folded onto its
    nodes t >= 0 (`polybasis._folded_rule`, as in the solver's density
    pass): (G + 1) // 2 nodes theta_i = arccos t_i in ascending order,
    the equator last, with cell volumes positive at every D.  On even
    densities it is exact as the whole rule is, for polynomials in
    cos theta of degree <= 2G - 1.  h = pi/(G+1)."""
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if G < MIN_POINTS:
        raise ValueError(f"grid needs at least {MIN_POINTS} points, got {G}")
    nodes, weights = _folded_rule(D, G)
    # pole first; the weights contiguous, so that table @ w and
    # table @ (w f) sum in one order and a uniform density's moments
    # cancel exactly
    t, weights = nodes[::-1], np.ascontiguousarray(weights[::-1])
    theta = np.arccos(t)
    mid = 0.5 * (theta[1:] + theta[:-1])
    faces = 2.0 * (np.sin(mid) ** (D - 2) / np.diff(theta))
    return ThetaGrid(D=D, points=theta, t=t, weights=weights, faces=faces,
                     h=math.pi / (G + 1))


@lru_cache(maxsize=64)
def _moment_tables(grid: ThetaGrid, n_modes: int):
    """Mode values P_2n at the grid nodes and the moments of the
    discretely uniform density in the Gauss weights."""
    table = legendre_table(grid.D, 2 * n_modes, grid.t)[2::2]
    # moments of the uniform density in the same weights; subtracting
    # them in grid_moments makes the uniform density exactly mean-free
    base = (table @ grid.weights) / grid.weights.sum()
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
    table, base = _moment_tables(grid, n_modes)
    return (table @ (grid.weights * f)) / float(grid.weights @ f) - base


def potential_on_grid(f: np.ndarray, spec: KernelSpec, lam: float,
                      grid: ThetaGrid) -> np.ndarray:
    """Mean-field potential lam (k0 - sum_n k_n a_n P_{2n}) from the
    density's own zonal moments."""
    return _Flow(spec, lam, grid).potential(f, float(grid.weights @ f))


def grid_energy(f: np.ndarray, spec: KernelSpec, lam: float,
                grid: ThetaGrid) -> float:
    """Free energy int f (log f + U(f)/2) dsigma on the grid."""
    potential = potential_on_grid(f, spec, lam, grid)
    safe = np.where(f > 0.0, f, 1.0)
    return surface_area(grid.D - 1) * float(
        grid.weights @ (f * (np.log(safe) + 0.5 * potential)))


class _Flow:
    """The semi-implicit step at one (spec, lam, grid), with what no step
    changes read once: the mode table and the uniform moments, the kernel
    coefficients as an array, the cell volumes and the faces.  `step` and
    `evolve` both run its `advance`."""

    def __init__(self, spec: KernelSpec, lam: float, grid: ThetaGrid):
        if grid.D != spec.D:
            raise ValueError("grid and kernel dimension mismatch")
        self.lam, self.k0 = lam, spec.k0
        self.coeffs = np.array(spec.coeffs)
        self.table, self.base = _moment_tables(grid, spec.n_max)
        self.weights, self.faces = grid.weights, grid.faces

    def potential(self, f: np.ndarray, mass: float) -> np.ndarray:
        """The potential of f, whose mass in the weights is `mass`."""
        a = (self.table @ (self.weights * f)) / mass - self.base
        return self.lam * (self.k0 - (self.coeffs * a) @ self.table)

    def advance(self, f: np.ndarray, dt: float) -> np.ndarray:
        """`step`, for a float array f and a valid dt, inside an
        np.errstate that ignores every floating-point error."""
        weights = self.weights
        mass = float(weights @ f)
        potential = self.potential(f, mass)
        boltzmann = np.exp(-(potential - potential.min()))
        cond = dt * self.faces * np.sqrt(boltzmann[1:] * boltzmann[:-1])
        diag = weights * boltzmann
        diag[1:] += cond
        diag[:-1] += cond
        # Thomas sweep, off-diagonal -cond: every pivot is at least
        # w_i b_i > 0, which underflows only with b, so a pivot that is
        # not positive and finite stops it
        pivots = diag.tolist()
        phi = (weights * f).tolist()
        off = cond.tolist()
        inf = math.inf
        p, r = pivots[0], phi[0]
        for i, c in enumerate(off):
            if not 0.0 < p < inf:
                raise DivergenceError(f"pivot {p} at node {i}")
            w = c / p
            p = pivots[i + 1] = pivots[i + 1] - w * c
            r = phi[i + 1] = phi[i + 1] + w * r
        if not 0.0 < p < inf:
            raise DivergenceError(f"pivot {p} at node {len(off)}")
        x = phi[-1] = r / p
        for i in range(len(off) - 1, -1, -1):
            x = phi[i] = (phi[i] + off[i] * x) / pivots[i]
        f_next = boltzmann * np.array(phi)
        # the rows sum to mass conservation; rescaling removes the solve's
        # rounding, up to about eps dt/h^2 per step
        f_next *= mass / (weights @ f_next)
        # NaN fails both comparisons
        if not (f_next.min() >= 0.0 and f_next.max() < inf):
            raise DivergenceError("density is negative or not finite")
        return f_next


def step(f: np.ndarray, spec: KernelSpec, lam: float, dt: float,
         grid: ThetaGrid) -> np.ndarray:
    """Advance an even density on the folded grid one semi-implicit step
    of any size dt > 0.

    With U from f, b = e^(-(U - min U)) and the exponential-fitting
    (Scharfetter-Gummel) face conductances
    a = s sqrt(b_i b_(i+1)), s the grid's faces, at the face midway
    between two nodes, phi solves the tridiagonal M-matrix system
    (w b / dt) phi - div(a grad phi) = w f / dt in the positive cell
    weights w, and the step returns b phi.  The fold doubles the rows of
    the nodes t > 0, and the equator face carries no flux, so this is the
    whole rule's system for an even density.  The cell volumes and face
    areas carry the common factor sigma_(D-1), left out here: it would
    underflow the outer volumes at large D (D = 343 on 256 points).
    Densities proportional to e^(-U) carry zero flux, so the discrete
    equilibria are the self-consistency fixed points.  Every k_n >= 0
    (KernelSpec checks it) makes the interaction energy concave on
    mass-preserving perturbations, so this is a convex splitting (Eyre):
    positivity, mass and energy decay hold with no step limit.  Raises
    DivergenceError when a Boltzmann factor vanishes (a pivot that is not
    positive and finite) or the new density is negative or not finite."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    f = np.asarray(f, dtype=float)
    flow = _Flow(spec, lam, grid)
    # non-finite intermediates surface as a DivergenceError
    with np.errstate(all="ignore"):
        return flow.advance(f, dt)


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
    flow = _Flow(spec, lam, grid)
    area, weights = surface_area(grid.D - 1), grid.weights
    traj = Trajectory(times=[0.0], densities=[f.copy()],
                      energies=[grid_energy(f, spec, lam, grid)])
    t = 0.0
    # non-finite intermediates of a step surface as a DivergenceError;
    # a recorded density is finite and nonnegative
    with np.errstate(all="ignore"):
        for k in range(1, n_steps + 1):
            t_next = k * dt if k < n_steps else t_max
            try:
                f_next = flow.advance(f, t_next - t)
            except DivergenceError as err:
                raise DivergenceError(f"density diverged at t={t_next}: "
                                      f"{err}", last_time=t) from None
            # grid_mass(|f_next - f|), the surface area read once
            change = area * float(weights @ np.abs(f_next - f))
            settled = change < 1e-10 * (t_next - t)
            f, t = f_next, t_next
            if k % record_every == 0 or k == n_steps or settled:
                traj.times.append(t)
                traj.densities.append(f.copy())
                traj.energies.append(grid_energy(f, spec, lam, grid))
            if settled:
                traj.terminated_early = True
                break
    return traj
