"""Time integration of the axisymmetric orientation dynamics
df/dt = (1/sin^(D-2)) d/dtheta [ sin^(D-2) (df/dtheta + f dU/dtheta) ],
used as a stability oracle and an energy-dissipation check for the
self-consistency solver.  Densities are even in t = cos theta, like every
solver state, so the grid keeps the zonal Gauss rule's nodes t >= 0 only,
folded as the solver's density pass folds it, and reads the solver's one
mode table (`polybasis._mode_tables`); the equator is a zero-flux face."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .kernel import KernelSpec
# DT_PER_H2 is for the callers: `from onsager.dynamics import DT_PER_H2`
from .polybasis import (
    DT_PER_H2,
    MIN_POINTS,
    _folded_rule,
    _mode_tables,
    surface_area,
)

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


@dataclass(frozen=True, eq=False)
class ThetaGrid:
    """Cells on (0, pi/2] for densities even in t = cos theta, each
    standing for itself and its mirror image theta -> pi - theta.  t and
    weights are `polybasis._folded_rule(D, order)`: the nodes t >= 0 of
    the zonal Gauss rule of that order, ascending (the equator first, the
    pole last), and its weights doubled at t > 0 (an odd rule's node
    t = 0 keeps its own), the cell volumes over sigma_(D-1), positive at
    every D.  points are theta_i = arccos t_i, descending (cos theta_i
    need not round back to t_i); faces are 2 sin^(D-2) at the midpoints
    of consecutive nodes over the node gaps, and the equator and the
    pole are zero-flux faces.  The mode table at the nodes is the
    solver's, `polybasis._mode_tables(D, N, order)`.  h = pi/(order + 1)
    is the rule's nominal node spacing, which sizes the default step; G
    counts the grid's nodes, (order + 1) // 2."""

    D: int
    order: int
    points: np.ndarray
    t: np.ndarray
    weights: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        for array in (self.points, self.t, self.weights, self.faces):
            array.setflags(write=False)

    @property
    def G(self) -> int:
        return self.points.size

    @property
    def h(self) -> float:
        return math.pi / (self.order + 1)


def make_grid(D: int, G: int) -> ThetaGrid:
    """The G-point zonal Gauss rule zonal_rule(D, G) folded onto its
    nodes t >= 0 (`polybasis._folded_rule`, as in the solver's density
    pass): (G + 1) // 2 nodes theta_i = arccos t_i, t ascending, so the
    equator first, with cell volumes positive at every D.  On even
    densities it is exact as the whole rule is, for polynomials in
    cos theta of degree <= 2G - 1.  h = pi/(G+1)."""
    if G < MIN_POINTS:
        raise ValueError(f"grid needs at least {MIN_POINTS} points, got {G}")
    t, weights = _folded_rule(D, G)
    theta = np.arccos(t)
    mid = 0.5 * (theta[1:] + theta[:-1])
    faces = 2.0 * (np.sin(mid) ** (D - 2) / (theta[:-1] - theta[1:]))
    return ThetaGrid(D=D, order=G, points=theta, t=t, weights=weights,
                     faces=faces)


def grid_mass(f: np.ndarray, grid: ThetaGrid) -> float:
    """Total probability int f dsigma in the grid's cell volumes.

    These are the volumes `step` conserves, so this quantity is invariant
    under `step` to rounding."""
    return surface_area(grid.D - 1) * float(grid.weights @ f)


def grid_moments(f: np.ndarray, grid: ThetaGrid, n_modes: int) -> np.ndarray:
    """Zonal moments a_n = int f P_{2n} dsigma, n = 1..n_modes.

    Computed as the solver computes them (`polybasis._mode_tables`):
    the density's cell masses w f normalized by their sum, less the
    moments of the isotropic density in the same weights.  A constant
    density that is a power of two has moments of exactly 0, any other
    constant 0 to rounding."""
    weights, table, base = _mode_tables(grid.D, n_modes, grid.order)
    wf = weights * f
    return table @ (wf / wf.sum()) - base


def potential_on_grid(f: np.ndarray, spec: KernelSpec, lam: float,
                      grid: ThetaGrid) -> np.ndarray:
    """Mean-field potential lam (k0 - sum_n k_n a_n P_{2n}) from the
    density's own zonal moments."""
    wf = grid.weights * f
    return _Flow(spec, lam, grid).potential(wf, wf.sum())


def grid_energy(f: np.ndarray, spec: KernelSpec, lam: float,
                grid: ThetaGrid) -> float:
    """Free energy int f (log f + U(f)/2) dsigma on the grid."""
    potential = potential_on_grid(f, spec, lam, grid)
    safe = np.where(f > 0.0, f, 1.0)
    return surface_area(grid.D - 1) * float(
        grid.weights @ (f * (np.log(safe) + 0.5 * potential)))


class _Flow:
    """The semi-implicit step at one (spec, lam, grid), with what no step
    changes read once: the grid's mode table and isotropic moments, the
    kernel coefficients as an array, the cell volumes and the faces.
    `step` and `evolve` both run its `advance`."""

    def __init__(self, spec: KernelSpec, lam: float, grid: ThetaGrid):
        if grid.D != spec.D:
            raise ValueError("grid and kernel dimension mismatch")
        self.lam, self.k0 = lam, spec.k0
        self.coeffs = np.array(spec.coeffs)
        self.weights, self.table, self.base = _mode_tables(
            grid.D, spec.n_max, grid.order)
        self.faces = grid.faces

    def potential(self, wf: np.ndarray, mass) -> np.ndarray:
        """The potential of the density f whose cell masses w f are wf,
        of sum `mass`, from its moments as `grid_moments` takes them."""
        a = self.table @ (wf / mass) - self.base
        return self.lam * (self.k0 - (self.coeffs * a) @ self.table)

    def advance(self, f: np.ndarray, dt: float) -> np.ndarray:
        """`step`, for a float array f and a valid dt, inside an
        np.errstate that ignores every floating-point error."""
        weights = self.weights
        wf = weights * f
        mass = wf.sum()
        potential = self.potential(wf, mass)
        boltzmann = np.exp(-(potential - potential.min()))
        cond = dt * self.faces * np.sqrt(boltzmann[1:] * boltzmann[:-1])
        diag = weights * boltzmann
        diag[1:] += cond
        diag[:-1] += cond
        # Thomas sweep from the equator, off-diagonal -cond: every pivot
        # is at least w_i b_i > 0, which underflows only with b, so a
        # pivot that is not positive and finite stops it
        pivots = diag.tolist()
        phi = wf.tolist()
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
