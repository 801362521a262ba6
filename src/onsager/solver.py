"""Axially symmetric self-consistency solver: states u(theta) =
sum_n u_n P_{2n}(D, cos theta), the mean-field operator, its Jacobian,
the spectrum of I - J, Newton iteration, density recovery and free
energy."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularLinearizationError
from .kernel import KernelSpec
from .polybasis import harmonic_count, legendre_table, surface_area, zonal_rule

__all__ = [
    "AxisymState",
    "SolutionReport",
    "DensityProfile",
    "DEFAULT_ORDER",
    "state_norm",
    "state_sup_norm",
    "zonal_moments",
    "apply_G",
    "residual",
    "jacobian",
    "solve",
    "multistart",
    "recover_density",
    "free_energy",
]

DEFAULT_ORDER = 128


@dataclass(frozen=True)
class AxisymState:
    """Even zonal expansion u(theta) = sum_{n=1}^N u_n P_{2n}(D, cos theta).

    Only even modes without a constant term are representable, so membership
    in the admissible class is structural.
    """

    D: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.array(self.coeffs, dtype=float, copy=True))
        if self.D < 3:
            raise ValueError(f"dimension must be >= 3, got {self.D}")
        if self.coeffs.ndim != 1 or self.coeffs.size < 1:
            raise ValueError("coeffs must be a nonempty vector")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coeffs must be finite")
        self.coeffs.setflags(write=False)

    @property
    def N(self) -> int:
        return self.coeffs.size

    def eval(self, t):
        """u as a function of t = cos theta."""
        table = legendre_table(self.D, 2 * self.N, np.atleast_1d(
            np.asarray(t, dtype=float)))
        out = self.coeffs @ table[2::2]
        return float(out[0]) if np.ndim(t) == 0 else out

    def padded(self, N: int) -> "AxisymState":
        """Same state at a larger truncation (zero-padded)."""
        if N < self.N:
            raise ValueError("cannot pad to a smaller truncation")
        coeffs = np.zeros(N)
        coeffs[:self.N] = self.coeffs
        return AxisymState(self.D, coeffs)


@dataclass(frozen=True)
class SolutionReport:
    state: AxisymState
    lam: float
    residual_norm: float
    iterations: int
    converged: bool
    sup_norm_u: float
    index: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "dim": self.state.D,
            "modes": [float(c) for c in self.state.coeffs],
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "index": self.index,
            "sup_norm_u": self.sup_norm_u,
        }


@dataclass(frozen=True)
class DensityProfile:
    """Orientation density at the zonal quadrature nodes."""

    D: int
    values: np.ndarray
    beta: float
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.array(self.values, dtype=float, copy=True))
        self.values.setflags(write=False)


@lru_cache(maxsize=64)
def _mode_tables(D: int, N: int, order: int):
    """Quadrature nodes, zonal weights and P_{2n} values for n = 1..N."""
    nodes, weights = zonal_rule(D, order)
    table = legendre_table(D, 2 * N, nodes)[2::2]
    counts = np.array([harmonic_count(D, 2 * n) for n in range(1, N + 1)],
                      dtype=float)
    base_moments = table @ (weights / weights.sum())
    return nodes, weights, table, counts, base_moments


def _l2_weights(D: int, N: int) -> np.ndarray:
    """Squared sphere-L2 norms of the basis functions P_{2n}."""
    _, _, _, counts, _ = _mode_tables(D, N, 2)
    return surface_area(D) / counts


def state_norm(D: int, coeffs: np.ndarray) -> float:
    """Sphere L2 norm of a coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    return math.sqrt(float(np.dot(_l2_weights(D, coeffs.size), coeffs ** 2)))


@lru_cache(maxsize=16)
def _sup_table(D: int, N: int, samples: int) -> np.ndarray:
    """P_{2n}(D, t) for n = 1..N at t = cos theta, theta evenly spaced on
    [0, pi] (endpoints included), as one contiguous read-only array."""
    t = np.cos(np.linspace(0.0, math.pi, samples))
    table = np.ascontiguousarray(legendre_table(D, 2 * N, t)[2::2])
    table.setflags(write=False)
    return table


def state_sup_norm(state: AxisymState, samples: int = 2048) -> float:
    """Sup of |u(theta)| by dense sampling in t = cos theta (endpoints
    included; u(+-1) = sum u_n exactly)."""
    table = _sup_table(state.D, state.N, samples)
    return float(np.max(np.abs(state.coeffs @ table)))


def _density_weights(D: int, coeffs: np.ndarray, order: int):
    """Normalized zonal weights W_i e^(-u_i) / Z of the orientation
    density, computed with a max shift so any finite state is safe, and
    its moments a_n, for one state (coeffs of shape (N,)) or a stack of
    states (S, N).  A stack is multiplied one matrix-vector product per
    state, so each row is bitwise what that state alone gives."""
    _, weights, table, _, base = _mode_tables(D, coeffs.shape[-1], order)
    u = (coeffs[..., None, :] @ table)[..., 0, :]
    e = np.exp(-(u - u.min(axis=-1, keepdims=True)))
    wz = weights * e
    gw = wz / wz.sum(axis=-1, keepdims=True)
    return gw, table, (table @ gw[..., None])[..., 0] - base


def zonal_moments(state: AxisymState, N: int | None = None,
                  order: int = DEFAULT_ORDER) -> np.ndarray:
    """Moments a_n = int_0^pi g(theta) P_{2n}(D, cos theta) dtheta of the
    orientation density in theta,
    g = e^(-u) sin^(D-2) / int_0^pi e^(-u) sin^(D-2), for n = 1..N
    (default: the state's truncation).  All |a_n| <= 1."""
    work = state if N is None or N == state.N else state.padded(max(N, state.N))
    _, _, moments = _density_weights(work.D, work.coeffs, order)
    return moments if N is None or N >= state.N else moments[:N]


def apply_G(state: AxisymState, spec: KernelSpec, lam: float,
            order: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients of the mean-field image: (lam G(u))_n = -lam k_n a_n."""
    _check_kernel(spec, state.D, state.N)
    a = zonal_moments(state, order=order)
    return -lam * spec.coeffs[:state.N] * a


def residual(state: AxisymState, spec: KernelSpec, lam: float,
             order: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients of u - lam G(u)."""
    return state.coeffs - apply_G(state, spec, lam, order=order)


def jacobian(state: AxisymState, spec: KernelSpec, lam: float,
             order: int = DEFAULT_ORDER) -> np.ndarray:
    """Matrix J_mn = d(lam G(u))_m / du_n
    = lam k_m (<P_2n P_2m>_g - a_n a_m), g the density of zonal_moments.

    At u = 0 this is diag(lam k_n / N(D, 2n)).
    """
    return _residual_and_jacobian(state, spec, lam, order)[1]


def _check_kernel(spec: KernelSpec, D: int, N: int):
    if D != spec.D:
        raise ValueError("state and kernel dimension mismatch")
    if N > spec.n_max:
        raise ValueError("state truncation exceeds kernel table")


def _residual_and_jacobian(state: AxisymState, spec: KernelSpec, lam: float,
                           order: int):
    """residual(), jacobian() and the density covariance Cov (J =
    diag(lam k) Cov) from one density pass, with the same arithmetic as
    each, so residual and Jacobian agree with the separate calls bit for
    bit."""
    _check_kernel(spec, state.D, state.N)
    return _fused_pass(spec, lam, state.coeffs, order)


def _fused_pass(spec: KernelSpec, lam: float, coeffs: np.ndarray,
                order: int):
    """Residual u - lam G(u), Jacobian J = diag(lam k) Cov of lam G and
    the density covariance Cov for one state (coeffs of shape (N,)) or a
    stack (S, N), each row bitwise what its state alone gives."""
    gw, table, a = _density_weights(spec.D, coeffs, order)
    k = spec.coeffs[:coeffs.shape[-1]]
    res = coeffs - (-lam * k * a)
    second = (table * gw[..., None, :]) @ table.T
    cov = second - a[..., :, None] * a[..., None, :]
    return res, lam * k[:, None] * cov, cov


def _spectrum(spec: KernelSpec, lam: float, cov: np.ndarray):
    """Eigenvalues g of I - J, ascending, for one covariance Cov (N, N) or
    a stack (S, N, N), and a flag per matrix that is True where I - J is
    degenerate: min |g| <= 1e-12 max(1, max |g|).

    With d = sqrt(lam k) (real: lam >= 0 and every k_n >= 0), J =
    diag(d)^2 Cov has the spectrum of the symmetric diag(d) Cov diag(d),
    so g is real and comes from eigvalsh.  This is the one linear
    analysis: Newton's singularity test, the Brouwer index and the
    stability all read it.
    """
    N = cov.shape[-1]
    d = np.sqrt(lam * spec.coeffs[:N])
    g = np.linalg.eigvalsh(np.eye(N) - d[:, None] * cov * d)
    size = np.abs(g)
    return g, size.min(axis=-1) <= 1e-12 * np.maximum(size.max(axis=-1), 1.0)


def _make_report(state, res, spec, lam, iterations, tol):
    """Report for state, whose residual res the caller has computed."""
    res_norm = state_norm(state.D, res)
    sup_u = state_sup_norm(state)
    lam_khat = lam * spec.sup_norm_khat
    converged = res_norm <= tol and sup_u <= lam_khat + 1e-8
    return SolutionReport(state=state, lam=lam, residual_norm=res_norm,
                          iterations=iterations, converged=converged,
                          sup_norm_u=sup_u)


def _polish(state: AxisymState, res: np.ndarray, jac: np.ndarray,
            spec: KernelSpec, lam: float, order: int,
            target: float = 1e-14, max_steps: int = 4):
    """Extra Newton steps after convergence so that two runs landing on the
    same root agree far inside the deduplication radius.  Takes the
    residual and Jacobian at state and returns the final state with its
    residual."""
    for _ in range(max_steps):
        if state_norm(state.D, res) <= target:
            break
        try:
            delta = np.linalg.solve(np.eye(state.N) - jac, -res)
        except np.linalg.LinAlgError:
            break
        candidate = AxisymState(state.D, state.coeffs + delta)
        cand_res, cand_jac, _ = _residual_and_jacobian(candidate, spec,
                                                       lam, order)
        if state_norm(state.D, cand_res) >= state_norm(state.D, res):
            break
        state, res, jac = candidate, cand_res, cand_jac
    return state, res


def _newton(spec: KernelSpec, lam: float, D: int, starts: np.ndarray,
            tol: float, max_iter: int, order: int) -> list:
    """Newton's method, (I - J) delta = -(u - lam G(u)), on every row of
    starts (S, N) at once.

    Each row takes exactly the steps it would take alone: it stops when
    its residual norm is <= tol (then _polish), when _spectrum finds
    I - J degenerate (the row is dropped), before an update that is not
    finite, or after max_iter updates.  Returns, per row in start order,
    (state, residual, iterations), or None for a dropped row.
    """
    S, N = starts.shape
    _check_kernel(spec, D, N)
    l2w = _l2_weights(D, N)
    eye = np.eye(N)
    out = [None] * S
    rows, coeffs = np.arange(S), starts
    for it in range(1, max_iter + 1):
        res, jac, cov = _fused_pass(spec, lam, coeffs, order)
        # state_norm of each row, as the same dot product
        done = np.sqrt((res ** 2)[:, None, :] @ l2w)[:, 0] <= tol
        for j in np.flatnonzero(done):
            state, r = _polish(AxisymState(D, coeffs[j]), res[j], jac[j],
                               spec, lam, order)
            out[rows[j]] = (state, r, it - 1)
        rows, coeffs, res = rows[~done], coeffs[~done], res[~done]
        if not rows.size:
            return out
        system = eye - jac[~done]
        keep = ~_spectrum(spec, lam, cov[~done])[1]
        rows, coeffs, res = rows[keep], coeffs[keep], res[keep]
        if not rows.size:
            return out
        new = coeffs + np.linalg.solve(system[keep], -res[..., None])[..., 0]
        finite = np.isfinite(new).all(axis=1)
        for j in np.flatnonzero(~finite):
            out[rows[j]] = (AxisymState(D, coeffs[j]), res[j], it)
        rows, coeffs = rows[finite], new[finite]
        if not rows.size:
            return out
    res = _fused_pass(spec, lam, coeffs, order)[0]
    for j, row in enumerate(rows):
        out[row] = (AxisymState(D, coeffs[j]), res[j], max_iter)
    return out


def _check_tol_lambda(tol: float, lam: float):
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")


def solve(spec: KernelSpec, lam: float, init: AxisymState,
          tol: float = 1e-10, max_iter: int = 200,
          order: int = DEFAULT_ORDER) -> SolutionReport:
    """Solve u = lam G(u) from the given initial state by Newton's method,
    (I - J) delta = -(u - lam G(u)), as the one-row case of the batched
    loop multistart runs.  Non-convergence yields a report with
    converged=False; a singular Newton system raises
    SingularLinearizationError.
    """
    _check_tol_lambda(tol, lam)
    outcome = _newton(spec, lam, init.D, init.coeffs[None, :], tol,
                      max_iter, order)[0]
    if outcome is None:
        raise SingularLinearizationError(
            f"Newton linearization singular at lambda={lam}; "
            "perturb lambda away from critical values")
    state, res, iterations = outcome
    return _make_report(state, res, spec, lam, iterations, tol)


# Starts per Newton batch: bounds the (rows, N, order) temporary of the
# second moments whatever n_starts is.
_BATCH_ROWS = 256


def multistart(spec: KernelSpec, lam: float, n_starts: int, seed: int,
               N: int | None = None, tol: float = 1e-10,
               max_iter: int = 200, order: int = DEFAULT_ORDER,
               ) -> list[SolutionReport]:
    """Enumerate solutions from random starts in the a priori box
    |u_n| <= lam ||K_hat||_inf.

    Start 0 is the isotropic state.  All starts run as one Newton batch,
    each with the steps solve() takes from it; starts with a singular
    Newton system or without convergence are dropped.  Deterministic for
    a fixed seed; converged solutions deduplicated in start order by
    sphere-L2 distance <= 10 tol and returned sorted by (norm, coeffs).
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    _check_tol_lambda(tol, lam)
    if N is None:
        N = spec.n_max
    rng = np.random.default_rng(seed)
    box = lam * spec.sup_norm_khat
    starts = np.zeros((n_starts, N))
    starts[1:] = rng.uniform(-box, box, size=(n_starts - 1, N))
    found: list[SolutionReport] = []
    for first in range(0, n_starts, _BATCH_ROWS):
        for outcome in _newton(spec, lam, spec.D,
                               starts[first:first + _BATCH_ROWS], tol,
                               max_iter, order):
            if outcome is None:
                continue
            state, res, iterations = outcome
            report = _make_report(state, res, spec, lam, iterations, tol)
            if report.converged and all(
                    state_norm(spec.D, state.coeffs - other.state.coeffs)
                    > 10.0 * tol for other in found):
                found.append(report)
    found.sort(key=lambda r: (state_norm(spec.D, r.state.coeffs),
                              tuple(r.state.coeffs)))
    return found


def recover_density(state: AxisymState, spec: KernelSpec, lam: float,
                    order: int = DEFAULT_ORDER) -> DensityProfile:
    """Orientation density f = e^(-u) / int e^(-u) dsigma at the zonal
    quadrature nodes."""
    nodes, weights, table, _, _ = _mode_tables(state.D, state.N, order)
    u = state.coeffs @ table
    shift = u.min()
    e = np.exp(-(u - shift))
    z = surface_area(state.D - 1) * float(np.dot(weights, e))
    beta = z * math.exp(-shift)
    return DensityProfile(D=state.D, values=e / z, beta=beta, order=order)


def free_energy(density: DensityProfile, spec: KernelSpec, lam: float,
                ) -> float:
    """Mean-field free energy int f (log f + U(f)/2) dsigma with the
    potential rebuilt from the density's zonal moments."""
    D = density.D
    nodes, weights, table, _, _ = _mode_tables(D, spec.n_max, density.order)
    f = density.values
    sigma_ratio = surface_area(D - 1)
    a = sigma_ratio * (table @ (weights * f))
    potential = lam * (spec.k0 - (spec.coeffs * a) @ table)
    integrand = f * (np.log(f) + 0.5 * potential)
    return sigma_ratio * float(np.dot(weights, integrand))
