"""Axially symmetric self-consistency solver: states u(theta) =
sum_n u_n P_{2n}(D, cos theta), the mean-field operator, its Jacobian,
the spectrum of I - J, Newton iteration and multistart censuses."""

import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularLinearizationError
from .kernel import KernelSpec
from .polybasis import legendre_table, zonal_rule

__all__ = [
    "AxisymState",
    "SolutionReport",
    "state_norm",
    "state_sup_norm",
    "zonal_moments",
    "residual",
    "jacobian",
    "solve",
    "multistart",
    "censuses",
]

# Fewest nodes of the one Gauss-Jacobi rule behind every density pass:
# at 128 the moments a_1..a_4 of the widest converged states at (D, lam)
# = (3, 15), (5, 40) and (10, 80), sup |u| up to 62, match adaptive
# quadrature to 6.2e-13 (64 nodes miss by 1.2e-5 at D = 10).  From
# N = 64 a pass takes 2N + 1, so the degree-4N Jacobian terms are exact.
# Each pass runs on the rule folded onto t >= 0 (_mode_tables).
_ORDER = 128


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


@dataclass(frozen=True)
class SolutionReport:
    """A state at lam with its residual norm state_norm(u - lam G(u)),
    the Newton updates taken and whether that norm is <= tol.  A
    converged state lies in the a priori box up to tol:
    sup |u| <= lam ||K_hat||_inf + tol, since |a_n| <= 1 and
    sum_n k_n <= ||K_hat||_inf.  index is the Brouwer index where an
    audit has set it."""

    state: AxisymState
    lam: float
    residual_norm: float
    iterations: int
    converged: bool
    index: int | None = None


@lru_cache(maxsize=64)
def _mode_tables(D: int, N: int):
    """The rule folded onto t >= 0, which integrates every even function
    as the whole rule does: the weights of its nodes t >= 0, doubled at
    t > 0 (an odd rule's middle node is exactly 0 and keeps its own),
    P_{2n} at those nodes for n = 1..N as one C-contiguous array, and the
    rule's moments of the isotropic density; cached, so read-only."""
    nodes, weights = zonal_rule(D, max(_ORDER, 2 * N + 1))
    half = nodes >= 0.0
    weights = np.where(nodes > 0.0, 2.0 * weights, weights)[half]
    table = np.ascontiguousarray(legendre_table(D, 2 * N, nodes[half])[2::2])
    tables = weights, table, table @ (weights / weights.sum())
    for array in tables:
        array.setflags(write=False)
    return tables


def state_norm(coeffs):
    """Coefficient l1 norm sum_n |u_n| of a vector (a float), or of each
    row of a stack (..., N).  Every solver tolerance is taken in it: it
    bounds sup |u| over the sphere at every D, as |P_{2n}(D, t)| <= 1,
    and carries no surface area.  A sum that overflows is inf, silently."""
    with np.errstate(over="ignore"):
        return np.abs(np.asarray(coeffs, dtype=float)).sum(axis=-1)


@lru_cache(maxsize=16)
def _sup_table(D: int, N: int) -> np.ndarray:
    """P_{2n}(D, t) for n = 1..N at t = cos theta, theta at 2048 evenly
    spaced points of [0, pi] (endpoints included), as one contiguous
    read-only array."""
    t = np.cos(np.linspace(0.0, math.pi, 2048))
    table = np.ascontiguousarray(legendre_table(D, 2 * N, t)[2::2])
    table.setflags(write=False)
    return table


def state_sup_norm(state: AxisymState) -> float:
    """Sup of |u(theta)| by dense sampling in t = cos theta (endpoints
    included; u(+-1) = sum u_n exactly)."""
    table = _sup_table(state.D, state.N)
    return float(np.max(np.abs(state.coeffs @ table)))


def _density_weights(D: int, coeffs: np.ndarray):
    """Normalized zonal weights W_i e^(-u_i) / Z of the orientation
    density, shifted by min u so that no exponential overflows, and its
    moments a_n, for one state (coeffs of shape (N,)) or a stack of
    states (S, N); a u that overflows gives NaN, silently.  A stack is
    multiplied one matrix-vector product per state, so each row is
    bitwise what that state alone gives."""
    weights, table, base = _mode_tables(D, coeffs.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        u = (coeffs[..., None, :] @ table)[..., 0, :]
        e = np.exp(-(u - u.min(axis=-1, keepdims=True)))
    wz = weights * e
    gw = wz / wz.sum(axis=-1, keepdims=True)
    return gw, table, (table @ gw[..., None])[..., 0] - base


def zonal_moments(state: AxisymState) -> np.ndarray:
    """Moments a_n = int_0^pi g(theta) P_{2n}(D, cos theta) dtheta of the
    orientation density in theta,
    g = e^(-u) sin^(D-2) / int_0^pi e^(-u) sin^(D-2), for n = 1..N, N the
    state's truncation.  All |a_n| <= 1."""
    return _density_weights(state.D, state.coeffs)[2]


def residual(state: AxisymState, spec: KernelSpec, lam: float) -> np.ndarray:
    """Coefficients of u - lam G(u), (lam G(u))_n = -lam k_n a_n."""
    _check_kernel(spec, state.D, state.N)
    return _fused_pass(spec, lam, state.coeffs)[0]


def jacobian(state: AxisymState, spec: KernelSpec, lam: float) -> np.ndarray:
    """Matrix J_mn = d(lam G(u))_m / du_n
    = lam k_m (<P_2n P_2m>_g - a_n a_m), g the density of zonal_moments.

    At u = 0 this is diag(lam k_n / N(D, 2n)).
    """
    _check_kernel(spec, state.D, state.N)
    return _fused_pass(spec, lam, state.coeffs)[1]


def _check_kernel(spec: KernelSpec, D: int, N: int):
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    if D != spec.D:
        raise ValueError("state and kernel dimension mismatch")
    if N > spec.n_max:
        raise ValueError("state truncation exceeds kernel table")


def _fused_pass(spec: KernelSpec, lam, coeffs: np.ndarray):
    """Residual u - lam G(u), Jacobian J = diag(lam k) Cov of lam G and
    the density covariance Cov for one state (coeffs of shape (N,)) or a
    stack (S, N), with lam a scalar or one per row (S,); each row bitwise
    what its state and lam alone give.  The caller checks the kernel
    (_check_kernel)."""
    gw, table, a = _density_weights(spec.D, coeffs)
    lam_k = np.multiply.outer(lam, spec.coeffs[:coeffs.shape[-1]])
    res = coeffs - (-lam_k * a)
    second = (table * gw[..., None, :]) @ table.T
    cov = second - a[..., :, None] * a[..., None, :]
    return res, lam_k[..., :, None] * cov, cov


def _spectrum(spec: KernelSpec, lam: float, cov: np.ndarray):
    """Eigenvalues g of I - J, ascending, at one covariance Cov (N, N),
    and whether I - J is degenerate: min |g| <= 1e-12 max(1, max |g|),
    or a NaN or infinite entry (its g are NaN, and eigvalsh never sees
    it).

    d = sqrt(lam k) is real (lam >= 0 and every k_n >= 0), so g is real
    and comes from eigvalsh of the symmetric I - diag(d) Cov diag(d),
    which has the spectrum of I - J = I - diag(d)^2 Cov.  This is the one
    linear analysis: the Brouwer index and the stability read it, once
    per reported state.
    """
    d = np.sqrt(np.multiply(lam, spec.coeffs[:cov.shape[-1]]))
    system = np.eye(d.size) - d[:, None] * cov * d[None, :]
    if not np.isfinite(system).all():
        return np.full(d.size, np.nan), True
    g = np.linalg.eigvalsh(system)
    size = np.abs(g)
    return g, not size.min() > 1e-12 * max(size.max(), 1.0)


def _make_report(state, res, lam, iterations, tol):
    """Report for state, whose residual res the caller has computed."""
    res_norm = float(state_norm(res))
    return SolutionReport(state=state, lam=lam, residual_norm=res_norm,
                          iterations=iterations, converged=res_norm <= tol)


# Rows of the Newton pool: bounds the (rows, N, 64) temporary of the
# second moments on the folded rule whatever the number of starts.  The
# README sweep (seed 0) evaluates 9057 rows: in 146 density passes at 64
# rows (converged rows polish in the pool), 287 at 32, and 76 at 128,
# whose peak traced memory (tracemalloc) is 1.1 MB higher.
_BATCH_ROWS = 64


def _newton(spec: KernelSpec, lam, starts: np.ndarray, tol: float,
            max_iter: int):
    """Newton's method, (I - J) delta = -(u - lam G(u)), on every row of
    starts (S, N), lam a scalar or one per row, in a pool of at most
    _BATCH_ROWS rows that refills in start order as rows end.

    Each row takes exactly the steps it would take alone.  A Newton row
    is dropped when its I - J has no solve (np.linalg.solve raises: I - J
    exactly singular), and ends before an update that is not finite or
    after max_iter updates of its own; an ill-conditioned I - J that has
    a solve takes its step, as degeneracy is read once, at a reported
    state (_spectrum).  At residual norm <= tol (state_norm, as every
    norm here) a row records its updates and stays in the pool to
    polish, so that two runs landing on one root agree far inside the
    deduplication radius: each candidate step is kept unless its
    residual norm is no lower (NaN counts as lower), and the row ends at
    its kept state when a candidate is not kept, is not finite or has no
    solve, at kept norm <= 1e-14, or after 4 kept candidates.  Returns
    the final states (S, N), their residuals (S, N) and the Newton
    updates each row took (S,), -1 for a dropped row (whose state and
    residual are undefined).  The caller checks the kernel, tol and lam.
    """
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    S, N = starts.shape
    lam = np.broadcast_to(lam, S)
    end_u, end_res, its = np.empty((S, N)), np.empty((S, N)), np.full(S, -1)
    end_norm = np.empty(S)
    # taken: a Newton row's updates, a polish row's candidates
    rows, taken, coeffs = np.empty(0, int), np.empty(0, int), np.empty((0, N))
    queued = 0
    while rows.size or queued < S:
        new = np.arange(queued, min(S, queued + _BATCH_ROWS - rows.size))
        if new.size:  # refill the pool from the queue
            rows, queued = np.concatenate((rows, new)), new[-1] + 1
            taken = np.concatenate((taken, np.zeros_like(new)))
            coeffs = np.concatenate((coeffs, starts[new]))
        res, jac, _ = _fused_pass(spec, lam[rows], coeffs)
        norm = state_norm(res)
        polish = its[rows] >= 0
        keep = ~polish | ~(norm >= end_norm[rows])  # NaN counts as lower
        end_u[rows[keep]], end_res[rows[keep]] = coeffs[keep], res[keep]
        end_norm[rows[keep]] = norm[keep]
        last = ~polish & (taken == max_iter)
        done = ~polish & ~last & (norm <= tol)
        its[rows[done | last]] = taken[done | last]
        taken[done] = 0
        newton = ~(polish | done | last)
        go = newton | (keep & ~last & (taken < 4) & ~(norm <= 1e-14))
        rows, coeffs, res, newton = rows[go], coeffs[go], res[go], newton[go]
        system, rhs = np.eye(N) - jac[go], -res[..., None]
        taken = taken[go] + 1
        try:
            delta = np.linalg.solve(system, rhs)[..., 0]
        except np.linalg.LinAlgError:  # row by row: only singular rows end
            delta = np.full(res.shape, np.nan)
            for j in range(rows.size):
                try:
                    delta[j] = np.linalg.solve(system[j], rhs[j])[:, 0]
                except np.linalg.LinAlgError:
                    taken[j] = -1  # a Newton row without a solve is dropped
        new = coeffs + delta
        bad = ~np.isfinite(new).all(axis=1)  # the row ends at its kept state
        its[rows[bad & newton]] = taken[bad & newton]
        rows, coeffs, taken = rows[~bad], new[~bad], taken[~bad]
    return end_u, end_res, its


def _check_tol_lambda(tol: float, lam: float):
    """Rejects a tol that is not positive and finite and a lambda that is
    not nonnegative and finite (NaN fails both comparisons)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")


def solve(spec: KernelSpec, lam: float, init: AxisymState,
          tol: float = 1e-10, max_iter: int = 200) -> SolutionReport:
    """Solve u = lam G(u) from the given initial state by Newton's method,
    (I - J) delta = -(u - lam G(u)), as the one-row case of the pooled
    loop multistart runs.  Non-convergence yields a report with
    converged=False; an I - J with no solve (exactly singular) raises
    SingularLinearizationError.
    """
    _check_tol_lambda(tol, lam)
    _check_kernel(spec, init.D, init.N)
    u, res, its = _newton(spec, lam, init.coeffs[None, :], tol, max_iter)
    if its[0] < 0:
        raise SingularLinearizationError(
            f"Newton linearization singular at lambda={lam}; "
            "perturb lambda away from critical values")
    return _make_report(AxisymState(init.D, u[0]), res[0], lam,
                        int(its[0]), tol)


def _census(spec: KernelSpec, lam: float, u, res, its, tol: float) -> list:
    """The solutions one census keeps from its Newton outcomes (u, res,
    its in start order) by the rule multistart states, each later
    candidate within 10 tol of a kept one dropped by one stacked norm."""
    cand = np.flatnonzero(its >= 0)
    cand = cand[state_norm(res[cand]) <= tol]
    found = []
    while cand.size:
        first, cand = cand[0], cand[1:]
        found.append(_make_report(AxisymState(spec.D, u[first]), res[first],
                                  lam, int(its[first]), tol))
        cand = cand[state_norm(u[cand] - u[first]) > 10.0 * tol]
    found.sort(key=lambda r: (state_norm(r.state.coeffs),
                              tuple(r.state.coeffs)))
    return found


def censuses(spec: KernelSpec, lams, n_starts: int, seeds,
             N: int | None = None, tol: float = 1e-10,
             max_iter: int = 200) -> list:
    """The multistart census of every (lam, seed) pair, lams[i] with
    seeds[j] at [i][j], from one pool of Newton rows (_newton) for all of
    them; each census is what multistart(spec, lam, n_starts, seed, N,
    tol, max_iter) returns, tol and the duplicate radius 10 tol taken in
    state_norm.

    A seed is an integer >= 0, numpy integers included.  Its
    (n_starts - 1) N numbers u, the first of the standard library's
    random.Random(seed).random(), whose sequence Python keeps across
    versions, give starts 1.. of every lam in row-major order as
    -box + 2 box u."""
    lams = [float(lam) for lam in lams]
    seeds = [operator.index(seed) for seed in seeds]  # 2.5, 3.0: TypeError
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seed must be >= 0, got {min(seeds)}")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    for lam in lams:
        _check_tol_lambda(tol, lam)
    N = spec.n_max if N is None else N
    _check_kernel(spec, spec.D, N)
    pairs = [(lam, seed) for lam in lams for seed in seeds]
    boxes = np.array(lams)[:, None, None] * spec.sup_norm_khat
    starts = np.zeros((len(lams), len(seeds), n_starts, N))
    for j, seed in enumerate(seeds):
        draw = random.Random(seed).random
        units = np.array([draw() for _ in range((n_starts - 1) * N)])
        starts[:, j, 1:] = -boxes + 2.0 * boxes * units.reshape(-1, N)
    outcomes = _newton(spec, np.repeat([lam for lam, _ in pairs], n_starts),
                       starts.reshape(-1, N), tol, max_iter)
    u, res, its = (x.reshape(len(pairs), n_starts, *x.shape[1:])
                   for x in outcomes)
    found = [_census(spec, lam, *census, tol)
             for (lam, _), census in zip(pairs, zip(u, res, its))]
    return [found[i * len(seeds):(i + 1) * len(seeds)]
            for i in range(len(lams))]


def multistart(spec: KernelSpec, lam: float, n_starts: int, seed: int,
               N: int | None = None, tol: float = 1e-10,
               max_iter: int = 200) -> list[SolutionReport]:
    """Enumerate solutions from random starts in the a priori box
    |u_n| <= lam ||K_hat||_inf.

    Start 0 is the isotropic state.  Starts 1.. take their coefficients
    in row-major order from random.Random(seed).random(), the standard
    library's stream, whose sequence Python keeps across versions: each
    number u as -box + 2 box u.  The starts run in the Newton pool, each
    with the steps solve() takes from it.  In start order, a start is
    kept when its residual norm is <= tol and it lies farther than
    10 tol from every solution kept before, both in state_norm, the
    coefficient l1 norm; singular, unconverged and duplicate starts are
    dropped.  A kept solution is inside the box up to tol
    (SolutionReport).  Deterministic for a fixed seed; returned sorted
    by (state_norm, coeffs).  The one-census case of censuses().
    """
    return censuses(spec, [lam], n_starts, [seed], N, tol, max_iter)[0][0]

