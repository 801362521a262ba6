"""Critical concentrations, uniqueness thresholds, solution indices and
degree audits, branch continuation and stability classification for the
self-consistency equation u = lam G(u)."""

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import (
    BranchNotFoundError,
    InconclusiveAuditError,
    SingularLinearizationError,
    ThresholdUndefinedError,
    ValidationError,
)
from .kernel import KernelSpec, coeff_by_recurrence, tail_bound
from .polybasis import harmonic_count

# numpy and the solver are imported where they run, so that
# `thresholds`, which needs only the kernel, loads neither.
if TYPE_CHECKING:
    import numpy as np

    from .solver import SolutionReport

__all__ = [
    "ThresholdReport",
    "Branch",
    "DegreeReport",
    "critical_values",
    "uniqueness_thresholds",
    "index_of",
    "degree_audit",
    "trace_branch",
    "classify_stability",
]


@dataclass(frozen=True)
class ThresholdReport:
    """Uniqueness and bifurcation thresholds for one kernel.

    lambda_0 lies in lambda_0_interval, whose lower endpoint is the
    conservative value and whose width reflects the tail of the
    coefficient sum; lambda_exp_bound
    is the largest lam satisfying lam e^(4 lam ||K||_inf) sum k_m < 1/2,
    reported separately because it is not comparable to lambda_tilde0 by
    construction.
    """

    lambda_tilde0: float
    lambda_0_interval: tuple
    lambda_exp_bound: float
    lambda_crit: list
    tail_bound: float

@dataclass(frozen=True)
class Branch:
    """Solution family attached to the critical value origin = lambda_n.

    points holds the SolutionReports of both coefficient-sign families,
    each ordered from the samples nearest the origin outward.
    """

    mode: int
    origin: float
    points: tuple


@dataclass(frozen=True)
class DegreeReport:
    """Census of solutions at one concentration with their indices, at
    the audit's last truncation.  degree_sum is always 1 and
    stable_across_truncations always true (any other index sum raises);
    both stay as columns of the audit table, which `perfbench/run.py`
    checks."""

    lam: float
    solutions: tuple
    degree_sum: int
    stable_across_truncations: bool


def critical_values(spec: KernelSpec) -> list:
    """Critical concentrations lambda_n = N(D, 2n)/k_n, n = 1..n_max."""
    out = []
    for n in range(1, spec.n_max + 1):
        k = spec.coeff(n)
        if k <= 0:
            raise ValidationError(
                f"critical value undefined: k_{n} = {k} is not positive",
                index=n)
        out.append(harmonic_count(spec.D, 2 * n) / k)
    return out


def _lambert_w(x: float) -> float:
    """Principal branch W(x) of the Lambert W function, x >= 0, by
    Halley's iteration (Corless et al., Adv. Comput. Math. 5, 1996,
    eq. 5.9) from log(1 + x) >= W(x).  The iteration converges
    cubically, so the step after one of relative size 1e-8 ends at
    rounding."""
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            break
    return w


def uniqueness_thresholds(spec: KernelSpec) -> ThresholdReport:
    """Uniqueness thresholds and critical values in one report.

    lambda_tilde0 = (1/5) ||K_hat||_inf^-1; lambda_0 is bracketed by
    [1/(S' + tail), 1/S] with S the coefficient partial sum and tail the
    bound on the closed-form tail (`tail_bound`).  S' is S, except that a
    quadrature table that sums short of the closed-form one is topped up
    to it, so that S' + tail bounds the whole series k0 as the tail
    promises and 1/(S' + tail) stays <= 1/k0.  lambda_exp_bound solves
    lam e^(4 lam ||K||_inf) (S' + tail) = 1/2, that is
    lam = W(4 ||K||_inf / (2 (S' + tail))) / (4 ||K||_inf) with W the
    principal branch of the Lambert W function.
    """
    if any(k <= 0 for k in spec.coeffs):
        raise ThresholdUndefinedError(
            "thresholds require positive coefficients")
    partial = math.fsum(spec.coeffs)
    tail = tail_bound(spec)
    head = partial
    if spec.source == "onsager-quadrature":
        head = max(partial,
                   math.fsum(coeff_by_recurrence(spec.D, spec.n_max)))
    total = head + tail
    if not math.isfinite(total):
        raise ThresholdUndefinedError("coefficient sum is not summable")
    lam_tilde = 0.2 / spec.sup_norm_khat
    interval = (1.0 / total, 1.0 / partial)
    # full kernel sup norm: the exact |sin| profile lies in [0, 1], custom
    # kernels are their mean-zero part
    knorm = 1.0 if spec.source != "custom" else spec.sup_norm_khat
    lam_exp = _lambert_w(4.0 * knorm * (0.5 / total)) / (4.0 * knorm)
    return ThresholdReport(
        lambda_tilde0=lam_tilde,
        lambda_0_interval=interval,
        lambda_exp_bound=lam_exp,
        lambda_crit=critical_values(spec),
        tail_bound=tail,
    )


def _report_spectrum(report: "SolutionReport",
                     spec: KernelSpec) -> "np.ndarray":
    """Eigenvalues g of I - J at a converged solution, at the report's own
    truncation and lambda, from `solver._spectrum`: the one linear
    analysis behind Newton, index and stability.  Raises
    SingularLinearizationError where that flags I - J as degenerate, as
    Newton does.
    """
    from .solver import _check_kernel, _fused_pass, _spectrum
    if not report.converged:
        raise ValueError("index and stability are only defined at "
                         "converged solutions")
    state = report.state
    _check_kernel(spec, state.D, state.N)
    cov = _fused_pass(spec, report.lam, state.coeffs)[2]
    g, singular = _spectrum(spec, report.lam, cov)
    if singular:
        raise SingularLinearizationError(
            f"I - J degenerate at lambda = {report.lam}")
    return g


def index_of(report: "SolutionReport", spec: KernelSpec) -> int:
    """Brouwer index sign det(I - J) at a converged solution, at the
    report's lambda: (-1)^#{g < 0} over the real eigenvalues g of I - J.
    I - J singular to rounding raises SingularLinearizationError."""
    g = _report_spectrum(report, spec)
    return -1 if int((g < 0.0).sum()) % 2 else 1


def degree_audit(spec: KernelSpec, lam: float, n_starts: int, seed: int,
                 truncations) -> DegreeReport:
    """Solution census with index sums at several truncations.

    The degree of u - lam G(u) on a ball holding every solution is 1 at
    every truncation and every lam off the critical values: G is bounded,
    so the homotopy from lam to 0 keeps all solutions inside the ball, and
    at lam = 0 the map is the identity.  Each truncation's Brouwer index
    sum must therefore be 1; any other sum means the census missed
    solutions and raises InconclusiveAuditError, as does a second
    census at seed + 1, run in the same Newton pool, that finds a
    different count.
    """
    from .solver import censuses
    for n, crit in enumerate(critical_values(spec), start=1):
        if abs(lam - crit) <= 1e-6 * crit:
            raise ValidationError(
                f"lambda = {lam} is within 1e-6 of critical value "
                f"lambda_{n}", index=n)
    truncations = tuple(truncations)
    if not truncations:
        raise ValueError("truncations must name at least one truncation")
    for N in truncations:
        census, recheck = censuses(spec, [lam], n_starts, [seed, seed + 1],
                                   N=N)[0]
        if len(census) != len(recheck):
            raise InconclusiveAuditError(
                f"censuses at N={N} disagree: {len(census)} vs "
                f"{len(recheck)} solutions", censuses=(census, recheck))
        indexed = tuple(replace(r, index=index_of(r, spec)) for r in census)
        degree = sum(r.index for r in indexed)
        if degree != 1:
            raise InconclusiveAuditError(
                f"index sum at N={N} is {degree}, not the degree 1: the "
                f"census of {len(indexed)} solutions is incomplete",
                censuses=(census, recheck))
    return DegreeReport(
        lam=lam,
        solutions=indexed,
        degree_sum=degree,
        stable_across_truncations=True,
    )


# Arclength step control in the Euclidean norm of (u, lambda): the first
# step, cap and floor; a failed corrector halves the step, one converging
# within _FAST updates grows it by _GROW.
_DS_FIRST, _DS_MAX, _DS_MIN = 1e-2, 0.2, 1e-8
_GROW, _FAST, _CORRECTOR_ITERS, _MAX_STEPS = 1.5, 3, 12, 5000


def _corrector(spec, y, tangent, tol):
    """Newton's method on F = u - lam G(u) = 0 from y = (u, lam) within
    the hyperplane through y normal to the tangent, with the bordered
    matrix [[I - J, dF/dlam], [tangent]] from one density pass (F is
    linear in lam: dF/dlam = (F - u) / lam).  Returns (y, F, matrix,
    updates) at the first y with state_norm(F) <= tol, or None."""
    import numpy as np

    from .solver import _fused_pass, state_norm
    for it in range(_CORRECTOR_ITERS + 1):
        u, lam = y[:-1], y[-1]
        res, jac, _ = _fused_pass(spec, lam, u)
        matrix = np.block([[np.eye(u.size) - jac, ((res - u) / lam)[:, None]],
                           [tangent]])
        if state_norm(spec.D, res) <= tol:
            return y, res, matrix, it
        try:
            y = y + np.linalg.solve(matrix, -np.append(res, 0.0))
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(y)) and y[-1] > 0.0):
            return None
    return None


def _family(spec, n, origin, sign, lambda_max, n_modes, tol):
    """Points of the family leaving (0, origin) along sign e_n, in
    arclength order, up to the first with lambda > lambda_max, a sign
    change of u_n or a return to the trivial state (|u| < _DS_FIRST / 2),
    or until the step falls below _DS_MIN or _MAX_STEPS steps."""
    import numpy as np

    from .solver import AxisymState, _make_report
    unit = np.eye(n_modes + 1)
    x, tangent = origin * unit[-1], sign * unit[n - 1]
    ds, points = _DS_FIRST, []
    for _ in range(_MAX_STEPS):
        found = _corrector(spec, x + ds * tangent, tangent, tol)
        if found is None:
            ds /= 2.0
            if ds < _DS_MIN:
                break
            continue
        x, res, matrix, iterations = found
        u, lam = x[:-1], float(x[-1])
        if (lam > lambda_max or sign * u[n - 1] <= 0
                or np.linalg.norm(u) < _DS_FIRST / 2):
            break
        report = _make_report(AxisymState(spec.D, u), res, spec, lam,
                              iterations, tol)
        points.append(report)
        # the next tangent t solves the same bordered system:
        # (I - J) t_u + dF/dlam t_lam = 0 and old tangent . t = 1
        tangent = np.linalg.solve(matrix, unit[-1])
        tangent /= np.linalg.norm(tangent)
        if iterations <= _FAST:
            ds = min(_GROW * ds, _DS_MAX)
    return points


def trace_branch(spec: KernelSpec, n: int, lambda_max: float,
                 n_modes: int | None = None, tol: float = 1e-10) -> Branch:
    """Pseudo-arclength continuation (Keller) of the mode-n solution
    family through its folds.

    Each coefficient sign starts at (0, lambda_n) along +-e_n.  A step
    predicts along the unit tangent of (u, lambda), then Newton's method
    on u - lam G(u) = 0 bordered by the tangent corrects it until the
    solver's own test state_norm(residual) <= tol holds.  Only points with
    lambda <= lambda_max are kept.  tol must be positive and lambda_max
    nonnegative, both finite.
    """
    from .solver import _check_tol_lambda
    _check_tol_lambda(tol, lambda_max)
    if n < 1 or n > spec.n_max:
        raise ValueError(f"mode must be in 1..{spec.n_max}, got {n}")
    n_modes = spec.n_max if n_modes is None else n_modes
    if not n <= n_modes <= spec.n_max:
        raise ValueError(f"n_modes must be in {n}..{spec.n_max}, "
                         f"got {n_modes}")
    if spec.coeff(n) <= 0:
        raise BranchNotFoundError(
            f"k_{n} = {spec.coeff(n)} admits no bifurcation")
    origin = harmonic_count(spec.D, 2 * n) / spec.coeff(n)
    if not lambda_max > origin:
        raise ValueError(f"lambda_max must exceed lambda_{n} = {origin}, "
                         f"got {lambda_max}")
    points = [p for sign in (1, -1) for p in _family(
        spec, n, origin, sign, lambda_max, n_modes, tol)]
    if not points:
        raise BranchNotFoundError(
            f"no mode-{n} continuation points below {lambda_max}")
    return Branch(mode=n, origin=origin, points=tuple(points))


def classify_stability(report: "SolutionReport", spec: KernelSpec) -> str:
    """Stability of a converged solution under the relaxation dynamics, at
    the report's lambda: "stable" when every eigenvalue g of I - J at the
    report's truncation is positive, "unstable" otherwise.  I - J
    singular to rounding raises SingularLinearizationError.
    """
    g = _report_spectrum(report, spec)
    return "stable" if (g > 0.0).all() else "unstable"
