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
from .kernel import KernelSpec, tail_bound
from .polybasis import harmonic_count

# numpy and the solver are imported where they run, so that
# `thresholds`, which needs only the kernel, loads neither.
if TYPE_CHECKING:
    import numpy as np

    from .solver import SolutionReport

__all__ = [
    "ThresholdReport",
    "Branch",
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
    the u_n > 0 one first, each in order of |u_n| from the origin out.
    stops holds why each family ended, in that order: "lambda_max",
    "step_floor" or "step_limit" (see `_family`).
    """

    mode: int
    origin: float
    points: tuple
    stops: tuple


def critical_values(spec: KernelSpec) -> list:
    """Critical concentrations lambda_n = N(D, 2n)/k_n, n = 1..n_max;
    math.inf where k_n = 0, since no family bifurcates from mode n."""
    return [harmonic_count(spec.D, 2 * n) / k if k > 0 else math.inf
            for n, k in enumerate(spec.coeffs, start=1)]


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
    [1/T, 1/S] with S the coefficient partial sum and T = max(S + tail,
    k0) a bound on the whole series, tail the bound on the closed-form
    tail (`tail_bound`): the |sin gamma| series sums exactly to k0, so
    1/T stays <= 1/k0 also for a quadrature table that sums short of the
    closed form, and a custom kernel has k0 = 0.  lambda_exp_bound solves
    lam e^(4 lam ||K||_inf) T = 1/2, that is
    lam = W(4 ||K||_inf / (2 T)) / (4 ||K||_inf) with W the principal
    branch of the Lambert W function.  A zero k_n has lambda_n = inf
    (`critical_values`); only a coefficient sum of 0 or one that is not
    finite raises ThresholdUndefinedError.
    """
    partial = math.fsum(spec.coeffs)
    tail = tail_bound(spec)
    total = max(partial + tail, spec.k0)
    if not (partial > 0 and math.isfinite(total)):
        raise ThresholdUndefinedError(
            f"coefficient sum {partial} + tail {tail} is 0 or not finite")
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
    analysis behind index and stability, and the one place a solution's
    degeneracy is read.  Raises SingularLinearizationError where that
    flags I - J as degenerate.
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
                 truncations) -> tuple:
    """Solution census with index sums at several truncations: the
    SolutionReports found at the last truncation, each with its index
    set, as a tuple.

    The degree of u - lam G(u) on a ball holding every solution is 1 at
    every truncation and every lam off the critical values: G is bounded,
    so the homotopy from lam to 0 keeps all solutions inside the ball, and
    at lam = 0 the map is the identity.  Each truncation's Brouwer index
    sum must therefore be 1; any other sum means the census missed
    solutions and raises InconclusiveAuditError, as does a second
    census at seed + 1, run in the same Newton pool, that finds a
    different count.  lam within 1e-6 of a finite critical value raises
    ValidationError.
    """
    from .solver import censuses
    for n, crit in enumerate(critical_values(spec), start=1):
        if crit < math.inf and abs(lam - crit) <= 1e-6 * crit:
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
    return indexed


# Continuation in s = |u_n| (Rheinboldt & Burkardt, ACM TOMS 9, 1983):
# the first step and its floor; a step is kept when the corrector lands
# within _RTOL of the prediction in the one solver norm, else it halves
# (Allgower & Georg, Numerical Continuation Methods, 1990, ch. 6).
_DS_FIRST, _DS_MIN, _RTOL, _CORRECTOR_ITERS, _MAX_STEPS = (
    1e-2, 1e-8, 1e-4, 12, 5000)


def _corrector(spec, y, border, tol):
    """Newton's method on F = u - lam G(u) = 0 from y = (u, lam) with
    border . y held fixed, with the bordered matrix
    [[I - J, dF/dlam], [border]] from one density pass (F is linear in
    lam: dF/dlam = (F - u) / lam).  Returns (y, F, matrix, updates) at
    the first y with state_norm(F) <= tol, the coefficient l1 norm of
    every solver test, or None."""
    import numpy as np

    from .solver import _fused_pass, state_norm
    for it in range(_CORRECTOR_ITERS + 1):
        u, lam = y[:-1], y[-1]
        res, jac, _ = _fused_pass(spec, lam, u)
        matrix = np.block([[np.eye(u.size) - jac, ((res - u) / lam)[:, None]],
                           [border]])
        if state_norm(res) <= tol:
            return y, res, matrix, it
        try:
            y = y + np.linalg.solve(matrix, -np.append(res, 0.0))
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(y)) and y[-1] > 0.0):
            return None
    return None


def _family(spec, n, origin, sign, lambda_max, n_modes, tol):
    """Points of the family leaving (0, origin) along sign e_n, in order
    of s = sign u_n, and why it ended: "lambda_max", "step_floor" (a step
    below _DS_MIN) or "step_limit" (_MAX_STEPS).  The next step is
    ds min(2, sqrt(_RTOL / error)): the predictor errs by O(ds^2)."""
    import numpy as np

    from .solver import AxisymState, _make_report, state_norm
    unit = np.eye(n_modes + 1)
    x, border = origin * unit[-1], sign * unit[n - 1]
    slope, ds, points = border, _DS_FIRST, []
    for _ in range(_MAX_STEPS):
        guess = x + ds * slope
        found = _corrector(spec, guess, border, tol)
        error = (math.inf if found is None else
                 state_norm(found[0] - guess) / state_norm(found[0]))
        if error > _RTOL:
            ds /= 2.0
            if ds < _DS_MIN:
                return points, "step_floor"
            continue
        x, res, matrix, iterations = found
        if x[-1] > lambda_max:
            return points, "lambda_max"
        points.append(_make_report(AxisymState(spec.D, x[:-1]), res,
                                   float(x[-1]), iterations, tol))
        # the slope solves the same bordered system with border . t = 1
        slope = np.linalg.solve(matrix, unit[-1])
        ds *= math.sqrt(_RTOL / max(error, _RTOL / 4.0))
    return points, "step_limit"


def trace_branch(spec: KernelSpec, n: int, lambda_max: float,
                 n_modes: int | None = None, tol: float = 1e-10) -> Branch:
    """Continuation of the mode-n solution family through its folds in
    its own amplitude s = |u_n|, which is monotone along each family.

    Each coefficient sign starts at (0, lambda_n) along +-e_n.  A step
    predicts along the slope d(u, lambda)/ds, then Newton's method on
    u - lam G(u) = 0 at fixed u_n corrects it until the solver's own
    test state_norm(residual) <= tol holds, in the coefficient l1 norm,
    so every point is a converged SolutionReport.  Only points with
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
    families, stops = zip(*[_family(spec, n, origin, sign, lambda_max,
                                    n_modes, tol) for sign in (1, -1)])
    points = tuple(families[0] + families[1])
    if not points:
        raise BranchNotFoundError(
            f"no mode-{n} continuation points below {lambda_max}")
    return Branch(mode=n, origin=origin, points=points, stops=stops)


def classify_stability(report: "SolutionReport", spec: KernelSpec) -> str:
    """Stability of a converged solution under the relaxation dynamics, at
    the report's lambda: "stable" when every eigenvalue g of I - J at the
    report's truncation is positive, "unstable" otherwise.  I - J
    singular to rounding raises SingularLinearizationError.
    """
    g = _report_spectrum(report, spec)
    return "stable" if (g > 0.0).all() else "unstable"
