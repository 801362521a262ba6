"""Critical concentrations, uniqueness thresholds, solution indices and
degree audits, branch continuation and stability classification for the
self-consistency equation u = lam G(u)."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import lambertw

from .errors import (
    BranchNotFoundError,
    DegenerateIndexError,
    InconclusiveAuditError,
    MarginalStabilityError,
    SingularLinearizationError,
    ThresholdUndefinedError,
    ValidationError,
)
from .kernel import KernelSpec, tail_bound
from .polybasis import harmonic_count
from .solver import (
    DEFAULT_ORDER,
    AxisymState,
    SolutionReport,
    _residual_and_jacobian,
    _spectrum,
    multistart,
    solve,
    state_norm,
)

__all__ = [
    "ThresholdReport",
    "Branch",
    "BranchPoint",
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

    lambda_0 is the conservative (lower) endpoint of lambda_0_interval,
    whose width reflects the tail of the coefficient sum; lambda_exp_bound
    is the largest lam satisfying lam e^(4 lam ||K||_inf) sum k_m < 1/2,
    reported separately because it is not comparable to lambda_tilde0 by
    construction.
    """

    lambda_tilde0: float
    lambda_0: float
    lambda_0_interval: tuple
    lambda_exp_bound: float
    lambda_crit: list
    tail_bound: float

    def to_json_dict(self) -> dict:
        return {
            "lambda_tilde0": self.lambda_tilde0,
            "lambda_0": self.lambda_0,
            "lambda_0_interval": list(self.lambda_0_interval),
            "lambda_exp_bound": self.lambda_exp_bound,
            "lambda_crit": list(self.lambda_crit),
            "tail_bound": self.tail_bound,
        }


@dataclass(frozen=True)
class BranchPoint:
    """One continuation sample: concentration, solution, stability flag
    (None when stability was not requested)."""

    lam: float
    report: SolutionReport
    stable: bool | None


@dataclass(frozen=True)
class Branch:
    """Solution family attached to the critical value origin = lambda_n.

    points holds both coefficient-sign families, each ordered from the
    samples nearest the origin outward.
    """

    mode: int
    origin: float
    points: tuple

    def amplitudes(self, sign: int) -> list:
        """Norms of the stored points with the given sign of u_mode,
        nearest the origin first."""
        return [_norm(p.report.state) for p in self.points
                if math.copysign(1, p.report.state.coeffs[self.mode - 1])
                == sign]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "origin": self.origin,
            "points": [
                {"lambda": p.lam, "stable": p.stable,
                 **p.report.to_json_dict()}
                for p in self.points
            ],
        }


@dataclass(frozen=True)
class DegreeReport:
    """Census of solutions at one concentration with their indices."""

    lam: float
    solutions: tuple
    degree_sum: int
    truncations_checked: tuple
    stable_across_truncations: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "degree_sum": self.degree_sum,
            "truncations_checked": list(self.truncations_checked),
            "stable_across_truncations": self.stable_across_truncations,
            "solutions": [r.to_json_dict() for r in self.solutions],
        }


def _norm(state: AxisymState) -> float:
    return state_norm(state.D, state.coeffs)


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


def uniqueness_thresholds(spec: KernelSpec) -> ThresholdReport:
    """Uniqueness thresholds and critical values in one report.

    lambda_tilde0 = (1/5) ||K_hat||_inf^-1; lambda_0 is bracketed by
    [1/(S + tail), 1/S] with S the coefficient partial sum and tail the
    documented comparison bound; lambda_exp_bound solves
    lam e^(4 lam ||K||_inf) (S + tail) = 1/2, that is
    lam = W(4 ||K||_inf / (2 (S + tail))) / (4 ||K||_inf) with W the
    principal branch of the Lambert W function.
    """
    coeffs = spec.coeffs
    if not np.all(np.isfinite(coeffs)) or np.any(coeffs <= 0):
        raise ThresholdUndefinedError(
            "thresholds require positive finite coefficients")
    partial = float(coeffs.sum())
    tail = tail_bound(spec)
    total = partial + tail
    if not math.isfinite(total) or total <= 0:
        raise ThresholdUndefinedError("coefficient sum is not summable")
    if spec.sup_norm_khat <= 0:
        raise ThresholdUndefinedError("kernel has no mean-zero part")
    lam_tilde = 0.2 / spec.sup_norm_khat
    interval = (1.0 / total, 1.0 / partial)
    # full kernel sup norm: the exact |sin| profile lies in [0, 1], custom
    # kernels are their mean-zero part
    knorm = 1.0 if spec.source != "custom" else spec.sup_norm_khat
    lam_exp = lambertw(4.0 * knorm * (0.5 / total)).real / (4.0 * knorm)
    return ThresholdReport(
        lambda_tilde0=lam_tilde,
        lambda_0=interval[0],
        lambda_0_interval=interval,
        lambda_exp_bound=float(lam_exp),
        lambda_crit=critical_values(spec),
        tail_bound=tail,
    )


def _report_spectrum(report: SolutionReport, spec: KernelSpec,
                     degenerate: type) -> np.ndarray:
    """Eigenvalues g of I - J at a converged solution, at the report's own
    truncation and lambda, from `solver._spectrum`: the one linear
    analysis behind index and stability.  Raises `degenerate` where that
    flags I - J as degenerate.
    """
    if not report.converged:
        raise ValueError("index and stability are only defined at "
                         "converged solutions")
    cov = _residual_and_jacobian(report.state, spec, report.lam,
                                 DEFAULT_ORDER)[2]
    g, singular = _spectrum(spec, report.lam, cov)
    if singular:
        raise degenerate(f"I - J degenerate at lambda = {report.lam}")
    return g


def index_of(report: SolutionReport, spec: KernelSpec) -> int:
    """Brouwer index sign det(I - J) at a converged solution, at the
    report's lambda: (-1)^#{g < 0} over the real eigenvalues g of I - J."""
    g = _report_spectrum(report, spec, DegenerateIndexError)
    return -1 if np.count_nonzero(g < 0.0) % 2 else 1


def degree_audit(spec: KernelSpec, lam: float, n_starts: int, seed: int,
                 truncations) -> DegreeReport:
    """Solution census with index sums at several truncations.

    The infinite-dimensional degree is realized as its own defining
    limit: Brouwer index sums at each truncation, checked for equality
    across the list.  A second census at seed + 1 guards against
    multistart instability.
    """
    for n, crit in enumerate(critical_values(spec), start=1):
        if abs(lam - crit) <= 1e-6 * crit:
            raise ValidationError(
                f"lambda = {lam} is within 1e-6 of critical value "
                f"lambda_{n}", index=n)
    truncations = tuple(truncations)
    sums = []
    last_solutions = None
    for N in truncations:
        census = multistart(spec, lam, n_starts, seed=seed, N=N)
        recheck = multistart(spec, lam, n_starts, seed=seed + 1, N=N)
        if len(census) != len(recheck):
            raise InconclusiveAuditError(
                f"censuses at N={N} disagree: {len(census)} vs "
                f"{len(recheck)} solutions", censuses=(census, recheck))
        indexed = tuple(replace(r, index=index_of(r, spec)) for r in census)
        sums.append(sum(r.index for r in indexed))
        last_solutions = indexed
    stable = len(set(sums)) == 1
    return DegreeReport(
        lam=lam,
        solutions=last_solutions,
        degree_sum=sums[-1],
        truncations_checked=truncations,
        stable_across_truncations=stable,
    )


def _seed_solution(spec, n, lam, sign, delta, n_modes, tol):
    """Converged nontrivial solution near onset, seeded on mode n with the
    requested coefficient sign; amplitude escalation handles seeds that
    fall back to the trivial basin."""
    for j in range(9):
        coeffs = np.zeros(n_modes)
        coeffs[n - 1] = sign * delta * 2.0 ** j
        guess = AxisymState(D=spec.D, coeffs=coeffs)
        try:
            report = solve(spec, lam, guess, tol=tol)
        except SingularLinearizationError:
            continue
        u = report.state.coeffs
        if (report.converged and _norm(report.state) > 100 * tol
                and math.copysign(1, u[n - 1]) == sign):
            return report
    return None


def trace_branch(spec: KernelSpec, n: int, lambda_end: float, steps: int,
                 eps0: float = 5e-2, delta: float = 1e-2,
                 n_modes: int | None = None, tol: float = 1e-10,
                 classify: bool = False) -> Branch:
    """Natural-parameter continuation of the mode-n solution family.

    Each coefficient sign is probed near the origin lambda_n on both
    sides (the branch direction is measured, not assumed), sampled at the
    onsets origin(1 +/- eps), eps = eps0, eps0/2, eps0/4 with up to six
    further halvings on failure, then continued toward lambda_end with
    the previous solution seeding the next solve.  Continuation stops at
    nonconvergence, collapse to the trivial solution or a coefficient
    sign flip.
    """
    if n < 1 or n > spec.n_max:
        raise ValueError(f"mode must be in 1..{spec.n_max}, got {n}")
    if spec.coeff(n) <= 0:
        raise BranchNotFoundError(
            f"k_{n} = {spec.coeff(n)} admits no bifurcation")
    origin = harmonic_count(spec.D, 2 * n) / spec.coeff(n)
    if n_modes is None:
        n_modes = spec.n_max
    preferred = 1.0 if lambda_end >= origin else -1.0

    points = []
    for sign in (1, -1):
        # probe both sides and keep the one whose onset solution is the
        # smaller: only the genuinely bifurcating side has amplitude -> 0
        onset = None
        for side in (preferred, -preferred):
            eps = eps0
            for _ in range(7):
                lam = origin * (1.0 + side * eps)
                report = _seed_solution(spec, n, lam, sign, delta,
                                        n_modes, tol)
                if report is not None:
                    if onset is None or _norm(report.state) < onset[2]:
                        onset = (side, eps, _norm(report.state))
                    break
                eps /= 2.0
        if onset is None:
            continue
        side, eps, _ = onset
        # three geometric onset samples, nearest the origin first
        family = []
        ok = True
        for e in (eps / 4.0, eps / 2.0, eps):
            lam = origin * (1.0 + side * e)
            report = _seed_solution(spec, n, lam, sign, delta, n_modes, tol)
            if report is None:
                ok = False
                break
            family.append(BranchPoint(lam=lam, report=report, stable=None))
        if not ok:
            continue
        lam = family[-1].lam
        state = family[-1].report.state
        if steps > 0 and abs(lambda_end - lam) > 0:
            for lam_next in np.linspace(lam, lambda_end, steps + 1)[1:]:
                try:
                    report = solve(spec, float(lam_next), state, tol=tol)
                except SingularLinearizationError:
                    break
                u = report.state.coeffs
                # a collapse by an order of magnitude means the
                # continuation fell back to the trivial solution
                if (not report.converged
                        or _norm(report.state) <= max(100 * tol,
                                                      0.1 * _norm(state))
                        or math.copysign(1, u[n - 1]) != sign):
                    break
                family.append(BranchPoint(lam=float(lam_next),
                                          report=report, stable=None))
                state = report.state
        points.extend(family)

    if not points:
        raise BranchNotFoundError(
            f"no nontrivial mode-{n} solutions found near lambda_{n} = "
            f"{origin}")
    if classify:
        points = [replace(p, stable=(classify_stability(p.report, spec)
                                     == "stable"))
                  for p in points]
    return Branch(mode=n, origin=origin, points=tuple(points))


def classify_stability(report: SolutionReport, spec: KernelSpec) -> str:
    """Stability of a converged solution under the relaxation dynamics, at
    the report's lambda: "stable" when every eigenvalue g of I - J at the
    report's truncation is positive, "unstable" otherwise.  I - J
    singular to rounding raises MarginalStabilityError.
    """
    g = _report_spectrum(report, spec, MarginalStabilityError)
    return "stable" if np.all(g > 0.0) else "unstable"
