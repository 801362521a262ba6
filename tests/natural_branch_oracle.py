"""Natural-parameter continuation of a mode-n solution family, kept as a
test oracle for `bifurcation.trace_branch`, which continues in |u_n|, on
the lambda range it can reach: it steps in lambda from onset samples
found by probing both sides of lambda_n, so it cannot pass a fold."""

import math

import numpy as np

from onsager.bifurcation import Branch
from onsager.errors import BranchNotFoundError, SingularLinearizationError
from onsager.kernel import KernelSpec
from onsager.polybasis import harmonic_count
from onsager.solver import AxisymState, solve, state_norm


def _norm(state):
    return state_norm(state.coeffs)


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
                 n_modes: int | None = None, tol: float = 1e-10) -> Branch:
    """Natural-parameter continuation of the mode-n solution family.

    Each coefficient sign is probed near the origin lambda_n on both
    sides (the branch direction is measured, not assumed), sampled at the
    onsets origin(1 +/- eps), eps = eps0, eps0/2, eps0/4 with up to six
    further halvings on failure, then continued toward lambda_end with
    the previous solution seeding the next solve.  Continuation stops at
    nonconvergence, collapse to the trivial solution or a coefficient
    sign flip.  Each point is the SolutionReport of its solve, at the
    report's own lambda.
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
            family.append(report)
        if not ok:
            continue
        lam = family[-1].lam
        state = family[-1].state
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
                family.append(report)
                state = report.state
        points.extend(family)

    if not points:
        raise BranchNotFoundError(
            f"no nontrivial mode-{n} solutions found near lambda_{n} = "
            f"{origin}")
    # natural continuation has stop reasons of its own; none is recorded
    return Branch(mode=n, origin=origin, points=tuple(points), stops=())
