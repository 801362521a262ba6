"""The spectral stability test of `classify_stability` checked against an
independent oracle: perturbations of the solution's density evolved by the
relaxation dynamics themselves."""

import math

import numpy as np
import pytest
from explicit_oracle import explicit_step

from onsager.bifurcation import classify_stability, trace_branch
from onsager.dynamics import density_on_grid, grid_norm, make_grid
from onsager.errors import MarginalStabilityError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import legendre_eval
from onsager.solver import AxisymState, multistart, solve, state_norm

SPEC6 = build_kernel_spec(3, 6, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def dynamics_stability(report, spec, grid_points=64, horizon=2.0, eps=1e-3,
                       rate_tol=1e-8):
    """Stability of a solution under the relaxation dynamics.

    Perturbs the solution's density along each retained mode, evolves the
    perturbed and unperturbed densities side by side and measures the
    growth rate of their separation over the second half of the horizon.
    Stable means every rate is negative; a rate inside (-rate_tol,
    rate_tol) is inconclusive.
    """
    lam = report.lam
    if not report.converged:
        raise ValueError("stability is only defined at converged solutions")
    grid = make_grid(spec.D, grid_points)
    base = density_on_grid(report.state, lam, grid)
    dt = grid.h ** 2 / 8.0
    n_steps = max(2, round(horizon / dt))
    half = n_steps // 2
    t = np.cos(grid.points)
    rates = []
    for mode in range(1, report.state.N + 1):
        shape = legendre_eval(spec.D, 2 * mode, t)
        f = base * (1.0 + eps * shape)
        fb = base.copy()
        d_half = None
        for k in range(1, n_steps + 1):
            f = explicit_step(f, spec, lam, dt, grid)
            fb = explicit_step(fb, spec, lam, dt, grid)
            if k == half:
                d_half = grid_norm(f - fb, grid)
        d_end = grid_norm(f - fb, grid)
        if d_half <= 0 or d_end <= 0:
            raise MarginalStabilityError(
                f"mode {mode} perturbation vanished identically")
        rate = math.log(d_end / d_half) / ((n_steps - half) * dt)
        if abs(rate) < rate_tol:
            raise MarginalStabilityError(
                f"mode {mode} decay rate {rate} is inconclusive")
        rates.append(rate)
    return "stable" if all(r < 0 for r in rates) else "unstable"


def _agree(report):
    verdict = classify_stability(report, SPEC6)
    assert verdict == dynamics_stability(report, SPEC6)
    return verdict


@pytest.mark.parametrize("lam, expected", [(0.9 * LAM1, "stable"),
                                           (1.1 * LAM1, "unstable")])
def test_trivial_state_on_both_sides_of_lambda1(lam, expected):
    report = solve(SPEC6, lam, AxisymState(3, np.zeros(1)))
    assert _agree(report) == expected


def test_nontrivial_states_at_six_modes():
    # below lambda_1 the census holds the stable nematic state and the
    # unstable state on the branch that bends back to lambda_1
    lam = 9.0
    census = multistart(SPEC6, lam, 20, seed=2, N=6)
    nontrivial = [r for r in census if state_norm(3, r.state.coeffs) > 0.1]
    verdicts = [_agree(r) for r in nontrivial]
    assert verdicts == ["unstable", "stable"]


def test_branch_sign_families():
    branch = trace_branch(SPEC6, 1, 12.0, steps=2, n_modes=2, classify=True)
    # the dynamics classifier's verdicts on all eight points (the u_1 > 0
    # family continues above lambda_1 and is stable, the u_1 < 0 family
    # bends back below it and is not); rerunning it on every point takes
    # about 10 s, so only the last point of each family is rechecked here
    assert [p.stable for p in branch.points] == [True] * 5 + [False] * 3
    for sign in (1, -1):
        point = [p for p in branch.points
                 if math.copysign(1, p.report.state.coeffs[0]) == sign][-1]
        assert _agree(point.report) == (
            "stable" if point.stable else "unstable")
