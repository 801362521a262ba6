"""The spectral stability test of `classify_stability` checked against an
independent oracle: perturbations of the solution's density evolved by the
relaxation dynamics themselves."""

import math

import numpy as np
import pytest
from explicit_oracle import explicit_step
from pointwise_oracle import density_on_grid, zonal

from onsager.bifurcation import classify_stability, trace_branch
from onsager.dynamics import grid_mass, make_grid
from onsager.kernel import build_kernel_spec
from onsager.solver import AxisymState, multistart, solve, state_norm

SPEC6 = build_kernel_spec(3, 6, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def dynamics_stability(report, spec, grid_points=64, horizon=2.0, eps=1e-3,
                       rate_tol=1e-8):
    """Stability of a solution under the relaxation dynamics.

    Perturbs the solution's density along each retained mode, at the
    solution's mass, evolves the perturbed and unperturbed densities side
    by side and measures the growth rate of their separation in l1
    (grid_mass of its absolute value) over the second half of the
    horizon.  The flow conserves mass, so a separation that carried mass
    could not decay, and once one-signed its l1 size would be that mass.
    Stable means every rate is negative; a rate inside (-rate_tol,
    rate_tol) is inconclusive and fails the calling test.
    """
    lam = report.lam
    if not report.converged:
        raise ValueError("stability is only defined at converged solutions")
    grid = make_grid(spec.D, grid_points)
    base = density_on_grid(report.state, grid)
    dt = grid.h ** 2 / 8.0
    n_steps = max(2, round(horizon / dt))
    half = n_steps // 2
    t = np.cos(grid.points)
    rates = []
    for mode in range(1, report.state.N + 1):
        shape = zonal(spec.D, 2 * mode, t)
        f = base * (1.0 + eps * shape)
        f *= grid_mass(base, grid) / grid_mass(f, grid)
        fb = base.copy()
        d_half = None
        for k in range(1, n_steps + 1):
            f = explicit_step(f, spec, lam, dt, grid)
            fb = explicit_step(fb, spec, lam, dt, grid)
            if k == half:
                d_half = grid_mass(np.abs(f - fb), grid)
        d_end = grid_mass(np.abs(f - fb), grid)
        assert d_half > 0 and d_end > 0, (
            f"mode {mode} perturbation vanished identically")
        rate = math.log(d_end / d_half) / ((n_steps - half) * dt)
        assert abs(rate) >= rate_tol, (
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
    nontrivial = [r for r in census if state_norm(r.state.coeffs) > 0.1]
    verdicts = [_agree(r) for r in nontrivial]
    assert verdicts == ["unstable", "stable"]


def test_branch_sign_families():
    branch = trace_branch(SPEC6, 1, 12.0, n_modes=2)
    families = {sign: [(p, classify_stability(p, SPEC6) == "stable")
                       for p in branch.points
                       if math.copysign(1, p.state.coeffs[0]) == sign]
                for sign in (1, -1)}
    # the u_1 > 0 family continues above lambda_1 and is stable; the
    # u_1 < 0 family bends back below it unstable and turns stable at
    # the fold
    assert all(stable for _, stable in families[1])
    prolate = [stable for _, stable in families[-1]]
    flip = prolate.index(True)
    assert flip > 0 and not any(prolate[:flip]) and all(prolate[flip:])
    # the dynamics classifier takes about 1 s per point, so it rechecks
    # the last point of each family and the two points beside the flip.
    # There one eigenvalue of I - J is near 0 and its slow decay shows in
    # the separation only after the faster modes have gone, so those two
    # get twice the default horizon.
    checks = [(families[1][-1], 2.0), (families[-1][-1], 2.0),
              (families[-1][flip - 1], 4.0), (families[-1][flip], 4.0)]
    for (point, stable), horizon in checks:
        assert dynamics_stability(point, SPEC6, horizon=horizon) == (
            "stable" if stable else "unstable")
