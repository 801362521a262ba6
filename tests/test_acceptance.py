"""End-to-end acceptance checks for the whole suite.

Each test pins one analytically derived target or structural property at
its stated tolerance; all run at desk scale.
"""

import math

import numpy as np
import pytest
from explicit_oracle import explicit_step
from integral_oracle import weighted_integral
from pointwise_oracle import amplitudes, density_on_grid, khat_eval
from scipy.special import eval_gegenbauer

from onsager import cli
from onsager.bifurcation import (
    critical_values,
    degree_audit,
    index_of,
    trace_branch,
    uniqueness_thresholds,
)
from onsager.dynamics import (
    DT_PER_H2,
    evolve,
    grid_mass,
    make_grid,
)
from onsager.kernel import build_kernel_spec, onsager_mean
from onsager.polybasis import harmonic_count, surface_area, zonal_rule
from onsager.solver import (
    AxisymState,
    jacobian,
    multistart,
    residual,
    solve,
    state_norm,
    state_sup_norm,
)

SPEC3 = build_kernel_spec(3, 12, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def test_coefficient_oracle_agreement():
    # quadrature and recurrence coefficients agree to 1e-9 and form a
    # positive strictly decreasing sequence
    for D in (3, 4, 5):
        quad = build_kernel_spec(D, 12, "onsager-quadrature")
        rec = build_kernel_spec(D, 12, "onsager-recurrence")
        k_quad, k_rec = np.asarray(quad.coeffs), np.asarray(rec.coeffs)
        rel = np.abs(k_quad - k_rec) / np.abs(k_quad)
        assert np.max(rel) <= 1e-9
        assert np.all(k_quad > 0)
        assert np.all(np.diff(k_quad) < 0)


def test_closed_form_targets():
    spec4 = build_kernel_spec(4, 6, "onsager-quadrature")
    targets = [
        (SPEC3.coeff(1), 5 * math.pi / 32),
        (spec4.coeff(1), 8 / (5 * math.pi)),
        (onsager_mean(3), math.pi / 4),
        (SPEC3.sup_norm_khat, math.pi / 4),
        (uniqueness_thresholds(SPEC3).lambda_tilde0, 4 / (5 * math.pi)),
        (critical_values(SPEC3)[0], 32 / math.pi),
        (critical_values(spec4)[0], 45 * math.pi / 8),
    ]
    for got, expected in targets:
        assert abs(got - expected) <= 1e-6


def test_kernel_reconstruction_converges():
    # weighted-L2 error of the truncated mean-free kernel against
    # |sin gamma| - pi/4 decreases monotonically and reaches 1e-3
    nodes, weights = zonal_rule(3, 512)
    gamma = np.arccos(nodes)
    exact = np.abs(np.sin(gamma)) - math.pi / 4
    errors = []
    for n_max in (8, 16, 32, 64, 128):
        spec = build_kernel_spec(3, n_max, "onsager-recurrence")
        diff = khat_eval(spec, gamma) - exact
        errors.append(math.sqrt(surface_area(2)
                                * float(weights @ diff ** 2)))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3


def test_gegenbauer_weighted_integral_recursion():
    # int (1-t^2)^a C_{n+2} dt = (n-1)(n+2a) / ((n+2)(n+2a+3))
    #   * int (1-t^2)^a C_n dt with a = (D-2)/2; the weight (1-t^2)^a
    # is the zonal weight one dimension up, so weighted_integral(D+1)
    # computes both sides
    for D in (3, 4, 5):
        a = (D - 2) / 2
        for n in (2, 4, 6, 8):
            lhs = weighted_integral(
                lambda t: eval_gegenbauer(n + 2, a, t), D + 1, 64)
            rhs = ((n - 1) * (n + 2 * a)
                   / ((n + 2) * (n + 2 * a + 3))) * weighted_integral(
                lambda t: eval_gegenbauer(n, a, t), D + 1, 64)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(17)
    lam = 9.0
    h = 1e-6
    for _ in range(20):
        coeffs = rng.uniform(-0.8, 0.8, size=6)
        state = AxisymState(3, coeffs)
        jac = jacobian(state, SPEC3, lam)
        # entrywise bound |J_mn| <= lam k_m
        bound = lam * np.asarray(SPEC3.coeffs)[:6, None]
        assert np.all(np.abs(jac) <= bound * (1 + 1e-12))
        for n in range(6):
            bump = np.zeros(6)
            bump[n] = h
            # J is the Jacobian of lam G(u) = u - residual
            fd = bump / h - (
                residual(AxisymState(3, coeffs + bump), SPEC3, lam)
                - residual(AxisymState(3, coeffs - bump), SPEC3, lam)
            ) / (2 * h)
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(jac[:, n] - fd) / denom) <= 1e-6
    # at the trivial state the Jacobian is exactly diagonal
    jac0 = jacobian(AxisymState(3, np.zeros(6)), SPEC3, lam)
    diag = np.diag([lam * SPEC3.coeff(n) / harmonic_count(3, 2 * n)
                    for n in range(1, 7)])
    assert np.max(np.abs(jac0 - diag)) <= 1e-10


def test_uniqueness_regime_only_trivial_solution():
    lam0 = uniqueness_thresholds(SPEC3).lambda_0_interval[0]
    rng = np.random.default_rng(23)
    for lam in rng.uniform(0.05, 0.999 * lam0, size=20):
        census = multistart(SPEC3, float(lam), 50, seed=0, N=8)
        assert len(census) == 1
        assert state_norm(census[0].state.coeffs) == 0.0
        for report in census:
            assert state_sup_norm(report.state) <= (
                lam * SPEC3.sup_norm_khat + 1e-8)


def test_bifurcation_census_three_solutions():
    crit = critical_values(SPEC3)
    lam = 0.5 * (crit[0] + crit[1])
    census = multistart(SPEC3, lam, 40, seed=1, N=12)
    assert len(census) == 3
    nontrivial = [r for r in census
                  if state_norm(r.state.coeffs) > 1e-6]
    assert len(nontrivial) == 2
    signs = sorted(math.copysign(1, r.state.coeffs[0]) for r in nontrivial)
    assert signs == [-1.0, 1.0]
    for report in census:
        u = report.state.coeffs
        if state_norm(u) > 1e-6:
            assert abs(u[0]) >= 0.9 * np.max(np.abs(u))
        assert (state_sup_norm(report.state)
                <= lam * SPEC3.sup_norm_khat + 1e-8)


def test_branch_amplitude_vanishes_toward_onset():
    branch = trace_branch(SPEC3, 1, 1.3 * LAM1)
    for sign in (1, -1):
        amps = amplitudes(branch, sign)
        assert len(amps) >= 3
        # the first samples are the steps in |u_1| out of the critical
        # value; amplitudes must shrink toward it
        assert all(b > a for a, b in zip(amps[:3], amps[1:3]))


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_degree_sum_is_one_across_truncations(factor):
    spec = build_kernel_spec(3, 16, "onsager-quadrature")
    census = degree_audit(spec, factor * LAM1, n_starts=30, seed=0,
                          truncations=(8, 12, 16))
    assert sum(r.index for r in census) == 1


def test_trivial_index_flip_is_compensated_by_branches():
    below = solve(SPEC3, 0.9 * LAM1, AxisymState(3, np.zeros(8)))
    above = solve(SPEC3, 1.5 * LAM1, AxisymState(3, np.zeros(8)))
    assert index_of(below, SPEC3) == 1
    assert index_of(above, SPEC3) == -1
    census = multistart(SPEC3, 1.5 * LAM1, 30, seed=0, N=8)
    branch_indices = [index_of(r, SPEC3) for r in census
                      if state_norm(r.state.coeffs) > 1e-6]
    assert branch_indices == [1, 1]


def test_energy_dissipates_along_random_trajectories():
    grid = make_grid(3, 64)
    rng = np.random.default_rng(31)
    for _ in range(10):
        lam = float(rng.uniform(2.0, 14.0))
        f0 = 1.0 + 0.4 * rng.uniform(-1, 1, size=grid.G)
        traj = evolve(f0, SPEC3, lam, DT_PER_H2 * grid.h ** 2, 0.3, grid,
                      record_every=1)
        assert np.all(np.diff(traj.energies) <= 1e-10)


def test_relaxation_lands_on_solver_branch():
    lam = 1.1 * LAM1
    grid = make_grid(3, 128)
    f0 = 1.0 + 0.01 * 0.5 * (3 * np.cos(grid.points) ** 2 - 1)
    traj = evolve(f0, SPEC3, lam, DT_PER_H2 * grid.h ** 2, 60.0, grid,
                  record_every=5000)
    # the perturbation feeds the polar (u_1 < 0) family
    report = solve(SPEC3, lam, AxisymState(3, [-4.0] + [0.0] * 11))
    assert report.converged and report.state.coeffs[0] < -1
    target = density_on_grid(report.state, grid)
    assert grid_mass(np.abs(traj.final_density - target), grid) <= 1e-5


def test_uniform_density_exactly_stationary():
    grid = make_grid(3, 128)
    f = np.full(grid.G, 1.0 / grid_mass(np.ones(grid.G), grid))
    out = explicit_step(f, SPEC3, 1.1 * LAM1, grid.h ** 2 / 8, grid)
    assert np.array_equal(out, f)


def test_cli_runs_are_byte_identical(tmp_path):
    cases = [
        ["coeffs", "--dim", "3", "--nmax", "12", "--method", "both"],
        ["sweep", "--lambda-min", "9", "--lambda-max", "12",
         "--steps", "4", "--modes", "8", "--starts", "10", "--seed", "5"],
        ["audit-degree", "--lambda", "15", "--truncations", "4,6",
         "--nmax", "6", "--starts", "10", "--seed", "5"],
        ["evolve", "--lambda", "11.3", "--grid", "32", "--t-max", "0.5",
         "--nmax", "4"],
    ]
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        stem_a = tmp_path / f"a{i}.json"
        stem_b = tmp_path / f"b{i}.json"
        assert stem_a.read_bytes() == stem_b.read_bytes()
