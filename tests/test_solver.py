import math

import numpy as np
import pytest
from picard_oracle import picard
from scipy.integrate import quad

from onsager.errors import SingularLinearizationError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import harmonic_count, legendre_eval, surface_area
from onsager.solver import (
    AxisymState,
    _residual_and_jacobian,
    apply_G,
    free_energy,
    jacobian,
    multistart,
    recover_density,
    residual,
    solve,
    state_norm,
    state_sup_norm,
    zonal_moments,
)

SPEC3 = build_kernel_spec(3, 12, "onsager-quadrature")
LAM1 = harmonic_count(3, 2) / SPEC3.coeff(1)


def test_state_validation():
    with pytest.raises(ValueError):
        AxisymState(D=2, coeffs=[1.0])
    with pytest.raises(ValueError):
        AxisymState(D=3, coeffs=[])
    with pytest.raises(ValueError):
        AxisymState(D=3, coeffs=[np.nan])
    state = AxisymState(D=3, coeffs=[0.5, 0.1])
    with pytest.raises(ValueError):
        state.coeffs[0] = 2.0
    with pytest.raises(ValueError):
        state.padded(1)


def test_state_eval_is_even_zonal_sum():
    state = AxisymState(D=3, coeffs=[0.7, -0.2, 0.05])
    t = np.linspace(-1.0, 1.0, 21)
    expected = sum(c * legendre_eval(3, 2 * (i + 1), t)
                   for i, c in enumerate([0.7, -0.2, 0.05]))
    assert np.allclose(state.eval(t), expected, atol=1e-14)
    assert state.padded(5).eval(0.3) == pytest.approx(state.eval(0.3),
                                                      abs=1e-15)


def test_state_norm_closed_form():
    # ||P_2||^2 over S^2 is sigma_3 / N(3, 2) = 4 pi / 5
    assert state_norm(3, [1.0]) == pytest.approx(
        math.sqrt(4 * math.pi / 5), rel=1e-13)


def test_sup_norm_of_single_mode():
    # |u_1 P_2| peaks at the poles where P_2 = 1
    assert state_sup_norm(AxisymState(3, [0.8])) == pytest.approx(0.8,
                                                                  rel=1e-9)


def test_trivial_state_has_exactly_zero_moments_and_residual():
    state = AxisymState(D=3, coeffs=np.zeros(8))
    assert np.all(zonal_moments(state) == 0.0)
    assert np.all(residual(state, SPEC3, 7.0) == 0.0)


def test_zonal_moments_match_adaptive_quadrature():
    state = AxisymState(D=3, coeffs=[0.9, -0.3])

    def density(t):
        return math.exp(-state.eval(t))

    z, _ = quad(density, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    a = zonal_moments(state)
    for n in (1, 2):
        ref, _ = quad(lambda t: density(t) * legendre_eval(3, 2 * n, t),
                      -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert a[n - 1] == pytest.approx(ref / z, abs=1e-11)
    assert np.all(np.abs(a) <= 1.0)


def test_zonal_moments_truncation_handling():
    state = AxisymState(D=3, coeffs=[0.5, 0.1])
    longer = zonal_moments(state, N=5)
    shorter = zonal_moments(state, N=1)
    assert longer.size == 5
    assert shorter.size == 1
    assert np.allclose(longer[:2], zonal_moments(state), atol=1e-14)
    assert shorter[0] == pytest.approx(longer[0], abs=1e-14)


def test_apply_G_dimension_checks():
    with pytest.raises(ValueError):
        apply_G(AxisymState(4, [0.1]), SPEC3, 1.0)
    with pytest.raises(ValueError):
        apply_G(AxisymState(3, np.zeros(13)), SPEC3, 1.0)


def test_jacobian_at_trivial_is_diagonal():
    state = AxisymState(D=3, coeffs=np.zeros(6))
    lam = 4.0
    jac = jacobian(state, SPEC3, lam)
    expected = np.diag([lam * SPEC3.coeff(n) / harmonic_count(3, 2 * n)
                        for n in range(1, 7)])
    assert np.max(np.abs(jac - expected)) < 1e-10


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    state = AxisymState(D=3, coeffs=rng.uniform(-0.5, 0.5, size=5))
    lam = 6.0
    jac = jacobian(state, SPEC3, lam)
    h = 1e-6
    for n in range(5):
        bump = np.zeros(5)
        bump[n] = h
        plus = apply_G(AxisymState(3, state.coeffs + bump), SPEC3, lam)
        minus = apply_G(AxisymState(3, state.coeffs - bump), SPEC3, lam)
        fd = (plus - minus) / (2 * h)
        assert np.allclose(jac[:, n], fd, rtol=1e-6, atol=1e-8)


def test_fused_residual_matches_residual_bitwise():
    # Newton takes its residual from the fused pass; any difference in the
    # last bit would move the iterates and the multistart census
    rng = np.random.default_rng(11)
    for lam in (5.0, 12.0, 40.0):
        state = AxisymState(3, rng.uniform(-1.0, 1.0, size=12))
        res, _, _ = _residual_and_jacobian(state, SPEC3, lam, order=128)
        assert np.array_equal(res, residual(state, SPEC3, lam))


def test_solve_validation():
    state = AxisymState(D=3, coeffs=np.zeros(4))
    with pytest.raises(ValueError):
        solve(SPEC3, 1.0, state, tol=-1.0)
    with pytest.raises(ValueError):
        solve(SPEC3, -1.0, state)


@pytest.mark.parametrize("method", ["newton", "picard"])
def test_solve_small_lambda_reaches_trivial(method):
    # Newton, and the Picard test oracle, from the same start
    init = AxisymState(D=3, coeffs=np.full(6, 0.2))
    if method == "newton":
        report = solve(SPEC3, 0.8, init)
    else:
        report = picard(SPEC3, 0.8, init, damping=0.8)
    assert report.converged
    assert state_norm(3, report.state.coeffs) < 1e-9


def test_solve_finds_nematic_solution():
    init = AxisymState(D=3, coeffs=[0.5] + [0.0] * 7)
    report = solve(SPEC3, 12.0, init)
    assert report.converged
    assert report.residual_norm <= 1e-10
    assert report.state.coeffs[0] > 0.5
    assert report.sup_norm_u <= 12.0 * SPEC3.sup_norm_khat + 1e-8


def test_solve_singular_linearization():
    # pick lambda so that I - J is singular to rounding at the starting
    # iterate while the residual is still large
    init = AxisymState(D=3, coeffs=[0.3])
    spec1 = build_kernel_spec(3, 1, "custom", custom_coeffs=[SPEC3.coeff(1)])
    lam_star = 1.0 / jacobian(init, spec1, 1.0)[0, 0]
    with pytest.raises(SingularLinearizationError):
        solve(spec1, lam_star, init)


def test_report_json_dict():
    report = solve(SPEC3, 5.0, AxisymState(3, np.zeros(4)))
    data = report.to_json_dict()
    assert data["lambda"] == 5.0
    assert data["dim"] == 3
    assert data["converged"] is True
    assert len(data["modes"]) == 4


def test_multistart_census_and_determinism():
    census_a = multistart(SPEC3, 15.0, 25, seed=42, N=8)
    census_b = multistart(SPEC3, 15.0, 25, seed=42, N=8)
    assert len(census_a) == 3
    for ra, rb in zip(census_a, census_b):
        assert np.array_equal(ra.state.coeffs, rb.state.coeffs)
    norms = [state_norm(3, r.state.coeffs) for r in census_a]
    assert norms == sorted(norms)
    assert norms[0] == 0.0


def test_multistart_distinct_solutions_are_well_separated():
    census = multistart(SPEC3, 15.0, 25, seed=1, N=8)
    for i in range(len(census)):
        for j in range(i + 1, len(census)):
            dist = state_norm(3, census[i].state.coeffs
                              - census[j].state.coeffs)
            assert dist > 1e-3


def test_recover_density_normalized_and_positive():
    state = AxisymState(D=3, coeffs=[1.5, -0.2])
    profile = recover_density(state, SPEC3, 12.0)
    assert np.all(profile.values > 0)
    from onsager.polybasis import zonal_rule
    _, weights = zonal_rule(3, profile.order)
    nodes, weights = zonal_rule(3, profile.order)
    total = surface_area(2) * float(np.dot(weights, profile.values))
    assert total == pytest.approx(1.0, abs=1e-13)
    # beta is the normalizer of e^(-u) itself: f = e^(-u) / beta
    recon = np.exp(-state.eval(nodes)) / profile.beta
    assert np.allclose(recon, profile.values, rtol=1e-12)


def test_free_energy_of_uniform_state():
    state = AxisymState(D=3, coeffs=np.zeros(4))
    profile = recover_density(state, SPEC3, 7.0)
    energy = free_energy(profile, SPEC3, 7.0)
    sigma = surface_area(3)
    expected = math.log(1.0 / sigma) + 0.5 * 7.0 * SPEC3.k0
    assert energy == pytest.approx(expected, rel=1e-12)


def test_free_energy_decreases_on_nematic_branch():
    # above the first critical value the nematic state beats the uniform one
    lam = 1.2 * LAM1
    census = multistart(SPEC3, lam, 20, seed=2, N=8)
    report = census[-1]
    assert report.converged and state_norm(3, report.state.coeffs) > 0.1
    e_trivial = free_energy(recover_density(
        AxisymState(3, np.zeros(8)), SPEC3, lam), SPEC3, lam)
    e_branch = free_energy(recover_density(report.state, SPEC3, lam),
                           SPEC3, lam)
    assert e_branch < e_trivial
