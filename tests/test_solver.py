import math

import mpmath
import numpy as np
import pytest
from picard_oracle import picard
from pointwise_oracle import u_at, zonal
from scipy.integrate import quad

from onsager import solver
from onsager.bifurcation import degree_audit
from onsager.errors import SingularLinearizationError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import harmonic_count
from onsager.solver import (
    AxisymState,
    _fused_pass,
    censuses,
    jacobian,
    multistart,
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


def test_state_norm_closed_form():
    # sum_n |u_n|, with no surface area in it: the same value at every D,
    # row by row for a stack
    assert state_norm([1.0, -2.5, 0.25]) == 3.75
    assert np.array_equal(state_norm([[1.0, -2.5], [0.0, -0.5]]),
                          [3.5, 0.5])
    # a sum past the largest double is inf, without a RuntimeWarning
    assert state_norm([1e308, -1e308]) == math.inf


def test_sup_norm_of_single_mode():
    # |u_1 P_2| peaks at the poles where P_2 = 1
    assert state_sup_norm(AxisymState(3, [0.8])) == pytest.approx(0.8,
                                                                  rel=1e-9)


def test_trivial_state_has_exactly_zero_moments_and_residual():
    state = AxisymState(D=3, coeffs=np.zeros(8))
    assert np.all(zonal_moments(state) == 0.0)
    assert np.all(residual(state, SPEC3, 7.0) == 0.0)


def _widest_solution(D, N, lam):
    spec = build_kernel_spec(D, N, "onsager-recurrence")
    census = multistart(spec, lam, 30, seed=0)
    return max(census, key=lambda r: state_sup_norm(r.state)).state


def test_zonal_moments_match_adaptive_quadrature():
    # a gentle state, then the widest converged states at (D, N, lambda) =
    # (3, 16, 15), (5, 12, 40) and (10, 12, 80), with sup |u| = 8.8, 29.5
    # and 62.0: the solver's one fixed rule reaches quad's accuracy on
    # all of them, while 64 nodes miss by 1e-8 at D = 5 and 1.2e-5 at
    # D = 10, and 32 nodes by 9.1e-7 at D = 3
    states = [AxisymState(D=3, coeffs=[0.9, -0.3])] + [
        _widest_solution(*case)
        for case in ((3, 16, 15.0), (5, 12, 40.0), (10, 12, 80.0))]
    for state in states:
        D = state.D

        def density(t):
            return math.exp(-u_at(state, t)) * (1.0 - t * t) ** ((D - 3) / 2)

        z, _ = quad(density, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        a = zonal_moments(state)
        for n in range(1, min(state.N, 4) + 1):
            ref, _ = quad(lambda t: density(t) * zonal(D, 2 * n, t),
                          -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
            assert a[n - 1] == pytest.approx(ref / z, abs=1e-11)
        assert np.all(np.abs(a) <= 1.0)


def test_zonal_moments_truncation_handling():
    # more moments come from padding the state with zero modes
    state = AxisymState(D=3, coeffs=[0.5, 0.1])
    longer = zonal_moments(AxisymState(3, np.pad(state.coeffs, (0, 3))))
    assert longer.size == 5
    assert np.allclose(longer[:2], zonal_moments(state), atol=1e-14)


def test_residual_dimension_checks():
    with pytest.raises(ValueError):
        residual(AxisymState(4, [0.1]), SPEC3, 1.0)
    with pytest.raises(ValueError):
        residual(AxisymState(3, np.zeros(13)), SPEC3, 1.0)


def test_jacobian_at_trivial_is_diagonal():
    state = AxisymState(D=3, coeffs=np.zeros(6))
    lam = 4.0
    jac = jacobian(state, SPEC3, lam)
    expected = np.diag([lam * SPEC3.coeff(n) / harmonic_count(3, 2 * n)
                        for n in range(1, 7)])
    assert np.max(np.abs(jac - expected)) < 1e-10


@pytest.mark.parametrize("D", [3, 10, 343])
@pytest.mark.parametrize("N", [63, 64, 65, 128, 200])
def test_isotropic_jacobian_is_exact_at_every_truncation(D, N):
    # the rule grows with N, so the degree-4N products P_2m P_2n stay
    # exact: scaled by sqrt(N(D, 2m) N(D, 2n)) / (lam k), the isotropic
    # Jacobian is the identity.  A fixed 128-node rule has P_128 vanish
    # at every node, so the n = 64 diagonal entry read 0
    spec = build_kernel_spec(D, N, "custom", custom_coeffs=(1.0,) * N)
    lam = 2.0
    jac = jacobian(AxisymState(D, np.zeros(N)), spec, lam)
    scale = np.sqrt([float(harmonic_count(D, 2 * n))
                     for n in range(1, N + 1)])
    gram = jac / lam * np.outer(scale, scale)
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-13


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    state = AxisymState(D=3, coeffs=rng.uniform(-0.5, 0.5, size=5))
    lam = 6.0
    jac = jacobian(state, SPEC3, lam)
    h = 1e-6
    for n in range(5):
        bump = np.zeros(5)
        bump[n] = h
        plus = residual(AxisymState(3, state.coeffs + bump), SPEC3, lam)
        minus = residual(AxisymState(3, state.coeffs - bump), SPEC3, lam)
        # J is the Jacobian of lam G(u) = u - residual
        fd = np.eye(5)[:, n] - (plus - minus) / (2 * h)
        assert np.allclose(jac[:, n], fd, rtol=1e-6, atol=1e-8)


def test_fused_residual_matches_residual_bitwise():
    # Newton takes its residual from the fused pass; any difference in the
    # last bit would move the iterates and the multistart census
    rng = np.random.default_rng(11)
    for lam in (5.0, 12.0, 40.0):
        state = AxisymState(3, rng.uniform(-1.0, 1.0, size=12))
        res, _, _ = _fused_pass(SPEC3, lam, state.coeffs)
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
    assert state_norm(report.state.coeffs) < 1e-9


def test_solve_finds_nematic_solution():
    init = AxisymState(D=3, coeffs=[0.5] + [0.0] * 7)
    report = solve(SPEC3, 12.0, init)
    assert report.converged
    assert report.residual_norm <= 1e-10
    assert report.state.coeffs[0] > 0.5
    assert state_sup_norm(report.state) <= 12.0 * SPEC3.sup_norm_khat + 1e-8


def test_solve_singular_linearization():
    # pick lambda so that I - J is exactly 0 at the starting iterate
    # while the residual is still large: the Newton system has no solve
    init = AxisymState(D=3, coeffs=[0.3])
    spec1 = build_kernel_spec(3, 1, "custom", custom_coeffs=[SPEC3.coeff(1)])
    lam_star = 1.0 / jacobian(init, spec1, 1.0)[0, 0]
    assert 1.0 - jacobian(init, spec1, lam_star)[0, 0] == 0.0
    with pytest.raises(SingularLinearizationError):
        solve(spec1, lam_star, init)


def test_solve_steps_through_a_near_singular_start():
    # with the recurrence k_1 the same construction leaves I - J at
    # -2.2e-16, not 0, at a lambda that is no critical value
    # (lambda_1 = 10.19): the step is taken, and Newton lands on the
    # oblate root of the scalar equation u_1 = -lambda k_1 a_1(u_1)
    init = AxisymState(D=3, coeffs=[0.3])
    spec1 = build_kernel_spec(3, 1, "onsager-recurrence")
    lam = 11.21838206784395
    assert 0.0 < abs(1.0 - jacobian(init, spec1, lam)[0, 0]) <= 1e-15
    report = solve(spec1, lam, init)
    assert report.converged and report.iterations == 7
    assert report.state.coeffs[0] == -3.8453226826231952

    def a1(u):
        # P_2 moment of e^(-u P_2) in t = cos theta, even, on [0, 1]
        def p2(t):
            return (3 * t * t - 1) / 2

        z, m1 = (mpmath.quad(lambda t: mpmath.exp(-u * p2(t)) * p2(t) ** j,
                             [0, 1]) for j in range(2))
        return m1 / z

    with mpmath.workdps(40):
        lam_k1 = mpmath.mpf(lam) * mpmath.mpf(spec1.coeff(1))
        u1 = mpmath.findroot(lambda u: u + lam_k1 * a1(u), -3.8)
        assert abs(float(u1) - report.state.coeffs[0]) <= 1e-12


def test_multistart_census_and_determinism():
    census_a = multistart(SPEC3, 15.0, 25, seed=42, N=8)
    census_b = multistart(SPEC3, 15.0, 25, seed=42, N=8)
    assert len(census_a) == 3
    for ra, rb in zip(census_a, census_b):
        assert np.array_equal(ra.state.coeffs, rb.state.coeffs)
    norms = [state_norm(r.state.coeffs) for r in census_a]
    assert norms == sorted(norms)
    assert norms[0] == 0.0


def test_multistart_distinct_solutions_are_well_separated():
    census = multistart(SPEC3, 15.0, 25, seed=1, N=8)
    for i in range(len(census)):
        for j in range(i + 1, len(census)):
            dist = state_norm(census[i].state.coeffs
                              - census[j].state.coeffs)
            assert dist > 1e-3


def test_census_starts_are_pinned(monkeypatch):
    # start 1 of the README audit census (lambda = 15, seed 0, N = 16):
    # the first numbers of random.Random(0).random() taken to the box
    # |u_n| <= 15 pi/4; a change to the draw fails here and is declared
    seen = []
    newton = solver._newton

    def recording_newton(spec, lam, starts, tol, max_iter):
        seen.append(starts.copy())
        return newton(spec, lam, starts, tol, max_iter)

    monkeypatch.setattr(solver, "_newton", recording_newton)
    multistart(build_kernel_spec(3, 16, "onsager-recurrence"), 15.0, 30,
               seed=0, N=16)
    (starts,) = seen
    assert starts.shape == (30, 16)
    assert not starts[0].any()
    assert starts[1, :4].tolist() == [8.115248688651644, 6.077907429287965,
                                      -1.8714880361105095, -5.680390246373849]


def _census_entry_points(seed):
    """The census of SPEC3 at lambda = 15 with 6 starts at N = 4 through
    each public entry point that takes a seed."""
    return (censuses(SPEC3, [15.0], 6, [seed], N=4)[0][0],
            multistart(SPEC3, 15.0, 6, seed, N=4),
            degree_audit(SPEC3, 15.0, 6, seed, (4,)))


@pytest.mark.parametrize(("seed", "error", "match"), [
    # random.Random(-1) draws the stream of Random(1)
    (-1, ValueError, "seed must be >= 0, got -1"),
    # random.Random(3.0) would silently be Random(3)
    (2.5, TypeError, "integer"), (3.0, TypeError, "integer")],
    ids=["-1", "2.5", "3.0"])
def test_census_rejects_a_seed_that_is_not_a_nonnegative_integer(seed, error,
                                                                 match):
    with pytest.raises(error, match=match):
        censuses(SPEC3, [15.0], 6, [seed], N=4)
    with pytest.raises(error, match=match):
        multistart(SPEC3, 15.0, 6, seed, N=4)
    with pytest.raises(error, match=match):
        degree_audit(SPEC3, 15.0, 6, seed, (4,))


def test_census_takes_a_numpy_integer_seed():
    # random.Random rejects np.int64 itself; the census reads its value
    for got, expected in zip(_census_entry_points(np.int64(3)),
                             _census_entry_points(3), strict=True):
        assert len(got) == len(expected) >= 1
        for a, b in zip(got, expected):
            assert np.array_equal(a.state.coeffs, b.state.coeffs)
