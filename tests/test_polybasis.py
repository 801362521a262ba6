import math
import warnings

import mpmath
import numpy as np
import pytest
from integral_oracle import weighted_integral
from scipy.integrate import quad
from scipy.special import (
    eval_gegenbauer,
    eval_legendre,
    roots_jacobi,
    roots_legendre,
)

from onsager.errors import AccuracyError
from onsager.polybasis import (
    harmonic_count,
    legendre_table,
    surface_area,
    zonal_rule,
)


@pytest.mark.parametrize("D, n, expected", [
    (3, 0, 1), (3, 1, 3), (3, 2, 5), (3, 4, 9),   # 2n + 1 for D = 3
    (4, 2, 9), (4, 4, 25),                        # (n + 1)^2 for D = 4
    (5, 2, 14),
])
def test_harmonic_count_small_values(D, n, expected):
    assert harmonic_count(D, n) == expected


def test_harmonic_count_exact_integers():
    # exact integer arithmetic must survive large arguments
    value = harmonic_count(30, 40)
    assert isinstance(value, int)
    # cross-check against the difference of binomial counts
    dim = math.comb(40 + 29, 29) - math.comb(38 + 29, 29)
    assert value == dim


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10, 50, 343])
def test_harmonic_count_is_the_difference_of_binomial_counts(D):
    # N(D, n) = dim of degree-n polynomials in D variables minus those of
    # degree n - 2: an independent form, up to the large tables thresholds
    # builds (n = 2 nmax)
    for n in [*range(301), 1000, 2001, 8000]:
        assert harmonic_count(D, n) == (math.comb(n + D - 1, D - 1)
                                        - math.comb(n + D - 3, D - 1)), n


@pytest.mark.parametrize("D, expected", [
    (2, 2 * math.pi),
    (3, 4 * math.pi),
    (4, 2 * math.pi ** 2),
])
def test_surface_area_closed_forms(D, expected):
    assert surface_area(D) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad_call", [
    lambda: harmonic_count(2, 1),
    lambda: harmonic_count(3, -1),
    lambda: surface_area(1),
    lambda: legendre_table(2, 1, np.array([0.5])),
    lambda: legendre_table(3, -2, np.array([0.5])),
    lambda: zonal_rule(3, 0),
    lambda: zonal_rule(2, 8),
    lambda: legendre_table(2, 3, np.array([0.5])),
    lambda: legendre_table(3, -1, np.array([0.5])),
])
def test_input_validation(bad_call):
    with pytest.raises(ValueError):
        bad_call()


def test_gegenbauer_matches_scipy():
    # P_n(D, t) C_n^alpha(1) is the raw Gegenbauer polynomial C_n^alpha(t)
    t = np.linspace(-1.0, 1.0, 31)
    for D in (3, 4, 5, 7):
        alpha = (D - 2) / 2
        table = legendre_table(D, 8, t)
        assert table.shape == (9, t.size)
        for n in range(0, 9):
            ours = table[n] * eval_gegenbauer(n, alpha, 1.0)
            ref = eval_gegenbauer(n, alpha, t)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_legendre_reduces_to_classical_for_d3():
    t = np.linspace(-1.0, 1.0, 41)
    table = legendre_table(3, 8, t)
    for n in range(9):
        assert np.allclose(table[n], eval_legendre(n, t),
                           rtol=1e-12, atol=1e-12)


def test_legendre_normalization_and_bound():
    t = np.linspace(-1.0, 1.0, 201)
    for D in (3, 4, 5):
        table = legendre_table(D, 11, t)
        for n in range(12):
            assert table[n, -1] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(table[n])) <= 1.0 + 1e-12


def _mp_rows(D, n, x):
    """P_0..P_n(D, x) by the normalized recurrence in mpmath."""
    rows = [mpmath.mpf(1), x]
    for k in range(1, n):
        rows.append(((2 * k + D - 2) * x * rows[-1] - k * rows[-2])
                    / (k + D - 2))
    return rows[:n + 1]


def test_legendre_table_stays_finite_past_degree_1000_at_dim_343():
    # C_k^(341/2)(1) passes the largest double from degree about 1000;
    # the normalized rows stay within [-1, 1], without a warning, and
    # match the 40-digit recurrence
    t = np.concatenate([np.linspace(-1.0, 1.0, 41), zonal_rule(344, 64)[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = legendre_table(343, 1200, t)
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table)) <= 1.0
    # P_k(D, +-1) = (+-1)^k, exactly
    assert np.array_equal(table[:, 40], np.ones(1201))
    assert np.array_equal(table[:, 0], (-1.0) ** np.arange(1201))
    with mpmath.workdps(40):
        for j in (1, 10, 20, 21, 39, 41, 72):
            ref = [float(r) for r in _mp_rows(343, 1200, mpmath.mpf(t[j]))]
            assert np.max(np.abs(table[:, j] - ref)) <= 1e-13, t[j]


def test_legendre_table_matches_mpmath_legendre_at_degree_400():
    t = np.linspace(-1.0, 1.0, 41)
    table = legendre_table(3, 400, t)
    with mpmath.workdps(40):
        for k in (1, 2, 57, 200, 399, 400):
            ref = [float(mpmath.legendre(k, mpmath.mpf(x))) for x in t]
            assert np.max(np.abs(table[k] - ref)) <= 1e-13, k


def test_domain_check():
    with pytest.raises(ValueError):
        legendre_table(3, 2, np.array([1.0 + 1e-9]))


def test_quadrature_rule_structure():
    nodes, weights = zonal_rule(3, 24)
    assert len(nodes) == 24
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(2.0, rel=1e-14)


def test_quadrature_exactness_degree():
    nodes, weights = zonal_rule(3, 12)
    for k in range(0, 24, 2):
        exact = 2.0 / (k + 1)
        got = float(np.dot(weights, nodes ** k))
        assert got == pytest.approx(exact, rel=1e-13)


# D = 344 is the rule behind the kernel integrals at D = 343
RULE_DIMS = (3, 4, 5, 7, 10, 50, 343, 344)


def _check_against_scipy(D, order, weight_tol):
    nodes, weights = zonal_rule(D, order)
    expo = (D - 3) / 2
    ref_nodes, ref_weights = (roots_legendre(order) if D == 3
                              else roots_jacobi(order, expo, expo))
    assert np.max(np.abs(nodes - ref_nodes)) <= 4e-16
    assert (np.max(np.abs(weights - ref_weights))
            <= weight_tol * np.max(ref_weights))
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    if order % 2:
        assert nodes[order // 2] == 0.0
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("D", RULE_DIMS)
@pytest.mark.parametrize("order", [1, 2, 3, 8, 127, 128, 129, 424])
def test_zonal_rule_matches_scipy_gauss_rules(D, order):
    # bracketed Newton on the recurrence against scipy's Gauss-Legendre
    # (D = 3) and Gauss-Jacobi rules
    _check_against_scipy(D, order, 1e-11)


@pytest.mark.parametrize("D, order", [
    # the zeros crowd near t = 0 within about 1/sqrt(D): the bracketing
    # grid must refine
    *((D, order) for D in (100, 343, 344) for order in range(2, 17)),
    # scipy's order-1041 rule is NaN from D = 343 on, and its weights are
    # 2.7e-11 of the largest from the 40-digit Christoffel numbers at
    # D = 3 (ours are within 5e-13 of them, see below)
    *((D, 1041) for D in RULE_DIMS if D < 343),
])
def test_zonal_rule_matches_scipy_at_crowded_zeros_and_order_1041(D, order):
    _check_against_scipy(D, order, 1e-11 if order < 1041 else 1e-10)


@pytest.mark.parametrize("D, order", [(3, 128), (4, 208), (4, 224),
                                      (344, 257), (343, 1041), (5, 129)])
def test_zonal_rule_calls_no_linalg_routine(monkeypatch, D, order):
    # the nodes are the zeros of P_order(D, t), bracketed and polished on
    # the recurrence: no eigensolve of the order x order Jacobi matrix
    def refuse(*args, **kwargs):
        raise AssertionError("zonal_rule called numpy.linalg")

    for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    zonal_rule.cache_clear()
    nodes, weights = zonal_rule(D, order)
    assert nodes.size == order and np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)


def test_zonal_rule_raises_where_it_cannot_bracket():
    # at D = 10^9 the zeros of P_2 lie at +-3.2e-5, closer to 0 than any
    # cell midpoint of the finest bracketing grid
    with pytest.raises(AccuracyError):
        zonal_rule(10 ** 9, 2)


@pytest.mark.parametrize("D", RULE_DIMS)
@pytest.mark.parametrize("order", [1, 2, 8, 128])
def test_zonal_rule_integrates_even_monomials(D, order):
    # int t^(2m) (1 - t^2)^((D-3)/2) dt = B(m + 1/2, (D-1)/2), exact for
    # 2m <= 2 order - 1
    nodes, weights = zonal_rule(D, order)
    with mpmath.workdps(30):
        for m in range(order):
            exact = mpmath.beta(m + mpmath.mpf(1) / 2,
                                mpmath.mpf(D - 1) / 2)
            got = float(np.dot(weights, nodes ** (2 * m)))
            assert abs(got - exact) <= 1e-13 * exact, m


@pytest.mark.parametrize("D, order", [(3, 128), (4, 208), (4, 224),
                                      (10, 129), (343, 257), (344, 257),
                                      (3, 1041), (343, 1041)])
def test_zonal_rule_matches_the_40_digit_christoffel_numbers(D, order):
    # each node polished in 40-digit mpmath by Newton's method on the
    # recurrence, its weight mu_0 / sum_(k<order) N(D, k) P_k^2 there
    nodes, weights = zonal_rule(D, order)
    with mpmath.workdps(40):
        mu0 = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(D - 1) / 2)
        # the extreme nodes, where the weights are most sensitive, and a
        # sample of the interior ones
        for i in [*range(6), *range(6, order // 2 + 1, 17)]:
            x = mpmath.mpf(nodes[i])
            for _ in range(3):
                rows = _mp_rows(D, order, x)
                x -= ((1 - x * x) * rows[order]
                      / (order * (rows[order - 1] - x * rows[order])))
            rows = _mp_rows(D, order, x)
            weight = mu0 / sum(harmonic_count(D, k) * rows[k] ** 2
                               for k in range(order))
            assert abs(nodes[i] - x) <= 2 ** -53, i
            assert abs(weights[i] - weight) <= 5e-13 * weight, i


def test_weighted_integral_closed_forms():
    # D = 3: flat weight
    assert weighted_integral(lambda t: t ** 2, 3, 64) == pytest.approx(
        2.0 / 3.0, rel=1e-13)
    # D = 4: semicircle weight, area pi/2
    assert weighted_integral(lambda t: 1.0, 4, 64) == pytest.approx(
        math.pi / 2.0, rel=1e-12)
    # D = 5: int (1 - t^2) dt = 4/3
    assert weighted_integral(lambda t: 1.0, 5, 64) == pytest.approx(
        4.0 / 3.0, rel=1e-13)


def test_weighted_integral_matches_adaptive_quadrature():
    for D in (3, 4, 6):
        expo = (D - 3) / 2

        def integrand(t):
            return math.exp(-t) * (1 - t * t) ** expo

        ref, _ = quad(integrand, -1.0, 1.0)
        got = weighted_integral(lambda t: np.exp(-t), D, 64)
        assert got == pytest.approx(ref, rel=1e-10)


def test_zonal_norm_identity():
    # int_0^pi P_n(D, cos)^2 sin^(D-2) = sigma_D / (sigma_(D-1) N(D, n)),
    # exact on the 256-node rule up to degree 255
    for D in (3, 4, 5, 10, 343):
        nodes, weights = zonal_rule(D, 256)
        table = legendre_table(D, 200, nodes)
        for n in range(201):
            got = float(np.dot(weights, table[n] ** 2))
            expected = surface_area(D) / (surface_area(D - 1)
                                          * harmonic_count(D, n))
            assert got == pytest.approx(expected, rel=1e-12), (D, n)


def test_zonal_orthogonality():
    # the Gram matrix of P_0..P_200, scaled to a unit diagonal
    for D in (3, 4, 10, 343):
        nodes, weights = zonal_rule(D, 256)
        table = legendre_table(D, 200, nodes)
        gram = table @ (weights[:, None] * table.T)
        scale = np.sqrt(np.diag(gram))
        off = gram / np.outer(scale, scale) - np.eye(201)
        assert np.max(np.abs(off)) < 1e-12, D
