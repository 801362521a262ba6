import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from integral_oracle import mean_value
from pointwise_oracle import khat_eval, zonal
from scipy.integrate import quad

from onsager.bifurcation import uniqueness_thresholds
from onsager.errors import AccuracyError, ValidationError
from onsager.kernel import (
    QUAD_RTOL,
    KernelSpec,
    build_kernel_spec,
    coeff_by_quadrature,
    coeff_by_recurrence,
    coeff_ratio,
    onsager_mean,
    tail_bound,
)
from onsager.polybasis import MAX_DIM, harmonic_count, legendre_table


def test_k1_closed_forms():
    assert coeff_by_quadrature(3, 1)[0] == pytest.approx(5 * math.pi / 32,
                                                         rel=1e-13)
    assert coeff_by_quadrature(4, 1)[0] == pytest.approx(8 / (5 * math.pi),
                                                         rel=1e-13)


def test_k2_closed_form_d3():
    # k_2 = k_1 * (9/40) = 9 pi / 256 for D = 3
    assert coeff_by_quadrature(3, 2)[1] == pytest.approx(9 * math.pi / 256,
                                                         rel=1e-12)
    assert coeff_ratio(3, 1) == pytest.approx(9 / 40, rel=1e-15)


def test_onsager_mean_closed_forms():
    assert onsager_mean(3) == pytest.approx(math.pi / 4, rel=1e-14)
    assert onsager_mean(4) == pytest.approx(8 / (3 * math.pi), rel=1e-14)


@pytest.mark.parametrize("D", [5, 10, 200, 343])
def test_onsager_mean_matches_gamma_reference(D):
    # Gamma(D/2)^2 overflows a double from D = 199 on; the mean does not
    with mpmath.workdps(40):
        d = mpmath.mpf(D)
        ref = mpmath.gamma(d / 2) ** 2 / (mpmath.gamma((d - 1) / 2)
                                          * mpmath.gamma((d + 1) / 2))
        assert abs(onsager_mean(D) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("D", [3, 4, 5])
def test_mean_value_matches_closed_form(D):
    got = mean_value(lambda g: np.abs(np.sin(g)), D)
    assert got == pytest.approx(onsager_mean(D), rel=1e-11)


def test_mean_value_rejects_non_finite_profiles():
    with pytest.raises(ValidationError):
        mean_value(lambda g: np.full_like(g, np.nan), 3)


def test_mean_value_accuracy_error_for_rough_profile():
    rng = np.random.default_rng(0)
    with pytest.raises(AccuracyError):
        mean_value(lambda g: rng.standard_normal(g.shape), 3,
                   tol=1e-14, max_points=4096)


@pytest.mark.parametrize("D", [3, 4, 5, 7])
def test_ratio_matches_quadrature(D):
    table = coeff_by_quadrature(D, 12)
    for n in range(1, 12):
        ratio = table[n] / table[n - 1]
        assert coeff_ratio(D, n) == pytest.approx(ratio, rel=1e-9)
        assert 0.0 < coeff_ratio(D, n) < 1.0


def test_coeff_quadrature_matches_adaptive_integration():
    # independent check of the defining integral for a few coefficients
    from onsager.polybasis import surface_area
    for D, n in ((3, 1), (3, 3), (4, 2)):
        prefac = -surface_area(D - 1) * harmonic_count(D, 2 * n) \
            / surface_area(D)

        def integrand(t):
            return (1 - t * t) ** ((D - 2) / 2) * zonal(D, 2 * n, t)

        ref, _ = quad(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert coeff_by_quadrature(D, n)[-1] == pytest.approx(prefac * ref,
                                                              rel=1e-10)


def test_recurrence_chain():
    coeffs = coeff_by_recurrence(3, 10)
    assert len(coeffs) == 10
    quadrature = coeff_by_quadrature(3, 10)
    for n in range(1, 11):
        assert coeffs[n - 1] == pytest.approx(quadrature[n - 1], rel=1e-9)


def _gamma_product_reference(D, n):
    """k_n to 40 digits: k_1 from its Beta-function closed form times
    (4n+D-2)/(D+2) and the Gamma ratios that the ratio product of
    coeff_ratio telescopes to."""
    with mpmath.workdps(40):
        g, half, d = mpmath.gamma, mpmath.mpf(1) / 2, mpmath.mpf(D)

        def sigma(m):
            return 2 * mpmath.pi ** (m / 2) / g(m / 2)

        k1 = (-(sigma(d - 1) * harmonic_count(D, 2) / sigma(d))
              * (d * mpmath.beta(3 * half, d / 2) - mpmath.beta(half, d / 2))
              / (d - 1))
        return (k1 * (4 * n + d - 2) / (d + 2)
                * g(n - half) * g(n + d / 2 - 1) * g((d + 3) / 2)
                / (g(half) * g(n + 1) * g(d / 2) * g(n + (d + 1) / 2)))


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10])
def test_recurrence_matches_gamma_product_reference(D):
    # n past 8.3e5 would overflow an int64 ratio product
    indices = (1, 2, 10, 50, 200, 400, 1_000_001)
    table = coeff_by_recurrence(D, max(indices))
    for n in indices:
        ref = _gamma_product_reference(D, n)
        assert abs(table[n - 1] - ref) <= 1e-14 * abs(ref), n


def test_quadrature_guard_is_relative():
    # at D = 10 the two quadrature orders differ by up to 1.5e-11 for
    # n <= 25, far below k_25 = 1.6e-3 but above an absolute 1e-12
    assert coeff_by_quadrature(10, 25)[-1] == pytest.approx(
        coeff_by_recurrence(10, 25)[-1], rel=1e-6)
    # at D = 10, n_max = 100 they differ by up to 6.0e-5 relative; the
    # error names the first n past QUAD_RTOL
    with pytest.raises(AccuracyError, match=r"k_59 \(D=10\)") as err:
        coeff_by_quadrature(10, 100)
    assert err.value.achieved > QUAD_RTOL * coeff_by_recurrence(10, 59)[-1]


def test_quadrature_table_matches_recurrence_to_n_400():
    # one rule pair for the whole table; its rounding stays below 2.5e-8
    # relative at D = 3
    quadrature = coeff_by_quadrature(3, 400)
    recurrence = coeff_by_recurrence(3, 400)
    assert quadrature.shape == (400,)
    assert np.max(np.abs(quadrature - recurrence) / recurrence) <= 1e-7


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10])
def test_quadrature_table_prefix_is_independent_of_n_max(D):
    # a longer table uses a larger rule; its first entries agree to
    # rounding
    long, short = coeff_by_quadrature(D, 30), coeff_by_quadrature(D, 12)
    np.testing.assert_allclose(long[:12], short, rtol=1e-9, atol=0)


def test_recurrence_validation():
    with pytest.raises(ValueError):
        coeff_by_recurrence(3, 0)


@pytest.mark.parametrize("source", ["onsager-quadrature",
                                    "onsager-recurrence"])
def test_build_kernel_spec_onsager(source):
    spec = build_kernel_spec(3, 8, source)
    assert spec.k0 == pytest.approx(math.pi / 4, rel=1e-12)
    assert spec.sup_norm_khat == pytest.approx(math.pi / 4, rel=1e-12)
    coeffs = np.asarray(spec.coeffs)
    assert np.all(coeffs > 0)
    assert np.all(np.diff(coeffs) < 0)


def test_sup_norm_is_max_of_profile_range():
    # |sin| - k0 ranges over [-k0, 1 - k0]; for D = 3 the max is k0 = pi/4
    spec = build_kernel_spec(3, 6, "onsager-quadrature")
    assert spec.sup_norm_khat == pytest.approx(math.pi / 4, rel=1e-14)


def test_custom_spec_and_validation():
    spec = build_kernel_spec(3, 2, "custom", custom_coeffs=[1.0, 0.5])
    assert spec.k0 == 0.0
    assert spec.n_max == 2
    with pytest.raises(ValidationError) as err:
        build_kernel_spec(3, 2, "custom", custom_coeffs=[1.0, -0.5])
    assert err.value.index == 2
    with pytest.raises(ValueError):
        build_kernel_spec(3, 2, "custom", custom_coeffs=[1.0])
    with pytest.raises(ValueError):
        build_kernel_spec(3, 2, "custom")
    with pytest.raises(ValueError):
        build_kernel_spec(3, 2, "onsager-quadrature", custom_coeffs=[1.0])


def test_custom_single_mode_sup_norm():
    # k_1 P_2 attains |P_2| = 1 at the poles
    spec = build_kernel_spec(3, 1, "custom", custom_coeffs=[1.0])
    assert spec.sup_norm_khat == 1.0


def _sampled_sup(D, coeffs, samples=4096):
    """max of |sum_n k_n P_2n(D, cos gamma)| over an even grid of gamma
    in [0, pi], gamma = 0 included."""
    gamma = np.linspace(0.0, math.pi, samples)
    table = legendre_table(D, 2 * len(coeffs), np.cos(gamma))
    return float(np.max(np.abs(coeffs @ table[2::2])))


@pytest.mark.parametrize("D", [3, 4, 7, 10, 343])
def test_custom_sup_norm_is_coefficient_sum(D):
    # every k_n >= 0 and |P_2n(D, t)| <= 1 = P_2n(D, 1), so the series
    # peaks at gamma = 0 with the value sum_n k_n
    rng = np.random.default_rng(D)
    for trial in range(20):
        n_max = int(rng.integers(1, 17))
        coeffs = rng.uniform(0.0, 2.0, n_max)
        coeffs[rng.random(n_max) < 0.3] = 0.0
        if trial == 0:
            coeffs[:] = 0.0
        spec = build_kernel_spec(D, n_max, "custom", custom_coeffs=coeffs)
        sampled = _sampled_sup(D, spec.coeffs)
        assert spec.sup_norm_khat == pytest.approx(sampled, rel=1e-14,
                                                   abs=0.0)
        # no sample exceeds it beyond the few units in the last place of
        # the sampled sum's own rounding
        assert sampled <= spec.sup_norm_khat * (1 + 8 * np.finfo(float).eps)


def test_khat_eval_matches_profile():
    spec = build_kernel_spec(3, 64, "onsager-quadrature")
    # convergence is slow at the poles (square-root singularity in
    # t = cos gamma), so the pointwise check stays in the interior
    gamma = np.linspace(0.2, math.pi - 0.2, 101)
    truncated = khat_eval(spec, gamma)
    exact = np.abs(np.sin(gamma)) - math.pi / 4
    assert np.max(np.abs(truncated - exact)) < 1e-3


def test_spec_field_validation():
    one = np.array([1.0])
    for bad_call in (
            lambda: KernelSpec(D=3, coeffs=np.array([]), k0=0.0,
                               source="custom"),
            lambda: KernelSpec(D=3, coeffs=np.array([np.inf]), k0=0.0,
                               source="custom"),
            lambda: KernelSpec(D=3, coeffs=np.ones((2, 1)), k0=0.0,
                               source="custom"),
            lambda: KernelSpec(D=3, coeffs=[[1.0]], k0=0.0, source="custom"),
            lambda: KernelSpec(D=3, coeffs=1.0, k0=0.0, source="custom"),
            lambda: KernelSpec(D=3, coeffs="12", k0=0.0, source="custom"),
            lambda: KernelSpec(D=3, coeffs=one, k0=0.0, source="bogus"),
            lambda: KernelSpec(D=2, coeffs=one, k0=0.0, source="custom"),
            lambda: KernelSpec(D=1000, coeffs=one, k0=0.0, source="custom"),
            lambda: KernelSpec(D=MAX_DIM + 1, coeffs=one, k0=0.0,
                               source="custom"),
            lambda: KernelSpec(D=3, coeffs=one, k0=-0.1, source="custom"),
            lambda: KernelSpec(D=3, coeffs=one, k0=math.nan,
                               source="custom"),
            lambda: build_kernel_spec(2, 2, "custom",
                                      custom_coeffs=[1.0, 0.5])):
        with pytest.raises(ValidationError):
            bad_call()
    spec = KernelSpec(D=MAX_DIM, coeffs=one, k0=0.0, source="custom")
    assert (spec.n_max, spec.sup_norm_khat) == (1, 1.0)


def test_spec_rejects_negative_coefficients():
    # k_n >= 0 is what makes the Jacobian's spectrum symmetric and the
    # dynamics step a convex splitting; zero stays allowed
    KernelSpec(D=3, coeffs=np.array([1.0, 0.0, 0.5]), k0=0.0,
               source="custom")
    with pytest.raises(ValidationError) as err:
        KernelSpec(D=3, coeffs=np.array([1.0, 0.5, -1e-300]), k0=0.0,
                   source="custom")
    assert err.value.index == 3
    spec = build_kernel_spec(4, 5, "onsager-recurrence")
    coeffs = np.array(spec.coeffs)
    coeffs[1] = -coeffs[1]
    with pytest.raises(ValidationError) as err:
        KernelSpec(D=4, coeffs=coeffs, k0=spec.k0, source=spec.source)
    assert err.value.index == 2
    with pytest.raises(ValidationError) as err:
        build_kernel_spec(3, 2, "custom", custom_coeffs=[-1.0, 0.5])
    assert err.value.index == 1


def test_tail_bound_dominates_true_tail():
    long_spec = build_kernel_spec(3, 80, "onsager-recurrence")
    for n_max in (4, 8, 16):
        short = build_kernel_spec(3, n_max, "onsager-recurrence")
        true_tail = float(np.asarray(long_spec.coeffs)[n_max:].sum())
        bound = tail_bound(short)
        assert bound >= true_tail
        assert bound < 10 * true_tail + 1e-3  # not wildly loose


# Explicit sums of the closed-form table up to M, beyond which the tail is
# at most 2 k_M M (the ratio is below (m/(m+1))^1.5 there)
_TAIL_CUTOFF = 200_000


@lru_cache(maxsize=None)
def _long_table(D):
    return coeff_by_recurrence(D, _TAIL_CUTOFF)


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10, 343])
@pytest.mark.parametrize("n_max", [1, 4, 16, 64, 600])
def test_tail_bound_brackets_the_explicit_tail(D, n_max):
    # the tail from sum_n k_n = k0 lies between the explicit sum to M and
    # that sum plus the comparison bound on the rest
    table = _long_table(D)
    spec = build_kernel_spec(D, n_max, "onsager-recurrence")
    explicit = math.fsum(table[n_max:])
    bound = tail_bound(spec)
    assert explicit <= bound <= explicit + 2 * table[-1] * _TAIL_CUTOFF
    # so lambda_0's conservative end is 1/k0 to rounding, never above it;
    # at D = 343, n_max = 600 the critical values overflow a double
    if (D, n_max) == (343, 600):
        with pytest.raises(OverflowError):
            uniqueness_thresholds(spec)
        return
    lower = uniqueness_thresholds(spec).lambda_0_interval[0]
    assert lower <= 1 / onsager_mean(D)
    assert lower == pytest.approx(1 / onsager_mean(D), rel=1e-12, abs=0.0)


def test_tail_bound_custom_is_zero():
    spec = build_kernel_spec(3, 3, "custom", custom_coeffs=[1.0, 0.5, 0.2])
    assert tail_bound(spec) == 0.0


def test_kernel_spec_compares_and_hashes_by_value():
    a = build_kernel_spec(3, 4, "onsager-recurrence")
    b = build_kernel_spec(3, 4, "onsager-recurrence")
    assert a == b and hash(a) == hash(b)
    assert a != build_kernel_spec(3, 5, "onsager-recurrence")
    assert a != build_kernel_spec(3, 4, "onsager-quadrature")
    assert len({a, b}) == 1


def test_coeffs_are_read_only():
    spec = build_kernel_spec(3, 4, "onsager-quadrature")
    with pytest.raises(TypeError):
        spec.coeffs[0] = 0.0
