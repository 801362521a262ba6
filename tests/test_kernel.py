import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from onsager.errors import AccuracyError, ValidationError
from onsager.kernel import (
    KernelSpec,
    build_kernel_spec,
    coeff_by_quadrature,
    coeff_by_recurrence,
    coeff_ratio,
    khat_eval,
    mean_value,
    onsager_mean,
    sup_norm,
    tail_bound,
)
from onsager.polybasis import harmonic_count


def test_k1_closed_forms():
    assert coeff_by_quadrature(3, 1) == pytest.approx(5 * math.pi / 32,
                                                      rel=1e-13)
    assert coeff_by_quadrature(4, 1) == pytest.approx(8 / (5 * math.pi),
                                                      rel=1e-13)


def test_k2_closed_form_d3():
    # k_2 = k_1 * (9/40) = 9 pi / 256 for D = 3
    assert coeff_by_quadrature(3, 2) == pytest.approx(9 * math.pi / 256,
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
    for n in range(1, 12):
        ratio = coeff_by_quadrature(D, n + 1) / coeff_by_quadrature(D, n)
        assert coeff_ratio(D, n) == pytest.approx(ratio, rel=1e-9)
        assert 0.0 < coeff_ratio(D, n) < 1.0


def test_coeff_quadrature_matches_adaptive_integration():
    # independent check of the defining integral for a few coefficients
    from onsager.polybasis import harmonic_count, legendre_eval, surface_area
    for D, n in ((3, 1), (3, 3), (4, 2)):
        prefac = -surface_area(D - 1) * harmonic_count(D, 2 * n) \
            / surface_area(D)

        def integrand(t):
            return (1 - t * t) ** ((D - 2) / 2) * legendre_eval(D, 2 * n, t)

        ref, _ = quad(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert coeff_by_quadrature(D, n) == pytest.approx(prefac * ref,
                                                          rel=1e-10)


def test_recurrence_chain():
    coeffs = coeff_by_recurrence(3, 10)
    assert len(coeffs) == 10
    for n in range(1, 11):
        assert coeffs[n - 1] == pytest.approx(coeff_by_quadrature(3, n),
                                              rel=1e-9)


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
    # the two quadrature orders differ by 2.4e-12 at D = 7, n = 25, far
    # below k_25 = 1.4e-3 but above an absolute 1e-12
    assert coeff_by_quadrature(7, 25) == pytest.approx(
        coeff_by_recurrence(7, 25)[-1], rel=1e-6)
    # at D = 10, n = 100 the orders differ by 7.9e-5 relative
    with pytest.raises(AccuracyError):
        coeff_by_quadrature(10, 100)


def test_recurrence_validation():
    with pytest.raises(ValueError):
        coeff_by_recurrence(3, 0)


@pytest.mark.parametrize("source", ["onsager-quadrature",
                                    "onsager-recurrence"])
def test_build_kernel_spec_onsager(source):
    spec = build_kernel_spec(3, 8, source)
    assert spec.k0 == pytest.approx(math.pi / 4, rel=1e-12)
    assert spec.sup_norm_khat == pytest.approx(math.pi / 4, rel=1e-12)
    assert np.all(spec.coeffs > 0)
    assert np.all(np.diff(spec.coeffs) < 0)


def test_sup_norm_is_max_of_profile_range():
    # |sin| - k0 ranges over [-k0, 1 - k0]; for D = 3 the max is k0 = pi/4
    spec = build_kernel_spec(3, 6, "onsager-quadrature")
    assert sup_norm(spec) == pytest.approx(math.pi / 4, rel=1e-14)


def test_custom_spec_and_validation():
    spec = build_kernel_spec(3, 2, "custom", custom_coeffs=[1.0, 0.5],
                             validate=True)
    assert spec.k0 == 0.0
    with pytest.raises(ValidationError) as err:
        build_kernel_spec(3, 2, "custom", custom_coeffs=[1.0, -0.5],
                          validate=True)
    assert err.value.index == 2
    with pytest.raises(ValidationError):
        build_kernel_spec(3, 2, "custom", custom_coeffs=[0.5, 1.0],
                          validate=True)
    with pytest.raises(ValueError):
        build_kernel_spec(3, 2, "custom")
    with pytest.raises(ValueError):
        build_kernel_spec(3, 2, "onsager-quadrature", custom_coeffs=[1.0])


def test_custom_single_mode_sup_norm():
    # k_1 P_2 attains |P_2| = 1 at the poles
    spec = build_kernel_spec(3, 1, "custom", custom_coeffs=[1.0])
    assert sup_norm(spec) == pytest.approx(1.0, rel=1e-10)


def test_khat_eval_matches_profile():
    spec = build_kernel_spec(3, 64, "onsager-quadrature")
    # convergence is slow at the poles (square-root singularity in
    # t = cos gamma), so the pointwise check stays in the interior
    gamma = np.linspace(0.2, math.pi - 0.2, 101)
    truncated = khat_eval(spec, gamma)
    exact = np.abs(np.sin(gamma)) - math.pi / 4
    assert np.max(np.abs(truncated - exact)) < 1e-3
    assert isinstance(khat_eval(spec, 0.5), float)
    with pytest.raises(ValueError):
        khat_eval(spec, -0.1)


def test_spec_json_round_trip():
    spec = build_kernel_spec(4, 5, "onsager-recurrence")
    restored = KernelSpec.from_json(spec.to_json())
    assert restored.D == spec.D
    assert restored.n_max == spec.n_max
    assert restored.source == spec.source
    assert restored.k0 == spec.k0
    assert restored.sup_norm_khat == spec.sup_norm_khat
    assert np.array_equal(restored.coeffs, spec.coeffs)
    data = json.loads(spec.to_json())
    assert set(data) == {"dim", "n_max", "source", "k0", "coeffs",
                         "sup_norm_khat"}


def test_spec_field_validation():
    with pytest.raises(ValidationError):
        KernelSpec(D=3, n_max=2, coeffs=np.array([1.0]), k0=0.0,
                   sup_norm_khat=1.0, source="custom")
    with pytest.raises(ValidationError):
        KernelSpec(D=3, n_max=1, coeffs=np.array([np.inf]), k0=0.0,
                   sup_norm_khat=1.0, source="custom")
    with pytest.raises(ValidationError):
        KernelSpec(D=3, n_max=1, coeffs=np.array([1.0]), k0=0.0,
                   sup_norm_khat=1.0, source="bogus")


def test_spec_rejects_negative_coefficients():
    # k_n >= 0 is what makes the Jacobian's spectrum symmetric and the
    # dynamics step a convex splitting; zero stays allowed
    KernelSpec(D=3, n_max=3, coeffs=np.array([1.0, 0.0, 0.5]), k0=0.0,
               sup_norm_khat=1.0, source="custom")
    with pytest.raises(ValidationError) as err:
        KernelSpec(D=3, n_max=3, coeffs=np.array([1.0, 0.5, -1e-300]),
                   k0=0.0, sup_norm_khat=1.0, source="custom")
    assert err.value.index == 3
    data = build_kernel_spec(4, 5, "onsager-recurrence").to_json_dict()
    data["coeffs"][1] = -data["coeffs"][1]
    with pytest.raises(ValidationError) as err:
        KernelSpec.from_json_dict(data)
    assert err.value.index == 2
    with pytest.raises(ValidationError) as err:
        build_kernel_spec(3, 2, "custom", custom_coeffs=[-1.0, 0.5])
    assert err.value.index == 1


def test_tail_bound_dominates_true_tail():
    long_spec = build_kernel_spec(3, 80, "onsager-recurrence")
    for n_max in (4, 8, 16):
        short = build_kernel_spec(3, n_max, "onsager-recurrence")
        true_tail = float(long_spec.coeffs[n_max:].sum())
        bound = tail_bound(short)
        assert bound >= true_tail
        assert bound < 10 * true_tail + 1e-3  # not wildly loose


def test_tail_bound_custom_is_zero():
    spec = build_kernel_spec(3, 3, "custom", custom_coeffs=[1.0, 0.5, 0.2])
    assert tail_bound(spec) == 0.0


def test_coeffs_are_read_only():
    spec = build_kernel_spec(3, 4, "onsager-quadrature")
    with pytest.raises(ValueError):
        spec.coeffs[0] = 0.0
