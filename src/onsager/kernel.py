"""Interaction-kernel coefficient tables for the rod-rod potential on
S^(D-1): the even-zonal expansion coefficients k_n, the kernel mean and the
sup norm of the mean-zero part."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ValidationError
from .polybasis import (
    MAX_DIM,
    harmonic_count,
    legendre_table,
    surface_area,
    zonal_rule,
)

__all__ = [
    "KernelSpec",
    "SOURCES",
    "onsager_mean",
    "coeff_ratio",
    "coeff_by_quadrature",
    "coeff_by_recurrence",
    "build_kernel_spec",
    "tail_bound",
]

SOURCES = ("onsager-quadrature", "onsager-recurrence", "custom")

# Largest gap allowed between the two Gauss-Jacobi orders of
# coeff_by_quadrature, relative to k_n.  The gap is rounding in the rule's
# sum and grows with n and D: at D = 3 it stays below 4e-8 up to n = 400
# (true error at most 2.5e-8), at D = 10 it first passes 1e-6 at
# n_max = 50.  A relative 1e-12 would fire from n = 5 to 7 at D = 10 and
# from n = 19 at D = 3.
QUAD_RTOL = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Truncated even-zonal expansion of an interaction kernel.

    K(gamma) = k0 - sum_{n=1}^{n_max} k_n P_{2n}(D, cos gamma), with k0 the
    kernel mean over the sphere.  Every k_n >= 0: the symmetric spectrum
    of the Jacobian (`solver._spectrum`) and the convex splitting of
    `dynamics.step` both rest on it.

    n_max and sup_norm_khat = ||K - k0||_inf are derived.  For the
    |sin gamma| sources the exact profile |sin gamma| - k0 takes values in
    [-k0, 1 - k0].  A custom kernel is its truncated series, whose sup
    norm is sum_n k_n, attained at gamma = 0: |P_2n(D, t)| <= 1 =
    P_2n(D, 1) on [-1, 1] and every k_n >= 0.
    """

    D: int
    coeffs: np.ndarray
    k0: float
    source: str
    n_max: int = field(init=False)
    sup_norm_khat: float = field(init=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float, copy=True)
        object.__setattr__(self, "coeffs", coeffs)
        if self.source not in SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")
        if not 3 <= self.D <= MAX_DIM:
            raise ValidationError(
                f"dimension must be in 3..{MAX_DIM}, got {self.D}")
        if not (math.isfinite(self.k0) and self.k0 >= 0):
            raise ValidationError(
                f"kernel mean k0 must be finite and >= 0, got {self.k0}")
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValidationError(
                f"need at least one coefficient, got {coeffs.size}")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")
        negative = np.flatnonzero(coeffs < 0)
        if negative.size:
            n = int(negative[0]) + 1
            raise ValidationError(
                f"coefficient k_{n} = {coeffs[n - 1]} is negative", index=n)
        coeffs.setflags(write=False)
        object.__setattr__(self, "n_max", coeffs.size)
        object.__setattr__(self, "sup_norm_khat", float(coeffs.sum())
                           if self.source == "custom"
                           else max(self.k0, 1.0 - self.k0))

    def coeff(self, n: int) -> float:
        """k_n for 1 <= n <= n_max."""
        return float(self.coeffs[n - 1])


def onsager_mean(D: int) -> float:
    """Sphere average of |sin gamma|: Gamma(D/2)^2 /
    (Gamma((D-1)/2) Gamma((D+1)/2)).

    Stepped up from pi/4 (D = 3) or 2/pi (D = 2) by the factor
    d^2/(d^2 - 1) from d to d + 2, so that no Gamma value is formed:
    Gamma(D/2)^2 overflows a double from D = 199 on.
    """
    mean, start = (math.pi / 4, 3) if D % 2 else (2 / math.pi, 2)
    for d in range(start, D, 2):
        mean *= d * d / (d * d - 1)
    return mean


def coeff_by_quadrature(D: int, n_max: int) -> np.ndarray:
    """Expansion coefficients k_1..k_n_max of |sin gamma| from their
    defining integrals.

    k_n = -(sigma_(D-1) N(D,2n)/sigma_D) int (1-t^2)^((D-2)/2) P_{2n}(D,t) dt.
    The (1-t^2)^((D-2)/2) factor is the Gauss weight of the zonal rule one
    dimension up, so the integrand seen by the rule is the polynomial
    P_{2n}, and one rule of order max(2 n_max + 8, 32), exact in exact
    arithmetic for every n <= n_max, gives the whole table from one
    `legendre_table` pass.  In floating point the cancellation in the sum
    grows with n and D, so a second rule 16 points larger guards the
    result: AccuracyError for the first n whose two values differ by more
    than QUAD_RTOL |k_n|.  This is the cross-check of
    `coeff_by_recurrence`, not a production table.
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    prefac = np.array([-surface_area(D - 1) * harmonic_count(D, 2 * n)
                       / surface_area(D) for n in range(1, n_max + 1)])

    def estimate(order):
        nodes, weights = zonal_rule(D + 1, order)
        return prefac * (legendre_table(D, 2 * n_max, nodes)[2::2] @ weights)

    order = max(2 * n_max + 8, 32)
    k = estimate(order)
    err = np.abs(k - estimate(order + 16))
    bad = np.flatnonzero(err > QUAD_RTOL * np.abs(k))
    if bad.size:
        n = int(bad[0]) + 1
        raise AccuracyError(f"quadrature for k_{n} (D={D}) not converged",
                            achieved=float(err[n - 1]))
    return k


def coeff_ratio(D: int, n):
    """Ratio k_(n+1)/k_n for the |sin gamma| kernel; always in (0, 1).

    Product of the harmonic-count ratio N(D,2n+2)/N(D,2n), the leading
    Gegenbauer values C_2n(1)/C_2n+2(1) and the weighted Gegenbauer moment
    ratio; the first two collapse to (4n+D+2)/(4n+D-2).  `n` may be a
    float array; in an int64 array the products overflow past n = 8.3e5.
    """
    num = (2 * n - 1) * (4 * n + D + 2) * (2 * n + D - 2)
    den = (4 * n + D - 2) * (2 * n + 2) * (2 * n + D + 1)
    return num / den


def coeff_by_recurrence(D: int, n_max: int) -> np.ndarray:
    """Coefficients k_1..k_n_max of |sin gamma| in closed form.

    k_1 = -(sigma_(D-1) N(D,2)/sigma_D) (D B(3/2,D/2) - B(1/2,D/2))/(D-1)
    with B the Beta function; since N(D,2) = (D+2)(D-1)/2 and the Beta
    values share Gamma(D/2)/Gamma((D+1)/2), this is k0 (D+2)/(2(D+1)) with
    k0 = onsager_mean(D), 5 pi/32 at D = 3.  k_n is k_1 times the running
    product of coeff_ratio.  The product runs in np.longdouble: in double
    precision the rounding of 10^6 ratios adds up to 2e-12 relative, in
    x86-64 extended precision to a few units in the last place.
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max, dtype=np.longdouble)
    k1 = onsager_mean(D) * (D + 2) / (2 * (D + 1))
    return (k1 * np.cumprod(np.append(1, coeff_ratio(D, n)))).astype(float)


def build_kernel_spec(D: int, n_max: int, source: str,
                      custom_coeffs=None) -> KernelSpec:
    """Assemble a KernelSpec.

    For the |sin gamma| kernel, "onsager-recurrence" is the closed-form
    table of `coeff_by_recurrence`, the one every solving command uses;
    "onsager-quadrature" evaluates each defining integral
    (`coeff_by_quadrature`) and is kept as its cross-check.  Custom
    kernels are given by their coefficient list (mean-zero part only).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if (custom_coeffs is not None) != (source == "custom"):
        raise ValueError("custom_coeffs required iff source == 'custom'")

    if source == "custom":
        coeffs = np.array(custom_coeffs, dtype=float)
        if len(coeffs) != n_max:
            raise ValueError(
                f"expected {n_max} coefficients, got {len(coeffs)}")
        return KernelSpec(D=D, coeffs=coeffs, k0=0.0, source=source)

    if source == "onsager-quadrature":
        coeffs = coeff_by_quadrature(D, n_max)
    elif source == "onsager-recurrence":
        coeffs = coeff_by_recurrence(D, n_max)
    else:
        raise ValidationError(f"unknown source {source!r}")

    bad = np.flatnonzero((coeffs <= 0)
                         | np.append(np.diff(coeffs) >= 0, False))
    if bad.size:
        raise ValidationError(
            "coefficients must be positive and strictly decreasing",
            index=int(bad[0]) + 1)
    return KernelSpec(D=D, coeffs=coeffs, k0=onsager_mean(D), source=source)


def tail_bound(spec: KernelSpec) -> float:
    """Upper bound on sum_{m > n_max} k_m.

    The closed-form table is exact for the |sin gamma| kernel, so the tail
    is summed explicitly out to a large cutoff M; beyond it the ratio is
    below (m/(m+1))^1.5, so the remainder is at most 2 k_M M (integral
    comparison with m^-1.5 decay; the true decay is ~m^-2).  Custom
    kernels are finite series with zero tail.
    """
    if spec.source == "custom":
        return 0.0
    cutoff = max(200 * spec.n_max, 20000)
    table = coeff_by_recurrence(spec.D, cutoff)
    return float(table[spec.n_max:].sum()) + 2.0 * float(table[-1]) * cutoff
