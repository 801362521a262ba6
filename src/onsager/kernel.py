"""Interaction-kernel coefficient tables for the rod-rod potential on
S^(D-1): the even-zonal expansion coefficients k_n, the kernel mean and the
sup norm of the mean-zero part.

The closed-form table, `KernelSpec` and the tail bound run on the
standard library alone, so a command that needs nothing else (`onsager
thresholds`, `coeffs --method recurrence`) never loads numpy; the
quadrature cross-check imports it where it runs."""

import math
import numbers
from dataclasses import dataclass, field

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

    coeffs is stored as a tuple of floats (k_1..k_n_max), so a spec is
    immutable, compares by value and hashes.
    """

    D: int
    coeffs: tuple
    k0: float
    source: str
    n_max: int = field(init=False)
    sup_norm_khat: float = field(init=False)

    def __post_init__(self):
        try:
            coeffs = tuple(self.coeffs)
        except TypeError as e:
            raise ValidationError(
                f"coefficients must be a sequence, got {self.coeffs!r}") from e
        if not all(isinstance(k, numbers.Real) for k in coeffs):
            raise ValidationError("coefficients must be real numbers")
        coeffs = tuple(map(float, coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if self.source not in SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")
        if not 3 <= self.D <= MAX_DIM:
            raise ValidationError(
                f"dimension must be in 3..{MAX_DIM}, got {self.D}")
        if not (math.isfinite(self.k0) and self.k0 >= 0):
            raise ValidationError(
                f"kernel mean k0 must be finite and >= 0, got {self.k0}")
        if not coeffs:
            raise ValidationError("need at least one coefficient, got 0")
        if not all(map(math.isfinite, coeffs)):
            raise ValidationError("coefficients must be finite")
        for n, k in enumerate(coeffs, start=1):
            if k < 0:
                raise ValidationError(f"coefficient k_{n} = {k} is negative",
                                      index=n)
        object.__setattr__(self, "n_max", len(coeffs))
        object.__setattr__(self, "sup_norm_khat", math.fsum(coeffs)
                           if self.source == "custom"
                           else max(self.k0, 1.0 - self.k0))

    def coeff(self, n: int) -> float:
        """k_n for 1 <= n <= n_max."""
        return self.coeffs[n - 1]


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


def coeff_by_quadrature(D: int, n_max: int):
    """Expansion coefficients k_1..k_n_max of |sin gamma| from their
    defining integrals, as an array.

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
    import numpy as np
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


def _ratio_terms(D: int, n):
    """Numerator and denominator of coeff_ratio(D, n), integers for an
    integer n."""
    return ((2 * n - 1) * (4 * n + D + 2) * (2 * n + D - 2),
            (4 * n + D - 2) * (2 * n + 2) * (2 * n + D + 1))


def coeff_ratio(D: int, n):
    """Ratio k_(n+1)/k_n for the |sin gamma| kernel; always in (0, 1).

    Product of the harmonic-count ratio N(D,2n+2)/N(D,2n), the leading
    Gegenbauer values C_2n(1)/C_2n+2(1) and the weighted Gegenbauer moment
    ratio; the first two collapse to (4n+D+2)/(4n+D-2).
    """
    num, den = _ratio_terms(D, n)
    return num / den


# Fraction bits of the fixed-point running product in coeff_by_recurrence.
# Each step truncates less than 2^-256, so after 10^6 steps the product is
# within 2^-236 of the exact one: 2^-180 relative for any k_n above 1e-17.
_PRODUCT_BITS = 256


def coeff_by_recurrence(D: int, n_max: int) -> tuple:
    """Coefficients k_1..k_n_max of |sin gamma| in closed form, as a
    tuple of floats.

    k_1 = -(sigma_(D-1) N(D,2)/sigma_D) (D B(3/2,D/2) - B(1/2,D/2))/(D-1)
    with B the Beta function; since N(D,2) = (D+2)(D-1)/2 and the Beta
    values share Gamma(D/2)/Gamma((D+1)/2), this is k0 (D+2)/(2(D+1)) with
    k0 = onsager_mean(D), 5 pi/32 at D = 3.  k_n is k_1 times the running
    product of coeff_ratio, formed exactly in integers: m = k_1 2^256 and
    m <- m num // den with the integer terms of each ratio, so k_n is
    m / 2^256, which Python rounds correctly.  The table is the same on
    every platform; a running product in floating point would gather the
    rounding of 10^6 ratios (2e-12 relative in double precision).
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    k1 = onsager_mean(D) * (D + 2) / (2 * (D + 1))
    num, den = k1.as_integer_ratio()  # den is a power of two below 2^256
    m, scale = (num << _PRODUCT_BITS) // den, 1 << _PRODUCT_BITS
    table = [k1]
    for n in range(1, n_max):
        num, den = _ratio_terms(D, n)
        m = m * num // den
        table.append(m / scale)
    return tuple(table)


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
        if len(custom_coeffs) != n_max:
            raise ValueError(
                f"expected {n_max} coefficients, got {len(custom_coeffs)}")
        return KernelSpec(D=D, coeffs=custom_coeffs, k0=0.0, source=source)

    if source == "onsager-quadrature":
        coeffs = coeff_by_quadrature(D, n_max).tolist()
    elif source == "onsager-recurrence":
        coeffs = coeff_by_recurrence(D, n_max)
    else:
        raise ValidationError(f"unknown source {source!r}")

    for n, k in enumerate(coeffs, start=1):
        if k <= 0 or (n < n_max and coeffs[n] >= k):
            raise ValidationError(
                "coefficients must be positive and strictly decreasing",
                index=n)
    return KernelSpec(D=D, coeffs=coeffs, k0=onsager_mean(D), source=source)


def tail_bound(spec: KernelSpec) -> float:
    """Upper bound on sum_{m > n_max} k_m.

    For the |sin gamma| kernel the whole series sums to the mean: at
    gamma = 0, |sin gamma| = 0 and every P_2n(D, 1) = 1, so
    sum_n k_n = k0 (every k_n > 0 and k_n ~ n^-2, so the series converges
    absolutely).  The tail is k0 less the correctly rounded sum (fsum) of
    the closed-form k_1..k_n_max, plus (2D + 6) 2^-53 k0 for rounding: at
    most D roundings in k0 (onsager_mean), two more in k_1 and one in each
    k_n, one in the sum and one in the final addition; the difference
    itself is exact (the sum exceeds k_1 > k0/2).  Custom kernels are
    finite series with zero tail.
    """
    if spec.source == "custom":
        return 0.0
    k0 = onsager_mean(spec.D)
    head = math.fsum(coeff_by_recurrence(spec.D, spec.n_max))
    return k0 - head + (2 * spec.D + 6) * 2.0 ** -53 * k0
