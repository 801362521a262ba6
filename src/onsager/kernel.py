"""Interaction-kernel coefficient tables for the rod-rod potential on
S^(D-1): the even-zonal expansion coefficients k_n, the kernel mean and the
sup norm of the mean-zero part."""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ValidationError
from .polybasis import (
    _jacobi_rule_cached,
    harmonic_count,
    legendre_eval,
    legendre_table,
    surface_area,
)

__all__ = [
    "KernelSpec",
    "SOURCES",
    "mean_value",
    "onsager_mean",
    "coeff_ratio",
    "coeff_by_quadrature",
    "coeff_by_recurrence",
    "build_kernel_spec",
    "khat_eval",
    "sup_norm",
    "tail_bound",
]

SOURCES = ("onsager-quadrature", "onsager-recurrence", "custom")

# Largest gap allowed between the two Gauss-Jacobi orders of
# coeff_by_quadrature, relative to k_n.  The gap is rounding in the rule's
# sum and grows with n and D: at D = 3 it stays below 1.7e-7 up to n = 400
# (true error at most 1.3e-7), at D = 10 it passes 1e-6 at n = 45.  A
# relative 1e-12 would fire from n = 6 or 7 for every D.
QUAD_RTOL = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Truncated even-zonal expansion of an interaction kernel.

    K(gamma) = k0 - sum_{n=1}^{n_max} k_n P_{2n}(D, cos gamma), with k0 the
    kernel mean over the sphere and sup_norm_khat = ||K - k0||_inf.  Every
    k_n >= 0: the symmetric spectrum of the Jacobian (`solver._spectrum`)
    and the convex splitting of `dynamics.step` both rest on it.
    """

    D: int
    n_max: int
    coeffs: np.ndarray
    k0: float
    sup_norm_khat: float
    source: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.array(self.coeffs, dtype=float, copy=True))
        if self.source not in SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")
        if self.n_max < 1 or len(self.coeffs) != self.n_max:
            raise ValidationError(
                f"need n_max >= 1 coefficients, got {len(self.coeffs)}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValidationError("coefficients must be finite")
        negative = np.flatnonzero(self.coeffs < 0)
        if negative.size:
            n = int(negative[0]) + 1
            raise ValidationError(
                f"coefficient k_{n} = {self.coeffs[n - 1]} is negative",
                index=n)
        self.coeffs.setflags(write=False)

    def coeff(self, n: int) -> float:
        """k_n for 1 <= n <= n_max."""
        return float(self.coeffs[n - 1])

    def to_json_dict(self) -> dict:
        return {
            "dim": self.D,
            "n_max": self.n_max,
            "source": self.source,
            "k0": self.k0,
            "coeffs": [float(c) for c in self.coeffs],
            "sup_norm_khat": self.sup_norm_khat,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "KernelSpec":
        return cls(D=data["dim"], n_max=data["n_max"],
                   coeffs=np.array(data["coeffs"], dtype=float),
                   k0=data["k0"], sup_norm_khat=data["sup_norm_khat"],
                   source=data["source"])

    @classmethod
    def from_json(cls, text: str) -> "KernelSpec":
        return cls.from_json_dict(json.loads(text))


def mean_value(kernel_profile, D: int, tol: float = 1e-12,
               max_points: int = 1 << 20) -> float:
    """Sphere average of a kernel given by its profile over the angle
    gamma in [0, pi].

    Evaluated as sigma_(D-1)/sigma_D * int_0^pi K(gamma) sin^(D-2) dgamma
    by an adaptive midpoint rule (doubling until the value is stable).
    """
    prefac = surface_area(D - 1) / surface_area(D)

    def estimate(m):
        theta = (np.arange(m) + 0.5) * (math.pi / m)
        vals = np.asarray(kernel_profile(theta), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("kernel profile returned non-finite values")
        return prefac * (math.pi / m) * float(
            np.dot(vals, np.sin(theta) ** (D - 2)))

    m = 64
    prev = estimate(m)
    while m < max_points:
        m *= 2
        cur = estimate(m)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise AccuracyError("kernel mean did not stabilize at "
                        f"{max_points} points", achieved=abs(cur - prev))


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


@lru_cache(maxsize=1024)
def coeff_by_quadrature(D: int, n: int) -> float:
    """Expansion coefficient k_n of |sin gamma| from its defining integral.

    k_n = -(sigma_(D-1) N(D,2n)/sigma_D) int (1-t^2)^((D-2)/2) P_{2n}(D,t) dt.
    The (1-t^2)^((D-2)/2) factor is the Gauss-Jacobi weight, so the
    integrand seen by the rule is the polynomial P_{2n} and the rule is
    exact in exact arithmetic; in floating point the cancellation in the
    sum grows with n and D, so a second rule 16 points larger guards the
    result: AccuracyError when the two differ by more than QUAD_RTOL |k_n|.
    This is the cross-check of `coeff_by_recurrence`, not a production
    table.
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    prefac = -surface_area(D - 1) * harmonic_count(D, 2 * n) / surface_area(D)

    def estimate(order):
        nodes, weights = _jacobi_rule_cached(order, (D - 2) / 2)
        p2n = legendre_eval(D, 2 * n, nodes)
        return prefac * float(np.dot(weights, p2n))

    order = max(2 * n + 8, 32)
    k = estimate(order)
    check = estimate(order + 16)
    err = abs(k - check)
    if err > QUAD_RTOL * abs(k):
        raise AccuracyError(
            f"quadrature for k_{n} (D={D}) not converged", achieved=err)
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


def _dense_sup(spec_D, coeffs, samples=4096, refinements=2):
    """Sup of |sum_n k_n P_{2n}(D, cos gamma)| by sampling plus local
    refinement around the coarse argmax."""
    max_degree = 2 * len(coeffs)
    kvec = np.asarray(coeffs, dtype=float)

    def series_abs(gamma):
        table = legendre_table(spec_D, max_degree, np.cos(gamma))
        return np.abs(kvec @ table[2::2])

    gamma = np.linspace(0.0, math.pi, samples)
    vals = series_abs(gamma)
    best = float(vals.max())
    center = gamma[int(vals.argmax())]
    half = math.pi / samples
    for _ in range(refinements):
        local = np.linspace(max(0.0, center - half),
                            min(math.pi, center + half), 2001)
        lv = series_abs(local)
        best = max(best, float(lv.max()))
        center = local[int(lv.argmax())]
        half /= 100.0
    return best


def build_kernel_spec(D: int, n_max: int, source: str,
                      custom_coeffs=None, validate: bool = False,
                      ) -> KernelSpec:
    """Assemble a KernelSpec.

    For the |sin gamma| kernel, "onsager-recurrence" is the closed-form
    table of `coeff_by_recurrence`, the one every solving command uses;
    "onsager-quadrature" evaluates each defining integral
    (`coeff_by_quadrature`) and is kept as its cross-check.  The mean and
    sup norm come from the exact profile.  Custom kernels are
    given by their coefficient list (mean-zero part only); `validate`
    additionally enforces positivity and strict decrease.
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
        if validate:
            for i, k in enumerate(coeffs, start=1):
                if k <= 0:
                    raise ValidationError(
                        f"coefficient k_{i} = {k} is not positive", index=i)
                if i < len(coeffs) and coeffs[i] >= k:
                    raise ValidationError(
                        f"coefficient k_{i + 1} does not decrease", index=i + 1)
        sup = 0.0 if not np.any(coeffs) else _dense_sup(D, coeffs)
        return KernelSpec(D=D, n_max=n_max, coeffs=coeffs, k0=0.0,
                          sup_norm_khat=sup, source=source)

    if source == "onsager-quadrature":
        coeffs = np.array([coeff_by_quadrature(D, n)
                           for n in range(1, n_max + 1)])
    elif source == "onsager-recurrence":
        coeffs = coeff_by_recurrence(D, n_max)
    else:
        raise ValidationError(f"unknown source {source!r}")

    for i in range(len(coeffs)):
        if coeffs[i] <= 0 or (i + 1 < len(coeffs)
                              and coeffs[i + 1] >= coeffs[i]):
            raise ValidationError(
                "coefficients must be positive and strictly decreasing",
                index=i + 1)
    k0 = onsager_mean(D)
    # exact profile |sin gamma| - k0 takes values in [-k0, 1 - k0]
    sup = max(k0, 1.0 - k0)
    return KernelSpec(D=D, n_max=n_max, coeffs=coeffs, k0=k0,
                      sup_norm_khat=sup, source=source)


def khat_eval(spec: KernelSpec, gamma):
    """Mean-zero truncated kernel -sum_n k_n P_{2n}(D, cos gamma)."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0) or np.any(g > math.pi):
        raise ValueError("gamma outside [0, pi]")
    table = legendre_table(spec.D, 2 * spec.n_max, np.atleast_1d(np.cos(g)))
    out = -(spec.coeffs @ table[2::2])
    return float(out[0]) if np.ndim(gamma) == 0 else out


def sup_norm(spec: KernelSpec) -> float:
    """||K_hat||_inf over gamma in [0, pi]."""
    if spec.source == "custom":
        if not np.any(spec.coeffs):
            return 0.0
        return _dense_sup(spec.D, spec.coeffs)
    return max(spec.k0, 1.0 - spec.k0)


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
