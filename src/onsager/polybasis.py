"""Zonal polynomial basis on S^(D-1): Gegenbauer/Legendre evaluation,
harmonic dimension counts, sphere areas and quadrature against the zonal
surface measure."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "BasisIndex",
    "harmonic_count",
    "surface_area",
    "gegenbauer_eval",
    "gegenbauer_at_one",
    "legendre_eval",
    "legendre_table",
    "zonal_rule",
    "weighted_integral",
]


@dataclass(frozen=True)
class BasisIndex:
    """Degree-n zonal polynomial index for the sphere S^(D-1)."""

    D: int
    n: int

    def __post_init__(self):
        if self.D < 3:
            raise ValueError(f"dimension must be >= 3, got {self.D}")
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")

    @property
    def alpha(self) -> float:
        return (self.D - 2) / 2


def harmonic_count(D: int, n: int) -> int:
    """Number of linearly independent degree-n spherical harmonics on S^(D-1).

    Computed in exact integer arithmetic:
    (2n + D - 2) * (n + D - 3)! / ((D - 2)! * n!).
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    num = (2 * n + D - 2) * math.factorial(n + D - 3)
    den = math.factorial(D - 2) * math.factorial(n)
    count, rem = divmod(num, den)
    assert rem == 0
    return count


# The largest D whose Gamma(D/2), and so surface_area(D), is a finite
# double: math.gamma overflows from D = 344 on.
MAX_DIM = 343


def surface_area(D: int) -> float:
    """Surface measure of the unit sphere in R^D: 2 pi^(D/2) / Gamma(D/2)."""
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    return 2.0 * math.pi ** (D / 2) / math.gamma(D / 2)


def _check_domain(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    return t


def _gegenbauer_rows(alpha: float, max_degree: int, t: np.ndarray):
    """Raw C_k^(alpha)(t) for k = 0..max_degree by the standard three-term
    recurrence, yielded one degree at a time."""
    c_prev = np.ones_like(t)
    yield c_prev
    if max_degree == 0:
        return
    c = 2.0 * alpha * t
    yield c
    for k in range(2, max_degree + 1):
        c, c_prev = (2.0 * (k + alpha - 1.0) * t * c
                     - (k + 2.0 * alpha - 2.0) * c_prev) / k, c
        yield c


def gegenbauer_eval(idx: BasisIndex, t, deriv: int = 0):
    """Value (deriv=0) or first derivative (deriv=1) of C_n^(alpha) at t.

    Uses d/dt C_n^(alpha) = 2 alpha C_(n-1)^(alpha+1) for the derivative.
    """
    t_arr = _check_domain(t)
    if deriv not in (0, 1):
        raise ValueError("deriv must be 0 or 1")
    if deriv == 0:
        *_, out = _gegenbauer_rows(idx.alpha, idx.n, t_arr)
    elif idx.n == 0:
        out = np.zeros_like(t_arr)
    else:
        *_, c = _gegenbauer_rows(idx.alpha + 1.0, idx.n - 1, t_arr)
        out = 2.0 * idx.alpha * c
    return float(out) if np.ndim(t) == 0 else out


def gegenbauer_at_one(alpha: float, n: int) -> float:
    """C_n^(alpha)(1) = prod_{k=0}^{n-1} (2 alpha + k) / (1 + k)."""
    value = 1.0
    for k in range(n):
        value *= (2.0 * alpha + k) / (1.0 + k)
    return value


def legendre_eval(D: int, n: int, t, deriv: int = 0):
    """Zonal polynomial P_n(D, t) = C_n^(alpha)(t) / C_n^(alpha)(1),
    alpha = (D - 2)/2, normalized so P_n(D, 1) = 1.

    Reduces to the classical Legendre polynomial for D = 3.
    """
    idx = BasisIndex(D, n)
    raw = gegenbauer_eval(idx, t, deriv)
    return raw / gegenbauer_at_one(idx.alpha, n)


def legendre_table(D: int, max_degree: int, t: np.ndarray) -> np.ndarray:
    """All P_k(D, t) for k = 0..max_degree in one recurrence pass.

    Returns an array of shape (max_degree + 1, len(t)).
    """
    t = _check_domain(t)
    alpha = (D - 2) / 2
    table = np.empty((max_degree + 1, t.size))
    at_one = 1.0  # gegenbauer_at_one(alpha, k): the same products in order
    for k, c in enumerate(_gegenbauer_rows(alpha, max_degree, t)):
        table[k] = c / at_one
        at_one *= (2.0 * alpha + k) / (1.0 + k)
    return table


@lru_cache(maxsize=128)
def _legendre_rule_cached(order: int):
    return roots_legendre(order)


@lru_cache(maxsize=256)
def _jacobi_rule_cached(order: int, expo: float):
    """Gauss rule for the weight (1 - t^2)^expo on [-1, 1].

    The weight is built into the returned weights, so plain sums of
    f(node)*weight approximate the weighted integral of f.
    """
    if expo == 0.0:
        return _legendre_rule_cached(order)
    nodes, weights = roots_jacobi(order, expo, expo)
    return nodes, weights


def zonal_rule(D: int, order: int):
    """Nodes and weights for integrals against (1 - t^2)^((D-3)/2) dt.

    The zonal weight is exact (Gauss-Jacobi), so polynomial integrands of
    degree <= 2*order - 1 are integrated exactly for every D >= 3.
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _jacobi_rule_cached(order, (D - 3) / 2)


def weighted_integral(f, D: int, order: int) -> float:
    """Integral of f(t) (1 - t^2)^((D-3)/2) dt over [-1, 1] by the
    `order`-point zonal rule, so the weight itself costs no accuracy."""
    nodes, weights = zonal_rule(D, order)
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        values = np.broadcast_to(values, nodes.shape)
    return float(np.dot(weights, values))
