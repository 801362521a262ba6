"""Zonal polynomial basis on S^(D-1): Gegenbauer/Legendre evaluation,
harmonic dimension counts, sphere areas and quadrature against the zonal
surface measure."""

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "harmonic_count",
    "surface_area",
    "legendre_eval",
    "legendre_table",
    "zonal_rule",
    "weighted_integral",
]


def _check_index(D: int, n: int):
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")


def harmonic_count(D: int, n: int) -> int:
    """Number of linearly independent degree-n spherical harmonics on S^(D-1).

    Computed in exact integer arithmetic:
    (2n + D - 2) * (n + D - 3)! / ((D - 2)! * n!).
    """
    _check_index(D, n)
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


def legendre_eval(D: int, n: int, t):
    """Zonal polynomial P_n(D, t) = C_n^(alpha)(t) / C_n^(alpha)(1),
    alpha = (D - 2)/2, normalized so P_n(D, 1) = 1: the last row of the
    recurrence legendre_table runs, divided by the same running product
    C_n^(alpha)(1) = prod_{k<n} (2 alpha + k) / (1 + k), so the two agree
    bit for bit; no lower degree is stored.

    Reduces to the classical Legendre polynomial for D = 3.
    """
    _check_index(D, n)
    t_arr = _check_domain(t)
    alpha = (D - 2) / 2
    *_, raw = _gegenbauer_rows(alpha, n, t_arr)
    at_one = 1.0
    for k in range(n):
        at_one *= (2.0 * alpha + k) / (1.0 + k)
    out = raw / at_one
    return float(out) if np.ndim(t) == 0 else out


def legendre_table(D: int, max_degree: int, t: np.ndarray) -> np.ndarray:
    """All P_k(D, t) for k = 0..max_degree in one recurrence pass.

    Returns an array of shape (max_degree + 1, len(t)).
    """
    _check_index(D, max_degree)
    t = _check_domain(t)
    alpha = (D - 2) / 2
    table = np.empty((max_degree + 1, t.size))
    at_one = 1.0  # C_k^(alpha)(1), the running product of legendre_eval
    for k, c in enumerate(_gegenbauer_rows(alpha, max_degree, t)):
        table[k] = c / at_one
        at_one *= (2.0 * alpha + k) / (1.0 + k)
    return table


@lru_cache(maxsize=256)
def zonal_rule(D: int, order: int):
    """Nodes and weights for integrals against (1 - t^2)^((D-3)/2) dt.

    The zonal weight is exact (Gauss-Legendre at D = 3, Gauss-Jacobi
    above), so polynomial integrands of degree <= 2*order - 1 are
    integrated exactly for every D >= 3; plain sums of f(node)*weight
    give the weighted integral.  Cached: the arrays are shared, not
    copied.
    """
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if D == 3:
        return roots_legendre(order)
    expo = (D - 3) / 2
    return roots_jacobi(order, expo, expo)


def weighted_integral(f, D: int, order: int) -> float:
    """Integral of f(t) (1 - t^2)^((D-3)/2) dt over [-1, 1] by the
    `order`-point zonal rule, so the weight itself costs no accuracy."""
    nodes, weights = zonal_rule(D, order)
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        values = np.broadcast_to(values, nodes.shape)
    return float(np.dot(weights, values))
