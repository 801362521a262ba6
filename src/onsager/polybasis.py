"""Zonal polynomial basis on S^(D-1): Gegenbauer/Legendre evaluation,
harmonic dimension counts, sphere areas and quadrature against the zonal
surface measure.

The counts and areas are standard-library arithmetic; the polynomial
tables and Gauss rules are arrays and import numpy where they run, so
importing this module loads no numpy."""

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "harmonic_count",
    "surface_area",
    "legendre_table",
    "zonal_rule",
]


def _check_index(D: int, n: int):
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")


def harmonic_count(D: int, n: int) -> int:
    """Number of linearly independent degree-n spherical harmonics on S^(D-1).

    Computed in exact integer arithmetic:
    (2n + D - 2) * C(n + D - 3, D - 3) / (D - 2).  The binomial is a
    product of D - 3 factors, so a count costs no factorial of n.
    """
    _check_index(D, n)
    return (2 * n + D - 2) * math.comb(n + D - 3, D - 3) // (D - 2)


# The largest D whose Gamma(D/2), and so surface_area(D), is a finite
# double: math.gamma overflows from D = 344 on.
MAX_DIM = 343


def surface_area(D: int) -> float:
    """Surface measure of the unit sphere in R^D: 2 pi^(D/2) / Gamma(D/2)."""
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    return 2.0 * math.pi ** (D / 2) / math.gamma(D / 2)


def _zonal_rows(D: int, max_degree: int, t: "np.ndarray"):
    """P_k(D, t) for k = 0..max_degree, one degree at a time, by the
    normalized recurrence (k + D - 2) P_(k+1) = (2k + D - 2) t P_k - k P_(k-1)
    from P_0 = 1, P_1 = t.  |P_k| <= 1 on [-1, 1]: no row overflows."""
    import numpy as np
    p_prev, p = np.ones_like(t), t
    yield p_prev
    if max_degree == 0:
        return
    yield p
    for k in range(1, max_degree):
        p, p_prev = ((2 * k + D - 2) * t * p - k * p_prev) / (k + D - 2), p
        yield p


def legendre_table(D: int, max_degree: int,
                   t: "np.ndarray") -> "np.ndarray":
    """All zonal polynomials P_k(D, t) = C_k^(alpha)(t) / C_k^(alpha)(1),
    alpha = (D - 2)/2, for k = 0..max_degree from one pass of
    `_zonal_rows`; Legendre's at D = 3.  Every entry lies in [-1, 1].

    Returns an array of shape (max_degree + 1, len(t)).
    """
    import numpy as np
    _check_index(D, max_degree)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    table = np.empty((max_degree + 1, t.size))
    for k, row in enumerate(_zonal_rows(D, max_degree, t)):
        table[k] = row
    return table


@lru_cache(maxsize=256)
def zonal_rule(D: int, order: int):
    """Nodes and weights for integrals against (1 - t^2)^((D-3)/2) dt.

    Gauss rule for the zonal weight itself (Gauss-Legendre at D = 3,
    Gauss-Gegenbauer above): exact for polynomials of degree
    <= 2*order - 1 at every D >= 3, as plain sums of f(node)*weight.  Its
    orthogonal polynomials are the P_k(D, t) of `_zonal_rows`.  The
    eigenvalues of the weight's Jacobi matrix (Golub-Welsch) take two
    Newton steps with (1 - t^2) P_n' = n (P_(n-1) - t P_n); the weights
    are the Christoffel numbers mu_0 / sum_(k<order) N(D, k) P_k^2,
    mu_0 = B(1/2, (D-1)/2), both through logarithms so that D = 344 (the
    kernel integrals at D = 343) does not overflow.  Symmetrised, so the
    middle node of an odd rule is exactly 0.  Cached: the arrays are
    shared and read-only.
    """
    import numpy as np
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a = (D - 3) / 2
    k = np.arange(1.0, order + 1)
    # t p_k = b_(k+1) p_(k+1) + b_k p_(k-1) for the weight (1 - t^2)^a
    b = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
    t = np.linalg.eigvalsh(np.diag(b[:-1], -1))
    # sqrt N(D, k): the orthonormal polynomials are sqrt(N / mu_0) P_k
    root_counts = [math.exp(0.5 * math.log(harmonic_count(D, j)))
                   for j in range(order)]
    for _ in range(2):
        rows = _zonal_rows(D, order, t)
        squares = np.zeros_like(t)
        for root in root_counts:
            p_prev = next(rows)
            squares += (root * p_prev) ** 2
        p = next(rows)
        step = (1.0 - t * t) * p / (order * (p_prev - t * p))
        t = t - step
    # `squares` is from the nodes before the last step: carry it along
    # that step, d log(squares)/dt = (D - 1) t / (1 - t^2) at a node
    squares *= 1.0 - (D - 1) * t * step / (1.0 - t * t)
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(a + 1)
                   - math.lgamma(a + 1.5))
    nodes = (t - t[::-1]) / 2
    weights = mu0 / squares
    weights = (weights + weights[::-1]) / 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
