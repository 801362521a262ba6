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


def _gegenbauer_rows(alpha: float, max_degree: int, t: "np.ndarray"):
    """Raw C_k^(alpha)(t) for k = 0..max_degree by the standard three-term
    recurrence, yielded one degree at a time."""
    import numpy as np
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


def legendre_table(D: int, max_degree: int,
                   t: "np.ndarray") -> "np.ndarray":
    """All zonal polynomials P_k(D, t) = C_k^(alpha)(t) / C_k^(alpha)(1),
    alpha = (D - 2)/2, normalized so P_k(D, 1) = 1, for k = 0..max_degree
    in one recurrence pass; the classical Legendre polynomials at D = 3.

    Returns an array of shape (max_degree + 1, len(t)).
    """
    import numpy as np
    _check_index(D, max_degree)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    alpha = (D - 2) / 2
    table = np.empty((max_degree + 1, t.size))
    at_one = 1.0  # C_k^(alpha)(1) = prod_{j<k} (2 alpha + j) / (1 + j)
    for k, c in enumerate(_gegenbauer_rows(alpha, max_degree, t)):
        table[k] = c / at_one
        at_one *= (2.0 * alpha + k) / (1.0 + k)
    return table


@lru_cache(maxsize=256)
def zonal_rule(D: int, order: int):
    """Nodes and weights for integrals against (1 - t^2)^((D-3)/2) dt.

    Gauss rule for the zonal weight itself (Gauss-Legendre at D = 3,
    Gauss-Gegenbauer above), so polynomial integrands of degree
    <= 2*order - 1 are integrated exactly for every D >= 3; plain sums of
    f(node)*weight give the weighted integral.  Built by Golub-Welsch: the
    nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    polynomials p_k of the weight, polished by two Newton steps on their
    three-term recurrence, and the weights are the Christoffel numbers
    mu_0 / sum_(k<order) (p_k / p_0)^2 with mu_0 = B(1/2, (D-1)/2) the
    weight's mass, from lgamma so that D = 344 (used for the kernel
    integrals at D = 343) does not overflow.  Nodes and weights are
    symmetrised, so the middle node of an odd rule is exactly 0.  Cached:
    the arrays are shared and read-only.
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
    for _ in range(2):
        # p runs over p_k / p_0 for k = 0..order, dp over its derivative
        p_prev, p = np.zeros_like(t), np.ones_like(t)
        dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
        squares = np.zeros_like(t)
        b_k = 0.0
        for b_next in b.tolist():
            squares += p * p
            p, p_prev = (t * p - b_k * p_prev) / b_next, p
            dp, dp_prev = (p_prev + t * dp - b_k * dp_prev) / b_next, dp
            b_k = b_next
        # p is p_order, zero at the nodes; the step is at rounding after
        # the first one, so `squares` holds at the final nodes too
        t = t - p / dp
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(a + 1)
                   - math.lgamma(a + 1.5))
    nodes = (t - t[::-1]) / 2
    weights = mu0 / squares
    weights = (weights + weights[::-1]) / 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
