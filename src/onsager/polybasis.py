"""Zonal polynomial basis on S^(D-1): Gegenbauer/Legendre evaluation,
harmonic dimension counts, sphere areas and quadrature against the zonal
surface measure.

The counts and areas are standard-library arithmetic; the polynomial
tables and Gauss rules are arrays and import numpy where they run, so
importing this module loads no numpy."""

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import AccuracyError

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


def _top_rows(D: int, n: int, t: "np.ndarray"):
    """P_(n-1)(D, t) and P_n(D, t), n >= 1, streamed from `_zonal_rows`."""
    p_prev = p = None
    for row in _zonal_rows(D, n, t):
        p_prev, p = p, row
    return p_prev, p


@lru_cache(maxsize=256)
def zonal_rule(D: int, order: int):
    """Nodes and weights for integrals against (1 - t^2)^((D-3)/2) dt.

    Gauss rule for the zonal weight itself (Gauss-Legendre at D = 3,
    Gauss-Gegenbauer above): exact for polynomials of degree
    <= 2*order - 1 at every D >= 3, as plain sums of f(node)*weight.  Its
    orthogonal polynomials are the P_k(D, t) of `_zonal_rows`, and its
    nodes, the zeros of P_order(D, t), are found on that recurrence alone
    in O(order^2) flops, with no eigenproblem (Hale & Townsend): the
    signs of P_order(D, cos theta) at the midpoints of m cells of (0, pi),
    m = 4*order doubled until they change exactly order times, bracket
    every zero; Newton's method with (1 - t^2) P_n' = n (P_(n-1) - t P_n)
    starts at each bracket's secant point, bisects a step that would leave
    the bracket, and ends with two plain Newton steps.  The weights are
    the Christoffel numbers mu_0 / sum_(k<order) N(D, k) P_k^2,
    mu_0 = B(1/2, (D-1)/2), both through logarithms so that D = 344 (the
    kernel integrals at D = 343) does not overflow.  Symmetrised, so the
    middle node of an odd rule is exactly 0.  Cached: the arrays are
    shared and read-only.  Raises AccuracyError if the zeros crowd too
    closely to bracket (D beyond about 10^6).
    """
    import numpy as np
    if D < 3:
        raise ValueError(f"dimension must be >= 3, got {D}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    m = 4 * order
    # 8 refinements at most: at order 2 they bracket the zeros
    # +-1/sqrt(D - 1) up to D ~ 10^6
    for _ in range(9):
        # ascending cell midpoints -cos(pi (j + 1/2) / m); m is even, so
        # none is 0
        x = -np.cos(np.pi / m * (np.arange(m) + 0.5))
        p = _top_rows(D, order, x)[1]
        sign = np.sign(p)
        change = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if change.size == order:
            break
        m *= 2
    else:
        raise AccuracyError(f"cannot bracket the {order} zeros of "
                            f"P_{order}({D}, t) on {m // 2} cells")
    lo, hi = x[change], x[change + 1]
    t = lo - p[change] * (hi - lo) / (p[change + 1] - p[change])
    sign_lo = sign[change]
    # bisection alone would reach rounding within 64 steps
    for _ in range(64):
        p_prev, p = _top_rows(D, order, t)
        # the zero lies right of t where P(t) has the sign of P(lo)
        right = np.sign(p) == sign_lo
        lo, hi = np.where(right, t, lo), np.where(right, hi, t)
        newton = t - (1.0 - t * t) * p / (order * (p_prev - t * p))
        inside = (lo <= newton) & (newton <= hi)
        t, t_prev = np.where(inside, newton, 0.5 * (lo + hi)), t
        if np.max(np.abs(t - t_prev)) < 1e-12:
            break
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
    a = (D - 3) / 2
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(a + 1)
                   - math.lgamma(a + 1.5))
    nodes = (t - t[::-1]) / 2
    weights = mu0 / squares
    weights = (weights + weights[::-1]) / 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
