"""Sphere means and zonal integrals taken directly, kept as test oracles:
the package has no caller of either.  `mean_value` averages a kernel
profile over the sphere by an adaptive midpoint rule; `weighted_integral`
integrates against the zonal weight by the package's Gauss rule."""

import math

import numpy as np

from onsager.errors import AccuracyError, ValidationError
from onsager.polybasis import surface_area, zonal_rule


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


def weighted_integral(f, D: int, order: int) -> float:
    """Integral of f(t) (1 - t^2)^((D-3)/2) dt over [-1, 1] by the
    `order`-point zonal rule, so the weight itself costs no accuracy."""
    nodes, weights = zonal_rule(D, order)
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        values = np.broadcast_to(values, nodes.shape)
    return float(np.dot(weights, values))
