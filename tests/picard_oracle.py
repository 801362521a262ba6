"""Picard iteration u <- (1 - w) u + w lam G(u), kept as a test oracle for
the stability verdict of `classify_stability`.  The Jacobian J of lam G is
similar to a positive semidefinite matrix, so its eigenvalues mu are real
and >= 0; undamped Picard (w = 1) therefore converges locally to a
solution exactly when every mu < 1, which is the stability criterion."""

import numpy as np

from onsager.solver import AxisymState, _make_report, residual, state_norm


def picard(spec, lam, init, tol=1e-10, max_iter=200, damping=1.0):
    """Picard's method from init.  Stops when the residual norm is <= tol,
    before an update that is not finite, or after max_iter updates, and
    returns the report of the last state."""
    state = init
    for it in range(1, max_iter + 1):
        res = residual(state, spec, lam)
        if state_norm(res) <= tol:
            return _make_report(state, res, lam, it - 1, tol)
        new_coeffs = state.coeffs - damping * res
        if not np.all(np.isfinite(new_coeffs)):
            return _make_report(state, res, lam, it, tol)
        state = AxisymState(state.D, new_coeffs)
    return _make_report(state, residual(state, spec, lam), lam,
                        max_iter, tol)
