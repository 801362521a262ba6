"""The batched Newton loop of `multistart` against the per-start loop it
replaced, kept here as the oracle: every start must end the same way
(converged, unconverged or singular) after the same number of
iterations at the same state."""

import numpy as np
import pytest

from onsager import solver
from onsager.errors import SingularLinearizationError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import harmonic_count
from onsager.solver import (
    DEFAULT_ORDER,
    AxisymState,
    _make_report,
    _newton,
    _polish,
    _residual_and_jacobian,
    jacobian,
    multistart,
    residual,
    state_norm,
)

SPEC = build_kernel_spec(3, 16, "onsager-quadrature")
LAM1 = harmonic_count(3, 2) / SPEC.coeff(1)
STARTS = 20
TOL = 1e-10


def oracle_solve(spec, lam, init, tol, max_iter, order=DEFAULT_ORDER):
    """Newton's method on one start, one state at a time."""
    state = init
    for it in range(1, max_iter + 1):
        res, jac, _ = _residual_and_jacobian(state, spec, lam, order)
        if state_norm(state.D, res) <= tol:
            state, res = _polish(state, res, jac, spec, lam, order)
            return _make_report(state, res, spec, lam, it - 1, tol)
        system = np.eye(state.N) - jac
        # scale-invariant singularity test: reciprocal condition number
        svals = np.linalg.svd(system, compute_uv=False)
        if svals[-1] <= 1e-12 * max(svals[0], 1.0):
            raise SingularLinearizationError(
                f"Newton linearization singular at lambda={lam}")
        delta = np.linalg.solve(system, -res)
        new_coeffs = state.coeffs + delta
        if not np.all(np.isfinite(new_coeffs)):
            return _make_report(state, res, spec, lam, it, tol)
        state = AxisymState(state.D, new_coeffs)
    return _make_report(state, residual(state, spec, lam, order=order), spec,
                        lam, max_iter, tol)


def oracle_starts(spec, lam, n_starts, seed, N):
    """The starts multistart draws: the isotropic state, then one uniform
    draw from the a priori box per start."""
    rng = np.random.default_rng(seed)
    box = lam * spec.sup_norm_khat
    return [np.zeros(N)] + [rng.uniform(-box, box, size=N)
                            for _ in range(n_starts - 1)]


def oracle_multistart(spec, lam, n_starts, seed, N, tol, max_iter):
    found = []
    for coeffs in oracle_starts(spec, lam, n_starts, seed, N):
        try:
            report = oracle_solve(spec, lam, AxisymState(spec.D, coeffs),
                                  tol, max_iter)
        except SingularLinearizationError:
            continue
        if not report.converged:
            continue
        if all(state_norm(spec.D, report.state.coeffs - other.state.coeffs)
               > 10.0 * tol for other in found):
            found.append(report)
    found.sort(key=lambda r: (state_norm(spec.D, r.state.coeffs),
                              tuple(r.state.coeffs)))
    return found


def _outcome(report):
    if report is None:
        return "singular"
    return "converged" if report.converged else "unconverged"


@pytest.mark.parametrize("max_iter", [200, 3])
@pytest.mark.parametrize("lam", [0.9 * LAM1, LAM1, 1.1 * LAM1, 15.0],
                         ids=["0.9lambda1", "lambda1", "1.1lambda1", "15"])
@pytest.mark.parametrize("N", [6, 8, 16])
@pytest.mark.parametrize("seed", range(5))
def test_batched_newton_matches_per_start_loop(seed, N, lam, max_iter):
    starts = oracle_starts(SPEC, lam, STARTS, seed, N)
    batched = _newton(SPEC, lam, 3, np.array(starts), TOL, max_iter,
                      DEFAULT_ORDER)
    for coeffs, outcome in zip(starts, batched, strict=True):
        try:
            expected = oracle_solve(SPEC, lam, AxisymState(3, coeffs), TOL,
                                    max_iter)
        except SingularLinearizationError:
            expected = None
        got = None if outcome is None else _make_report(
            *outcome[:2], SPEC, lam, outcome[2], TOL)
        assert _outcome(got) == _outcome(expected)
        if expected is not None:
            assert got.iterations == expected.iterations
            np.testing.assert_allclose(got.state.coeffs,
                                       expected.state.coeffs,
                                       rtol=0.0, atol=1e-12)
            assert got.residual_norm == pytest.approx(
                expected.residual_norm, rel=1e-9, abs=1e-15)
    census = multistart(SPEC, lam, STARTS, seed, N=N, tol=TOL,
                        max_iter=max_iter)
    reference = oracle_multistart(SPEC, lam, STARTS, seed, N, TOL, max_iter)
    assert len(census) == len(reference)
    for got, expected in zip(census, reference):
        np.testing.assert_allclose(got.state.coeffs, expected.state.coeffs,
                                   rtol=0.0, atol=1e-12)


def test_census_split_into_batches_matches_per_start_loop(monkeypatch):
    # more starts than one batch holds: the census is still assembled in
    # start order
    monkeypatch.setattr(solver, "_BATCH_ROWS", 3)
    census = multistart(SPEC, 15.0, STARTS, 1, N=8)
    reference = oracle_multistart(SPEC, 15.0, STARTS, 1, 8, TOL, 200)
    assert len(census) == len(reference) == 3
    for got, expected in zip(census, reference):
        np.testing.assert_allclose(got.state.coeffs, expected.state.coeffs,
                                   rtol=0.0, atol=1e-12)


def test_max_iter_census_drops_unconverged_starts():
    # the max_iter=3 cases above only mean something if some starts fail
    starts = oracle_starts(SPEC, 15.0, STARTS, 0, 8)
    outcomes = _newton(SPEC, 15.0, 3, np.array(starts), TOL, 3,
                       DEFAULT_ORDER)
    converged = [_make_report(o[0], o[1], SPEC, 15.0, o[2], TOL).converged
                 for o in outcomes]
    assert 0 < sum(converged) < len(converged)


def test_start_converging_on_the_last_update_counts_as_converged():
    # with max_iter equal to the updates a start needs, its last update
    # lands inside tol and is reported as converged, without the polish
    starts = np.array(oracle_starts(SPEC, 15.0, STARTS, 0, 8))
    needed = [o[2] for o in _newton(SPEC, 15.0, 3, starts, TOL, 200,
                                    DEFAULT_ORDER)]
    row = int(np.argmax(needed))
    outcome = _newton(SPEC, 15.0, 3, starts, TOL, needed[row],
                      DEFAULT_ORDER)[row]
    got = _make_report(*outcome[:2], SPEC, 15.0, outcome[2], TOL)
    expected = oracle_solve(SPEC, 15.0, AxisymState(3, starts[row]), TOL,
                            needed[row])
    assert got.converged and expected.converged
    assert got.iterations == expected.iterations == needed[row]
    np.testing.assert_allclose(got.state.coeffs, expected.state.coeffs,
                               rtol=0.0, atol=1e-12)
    assert got.residual_norm == pytest.approx(expected.residual_norm,
                                              rel=1e-9, abs=1e-15)


def test_singular_row_is_dropped_and_the_others_converge():
    # I - J vanishes to rounding at u = 0.3 for this lambda (one mode), so
    # the first row fails the degeneracy test on its first step; the
    # trivial start converges at once and the other two after some steps
    spec1 = build_kernel_spec(3, 1, "custom", custom_coeffs=[SPEC.coeff(1)])
    lam = 1.0 / jacobian(AxisymState(3, [0.3]), spec1, 1.0)[0, 0]
    system = 1.0 - jacobian(AxisymState(3, [0.3]), spec1, lam)
    assert abs(system[0, 0]) <= 1e-12
    starts = np.array([[0.3], [0.0], [2.0], [-1.0]])
    outcomes = _newton(spec1, lam, 3, starts, TOL, 200, DEFAULT_ORDER)
    assert outcomes[0] is None
    for coeffs, outcome in zip(starts[1:], outcomes[1:]):
        report = _make_report(*outcome[:2], spec1, lam, outcome[2], TOL)
        assert report.converged
        expected = oracle_solve(spec1, lam, AxisymState(3, coeffs), TOL, 200)
        assert report.iterations == expected.iterations
        np.testing.assert_allclose(report.state.coeffs,
                                   expected.state.coeffs, rtol=0.0,
                                   atol=1e-12)
    assert max(o[2] for o in outcomes[1:]) > 1
