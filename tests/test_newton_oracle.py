"""The pooled Newton loop of `multistart` and `censuses` against the
per-start loop it replaced, kept here as the oracle: every start must end
the same way (converged, unconverged or singular) after the same number
of iterations at the same state.  `oracle_polish` is the polish one
converged row takes alone, which the pool runs on its converged rows
together; `exact_solve` rebuilds one start from the single-row pieces,
and the census must equal it bit for bit, also when the pool refills
across census boundaries."""

import random

import numpy as np
import pytest

from onsager import solver
from onsager.errors import SingularLinearizationError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import harmonic_count
from onsager.solver import (
    AxisymState,
    _fused_pass,
    _make_report,
    _newton,
    censuses,
    jacobian,
    multistart,
    residual,
    state_norm,
)

SPEC = build_kernel_spec(3, 16, "onsager-quadrature")
LAM1 = harmonic_count(3, 2) / SPEC.coeff(1)
STARTS = 20
TOL = 1e-10


def oracle_polish(state, res, jac, spec, lam, target=1e-14, max_steps=4):
    """Extra Newton steps after convergence, one state at a time: the
    residual and Jacobian at state in, the final state and residual out.
    A candidate that is not finite raises ValueError (AxisymState)."""
    for _ in range(max_steps):
        if state_norm(res) <= target:
            break
        try:
            delta = np.linalg.solve(np.eye(state.N) - jac, -res)
        except np.linalg.LinAlgError:
            break
        candidate = AxisymState(state.D, state.coeffs + delta)
        cand_res, cand_jac, _ = _fused_pass(spec, lam, candidate.coeffs)
        if state_norm(cand_res) >= state_norm(res):
            break
        state, res, jac = candidate, cand_res, cand_jac
    return state, res


def newton_outcomes(spec, lam, starts, tol, max_iter):
    """_newton's arrays as one (state, residual, updates) per start in
    start order, None for a dropped start."""
    u, res, its = _newton(spec, lam, np.array(starts), tol, max_iter)
    return [None if n < 0 else (AxisymState(spec.D, x), r, int(n))
            for x, r, n in zip(u, res, its, strict=True)]


def oracle_solve(spec, lam, init, tol, max_iter):
    """Newton's method on one start, one state at a time."""
    state = init
    for it in range(1, max_iter + 1):
        res, jac, _ = _fused_pass(spec, lam, state.coeffs)
        if state_norm(res) <= tol:
            state, res = oracle_polish(state, res, jac, spec, lam)
            return _make_report(state, res, lam, it - 1, tol)
        try:
            delta = np.linalg.solve(np.eye(state.N) - jac, -res)
        except np.linalg.LinAlgError:  # I - J exactly singular
            raise SingularLinearizationError(
                f"Newton linearization singular at lambda={lam}") from None
        new_coeffs = state.coeffs + delta
        if not np.all(np.isfinite(new_coeffs)):
            return _make_report(state, res, lam, it, tol)
        state = AxisymState(state.D, new_coeffs)
    return _make_report(state, residual(state, spec, lam), lam,
                        max_iter, tol)


def oracle_starts(spec, lam, n_starts, seed, N):
    """The starts multistart draws: the isotropic state, then per start N
    more numbers u of the stream random.Random(seed).random(), each taken
    to -box + 2 box u in the a priori box."""
    rng = random.Random(seed)
    box = lam * spec.sup_norm_khat
    return [np.zeros(N)] + [
        -box + 2.0 * box * np.array([rng.random() for _ in range(N)])
        for _ in range(n_starts - 1)]


def oracle_census(reports, tol):
    """The census of per-start reports (None for a singular start) in
    start order, as multistart keeps it: converged, then farther than
    10 tol from every kept one; sorted by (norm, coeffs)."""
    found = []
    for report in reports:
        if report is not None and report.converged and all(
                state_norm(report.state.coeffs - other.state.coeffs)
                > 10.0 * tol for other in found):
            found.append(report)
    found.sort(key=lambda r: (state_norm(r.state.coeffs),
                              tuple(r.state.coeffs)))
    return found


def oracle_multistart(spec, lam, n_starts, seed, N, tol, max_iter):
    reports = []
    for coeffs in oracle_starts(spec, lam, n_starts, seed, N):
        try:
            reports.append(oracle_solve(spec, lam, AxisymState(
                spec.D, coeffs), tol, max_iter))
        except SingularLinearizationError:
            reports.append(None)
    return oracle_census(reports, tol)


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
    batched = newton_outcomes(SPEC, lam, starts, TOL, max_iter)
    for coeffs, outcome in zip(starts, batched, strict=True):
        try:
            expected = oracle_solve(SPEC, lam, AxisymState(3, coeffs), TOL,
                                    max_iter)
        except SingularLinearizationError:
            expected = None
        got = None if outcome is None else _make_report(
            *outcome[:2], lam, outcome[2], TOL)
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
    outcomes = newton_outcomes(SPEC, 15.0, starts, TOL, 3)
    converged = [_make_report(o[0], o[1], 15.0, o[2], TOL).converged
                 for o in outcomes]
    assert 0 < sum(converged) < len(converged)


def test_start_converging_on_the_last_update_counts_as_converged():
    # with max_iter equal to the updates a start needs, its last update
    # lands inside tol and is reported as converged, without the polish
    starts = np.array(oracle_starts(SPEC, 15.0, STARTS, 0, 8))
    needed = [o[2] for o in newton_outcomes(SPEC, 15.0, starts, TOL, 200)]
    row = int(np.argmax(needed))
    outcome = newton_outcomes(SPEC, 15.0, starts, TOL, needed[row])[row]
    got = _make_report(*outcome[:2], 15.0, outcome[2], TOL)
    expected = oracle_solve(SPEC, 15.0, AxisymState(3, starts[row]), TOL,
                            needed[row])
    assert got.converged and expected.converged
    assert got.iterations == expected.iterations == needed[row]
    np.testing.assert_allclose(got.state.coeffs, expected.state.coeffs,
                               rtol=0.0, atol=1e-12)
    assert got.residual_norm == pytest.approx(expected.residual_norm,
                                              rel=1e-9, abs=1e-15)


def test_singular_row_is_dropped_and_the_others_converge():
    # I - J is exactly 0 at u = 0.3 for this lambda (one mode), so the
    # first row has no solve on its first step; the trivial start
    # converges at once and the other two after some steps
    spec1 = build_kernel_spec(3, 1, "custom", custom_coeffs=[SPEC.coeff(1)])
    lam = 1.0 / jacobian(AxisymState(3, [0.3]), spec1, 1.0)[0, 0]
    system = 1.0 - jacobian(AxisymState(3, [0.3]), spec1, lam)
    assert system[0, 0] == 0.0
    starts = np.array([[0.3], [0.0], [2.0], [-1.0]])
    outcomes = newton_outcomes(spec1, lam, starts, TOL, 200)
    assert outcomes[0] is None
    for coeffs, outcome in zip(starts[1:], outcomes[1:]):
        report = _make_report(*outcome[:2], lam, outcome[2], TOL)
        assert report.converged
        expected = oracle_solve(spec1, lam, AxisymState(3, coeffs), TOL, 200)
        assert report.iterations == expected.iterations
        np.testing.assert_allclose(report.state.coeffs,
                                   expected.state.coeffs, rtol=0.0,
                                   atol=1e-12)
    assert max(o[2] for o in outcomes[1:]) > 1


def exact_solve(spec, lam, coeffs, tol, max_iter):
    """One start alone from the single-row pieces the batched loop stacks:
    `_fused_pass`, `np.linalg.solve`, `oracle_polish` and `_make_report`.
    None for a start whose I - J has no solve."""
    state = AxisymState(spec.D, coeffs)
    for it in range(1, max_iter + 1):
        res, jac, _ = _fused_pass(spec, lam, state.coeffs)
        if state_norm(res) <= tol:
            state, res = oracle_polish(state, res, jac, spec, lam)
            return _make_report(state, res, lam, it - 1, tol)
        try:
            delta = np.linalg.solve(np.eye(state.N) - jac, -res)
        except np.linalg.LinAlgError:
            return None
        new = state.coeffs + delta
        if not np.all(np.isfinite(new)):
            return _make_report(state, res, lam, it, tol)
        state = AxisymState(spec.D, new)
    return _make_report(state, _fused_pass(spec, lam, state.coeffs)[0],
                        lam, max_iter, tol)


def _assert_same_report(got, expected):
    assert np.array_equal(got.state.coeffs, expected.state.coeffs)
    assert got.residual_norm == expected.residual_norm
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged


README_SPEC = build_kernel_spec(3, 16, "onsager-recurrence")


# the README sweep (N = 16, lambda in [9, 13]) and audit (lambda = 15 at
# truncations 8, 12, 16, seeds 0 and its recheck 1), 30 starts each
@pytest.mark.parametrize(("lam", "N", "seed"), [
    (lam, 16, seed) for lam in (9.0, 9.4, 10.2, 11.5, 13.0)
    for seed in range(3)] + [
    (15.0, N, seed) for N in (8, 12, 16) for seed in range(2)])
def test_census_is_bitwise_the_per_start_loop(lam, N, seed):
    starts = oracle_starts(README_SPEC, lam, 30, seed, N)
    expected = [exact_solve(README_SPEC, lam, c, TOL, 200) for c in starts]
    batched = newton_outcomes(README_SPEC, lam, starts, TOL, 200)
    for outcome, report in zip(batched, expected, strict=True):
        assert (outcome is None) == (report is None)
        if report is not None:
            _assert_same_report(_make_report(*outcome[:2], lam,
                                             outcome[2], TOL), report)
    census = multistart(README_SPEC, lam, 30, seed, N=N)
    reference = oracle_census(expected, TOL)
    assert len(census) == len(reference) >= 1
    for got, report in zip(census, reference):
        _assert_same_report(got, report)


def test_batched_polish_ends_only_the_rows_it_cannot_step(monkeypatch):
    # four starts a distance 1e-9 from a root, all converged at once
    # (tol = inf), so they polish together in the pool: the first pass
    # gives row 1 an exactly singular I - J, so the stacked solve raises
    # LinAlgError; row 3 a step that overflows to a non-finite candidate,
    # where the per-row polish raised ValueError.  Both keep their state,
    # and rows 0 and 2 polish as they would alone.
    lam = 15.0
    root = multistart(README_SPEC, lam, 30, 0, N=8)[-1].state.coeffs
    coeffs = root + 1e-9 * np.random.default_rng(0).standard_normal((4, 8))
    res, jac, cov = _fused_pass(README_SPEC, lam, coeffs)
    jac[1] = np.eye(8)
    res[3], jac[3] = 1e308, 0.5 * np.eye(8)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(8) - jac, -res[..., None])
    with pytest.raises(ValueError, match="finite"):
        oracle_polish(AxisymState(3, coeffs[3]), res[3], jac[3],
                      README_SPEC, lam)
    expected = [oracle_polish(AxisymState(3, coeffs[j]), res[j], jac[j],
                              README_SPEC, lam) for j in (0, 1, 2)]
    passes = []

    def patched_pass(spec, lam, u):
        passes.append(u.copy())
        if len(passes) == 1:
            return res.copy(), jac.copy(), cov.copy()
        return _fused_pass(spec, lam, u)

    monkeypatch.setattr(solver, "_fused_pass", patched_pass)
    got_coeffs, got_res, its = _newton(README_SPEC, lam, coeffs.copy(),
                                       np.inf, 200)
    monkeypatch.undo()
    assert np.array_equal(passes[0], coeffs) and len(passes) > 1
    assert np.array_equal(its, [0, 0, 0, 0])
    for j, (state, r) in zip((0, 1, 2), expected):
        assert np.array_equal(got_coeffs[j], state.coeffs)
        assert np.array_equal(got_res[j], r)
    assert np.array_equal(got_coeffs[[1, 3]], coeffs[[1, 3]])
    assert np.array_equal(got_res[[1, 3]], res[[1, 3]])
    assert state_norm(got_res[0]) < 1e-14 < state_norm(res[0])
    assert state_norm(got_res[2]) < 1e-14 < state_norm(res[2])


def test_polish_row_ends_after_4_kept_candidates():
    # one mode at lambda_1, where the trivial root is degenerate: Newton
    # only halves u there, so from a start just inside tol each polish
    # step lowers the residual about 4 times and 4 steps stay above 1e-14
    spec1 = build_kernel_spec(3, 1, "onsager-recurrence")
    lam = harmonic_count(3, 2) / spec1.coeff(1)
    start = AxisymState(3, [1e-5])
    res, jac, _ = _fused_pass(spec1, lam, start.coeffs)
    assert state_norm(res) <= TOL
    u, got_res, its = _newton(spec1, lam, start.coeffs[None, :], TOL, 200)
    state, r = oracle_polish(start, res, jac, spec1, lam)
    assert its[0] == 0
    assert np.array_equal(u[0], state.coeffs) and np.array_equal(got_res[0], r)
    assert state_norm(r) > 1e-14
    # a fifth step would still have been kept
    fifth, _ = oracle_polish(start, res, jac, spec1, lam, max_steps=5)
    assert abs(fifth.coeffs[0]) < abs(u[0, 0])


def test_polish_keeps_a_candidate_whose_residual_norm_is_nan(monkeypatch):
    # NaN compares as lower, as in the per-row polish: the candidate is
    # kept, and the row ends there once its next step is not finite
    start = multistart(README_SPEC, 15.0, 30, 0, N=8)[-1].state.coeffs
    start = start + 1e-9 * np.random.default_rng(0).standard_normal(8)
    passes = []

    def patched_pass(spec, lam, u):
        passes.append(u.copy())
        res, jac, cov = _fused_pass(spec, lam, u)
        if len(passes) == 2:
            res = np.full_like(res, np.nan)
        return res, jac, cov

    monkeypatch.setattr(solver, "_fused_pass", patched_pass)
    u, res, its = _newton(README_SPEC, 15.0, start[None, :], 1e-6, 200)
    monkeypatch.undo()
    assert len(passes) == 2 and its[0] == 0
    assert np.array_equal(u[0], passes[1][0]) and np.isnan(res[0]).all()


@pytest.mark.parametrize("max_iter", [200, 3])
@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_pooled_censuses_are_bitwise_the_per_start_loop(monkeypatch, rows,
                                                        max_iter):
    # a pool of 1 to 7 rows refills across census boundaries: three
    # lambdas (one below the fold window, one inside, one above lambda_1)
    # times two seeds, 10 starts each; at 1 and 2 rows a polishing row
    # can hold the only free slot
    monkeypatch.setattr(solver, "_BATCH_ROWS", rows)
    lams, seeds, N = (9.0, 10.2, 13.0), (0, 1), 8
    found = censuses(README_SPEC, lams, 10, seeds, N=N, max_iter=max_iter)
    assert len(found) == len(lams)
    for lam, row in zip(lams, found):
        assert len(row) == len(seeds)
        for seed, census in zip(seeds, row):
            starts = oracle_starts(README_SPEC, lam, 10, seed, N)
            reference = oracle_census(
                [exact_solve(README_SPEC, lam, c, TOL, max_iter)
                 for c in starts], TOL)
            assert len(census) == len(reference) >= 1
            for got, report in zip(census, reference):
                assert got.lam == lam
                _assert_same_report(got, report)


def test_row_admitted_late_and_stopped_by_max_iter_matches_oracle(
        monkeypatch):
    # a pool of 2 rows: the last start, one that 3 updates do not bring
    # inside tol, enters only after others have ended and then stops
    # after 3 updates of its own
    lam, max_iter = 15.0, 3
    starts = oracle_starts(SPEC, lam, STARTS, 0, 8)
    expected = [oracle_solve(SPEC, lam, AxisymState(3, c), TOL, max_iter)
                for c in starts]
    late = next(j for j, r in enumerate(expected) if not r.converged)
    order = [j for j in range(len(starts)) if j != late][:5] + [late]
    passes = []

    def recording_pass(spec, lam, coeffs):
        passes.append(coeffs.copy())
        return _fused_pass(spec, lam, coeffs)

    monkeypatch.setattr(solver, "_BATCH_ROWS", 2)
    monkeypatch.setattr(solver, "_fused_pass", recording_pass)
    outcome = newton_outcomes(SPEC, lam, [starts[j] for j in order], TOL,
                              max_iter)[-1]
    monkeypatch.undo()
    entered = next(i for i, coeffs in enumerate(passes)
                   if (coeffs == starts[late]).all(axis=1).any())
    assert entered >= 2
    got = _make_report(*outcome[:2], lam, outcome[2], TOL)
    report = expected[late]
    assert not got.converged and not report.converged
    assert got.iterations == report.iterations == max_iter
    np.testing.assert_allclose(got.state.coeffs, report.state.coeffs,
                               rtol=0.0, atol=1e-12)
    assert got.residual_norm == pytest.approx(report.residual_norm,
                                              rel=1e-9, abs=1e-15)
    _assert_same_report(got, exact_solve(SPEC, lam, starts[late], TOL,
                                         max_iter))
