"""The symmetric spectrum of I - J that Newton, `index_of` and
`classify_stability` read (`solver._spectrum`) checked against two
independent oracles: the eigenvalues of the non-symmetric Jacobian, and
Picard iteration, which converges locally exactly at stable solutions.
Newton's trace shortcut and determinant certificate (`solver._singular`),
read on the non-symmetric I - J that Newton solves, must give the
spectrum's degeneracy flag on every matrix."""

import numpy as np
import pytest
from picard_oracle import picard

from onsager import cli, solver
from onsager.bifurcation import classify_stability, critical_values, index_of
from onsager.kernel import build_kernel_spec
from onsager.solver import (
    AxisymState,
    _fused_pass,
    _singular,
    _spectrum,
    jacobian,
    multistart,
    state_norm,
)

N = 16
STARTS = 300
SPECS = {D: build_kernel_spec(D, N, "onsager-recurrence")
         for D in (3, 4, 5, 7, 10)}


def _system(spec, lam, cov):
    """I - J, J = diag(lam k) Cov, as Newton builds it for one covariance
    or a stack, lam a scalar or one per matrix."""
    lam_k = np.multiply.outer(lam, spec.coeffs[:cov.shape[-1]])
    return np.eye(cov.shape[-1]) - lam_k[..., :, None] * cov


def _certificate(spec, lam, cov):
    """_singular's verdict on the covariances' I - J."""
    return _singular(spec, lam, cov, _system(spec, lam, cov))


def _census(D, lam):
    return multistart(SPECS[D], lam, STARTS, seed=0, N=N)


def _symmetric_mu(report, spec):
    """Eigenvalues 1 - g of J from the symmetric spectrum, ascending."""
    cov = _fused_pass(spec, report.lam, report.state.coeffs)[2]
    g, degenerate = _spectrum(spec, report.lam, cov)
    assert not degenerate
    return np.sort(1.0 - g)


@pytest.mark.parametrize("D, lam", [(3, 9.0), (3, 15.0)] + [
    (D, factor * critical_values(SPECS[D])[0])
    for D in SPECS for factor in (1.1, 1.3)])
def test_symmetric_spectrum_matches_nonsymmetric_eigenvalues(D, lam):
    spec = SPECS[D]
    census = _census(D, lam)
    assert len(census) == 3
    for report in census:
        mu = np.linalg.eigvals(jacobian(report.state, spec, report.lam))
        scale = max(1.0, float(np.max(np.abs(mu))))
        assert np.max(np.abs(mu.imag)) <= 1e-13 * scale
        mu_sym = _symmetric_mu(report, spec)
        assert np.max(np.abs(np.sort(mu.real) - mu_sym)) <= 1e-13 * scale
        # index and stability as the non-symmetric spectrum gives them
        above = np.count_nonzero(mu.real > 1.0)
        assert index_of(report, spec) == (-1 if above % 2 else 1)
        assert classify_stability(report, spec) == (
            "unstable" if above else "stable")


def test_fold_window_census_indices_and_stability():
    # lambda = 9.0 lies between the fold lambda* ~ 8.877 and lambda_1: the
    # isotropic state, the saddle and the prolate state
    spec = SPECS[3]
    census = _census(3, 9.0)
    indices = [index_of(r, spec) for r in census]
    assert indices == [1, -1, 1]
    assert sum(indices) == 1
    assert [classify_stability(r, spec) for r in census] == [
        "stable", "unstable", "stable"]


@pytest.mark.parametrize("lam", [9.0, 15.0])
def test_picard_returns_exactly_to_stable_solutions(lam):
    spec = SPECS[3]
    rng = np.random.default_rng(0)
    verdicts = []
    for report in _census(3, lam):
        kick = rng.standard_normal(N)
        kick *= 1e-4 / state_norm(kick)
        start = AxisymState(3, report.state.coeffs + kick)
        end = picard(spec, lam, start, max_iter=1000)
        distance = state_norm(end.state.coeffs - report.state.coeffs)
        stable = classify_stability(report, spec) == "stable"
        assert (distance < 1e-8) == stable
        if not stable:
            assert distance > 0.1
        verdicts.append(stable)
    # both verdicts occur, so the equivalence is tested both ways
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("argv", [
    "sweep --lambda-min 9 --lambda-max 13 --steps 40 --modes 16 --nmax 16",
    "audit-degree --lambda 15 --truncations 8,12,16 --nmax 16",
], ids=["sweep", "audit-degree"])
def test_certificate_decides_every_readme_census_matrix(monkeypatch,
                                                        tmp_path, argv):
    # the README censuses (seed 0) never fall back to eigvalsh: the
    # speed of Newton's singularity test rests on it
    seen, fallbacks, in_singular = [], [], []

    def recording_singular(spec, lam, cov, system):
        seen.append((spec, lam, cov.copy(), system.copy()))
        in_singular.append(True)
        flag = _singular(spec, lam, cov, system)
        in_singular.pop()
        return flag

    def recording_spectrum(spec, lam, cov):
        # index_of reads each solution's spectrum itself, outside Newton
        if in_singular:
            fallbacks.append(cov.shape)
        return _spectrum(spec, lam, cov)

    monkeypatch.setattr(solver, "_singular", recording_singular)
    monkeypatch.setattr(solver, "_spectrum", recording_spectrum)
    assert cli.main(argv.split() + ["--output", str(tmp_path / "t.csv")]) == 0
    monkeypatch.undo()
    assert fallbacks == []
    assert sum(len(cov) for _, _, cov, _ in seen) > 900
    for spec, lam, cov, system in seen:
        # Newton hands the certificate the I - J it solves
        assert np.array_equal(system, _system(spec, lam, cov))
        assert np.array_equal(_singular(spec, lam, cov, system),
                              _spectrum(spec, lam, cov)[1])


@pytest.mark.parametrize("spec, lam", [
    (build_kernel_spec(3, 4, "custom", custom_coeffs=(1, 0, 0, 0)), 7.5),
    (SPECS[10], 1.5 * critical_values(SPECS[10])[0]),
], ids=["zero-coefficients", "D10"])
def test_certificate_on_i_minus_j_far_from_i_minus_p(monkeypatch, spec, lam):
    # where d = sqrt(lam k) has zeros (the one-mode kernel, 1.5 lambda_1)
    # and where it spans decades (D = 10), the I - J that Newton solves is
    # far from the symmetric I - P; the trace and determinant it shares
    # with I - P still give the spectrum's verdict on every matrix of a
    # census, also on those past the trace cut
    seen = []

    def recording_singular(spec, lam, cov, system):
        seen.append((lam, cov.copy(), system.copy()))
        return _singular(spec, lam, cov, system)

    monkeypatch.setattr(solver, "_singular", recording_singular)
    census = multistart(spec, lam, STARTS, seed=0)
    monkeypatch.undo()
    assert len(census) == 3
    past_cut = distance = 0.0
    for lam, cov, system in seen:
        trace = cov.shape[-1] - np.trace(system, axis1=-2, axis2=-1)
        past_cut += np.count_nonzero(trace >= 1.0 - 1e-11)
        symmetric = solver._symmetric_system(spec, lam, cov)
        distance = np.abs(system - symmetric).max(initial=distance)
        assert np.array_equal(_singular(spec, lam, cov, system),
                              _spectrum(spec, lam, cov)[1])
    assert past_cut > 50
    assert distance > 1.0


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("delta", [1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8])
def test_certificate_matches_the_spectrum_near_degeneracy(monkeypatch, n,
                                                          delta):
    # P = Q diag(p) Q^T with one eigenvalue 1 -+ delta, so I - J has one
    # eigenvalue +-delta, on both sides of the 1e-12 test
    spec, lam = SPECS[3], 12.0
    d = np.sqrt(lam * np.asarray(spec.coeffs)[:n])
    rng = np.random.default_rng(n)
    covs = []
    for sign in (1, -1) * 10:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        p = rng.uniform(0.0, 1.0 / n, n)
        p[rng.integers(n)] = 1.0 + sign * delta
        covs.append((q * p) @ q.T / np.outer(d, d))
    covs = np.array(covs)
    fallbacks = []

    def recording_spectrum(spec, lam, cov):
        fallbacks.append(len(cov))
        return _spectrum(spec, lam, cov)

    monkeypatch.setattr(solver, "_spectrum", recording_spectrum)
    flags = _certificate(spec, lam, covs)
    assert np.array_equal(flags, _spectrum(spec, lam, covs)[1])
    if delta <= 1e-13:
        assert flags.all()
    if delta >= 1e-8:
        assert not flags.any() and not fallbacks  # certified


def _verdict(flags_of, spec, lam, covs):
    try:
        return flags_of(spec, lam, covs).tolist()
    except np.linalg.LinAlgError as err:  # eigvalsh on inf entries
        return str(err)


@pytest.mark.parametrize("entry", [(1, 2), (2, 1), (0, 0), (3, 1), (1, 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_certificate_gives_non_finite_covariances_to_the_spectrum(entry,
                                                                  value):
    spec, lam = build_kernel_spec(3, 4, "onsager-recurrence"), 12.0
    covs = np.tile(np.diag([0.2, 0.1, 0.05, 0.01]), (3, 1, 1))
    covs[1][entry] = value
    assert _verdict(_certificate, spec, lam, covs) == _verdict(
        lambda *args: _spectrum(*args)[1], spec, lam, covs)


def _diagonal_covs(spec, lam, traces, n=4):
    """Diagonal covariances whose P = diag(d) Cov diag(d) has the given
    traces, spread unevenly over n modes."""
    d2 = lam * np.asarray(spec.coeffs)[:n]
    shares = np.array([0.4, 0.3, 0.2, 0.1][:n])
    return np.array([np.diag(t * shares / d2) for t in traces])


def _record_deciders(monkeypatch, calls):
    """Append ("slogdet" or "spectrum", matrices) to calls for each
    slogdet and _spectrum call from now on."""
    def recording(name, fn):
        def recorded(*args):
            calls.append((name, len(args[-1])))
            return fn(*args)
        return recorded

    monkeypatch.setattr(np.linalg, "slogdet",
                        recording("slogdet", np.linalg.slogdet))
    monkeypatch.setattr(solver, "_spectrum",
                        recording("spectrum", _spectrum))


def test_trace_shortcut_decides_below_the_cut_only(monkeypatch):
    # tr P just below 1 - 1e-11 is decided by the trace alone; just above
    # it the slogdet certificate runs, and both are the spectrum's verdict
    spec, lam = build_kernel_spec(3, 4, "onsager-recurrence"), 12.0
    cut = 1.0 - 1e-11
    covs = _diagonal_covs(spec, lam, [cut - 1e-13, cut + 1e-13, 0.5, 3.0])
    trace = 4 - np.trace(_system(spec, lam, covs), axis1=-2, axis2=-1)
    assert trace[0] < cut < trace[1]
    calls = []
    _record_deciders(monkeypatch, calls)
    flags = _certificate(spec, lam, covs)
    monkeypatch.undo()
    assert calls == [("slogdet", 2)]  # tr P = 1 - 1e-11 + 1e-13 and 3
    assert np.array_equal(flags, _spectrum(spec, lam, covs)[1])
    assert not flags.any()


@pytest.mark.parametrize("entry", [(0, 1), (3, 2), (1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trace_shortcut_leaves_non_finite_entries_to_the_spectrum(
        monkeypatch, entry, value):
    # tr P = 0.5 < 1 with a non-finite off-diagonal entry, or with a
    # non-finite diagonal one (-inf makes tr P = -inf): neither the trace
    # nor slogdet decides, the spectrum does
    spec, lam = build_kernel_spec(3, 4, "onsager-recurrence"), 12.0
    covs = _diagonal_covs(spec, lam, [0.5, 0.5, 0.5])
    covs[1][entry] = value
    calls = []
    _record_deciders(monkeypatch, calls)
    got = _verdict(_certificate, spec, lam, covs)
    monkeypatch.undo()
    assert calls == [("spectrum", 1)]
    assert got == _verdict(lambda *args: _spectrum(*args)[1], spec, lam,
                           covs)
