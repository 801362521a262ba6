"""The symmetric spectrum of I - J that `index_of` and
`classify_stability` read (`solver._spectrum`) checked against two
independent oracles: the eigenvalues of the non-symmetric Jacobian, and
Picard iteration, which converges locally exactly at stable solutions."""

import numpy as np
import pytest
from picard_oracle import picard

from onsager import cli, solver
from onsager.bifurcation import classify_stability, critical_values, index_of
from onsager.kernel import build_kernel_spec
from onsager.solver import (
    AxisymState,
    _fused_pass,
    _spectrum,
    jacobian,
    multistart,
    state_norm,
)

N = 16
STARTS = 300
SPECS = {D: build_kernel_spec(D, N, "onsager-recurrence")
         for D in (3, 4, 5, 7, 10)}


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


@pytest.mark.parametrize("argv, spectra", [
    ("sweep --lambda-min 9 --lambda-max 13 --steps 40 --modes 16 --nmax 16",
     0),
    ("audit-degree --lambda 15 --truncations 8,12,16 --nmax 16", 9),
], ids=["sweep", "audit-degree"])
def test_readme_censuses_read_each_spectrum_once(monkeypatch, tmp_path,
                                                 argv, spectra):
    # Newton factors each I - J once, in its solve: no slogdet or
    # eigvalsh runs inside _newton.  The audit reads the spectrum once per
    # reported (truncation, solution), for its index: 3 solutions at each
    # of 3 truncations
    newton, in_newton, inside, read = solver._newton, [], [], []

    def recording_newton(*args):
        in_newton.append(True)
        try:
            return newton(*args)
        finally:
            in_newton.pop()

    def recording(name, routine):
        def call(*args, **kwargs):
            if in_newton:
                inside.append(name)
            return routine(*args, **kwargs)
        return call

    def recording_spectrum(spec, lam, cov):
        read.append(cov.tobytes())
        return _spectrum(spec, lam, cov)

    monkeypatch.setattr(solver, "_newton", recording_newton)
    for name in ("slogdet", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            recording(name, getattr(np.linalg, name)))
    monkeypatch.setattr(solver, "_spectrum", recording_spectrum)
    assert cli.main(argv.split() + ["--output", str(tmp_path / "t.csv")]) == 0
    monkeypatch.undo()
    assert inside == []
    assert len(read) == len(set(read)) == spectra
