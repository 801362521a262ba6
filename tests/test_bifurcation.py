import math

import numpy as np
import pytest

from onsager import bifurcation
from onsager.bifurcation import (
    classify_stability,
    critical_values,
    degree_audit,
    index_of,
    trace_branch,
    uniqueness_thresholds,
)
from onsager.errors import (
    BranchNotFoundError,
    DegenerateIndexError,
    ThresholdUndefinedError,
    ValidationError,
)
from onsager.kernel import KernelSpec, build_kernel_spec
from onsager.polybasis import harmonic_count
from onsager.solver import AxisymState, multistart, solve, state_norm

SPEC3 = build_kernel_spec(3, 12, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def _degenerate_spec():
    return KernelSpec(D=3, n_max=2, coeffs=np.array([1.0, 0.0]), k0=0.0,
                      sup_norm_khat=1.0, source="custom")


def test_first_critical_value_closed_forms():
    # lambda_1 = N(D, 2) / k_1: 32/pi for D = 3, 45 pi / 8 for D = 4
    assert critical_values(SPEC3)[0] == pytest.approx(LAM1, rel=1e-10)
    spec4 = build_kernel_spec(4, 6, "onsager-quadrature")
    assert critical_values(spec4)[0] == pytest.approx(45 * math.pi / 8,
                                                      rel=1e-10)


def test_critical_value_ratio_d3():
    crit = critical_values(SPEC3)
    assert crit[1] / crit[0] == pytest.approx(8.0, rel=1e-10)


@pytest.mark.parametrize("D", [3, 4, 5])
def test_critical_values_increase(D):
    crit = critical_values(build_kernel_spec(D, 10, "onsager-quadrature"))
    assert all(b > a for a, b in zip(crit, crit[1:]))


def test_critical_values_reject_nonpositive_coefficient():
    with pytest.raises(ValidationError) as err:
        critical_values(_degenerate_spec())
    assert err.value.index == 2


def test_lambda_tilde0_closed_form():
    report = uniqueness_thresholds(SPEC3)
    assert report.lambda_tilde0 == pytest.approx(4 / (5 * math.pi),
                                                 rel=1e-12)


def test_thresholds_single_mode_custom():
    spec = build_kernel_spec(3, 1, "custom", custom_coeffs=[1.0])
    report = uniqueness_thresholds(spec)
    # no tail: the bracket collapses to the exact value 1 / k_1
    assert report.tail_bound == 0.0
    assert report.lambda_0 == pytest.approx(1.0, rel=1e-14)
    assert report.lambda_0_interval[0] == report.lambda_0_interval[1]


def test_threshold_exp_bound_satisfies_defining_equation():
    report = uniqueness_thresholds(SPEC3)
    lam = report.lambda_exp_bound
    total = float(SPEC3.coeffs.sum()) + report.tail_bound
    assert lam * math.exp(4 * lam) * total == pytest.approx(0.5, rel=1e-12)


def test_threshold_ordering():
    report = uniqueness_thresholds(SPEC3)
    lo, hi = report.lambda_0_interval
    assert 0 < lo <= report.lambda_0 <= hi
    assert hi < report.lambda_crit[0]
    assert report.lambda_tilde0 < report.lambda_crit[0]
    assert 0 < report.lambda_exp_bound < report.lambda_crit[0]


def test_thresholds_undefined_for_degenerate_kernel():
    with pytest.raises(ThresholdUndefinedError):
        uniqueness_thresholds(_degenerate_spec())


def test_threshold_report_json_dict():
    data = uniqueness_thresholds(SPEC3).to_json_dict()
    assert set(data) == {"lambda_tilde0", "lambda_0", "lambda_0_interval",
                         "lambda_exp_bound", "lambda_crit", "tail_bound"}
    assert len(data["lambda_crit"]) == SPEC3.n_max


def test_trivial_index_factorizes_over_modes():
    # at the trivial solution I - J is diagonal, so the index is the
    # product of the per-mode signs of 1 - lam k_n / N(3, 2n)
    rng = np.random.default_rng(7)
    crit = critical_values(SPEC3)
    checked = 0
    while checked < 50:
        lam = float(rng.uniform(0.5, 1.2 * crit[2]))
        if min(abs(lam - c) / c for c in crit) < 1e-3:
            continue
        report = solve(SPEC3, lam, AxisymState(3, np.zeros(6)))
        expected = int(np.prod([
            math.copysign(1, 1 - lam * SPEC3.coeff(n)
                          / harmonic_count(3, 2 * n))
            for n in range(1, 7)]))
        assert index_of(report, SPEC3, lam) == expected
        checked += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_index_flips_across_critical_values(n):
    crit = critical_values(SPEC3)
    eps = 1e-3 * crit[n - 1]
    signs = []
    for lam in (crit[n - 1] - eps, crit[n - 1] + eps):
        report = solve(SPEC3, lam, AxisymState(3, np.zeros(6)))
        signs.append(index_of(report, SPEC3, lam))
    assert signs[0] == -signs[1]


def test_index_degenerate_at_critical_value():
    report = solve(SPEC3, LAM1, AxisymState(3, np.zeros(6)))
    with pytest.raises(DegenerateIndexError):
        index_of(report, SPEC3, LAM1)


def test_index_requires_convergence():
    report = solve(SPEC3, 15.0, AxisymState(3, [0.5] + [0.0] * 5),
                   max_iter=0)
    assert not report.converged
    with pytest.raises(ValueError):
        index_of(report, SPEC3, 15.0)


def test_degree_audit_below_first_critical_value():
    report = degree_audit(SPEC3, 5.0, n_starts=20, seed=0,
                          truncations=(6, 8))
    assert len(report.solutions) == 1
    assert report.degree_sum == 1
    assert report.stable_across_truncations
    assert report.solutions[0].index == 1


def test_degree_audit_between_first_and_second_critical_values():
    report = degree_audit(SPEC3, 15.0, n_starts=25, seed=0,
                          truncations=(8, 12))
    assert len(report.solutions) == 3
    assert sorted(r.index for r in report.solutions) == [-1, 1, 1]
    assert report.degree_sum == 1
    assert report.stable_across_truncations


def test_degree_audit_dilute_limit():
    report = degree_audit(SPEC3, 0.01, n_starts=10, seed=3,
                          truncations=(4, 6))
    assert len(report.solutions) == 1
    assert report.degree_sum == 1


def test_degree_audit_rejects_near_critical_lambda():
    with pytest.raises(ValidationError) as err:
        degree_audit(SPEC3, LAM1 * (1 + 1e-8), n_starts=5, seed=0,
                     truncations=(6,))
    assert err.value.index == 1


def test_degree_audit_json_dict():
    data = degree_audit(SPEC3, 5.0, n_starts=10, seed=0,
                        truncations=(6,)).to_json_dict()
    assert data["lambda"] == 5.0
    assert data["degree_sum"] == 1
    assert data["truncations_checked"] == [6]


def test_trace_branch_amplitudes_grow_from_onset():
    branch = trace_branch(SPEC3, 1, lambda_end=1.3 * LAM1, steps=6)
    assert branch.origin == pytest.approx(LAM1, rel=1e-10)
    for sign in (1, -1):
        amps = branch.amplitudes(sign)
        assert len(amps) >= 3
        assert all(b > a for a, b in zip(amps, amps[1:]))
        # the family emanates from the trivial solution
        assert amps[0] < 0.5


def test_trace_branch_mode_one_dominates():
    branch = trace_branch(SPEC3, 1, lambda_end=1.3 * LAM1, steps=6)
    for point in branch.points:
        u = point.report.state.coeffs
        assert abs(u[0]) >= 0.9 * np.max(np.abs(u))


def test_trace_branch_validation_and_missing_branch():
    with pytest.raises(ValueError):
        trace_branch(SPEC3, 0, lambda_end=5.0, steps=2)
    with pytest.raises(ValueError):
        trace_branch(SPEC3, 13, lambda_end=5.0, steps=2)
    with pytest.raises(BranchNotFoundError):
        trace_branch(_degenerate_spec(), 2, lambda_end=5.0, steps=2)


@pytest.mark.parametrize("fail_above", [0.0, 1.06 * LAM1])
def test_trace_branch_propagates_programming_errors(monkeypatch,
                                                    fail_above):
    # onset seeding stays within 5% of lambda_1, so 0 breaks the seeding
    # solves and 1.06 lambda_1 only the continuation solves
    real_solve = bifurcation.solve

    def broken_solve(spec, lam, *args, **kwargs):
        if lam > fail_above:
            raise TypeError("broken solve")
        return real_solve(spec, lam, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "solve", broken_solve)
    with pytest.raises(TypeError):
        trace_branch(SPEC3, 1, lambda_end=1.3 * LAM1, steps=6)


def test_branch_json_dict():
    branch = trace_branch(SPEC3, 1, lambda_end=1.2 * LAM1, steps=2)
    data = branch.to_json_dict()
    assert data["mode"] == 1
    assert data["origin"] == branch.origin
    assert all("lambda" in p and "stable" in p for p in data["points"])


def test_trivial_solution_stability_switches_at_lambda1():
    trivial = AxisymState(3, np.zeros(4))
    below = solve(SPEC3, 5.0, trivial)
    assert classify_stability((5.0, below), SPEC3) == "stable"
    above = solve(SPEC3, 1.1 * LAM1, trivial)
    assert classify_stability((1.1 * LAM1, above), SPEC3) == "unstable"


def test_nematic_solution_is_stable():
    lam = 1.2 * LAM1
    census = multistart(SPEC3, lam, 20, seed=2, N=6)
    nematic = census[-1]
    assert state_norm(3, nematic.state.coeffs) > 0.1
    assert classify_stability((lam, nematic), SPEC3) == "stable"


def test_classify_stability_requires_convergence():
    report = solve(SPEC3, 15.0, AxisymState(3, [0.5] + [0.0] * 5),
                   max_iter=0)
    with pytest.raises(ValueError):
        classify_stability((15.0, report), SPEC3)
