"""The paper's uniqueness claims at several dimensions, through the public
API only: below the threshold lambda_0 the isotropic state is the one
solution, and every uniqueness threshold lies below the first critical
value lambda_1."""

import math

import pytest

from onsager.bifurcation import index_of, uniqueness_thresholds
from onsager.kernel import build_kernel_spec
from onsager.solver import multistart, state_norm

DIMS = [3, 4, 5, 7, 10]


def _spec(D):
    return build_kernel_spec(D, 12, "onsager-recurrence")


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_isotropic_state_is_unique_below_lambda_0(D, seed):
    spec = _spec(D)
    lam = 0.99 * uniqueness_thresholds(spec).lambda_0_interval[0]
    census = multistart(spec, lam, 30, seed=seed)
    assert len(census) == 1
    (report,) = census
    assert state_norm(D, report.state.coeffs) <= 1e-9
    assert index_of(report, spec) == 1


@pytest.mark.parametrize("D", DIMS)
def test_lambda_exp_bound_solves_its_equation(D):
    # lam e^(4 lam ||K||_inf) (sum_n k_n + tail) = 1/2, ||K||_inf = 1 for
    # the |sin gamma| kernel
    spec = _spec(D)
    report = uniqueness_thresholds(spec)
    lam = report.lambda_exp_bound
    total = math.fsum(spec.coeffs) + report.tail_bound
    assert lam * math.exp(4 * lam) * total == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("D", DIMS)
def test_thresholds_lie_below_lambda_1(D):
    report = uniqueness_thresholds(_spec(D))
    lam1 = report.lambda_crit[0]
    assert report.lambda_tilde0 < lam1
    assert report.lambda_exp_bound < lam1
    assert report.lambda_0_interval[1] < lam1
