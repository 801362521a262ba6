"""The density pass on the folded rule (`solver._mode_tables`: the nodes
t >= 0, weights doubled at t > 0) against the pass on the whole rule it
replaced, kept here as the oracle.  Every integrand of a pass is even in
t, so the two agree to rounding: the moments a and the covariance to
1e-14 absolute, the residual and the Jacobian to 1e-14 max(1, lam k_1).
Checked also at an odd order, whose middle node t = 0 is not doubled."""

import numpy as np
import pytest

from onsager import solver
from onsager.kernel import build_kernel_spec
from onsager.polybasis import legendre_table, zonal_rule
from onsager.solver import (
    AxisymState,
    _density_weights,
    _fused_pass,
    solve,
    state_sup_norm,
)

SPECS = {D: build_kernel_spec(D, 16, "onsager-recurrence")
         for D in (3, 4, 5, 7, 10)}


def full_rule_pass(spec, lam, coeffs):
    """Moments a, residual u - lam G(u), Jacobian and covariance of one
    state or a stack, from P_{2n} at all solver._ORDER nodes of the
    zonal rule: the second moments as (table * g) @ table.T."""
    nodes, weights = zonal_rule(spec.D, solver._ORDER)
    table = legendre_table(spec.D, 2 * coeffs.shape[-1], nodes)[2::2]
    u = (coeffs[..., None, :] @ table)[..., 0, :]
    e = np.exp(-(u - u.min(axis=-1, keepdims=True)))
    g = weights * e / (weights * e).sum(axis=-1, keepdims=True)
    a = (table @ g[..., None])[..., 0] - table @ (weights / weights.sum())
    lam_k = np.multiply.outer(lam, spec.coeffs[:coeffs.shape[-1]])
    second = (table * g[..., None, :]) @ table.T
    cov = second - a[..., :, None] * a[..., None, :]
    return a, coeffs + lam_k * a, lam_k[..., :, None] * cov, cov


@pytest.fixture(params=[128, 127], ids=["order-128", "order-127"])
def order(request, monkeypatch):
    """solver._ORDER set to the parameter, with the folded tables rebuilt
    for it and again for the next test."""
    monkeypatch.setattr(solver, "_ORDER", request.param)
    solver._mode_tables.cache_clear()
    yield request.param
    solver._mode_tables.cache_clear()


def _cases(D, N):
    """A random stack of 16 states, four each with sum |u_n| = 0.5, 5, 20
    and 40 (a bound on |u|), and one lambda per row."""
    rng = np.random.default_rng(D * 100 + N)
    coeffs = rng.uniform(-1.0, 1.0, (16, N))
    amplitude = np.repeat([0.5, 5.0, 20.0, 40.0], 4)[:, None]
    return (coeffs * amplitude / np.abs(coeffs).sum(axis=1, keepdims=True),
            rng.uniform(0.0, 30.0, 16))


def _assert_pass_matches(spec, lam, coeffs):
    a, res, jac, cov = full_rule_pass(spec, lam, coeffs)
    got_res, got_jac, got_cov = _fused_pass(spec, lam, coeffs)
    got_a = _density_weights(spec.D, coeffs)[2]
    scale = np.maximum(1.0, np.asarray(lam) * spec.coeffs[0])
    assert np.max(np.abs(got_a - a)) <= 1e-14
    assert np.max(np.abs(got_cov - cov)) <= 1e-14
    res_err = np.max(np.abs(got_res - res), axis=-1)
    jac_err = np.max(np.abs(got_jac - jac), axis=(-2, -1))
    assert np.all(res_err <= 1e-14 * scale)
    assert np.all(jac_err <= 1e-14 * scale)


@pytest.mark.parametrize("N", [1, 8, 16])
@pytest.mark.parametrize("D", sorted(SPECS))
def test_folded_pass_matches_full_rule(order, D, N):
    coeffs, lam = _cases(D, N)
    _assert_pass_matches(SPECS[D], lam, coeffs)
    for row in (0, 15):  # one state alone, lam a scalar
        _assert_pass_matches(SPECS[D], float(lam[row]), coeffs[row])


def test_folded_pass_matches_full_rule_at_strong_alignment(order):
    # the nematic state at D = 3, lambda = 60, sup |u| about 44
    spec, lam = SPECS[3], 60.0
    report = solve(spec, lam, AxisymState(3, np.r_[-30.0, np.zeros(15)]))
    assert report.converged and state_sup_norm(report.state) > 40.0
    _assert_pass_matches(spec, lam, report.state.coeffs)


def test_folded_rule_halves_the_nodes(order):
    weights, table, _ = solver._mode_tables(3, 4)
    nodes, full = zonal_rule(3, order)
    assert weights.size == table.shape[1] == (order + 1) // 2
    assert table.flags.c_contiguous
    assert weights.sum() == pytest.approx(full.sum(), rel=1e-15)
    # an odd rule's middle node is t = 0 and keeps its weight
    assert weights[0] == (full[order // 2] if order % 2 else
                          2.0 * full[order // 2])

