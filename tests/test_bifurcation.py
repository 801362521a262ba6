import math

import mpmath
import numpy as np
import pytest
from natural_branch_oracle import trace_branch as natural_branch
from pointwise_oracle import amplitudes
from scipy.special import lambertw

from onsager import bifurcation, solver
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
    InconclusiveAuditError,
    SingularLinearizationError,
    ThresholdUndefinedError,
    ValidationError,
)
from onsager.kernel import KernelSpec, build_kernel_spec, onsager_mean
from onsager.polybasis import harmonic_count
from onsager.solver import (
    AxisymState,
    multistart,
    solve,
    state_norm,
)

SPEC3 = build_kernel_spec(3, 12, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def _degenerate_spec():
    return KernelSpec(D=3, coeffs=np.array([1.0, 0.0]), k0=0.0,
                      source="custom")


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


def test_critical_value_of_a_zero_coefficient_is_infinite():
    # k_2 = 0: no family bifurcates from mode 2
    assert critical_values(_degenerate_spec()) == [5.0, math.inf]


def test_lambda_tilde0_closed_form():
    report = uniqueness_thresholds(SPEC3)
    assert report.lambda_tilde0 == pytest.approx(4 / (5 * math.pi),
                                                 rel=1e-12)


def test_thresholds_single_mode_custom():
    spec = build_kernel_spec(3, 1, "custom", custom_coeffs=[1.0])
    report = uniqueness_thresholds(spec)
    # no tail: the bracket collapses to the exact value 1 / k_1
    assert report.tail_bound == 0.0
    assert report.lambda_0_interval[0] == pytest.approx(1.0, rel=1e-14)
    assert report.lambda_0_interval[0] == report.lambda_0_interval[1]


def test_threshold_exp_bound_satisfies_defining_equation():
    report = uniqueness_thresholds(SPEC3)
    lam = report.lambda_exp_bound
    total = math.fsum(SPEC3.coeffs) + report.tail_bound
    assert lam * math.exp(4 * lam) * total == pytest.approx(0.5, rel=1e-12)


def test_lambert_w_matches_scipy():
    # the Halley iteration behind lambda_exp_bound, against scipy's
    # principal branch
    for x in np.geomspace(1e-8, 1e3, 2001):
        ref = lambertw(x).real
        assert abs(bifurcation._lambert_w(x) - ref) <= 1e-15 * ref, x
    assert bifurcation._lambert_w(0.0) == 0.0
    assert bifurcation._lambert_w(math.e) == pytest.approx(1.0, rel=1e-15)


def test_threshold_ordering():
    report = uniqueness_thresholds(SPEC3)
    lo, hi = report.lambda_0_interval
    assert 0 < lo <= hi
    assert hi < report.lambda_crit[0]
    assert report.lambda_tilde0 < report.lambda_crit[0]
    assert 0 < report.lambda_exp_bound < report.lambda_crit[0]


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10])
@pytest.mark.parametrize("n_max", [1, 4, 6, 12, 30])
@pytest.mark.parametrize("source", ["onsager-quadrature",
                                    "onsager-recurrence"])
def test_lambda_0_lower_end_never_exceeds_one_over_k0(D, n_max, source):
    # lambda_0 = 1/k0 for the |sin gamma| kernel, whatever table the spec
    # carries; a quadrature table that sums short of the closed form must
    # not lift the conservative end above it
    lower = uniqueness_thresholds(
        build_kernel_spec(D, n_max, source)).lambda_0_interval[0]
    assert lower <= 1 / onsager_mean(D)
    assert lower == pytest.approx(1 / onsager_mean(D), rel=1e-12, abs=0.0)


def test_thresholds_undefined_for_degenerate_kernel():
    # a zero k_n leaves the thresholds defined, with lambda_n = inf; only
    # a zero coefficient sum makes them undefined
    report = uniqueness_thresholds(_degenerate_spec())
    assert report.lambda_0_interval == (1.0, 1.0)
    assert report.lambda_crit == [5.0, math.inf]
    with pytest.raises(ThresholdUndefinedError):
        uniqueness_thresholds(KernelSpec(D=3, coeffs=(0.0, 0.0), k0=0.0,
                                         source="custom"))


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
        assert index_of(report, SPEC3) == expected
        checked += 1


@pytest.mark.parametrize("D", [3, 4, 5, 7, 10])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_index_flips_across_critical_values(n, D):
    spec = build_kernel_spec(D, 6, "onsager-quadrature")
    crit = critical_values(spec)
    eps = 1e-3 * crit[n - 1]
    signs = []
    for lam in (crit[n - 1] - eps, crit[n - 1] + eps):
        report = solve(spec, lam, AxisymState(D, np.zeros(6)))
        signs.append(index_of(report, spec))
    assert signs[0] == -signs[1]


def test_index_degenerate_at_critical_value():
    # the degeneracy Newton refuses to step through, with its exception
    report = solve(SPEC3, LAM1, AxisymState(3, np.zeros(6)))
    with pytest.raises(SingularLinearizationError):
        index_of(report, SPEC3)
    with pytest.raises(SingularLinearizationError):
        classify_stability(report, SPEC3)


def test_index_requires_convergence():
    report = solve(SPEC3, 15.0, AxisymState(3, [0.5] + [0.0] * 5),
                   max_iter=0)
    assert not report.converged
    with pytest.raises(ValueError):
        index_of(report, SPEC3)


def test_degree_audit_below_first_critical_value():
    census = degree_audit(SPEC3, 5.0, n_starts=20, seed=0,
                          truncations=(6, 8))
    assert [r.index for r in census] == [1]
    assert census[0].lam == 5.0


def test_degree_audit_between_first_and_second_critical_values():
    census = degree_audit(SPEC3, 15.0, n_starts=25, seed=0,
                          truncations=(8, 12))
    assert sorted(r.index for r in census) == [-1, 1, 1]
    # the census of the last truncation
    assert all(r.state.N == 12 for r in census)


def test_degree_audit_dilute_limit():
    census = degree_audit(SPEC3, 0.01, n_starts=10, seed=3,
                          truncations=(4, 6))
    assert [r.index for r in census] == [1]


def test_degree_audit_raises_when_a_solution_is_missing(monkeypatch):
    # the census at lambda = 15 holds the isotropic state (index -1
    # between lambda_1 and lambda_2) and two nematic states (+1 each);
    # without the first nematic one the indices sum to 0
    full = solver.censuses

    def short_census(*args, **kwargs):
        return [[found[:1] + found[2:] for found in pair]
                for pair in full(*args, **kwargs)]

    monkeypatch.setattr(solver, "censuses", short_census)
    with pytest.raises(InconclusiveAuditError,
                       match=r"index sum at N=8 is 0, not the degree 1"):
        degree_audit(SPEC3, 15.0, n_starts=25, seed=0, truncations=(8, 12))


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("D", [3, 4, 5, 7, 10])
def test_degree_audit_of_the_isotropic_state_alone(monkeypatch, D, n, side):
    # a census holding only u = 0, whose index is the oracle
    # (-1)^#{m <= N : lambda_m < lambda}: the audit passes exactly where
    # that sign is +1, below lambda_1 and between lambda_2 and lambda_3
    spec = build_kernel_spec(D, 6, "onsager-recurrence")
    crit = critical_values(spec)
    lam = crit[n - 1] * (1 + side * 1e-3)

    def isotropic_census(spec, lams, n_starts, seeds, N=None):
        report = solve(spec, lams[0], AxisymState(spec.D, np.zeros(N)))
        return [[[report] for _ in seeds]]

    monkeypatch.setattr(solver, "censuses", isotropic_census)
    if (-1) ** sum(c < lam for c in crit) == 1:
        assert [r.index for r in degree_audit(spec, lam, 5, 0, (6,))] == [1]
    else:
        with pytest.raises(InconclusiveAuditError,
                           match=r"index sum at N=6 is -1"):
            degree_audit(spec, lam, 5, 0, (6,))


def test_degree_audit_rejects_near_critical_lambda():
    with pytest.raises(ValidationError) as err:
        degree_audit(SPEC3, LAM1 * (1 + 1e-8), n_starts=5, seed=0,
                     truncations=(6,))
    assert err.value.index == 1


def test_degree_audit_rejects_empty_truncations():
    with pytest.raises(ValueError):
        degree_audit(SPEC3, 5.0, 5, 0, ())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(("call", "match"), [
    (lambda: solve(SPEC3, NAN, AxisymState(3, np.zeros(4))), "finite"),
    (lambda: solve(SPEC3, INF, AxisymState(3, np.zeros(4))), "finite"),
    (lambda: solve(SPEC3, 5.0, AxisymState(3, np.zeros(4)), tol=NAN),
     "finite"),
    (lambda: solve(SPEC3, 5.0, AxisymState(3, np.zeros(4)), tol=INF),
     "finite"),
    (lambda: solve(SPEC3, 5.0, AxisymState(3, np.zeros(4)), tol=0.0),
     "finite"),
    (lambda: multistart(SPEC3, NAN, 5, seed=0), "finite"),
    (lambda: multistart(SPEC3, INF, 5, seed=0), "finite"),
    (lambda: multistart(SPEC3, 5.0, 5, seed=0, tol=NAN), "finite"),
    (lambda: multistart(SPEC3, 5.0, 5, seed=0, tol=-1.0), "finite"),
    (lambda: degree_audit(SPEC3, NAN, 5, 0, (4,)), "finite"),
    (lambda: degree_audit(SPEC3, INF, 5, 0, (4,)), "finite"),
    (lambda: degree_audit(SPEC3, -1.0, 5, 0, (4,)), "finite"),
    (lambda: trace_branch(SPEC3, 1, 1.3 * LAM1, tol=-1.0), "finite"),
    (lambda: trace_branch(SPEC3, 1, 1.3 * LAM1, tol=NAN), "finite"),
    (lambda: trace_branch(SPEC3, 1, 1.3 * LAM1, tol=INF), "finite"),
    (lambda: trace_branch(SPEC3, 1, NAN), "finite"),
    (lambda: trace_branch(SPEC3, 1, INF), "finite"),
    (lambda: solve(SPEC3, 5.0, AxisymState(3, np.zeros(4)), max_iter=-1),
     "max_iter"),
    (lambda: multistart(SPEC3, 5.0, 5, seed=0, max_iter=-3), "max_iter"),
    (lambda: multistart(SPEC3, 5.0, 5, seed=0, N=0), "truncation"),
], ids=["solve-lam-nan", "solve-lam-inf", "solve-tol-nan", "solve-tol-inf",
        "solve-tol-0", "multistart-lam-nan", "multistart-lam-inf",
        "multistart-tol-nan", "multistart-tol-neg", "audit-lam-nan",
        "audit-lam-inf", "audit-lam-neg", "branch-tol-neg", "branch-tol-nan",
        "branch-tol-inf", "branch-lam-nan", "branch-lam-inf",
        "solve-max-iter-neg", "multistart-max-iter-neg", "multistart-N-0"])
def test_entry_points_reject_non_finite_lambda_and_tol(call, match):
    # lambda must be finite and >= 0, tol finite and > 0; before the check,
    # these raised LinAlgError or OverflowError, returned an unconverged
    # report or ended in BranchNotFoundError.  max_iter must be >= 0 and
    # N >= 1: before, they raised SingularLinearizationError, returned an
    # empty census or failed in AxisymState
    with pytest.raises(ValueError, match=match):
        call()


def test_trace_branch_amplitudes_grow_from_onset():
    branch = trace_branch(SPEC3, 1, 1.3 * LAM1)
    assert branch.origin == pytest.approx(LAM1, rel=1e-10)
    for sign in (1, -1):
        amps = amplitudes(branch, sign)
        assert len(amps) >= 3
        assert all(b > a for a, b in zip(amps, amps[1:]))
        # the family emanates from the trivial solution
        assert amps[0] < 0.5


def test_trace_branch_mode_one_dominates():
    branch = trace_branch(SPEC3, 1, 1.3 * LAM1)
    for point in branch.points:
        u = point.state.coeffs
        assert abs(u[0]) >= 0.9 * np.max(np.abs(u))


# fold lambda* of the u_1 < 0 family by dimension, located by a
# continuation with a 1000 times tighter step test
FOLDS = {3: 8.8765804, 4: 12.6757422, 5: 16.2940035, 7: 23.2627941,
         10: 33.4211683}
# the same for the u_2 < 0 family of mode 2
FOLDS2 = {3: 76.2785, 4: 166.2593, 5: 292.7061, 7: 650.1856,
          10: 1441.5565071}


def _flips(values):
    return [i for i in range(1, len(values)) if values[i] != values[i - 1]]


@pytest.mark.parametrize("D", sorted(FOLDS))
def test_trace_branch_passes_the_fold(D):
    spec = build_kernel_spec(D, 16, "onsager-quadrature")
    thresholds = uniqueness_thresholds(spec)
    lam1 = thresholds.lambda_crit[0]
    branch = trace_branch(spec, 1, 1.3 * lam1)
    assert all(p.converged and p.lam <= 1.3 * lam1 for p in branch.points)
    oblate = [p for p in branch.points if p.state.coeffs[0] > 0]
    prolate = [p for p in branch.points if p.state.coeffs[0] < 0]
    assert oblate and all(classify_stability(p, spec) == "stable"
                          for p in oblate)
    lams = [p.lam for p in prolate]
    fold = int(np.argmin(lams))
    assert thresholds.lambda_0_interval[0] < lams[fold] < lam1
    assert lams[fold] == pytest.approx(FOLDS[D], rel=1e-4)
    # the saddle leaving lambda_1 becomes the stable prolate state at
    # the fold: one eigenvalue of I - J changes sign there
    indices = [index_of(p, spec) for p in prolate]
    stable = [classify_stability(p, spec) == "stable" for p in prolate]
    for flips in (_flips(indices), _flips(stable)):
        assert len(flips) == 1 and flips[0] in (fold, fold + 1)
    assert indices[0] == -1 and not stable[0]


@pytest.mark.parametrize("D", sorted(FOLDS2))
def test_every_family_keeps_its_sign_and_samples_its_fold(D):
    # up to 1.2 lambda_2 both families of modes 1 and 2 keep the sign of
    # u_n, and the u_2 < 0 family passes its fold
    spec = build_kernel_spec(D, 16, "onsager-recurrence")
    lambda_max = 1.2 * critical_values(spec)[1]
    for n in (1, 2):
        branch = trace_branch(spec, n, lambda_max)
        assert all(p.converged and p.lam <= lambda_max
                   for p in branch.points)
        assert branch.stops == ("lambda_max", "lambda_max")
        # the u_n > 0 family, then the u_n < 0 one, each in order of |u_n|
        signs = [np.sign(p.state.coeffs[n - 1]) for p in branch.points]
        flip = signs.index(-1.0)
        assert set(signs[:flip]) == {1.0} and set(signs[flip:]) == {-1.0}
        for family in (branch.points[:flip], branch.points[flip:]):
            amps = [abs(p.state.coeffs[n - 1]) for p in family]
            assert all(b > a for a, b in zip(amps, amps[1:]))
    lams = [p.lam for p in branch.points[flip:]]
    assert min(lams) == pytest.approx(FOLDS2[D], rel=1e-4)


def test_trace_branch_stops_at_lambda_max_not_at_the_step_limit(
        monkeypatch):
    # both D = 7 mode-1 families reach 1.2 lambda_2 within 1000 steps, so
    # that guard leaves the trace as it is
    spec = build_kernel_spec(7, 16, "onsager-recurrence")
    lambda_max = 1.2 * critical_values(spec)[1]

    def path():
        branch = trace_branch(spec, 1, lambda_max)
        assert branch.stops == ("lambda_max", "lambda_max")
        return np.array([np.append(p.state.coeffs, p.lam)
                         for p in branch.points])

    full = path()
    monkeypatch.setattr(bifurcation, "_MAX_STEPS", 1000)
    assert np.array_equal(path(), full)


def test_trace_branch_reports_the_step_limit(monkeypatch):
    # 12 steps, halvings included, leave both families short of
    # lambda_max
    monkeypatch.setattr(bifurcation, "_MAX_STEPS", 12)
    branch = trace_branch(SPEC3, 1, 1.3 * LAM1)
    assert branch.stops == ("step_limit", "step_limit")
    for sign in (1, -1):
        lams = [p.lam for p in branch.points
                if np.sign(p.state.coeffs[0]) == sign]
        assert 0 < len(lams) <= 12 and max(lams) < 1.1 * LAM1


def test_trace_branch_reports_the_step_floor(monkeypatch):
    # a corrector that fails on the u_1 > 0 family above 1.1 lambda_1:
    # that family's step halves to the floor there, the other one
    # reaches lambda_max
    corrector = bifurcation._corrector

    def failing(spec, y, border, tol):
        if y[0] > 0 and y[-1] > 1.1 * LAM1:
            return None
        return corrector(spec, y, border, tol)

    monkeypatch.setattr(bifurcation, "_corrector", failing)
    branch = trace_branch(SPEC3, 1, 1.3 * LAM1)
    assert branch.stops == ("step_floor", "lambda_max")
    oblate = [p.lam for p in branch.points if p.state.coeffs[0] > 0]
    prolate = [p.lam for p in branch.points if p.state.coeffs[0] < 0]
    assert oblate and max(oblate) < 1.1 * LAM1 < 1.2 * LAM1 < max(prolate)


MAIER_SAUPE_DIMS = (3, 4, 5, 7, 10)


def _maier_saupe_fold(D):
    """Fold of the one-mode kernel k_1 = 1, where the axisymmetric
    equation is scalar: u = -lam a(u), a the P_2 moment of
    e^(-u P_2) (1 - t^2)^((D-3)/2) on t in [0, 1], so lam = -u / a(u)
    and the fold is the root of d lam / du, a(u) + u Var(P_2) = 0, in
    20-digit mpmath."""
    def moments(u):
        def p2(t):
            return (D * t * t - 1) / (D - 1)

        def weight(t):
            return ((1 - t * t) ** (mpmath.mpf(D - 3) / 2)
                    * mpmath.exp(-u * p2(t)))
        z, m1, m2 = (mpmath.quad(lambda t: weight(t) * p2(t) ** j, [0, 1])
                     for j in range(3))
        return m1 / z, m2 / z - (m1 / z) ** 2

    def stationary(u):
        a, var = moments(u)
        return a + u * var

    with mpmath.workdps(20):
        u = mpmath.findroot(stationary, (-12, -1), solver="anderson")
        return float(-u / moments(u)[0])


# the folds lambda* of _maier_saupe_fold, to 15 digits
MAIER_SAUPE_FOLDS = {3: 4.48765759765557, 4: 6.87485065093518,
                     5: 9.16630468837205, 7: 13.5572578033344,
                     10: 19.8744082058847}


@pytest.mark.parametrize("D", MAIER_SAUPE_DIMS)
def test_trace_branch_samples_the_maier_saupe_fold(D):
    spec = build_kernel_spec(D, 1, "custom", custom_coeffs=(1.0,))
    branch = trace_branch(spec, 1, 1.3 * harmonic_count(D, 2))
    lams = [p.lam for p in branch.points if p.state.coeffs[0] < 0]
    fold = _maier_saupe_fold(D)
    assert fold == pytest.approx(MAIER_SAUPE_FOLDS[D], rel=1e-13)
    assert min(lams) == pytest.approx(fold, rel=1e-4)


@pytest.mark.parametrize("D", MAIER_SAUPE_DIMS)
def test_lambda_0_lies_below_the_maier_saupe_fold(D):
    # below lambda_0 the solution is unique, so lambda_0 cannot pass the
    # fold, where the two nontrivial solutions appear
    spec = build_kernel_spec(D, 1, "custom", custom_coeffs=(1.0,))
    lower, upper = uniqueness_thresholds(spec).lambda_0_interval
    assert lower == upper == 1.0
    assert upper <= MAIER_SAUPE_FOLDS[D]


@pytest.mark.parametrize("where, count", [("below the fold", 1),
                                          ("between", 3),
                                          ("above lambda_1", 3)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("D", MAIER_SAUPE_DIMS)
def test_maier_saupe_census_counts_and_index_sum(D, seed, where, count):
    # the one-mode equation has 1 solution below its fold lambda*, 3
    # between lambda* and lambda_1 and 3 above lambda_1, the isotropic
    # state and two nontrivial ones; their indices sum to the degree 1
    spec = build_kernel_spec(D, 1, "custom", custom_coeffs=(1.0,))
    fold, lam1 = MAIER_SAUPE_FOLDS[D], harmonic_count(D, 2)
    lam = {"below the fold": 0.9 * fold, "between": (fold + lam1) / 2,
           "above lambda_1": 1.5 * lam1}[where]
    census = multistart(spec, lam, 30, seed)
    assert len(census) == count
    assert sum(index_of(r, spec) for r in census) == 1
    audited = degree_audit(spec, lam, 30, seed, (1,))
    assert len(audited) == count
    assert sum(r.index for r in audited) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_degree_audit_skips_the_infinite_critical_values(seed):
    # k_2 = k_3 = k_4 = 0 put lambda_2..lambda_4 at inf, which the audit's
    # distance test must not flag; the census is the one-mode one above
    # lambda_1 = 5: the isotropic state and the two nematic ones
    spec = build_kernel_spec(3, 4, "custom", custom_coeffs=(1, 0, 0, 0))
    census = degree_audit(spec, 7.5, 30, seed, (4,))
    assert sorted(r.index for r in census) == [-1, 1, 1]


def test_trace_branch_points_are_the_natural_continuation_points():
    # every point the lambda-stepping oracle reaches is where Newton
    # lands from the nearest continuation point
    for spec, args, kwargs in (
            (SPEC3, (1, 1.3 * LAM1), {"steps": 6}),
            (build_kernel_spec(3, 6, "onsager-quadrature"), (1, 12.0),
             {"steps": 2, "n_modes": 2})):
        n_modes = kwargs.get("n_modes")
        oracle = natural_branch(spec, *args, **kwargs)
        branch = trace_branch(spec, *args, n_modes=n_modes)
        path = np.array([np.append(p.state.coeffs, p.lam)
                         for p in branch.points])
        for point in oracle.points:
            u = point.state.coeffs
            distance = np.linalg.norm(path - np.append(u, point.lam), axis=1)
            start = branch.points[int(np.argmin(distance))].state
            report = solve(spec, point.lam, start)
            assert report.converged
            assert state_norm(report.state.coeffs - u) <= 1e-10


def test_trace_branch_validation_and_missing_branch():
    with pytest.raises(ValueError):
        trace_branch(SPEC3, 0, 5.0)
    with pytest.raises(ValueError):
        trace_branch(SPEC3, 13, 5.0)
    for n_modes in (0, 13):
        with pytest.raises(ValueError):
            trace_branch(SPEC3, 1, 1.3 * LAM1, n_modes=n_modes)
    with pytest.raises(ValueError):
        trace_branch(SPEC3, 2, 1.3 * LAM1, n_modes=1)
    # lambda_1 of the spec itself: the closed form 32/pi differs from it
    # by the rounding of the quadrature k_1
    for lambda_max in (0.5 * LAM1, critical_values(SPEC3)[0]):
        with pytest.raises(ValueError):
            trace_branch(SPEC3, 1, lambda_max)
    with pytest.raises(BranchNotFoundError):
        trace_branch(_degenerate_spec(), 2, 5.0)


@pytest.mark.parametrize("fail_above", [0.0, 1.06 * LAM1])
def test_trace_branch_propagates_programming_errors(monkeypatch,
                                                    fail_above):
    # 0 breaks the first corrector step; 1.06 lambda_1 only the steps of
    # the u_1 > 0 family past it
    real_pass = solver._fused_pass

    def broken_pass(spec, lam, *args, **kwargs):
        if lam > fail_above:
            raise TypeError("broken density pass")
        return real_pass(spec, lam, *args, **kwargs)

    monkeypatch.setattr(solver, "_fused_pass", broken_pass)
    with pytest.raises(TypeError):
        trace_branch(SPEC3, 1, 1.3 * LAM1)


def test_trivial_solution_stability_switches_at_lambda1():
    trivial = AxisymState(3, np.zeros(4))
    below = solve(SPEC3, 5.0, trivial)
    assert classify_stability(below, SPEC3) == "stable"
    above = solve(SPEC3, 1.1 * LAM1, trivial)
    assert classify_stability(above, SPEC3) == "unstable"


def test_nematic_solution_is_stable():
    lam = 1.2 * LAM1
    census = multistart(SPEC3, lam, 20, seed=2, N=6)
    nematic = census[-1]
    assert state_norm(nematic.state.coeffs) > 0.1
    assert classify_stability(nematic, SPEC3) == "stable"


def test_classify_stability_requires_convergence():
    report = solve(SPEC3, 15.0, AxisymState(3, [0.5] + [0.0] * 5),
                   max_iter=0)
    with pytest.raises(ValueError):
        classify_stability(report, SPEC3)
