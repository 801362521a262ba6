"""The paper's uniqueness claims at several dimensions, through the public
API only: below the threshold lambda_0 the isotropic state is the one
solution, every uniqueness threshold lies below the first critical
value lambda_1, and past lambda_1 the census finds the isotropic state
and the two mode-1 branches, whose indices sum to the degree 1.  The
relaxation dynamics settles on an equilibrium at every dimension too,
on the Newton solution where the flow lands past lambda_1."""

import math

import numpy as np
import pytest

from onsager.bifurcation import index_of, uniqueness_thresholds
from onsager.dynamics import DT_PER_H2, evolve, grid_moments, make_grid, step
from onsager.kernel import build_kernel_spec
from onsager.polybasis import legendre_table
from onsager.solver import (
    AxisymState,
    multistart,
    solve,
    state_norm,
    zonal_moments,
)

# the kernel table size at each dimension; at D = 100 the sphere's
# surface area is 2.4e-38, so a tolerance taken in a norm that carries it
# would accept non-solutions there
NMAX = {3: 12, 4: 12, 5: 12, 7: 12, 10: 12, 20: 12, 50: 4, 100: 4, 343: 4}
DIMS = list(NMAX)
LARGE_DIMS = [50, 100, 343]
EVOLVE_DIMS = [3, 4, 5, 7, 10, 20, 50, 100, 343]
SMALL_DIMS = [3, 4, 5, 7, 10]


def _spec(D):
    return build_kernel_spec(D, NMAX[D], "onsager-recurrence")


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_isotropic_state_is_unique_below_lambda_0(D, seed):
    spec = _spec(D)
    lam = 0.99 * uniqueness_thresholds(spec).lambda_0_interval[0]
    census = multistart(spec, lam, 30, seed=seed)
    assert len(census) == 1
    (report,) = census
    assert state_norm(report.state.coeffs) <= 1e-9
    assert index_of(report, spec) == 1


@pytest.mark.parametrize("D", LARGE_DIMS)
@pytest.mark.parametrize("init", [[3.0, -2.0, 1.0, 0.0], [0.01, 0, 0, 0]])
def test_solve_below_lambda_1_does_not_accept_a_non_solution(D, init):
    # lambda = 50 is far below lambda_1 (2525 at D = 50), and neither
    # start solves the equation: Newton ends at the isotropic state or
    # reports no convergence
    report = solve(_spec(D), 50.0, AxisymState(D, init))
    assert not report.converged or state_norm(report.state.coeffs) <= 1e-9


@pytest.mark.parametrize("D", LARGE_DIMS)
@pytest.mark.parametrize("factor", [1.2, 1.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_census_past_lambda_1_has_index_sum_one(D, factor, seed):
    spec = _spec(D)
    lam = factor * uniqueness_thresholds(spec).lambda_crit[0]
    census = multistart(spec, lam, 30, seed=seed)
    assert len(census) == 3
    assert state_norm(census[0].state.coeffs) == 0.0
    assert sum(index_of(report, spec) for report in census) == 1


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


def _settle(D):
    """Relax 1 + 0.01 P_2 on 128 points at 1.1 lambda_1 for D <= 10 and at
    lambda = 5, far below lambda_1, above; returns the spec, lambda,
    grid and trajectory."""
    spec = _spec(D)
    lam = 1.1 * uniqueness_thresholds(spec).lambda_crit[0] if D <= 10 else 5.0
    grid = make_grid(D, 128)
    f0 = 1.0 + 0.01 * legendre_table(D, 2, np.cos(grid.points))[2]
    traj = evolve(f0, spec, lam, DT_PER_H2 * grid.h ** 2, 50.0, grid,
                  record_every=10 ** 9)
    return spec, lam, grid, traj


@pytest.mark.parametrize("D", EVOLVE_DIMS)
def test_evolve_settles_before_t_max(D):
    # the settle test takes the density's l1 change relative to its
    # mass, which carries no surface area, and the Gauss cell volumes are
    # positive at every D, so the run stops at an equilibrium at every D
    traj = _settle(D)[3]
    assert traj.terminated_early and traj.times[-1] < 50.0


@pytest.mark.parametrize("D", SMALL_DIMS)
def test_settled_density_matches_the_newton_solution(D):
    spec, lam, grid, traj = _settle(D)
    a = grid_moments(traj.final_density, grid, spec.n_max)
    implied = AxisymState(D, -lam * np.asarray(spec.coeffs) * a)
    report = solve(spec, lam, implied)
    assert report.converged
    newton = zonal_moments(report.state)[0]
    # the settle test stops about 6e-12 short in a_1 at D = 3
    assert abs(a[0] - newton) <= 1e-11
    # the discrete equilibrium itself: the Gauss volumes integrate its
    # moments to rounding
    f = traj.final_density
    for _ in range(100):
        f = step(f, spec, lam, 10.0, grid)
    assert abs(grid_moments(f, grid, 1)[0] - newton) <= 1e-14
