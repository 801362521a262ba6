import math

import numpy as np
import pytest
from explicit_oracle import (
    StepSizeError,
    explicit_relax,
    explicit_step,
    step_limit,
)
from pointwise_oracle import density_on_grid

from onsager.dynamics import (
    DT_PER_H2,
    evolve,
    grid_energy,
    grid_mass,
    grid_moments,
    make_grid,
    potential_on_grid,
    step,
)
from onsager.errors import DivergenceError
from onsager.kernel import build_kernel_spec
from onsager.polybasis import legendre_table, surface_area, zonal_rule
from onsager.solver import AxisymState, residual, solve, zonal_moments

SPEC3 = build_kernel_spec(3, 12, "onsager-quadrature")
LAM1 = 32.0 / math.pi


def _bump(grid, amp=0.1):
    """Smooth positive test density: uniform plus a second-moment ripple."""
    f = 1.0 + amp * 0.5 * (3 * np.cos(grid.points) ** 2 - 1)
    return f / grid_mass(f, grid)


def test_make_grid_structure():
    grid = make_grid(3, 64)
    assert grid.G == 64
    assert grid.h == pytest.approx(math.pi / 65, rel=1e-15)
    assert np.all(np.diff(grid.points) > 0)
    # interior nodes symmetric about pi/2
    assert np.allclose(grid.points + grid.points[::-1], math.pi,
                       atol=1e-14)
    with pytest.raises(ValueError):
        grid.points[0] = 0.0
    # the grid carries the rule's nodes themselves, which cos(points)
    # reproduces only to rounding; the mode tables are taken at them
    assert np.array_equal(grid.t, zonal_rule(3, 64)[0][::-1])
    assert np.allclose(np.cos(grid.points), grid.t, rtol=0, atol=1e-15)
    assert not grid.t.flags.writeable
    f = _bump(grid)
    table = legendre_table(3, 4, grid.t)[2::2]
    moments = (table @ (grid.weights * f)) / (grid.weights @ f)
    base = (table @ grid.weights) / grid.weights.sum()
    assert np.array_equal(grid_moments(f, grid, 2), moments - base)


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(2, 64)
    with pytest.raises(ValueError):
        make_grid(3, 8)


def test_uniform_density_is_bitwise_stationary():
    grid = make_grid(3, 64)
    f = np.full(grid.G, 1.0 / grid_mass(np.ones(grid.G), grid))
    out = explicit_step(f, SPEC3, 9.0, grid.h ** 2 / 8, grid)
    assert np.array_equal(out, f)


def test_uniform_density_has_exactly_zero_moments():
    grid = make_grid(3, 96)
    f = np.full(grid.G, 0.25)
    assert np.all(grid_moments(f, grid, 6) == 0.0)


@pytest.mark.parametrize("D", [3, 20, 50, 100, 343])
@pytest.mark.parametrize("G", [32, 128])
def test_cell_volumes_are_positive_at_every_dimension(D, G):
    # sigma_(D-1) times the zonal Gauss weights: positive however strongly
    # the grid under-resolves sin^(D-2), and exact for the constant
    grid = make_grid(D, G)
    volumes = [grid_mass(cell, grid) for cell in np.eye(G)]
    assert min(volumes) > 0.0
    assert math.fsum(volumes) == pytest.approx(surface_area(D), rel=1e-13)
    assert np.all(np.abs(grid_moments(np.ones(G), grid, 6)) <= 1e-15)


def test_step_leaves_out_the_underflowing_surface_area():
    # at D = 343 on 256 points sigma_(D-1) w_i underflows to 0 at the
    # outer nodes; with the common factor left out of the step no pivot
    # vanishes and the run settles
    spec = build_kernel_spec(343, 4, "onsager-recurrence")
    grid = make_grid(343, 256)
    traj = evolve(_bump(grid), spec, 5.0, DT_PER_H2 * grid.h ** 2, 50.0, grid,
                  record_every=10 ** 9)
    assert traj.terminated_early


def test_uniform_potential_is_constant_mean():
    grid = make_grid(3, 64)
    f = np.full(grid.G, 1.0)
    u = potential_on_grid(f, SPEC3, 1.0, grid)
    assert np.allclose(u, math.pi / 4, atol=1e-14)


def test_grid_moments_match_spectral_moments():
    grid = make_grid(3, 128)
    state = AxisymState(3, [0.9, -0.3, 0.05, 0.0, 0.0, 0.0])
    f = density_on_grid(state, grid)
    assert np.allclose(grid_moments(f, grid, 6), zonal_moments(state),
                       atol=1e-12)


def test_mass_conserved_to_rounding_per_step():
    grid = make_grid(3, 64)
    f = _bump(grid) + 0.05 * np.abs(np.sin(3 * grid.points))
    f /= grid_mass(f, grid)
    dt = grid.h ** 2 / 8
    prev = grid_mass(f, grid)
    for _ in range(200):
        f = explicit_step(f, SPEC3, 8.0, dt, grid)
        mass = grid_mass(f, grid)
        assert abs(mass - prev) <= 1e-14
        prev = mass


def test_mass_drift_bounded_over_many_steps():
    grid = make_grid(3, 64)
    f = _bump(grid, amp=0.3)
    dt = grid.h ** 2 / 8
    m0 = grid_mass(f, grid)
    for _ in range(100000):
        f = explicit_step(f, SPEC3, 8.0, dt, grid)
    assert abs(grid_mass(f, grid) - m0) <= 1e-10


def test_energy_is_a_lyapunov_function():
    grid = make_grid(3, 64)
    rng = np.random.default_rng(9)
    for lam in (5.0, 1.3 * LAM1):
        f = 1.0 + 0.3 * rng.uniform(-1, 1, size=grid.G)
        traj = evolve(f, SPEC3, lam, DT_PER_H2 * grid.h ** 2, 1.0, grid,
                      record_every=1)
        drops = np.diff(traj.energies)
        assert np.all(drops <= 1e-10)


def test_trajectory_densities_stay_normalized_and_nonnegative():
    grid = make_grid(3, 64)
    f = _bump(grid, amp=0.5)
    traj = evolve(f, SPEC3, 12.0, DT_PER_H2 * grid.h ** 2, 0.5, grid,
                  record_every=50)
    for f_k in traj.densities:
        assert np.all(f_k >= 0)
        assert grid_mass(f_k, grid) == pytest.approx(1.0, abs=1e-8)
    assert traj.times == sorted(traj.times)
    assert np.array_equal(traj.final_density, traj.densities[-1])


def test_step_has_no_step_limit():
    # far beyond the explicit limit h^2/4 the step stays positive and
    # conserves mass, and the energy does not rise
    grid = make_grid(3, 64)
    rng = np.random.default_rng(4)
    f = _bump(grid, amp=0.5) * (1.0 + 0.3 * rng.uniform(-1, 1, grid.G))
    f /= grid_mass(f, grid)
    energy = grid_energy(f, SPEC3, 1.3 * LAM1, grid)
    for dt in (grid.h ** 2, DT_PER_H2 * grid.h ** 2, 1e3):
        out = step(f, SPEC3, 1.3 * LAM1, dt, grid)
        assert np.all(out > 0)
        assert abs(grid_mass(out, grid) - 1.0) <= 1e-14
        assert grid_energy(out, SPEC3, 1.3 * LAM1, grid) <= energy


def test_step_size_guard():
    grid = make_grid(3, 64)
    f = np.ones(grid.G)
    with pytest.raises(StepSizeError):
        explicit_step(f, SPEC3, 1.0, grid.h ** 2 / 3.9, grid)
    with pytest.raises(StepSizeError):
        explicit_relax(f, SPEC3, 1.0, grid.h ** 2, grid, 1e-10, 10)
    # from D = 10 the cells near the poles set the limit, below h^2/4: at
    # D = 20 2000 steps of h^2/4 grew this ripple to 32 times the mean
    grid = make_grid(20, 64)
    spec = build_kernel_spec(20, 6, "onsager-recurrence")
    f = 1.0 + 1e-3 * np.cos(40 * grid.points)
    with pytest.raises(StepSizeError):
        explicit_step(f, spec, 1.0, grid.h ** 2 / 4.0, grid)
    for _ in range(2000):
        f = explicit_step(f, spec, 1.0, step_limit(grid), grid)
    assert np.max(np.abs(f - f.mean())) <= 1e-12 * f.mean()


def test_divergence_error_reports_last_time():
    # a strong single-mode kernel at huge concentration overflows the
    # Boltzmann factor within a few steps
    spec = build_kernel_spec(3, 1, "custom", custom_coeffs=[5.0])
    grid = make_grid(3, 32)
    f = 1.0 + 0.5 * np.cos(2 * grid.points)
    with pytest.raises(DivergenceError) as err:
        evolve(f, spec, 500.0, grid.h ** 2 / 8, 1.0, grid)
    assert err.value.last_time >= 0.0


def test_kernel_of_another_dimension_is_rejected():
    spec = build_kernel_spec(5, 6, "onsager-recurrence")
    grid = make_grid(3, 64)
    f = np.ones(grid.G)
    with pytest.raises(ValueError, match="dimension mismatch"):
        potential_on_grid(f, spec, 30.0, grid)
    with pytest.raises(ValueError, match="dimension mismatch"):
        step(f, spec, 30.0, 0.01, grid)
    with pytest.raises(ValueError, match="dimension mismatch"):
        grid_energy(f, spec, 30.0, grid)
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve(f, spec, 30.0, 0.01, 0.1, grid)


def test_evolve_rejects_empty_density():
    grid = make_grid(3, 64)
    with pytest.raises(ValueError):
        evolve(np.zeros(grid.G), SPEC3, 1.0, grid.h ** 2 / 8, 1.0, grid)


def test_evolve_rejects_negative_initial_values():
    # positive mass, but one node below zero: before the check the run
    # started and reported a divergence of the dynamics
    grid = make_grid(3, 64)
    f0 = np.ones(grid.G)
    f0[grid.G // 2] = -1e-3
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(f0, SPEC3, 1.0, grid.h ** 2 / 8, 1.0, grid)


def test_evolve_settles_early_at_equilibrium():
    grid = make_grid(3, 64)
    traj = evolve(_bump(grid, amp=0.01), SPEC3, 5.0, DT_PER_H2 * grid.h ** 2,
                  200.0, grid, record_every=1000)
    assert traj.terminated_early
    assert traj.times[-1] < 200.0


def test_solver_solution_is_discretely_stationary():
    lam = 1.1 * LAM1
    report = solve(SPEC3, lam, AxisymState(3, [1.0] + [0.0] * 11))
    assert report.converged
    for G in (64, 128):
        grid = make_grid(3, G)
        f = density_on_grid(report.state, grid)
        dt = grid.h ** 2 / 8
        change = grid_mass(np.abs(step(f, SPEC3, lam, dt, grid) - f), grid)
        assert change <= 1e-8 * dt


def test_evolve_limit_solves_the_fixed_point_equation():
    # relax a slightly perturbed uniform density and project the limit
    # back to coefficient space via u_n = -lam k_n a_n
    lam = 1.1 * LAM1
    grid = make_grid(3, 64)
    traj = evolve(_bump(grid, amp=0.01), SPEC3, lam, DT_PER_H2 * grid.h ** 2,
                  60.0, grid, record_every=1000)
    a = grid_moments(traj.final_density, grid, 12)
    implied = AxisymState(3, -lam * np.asarray(SPEC3.coeffs) * a)
    assert np.linalg.norm(residual(implied, SPEC3, lam)) <= 1e-5


def test_evolve_limit_matches_solver_branch():
    # the perturbation concentrates mass at the poles, so the flow lands
    # on the polar (u_1 < 0) solution family
    lam = 1.1 * LAM1
    report = solve(SPEC3, lam, AxisymState(3, [-4.0] + [0.0] * 11))
    assert report.converged and report.state.coeffs[0] < -1
    grid = make_grid(3, 128)
    traj = evolve(_bump(grid, amp=0.01), SPEC3, lam, DT_PER_H2 * grid.h ** 2,
                  60.0, grid, record_every=5000)
    target = density_on_grid(report.state, grid)
    assert grid_mass(np.abs(traj.final_density - target), grid) <= 1e-5


def test_grid_convergence_is_second_order():
    # a dt shared by all grids (the finest grid's default), so the time
    # error cancels in the differences; the moment of the transient at
    # t = 1 converges at O(h^2), so successive differences shrink by
    # about 4 per refinement
    lam = 1.1 * LAM1
    dt = DT_PER_H2 * (math.pi / 257) ** 2
    vals = {}
    for G in (64, 128, 256):
        grid = make_grid(3, G)
        traj = evolve(_bump(grid), SPEC3, lam, dt, 1.0, grid,
                      record_every=10 ** 9)
        vals[G] = grid_moments(traj.final_density, grid, 1)[0]
    ratio = abs(vals[64] - vals[128]) / abs(vals[128] - vals[256])
    assert 3.0 <= ratio <= 5.0


def test_evolve_limit_matches_explicit_oracle():
    # both steps have the same fixed points; from the same start the
    # semi-implicit run at the default dt and the explicit oracle at
    # h^2/8 settle on the same discrete equilibrium
    lam = 1.1 * LAM1
    grid = make_grid(3, 64)
    f0 = _bump(grid, amp=0.01)
    explicit = explicit_relax(f0, SPEC3, lam, grid.h ** 2 / 8, grid, 1e-10,
                              200000)
    traj = evolve(f0, SPEC3, lam, DT_PER_H2 * grid.h ** 2, 100.0, grid,
                  record_every=10 ** 9)
    assert traj.terminated_early
    assert grid_mass(np.abs(traj.final_density - explicit), grid) <= 1e-10


def test_last_step_ends_at_t_max():
    grid = make_grid(3, 32)
    dt = DT_PER_H2 * grid.h ** 2
    f0 = _bump(grid)
    assert evolve(f0, SPEC3, 11.3, dt, 0.01, grid).times == [0.0, 0.01]
    traj = evolve(f0, SPEC3, 11.3, dt, 2.5 * dt, grid)
    assert traj.times == [0.0, dt, 2 * dt, 2.5 * dt]
    # 3 * 0.1 / 0.1 rounds to 3.0000000000000004: still three steps
    traj = evolve(f0, SPEC3, 11.3, 0.1, 3 * 0.1, grid)
    assert traj.times == [0.0, 0.1, 0.2, 3 * 0.1]


@pytest.mark.parametrize("dt, t_max, record_every", [
    (-0.01, 1.0, 1), (0.0, 1.0, 1), (math.nan, 1.0, 1), (math.inf, 1.0, 1),
    (0.01, math.nan, 1), (0.01, math.inf, 1), (0.01, -1.0, 1),
    (0.01, 1.0, 0),
])
def test_evolve_and_step_reject_bad_inputs(dt, t_max, record_every):
    grid = make_grid(3, 32)
    f0 = _bump(grid)
    with pytest.raises(ValueError):
        evolve(f0, SPEC3, 11.3, dt, t_max, grid, record_every=record_every)
    if not 0 < dt < math.inf:
        with pytest.raises(ValueError):
            step(f0, SPEC3, 11.3, dt, grid)


def test_energy_of_uniform_matches_closed_form():
    grid = make_grid(3, 96)
    sigma = 4 * math.pi
    f = np.full(grid.G, 1.0 / sigma)
    lam = 7.0
    expected = math.log(1.0 / sigma) + 0.5 * lam * SPEC3.k0
    assert grid_energy(f, SPEC3, lam, grid) == pytest.approx(expected,
                                                             rel=1e-10)
