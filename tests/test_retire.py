"""Retirement solver: constants, jump expectation, control clamps, obstacle
consistency, benchmark reduction, recursive-utility equivalence, horizon."""

import math

import numpy as np
import pytest

from sc_control import retire as rt
from sc_control.errors import OutsideWorkRegion, ValidationError
from sc_control.params import RetireGrid

from conftest import baseline_retire_params


class TestMertonConstants:
    def test_baseline_values(self):
        out = rt.merton_constants(baseline_retire_params())
        assert out["theta"] == pytest.approx(0.22222222222222222, abs=1e-15)
        assert out["K_bar"] == pytest.approx(0.025486968449931413, abs=1e-15)
        p = baseline_retire_params()
        assert out["G_coefficient"] == pytest.approx(
            p.B ** (1 - p.gamma) * p.K_bar ** (-p.gamma) / (1 - p.gamma), rel=1e-14)

    def test_unit_leisure_removes_premium_scale(self):
        # B -> 1+ makes the post-retirement coefficient the working-Merton one
        p = baseline_retire_params(B=1.0 + 1e-12)
        out = rt.merton_constants(p)
        assert out["G_coefficient"] == pytest.approx(
            p.K_bar ** (-p.gamma) / (1 - p.gamma), rel=1e-9)

    def test_recursive_rate_reduces_at_psi_inverse_gamma(self):
        p = baseline_retire_params(eis_psi=1.0 / 3.0)
        assert p.k_bar_psi() == pytest.approx(p.K_bar, rel=1e-14)


class TestJumpSpec:
    def test_power_density_normalizes(self):
        spec = rt.IncomeJumpSpec.power(2.5)
        assert spec.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # E[kappa] = nu/(nu+1) under the power density
        assert float(spec.weights @ spec.nodes) == pytest.approx(2.5 / 3.5, abs=1e-6)

    def test_fixed_mode_single_node(self):
        spec = rt.IncomeJumpSpec.fixed(0.8)
        assert spec.nodes.tolist() == [0.8] and spec.weights.tolist() == [1.0]


def stepper_on_11_nodes(p, spec=None):
    """Solver stepper on xi = 0, 0.1, ..., 1 (3 z-rows), so 0.3, 0.5 and 1.0
    are nodes; ``spec`` overrides the income-jump distribution."""
    spec = rt.IncomeJumpSpec.for_params(p) if spec is None else spec
    return rt._RetireStepper(p, RetireGrid(n_x=11, n_y=3),
                             rt._Mode(p, recursive=False), spec)


def jump_expectation(p, spec, u_row):
    """E_k[...] on every xi node: the solver's jump term over its intensity."""
    st = stepper_on_11_nodes(p, spec)
    u = np.broadcast_to(u_row, (3, 11)).copy()
    return st.jump_term(u)[1] / p.jump_intensity


def controls_at(p, xi, u, u_xi, u_xixi, u_z, u_xiz):
    """(y*, c*) of the solver's vectorized controls at node ``xi``."""
    st = stepper_on_11_nodes(p)
    i = int(round(xi * 10))
    assert st.xi[i] == pytest.approx(xi, abs=1e-15)
    y, c = st.controls(*(np.full((3, 11), v) for v in (u, u_xi, u_z, u_xixi, u_xiz)))
    return y[1, i], c[1, i]


class TestJumpExpectation:
    def test_zero_income_share_is_constant(self):
        p = baseline_retire_params()
        u_row = np.linspace(0.7, 0.1, 11)
        val = jump_expectation(p, rt.IncomeJumpSpec.fixed(0.8), u_row)[0]
        assert val == pytest.approx(1.0 / (1.0 - p.gamma), abs=1e-12)

    def test_identity_jump_changes_nothing(self):
        p = baseline_retire_params()
        u_row = np.sin(np.linspace(0, 1, 11))
        vals = jump_expectation(p, rt.IncomeJumpSpec.fixed(1.0), u_row)
        for i in (2, 5, 9):  # xi = 0.2, 0.5, 0.9
            assert vals[i] == pytest.approx(1.0 / (1.0 - p.gamma), abs=1e-12)

    def test_large_power_parameter_approaches_identity_jump(self):
        p = baseline_retire_params()
        u_row = 0.5 - 0.3 * np.linspace(0, 1, 11)
        ref = 1.0 / (1.0 - p.gamma)
        prev = None
        for nu in (5.0, 50.0, 500.0):
            val = jump_expectation(p, rt.IncomeJumpSpec.power(nu), u_row)[5]  # xi = 0.5
            gap = abs(val - ref)
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 5e-3


class TestOptimalControls:
    def test_short_sale_clamp(self):
        p = baseline_retire_params()
        # a large negative u_z makes the numerator favour shorting
        y, c = controls_at(p, xi=0.5, u=0.5, u_xi=-0.5, u_xixi=-1.0, u_z=-5.0, u_xiz=0.0)
        assert y == 0.0

    def test_borrowing_clamp(self):
        p = baseline_retire_params()
        y, c = controls_at(p, xi=0.3, u=0.5, u_xi=-0.5, u_xixi=-0.05, u_z=3.0, u_xiz=0.0)
        assert y == pytest.approx(1.0 - 0.3)

    def test_boundary_consumption_capped_at_income(self):
        p = baseline_retire_params()
        y, c = controls_at(p, xi=1.0, u=2.0, u_xi=-1.0, u_xixi=-1.0, u_z=0.0, u_xiz=0.0)
        assert y == 0.0
        assert c <= p.r + 1e-15

    def test_one_factor_benchmark_reduction(self, retire_benchmark):
        # mean_reversion = 0 and sigma = sigma_z: z-independent solution and
        # the control formula collapses to the single-factor h
        sol = retire_benchmark
        assert float(np.max(np.std(sol.u, axis=0))) < 1e-8
        p = sol.params
        j = sol.z.size // 2
        i = np.searchsorted(sol.xi, 0.7)
        h = sol.xi[1] - sol.xi[0]
        u_xi = (sol.u[j, i + 1] - sol.u[j, i - 1]) / (2 * h)
        u_xixi = (sol.u[j, i + 1] - 2 * sol.u[j, i] + sol.u[j, i - 1]) / h**2
        xi = sol.xi[i]
        Q = u_xixi + (1 - p.gamma) * u_xi**2
        num = (p.mu_stock - p.r) * (1 - xi * u_xi)
        den = p.sigma_stock**2 * (xi**2 * Q + 2 * p.gamma * xi * u_xi - p.gamma)
        expected = min(max(-num / den * p.sigma_stock**2 / p.sigma_stock**2
                           * 1.0, 0.0), 1 - xi)
        got = sol.y_star[j, i]
        assert got == pytest.approx(expected, abs=2e-3)


class TestPenaltySolve:
    def test_obstacle_satisfied_with_equality_on_retired(self, retire_baseline):
        sol = retire_baseline
        obstacle = np.log(sol.params.B) + np.log(np.maximum(1.0 - sol.xi, 1e-300))
        gap = sol.u - obstacle[None, :]
        assert gap.min() >= -1e-4          # penalty-level violation only
        assert np.all(gap[sol.retired] <= 1e-4)
        work = ~sol.retired
        assert np.all(gap[work] > -1e-9)

    def test_controls_feasible_everywhere(self, retire_baseline):
        sol = retire_baseline
        assert np.all(sol.y_star >= 0.0)
        assert np.all(sol.y_star <= 1.0 - sol.xi[None, :] + 1e-12)
        assert np.all(sol.c_star >= 0.0)

    def test_merton_limit_retires_at_zero_income_share(self, retire_baseline):
        # at xi = 0 the retirement option is exercised (B > 1): u = ln B
        sol = retire_baseline
        assert np.allclose(sol.u[:, 0], math.log(sol.params.B), atol=1e-4)

    def test_value_exceeds_merton_bound_at_small_income(self, retire_baseline):
        # with an unexercised option the value dominates ln B + ln(1 - xi)
        sol = retire_baseline
        obstacle = np.log(sol.params.B) + np.log(1.0 - sol.xi[1:5])
        assert np.all(sol.u[:, 1:5] >= obstacle[None, :] - 1e-6)

    def test_nonparticipation_target_exists_and_share_rises(self, retire_baseline):
        sol = retire_baseline
        j0 = int(np.argmin(np.abs(sol.z)))
        target = sol.participation_target(0.0)
        assert np.isfinite(target) and target > 1.0
        # share of financial wealth rises with wealth above the target
        xi_np = sol.xi_participate[j0]
        sel = (sol.xi < xi_np - 0.02) & (sol.xi > sol.xi_retire[j0] + 0.02)
        w_share = sol.y_star[j0, sel] / np.maximum(1.0 - sol.xi[sel], 1e-12)
        w_over_i = rt.wealth_to_income(sol.xi[sel], sol.params.r)
        order = np.argsort(w_over_i)
        diffs = np.diff(w_share[order])
        assert np.mean(diffs >= -1e-6) > 0.95

    def test_mpc_decreasing_and_below_benchmark(self, retire_baseline,
                                                retire_benchmark):
        w, mpc = rt.mpc_curve(retire_baseline, w_grid=np.linspace(1, 40, 79))
        wb, mpc_b = rt.mpc_curve(retire_benchmark, w_grid=np.linspace(1, 40, 79))
        assert np.all(np.diff(mpc) < 1e-4)
        assert np.all(mpc < mpc_b + 1e-12)

    def test_retired_region_matches_post_retirement_value(self, retire_baseline):
        # reconstructed V equals G(w) on the retired region: in u-units the
        # surface sits on ln B + ln(1 - xi) up to the penalty tolerance
        sol = retire_baseline
        obstacle = np.log(sol.params.B) + np.log(np.maximum(1.0 - sol.xi, 1e-300))
        retired = sol.retired & (sol.xi[None, :] < 0.9)
        rel = np.abs(np.exp((1 - sol.params.gamma)
                            * (sol.u - obstacle[None, :])[retired]) - 1.0)
        assert float(rel.max()) <= 1e-3

    def test_threshold_decreases_when_income_expected_to_fall(self, retire_baseline):
        sol = retire_baseline
        th = [sol.wealth_threshold(z) for z in (-0.5, 0.0, 0.5)]
        assert th[0] > th[1] > th[2]

    def test_benchmark_threshold_exceeds_cointegrated(self, retire_baseline,
                                                      retire_benchmark):
        assert retire_benchmark.wealth_threshold() > retire_baseline.wealth_threshold()


class TestRecursiveUtility:
    def test_psi_inverse_gamma_equals_crra(self, retire_grid, retire_baseline):
        p = baseline_retire_params(eis_psi=1.0 / 3.0)
        ez = rt.epstein_zin_solve(p, retire_grid)
        assert float(np.max(np.abs(ez.u - retire_baseline.u))) <= 1e-6

    def test_consumption_foc_residual_at_nodes(self, retire_grid):
        p = baseline_retire_params(eis_psi=0.5)
        sol = rt.epstein_zin_solve(p, retire_grid)
        mode = rt._Mode(p, recursive=True)
        h = sol.xi[1] - sol.xi[0]
        u_xi = np.gradient(sol.u, h, axis=1)
        work = ~sol.retired
        work[:, -1] = False  # the income cap binds at xi = 1 by design
        res = mode.foc_residual(sol.u[work], sol.c_star[work],
                                (1.0 - sol.xi[None, :] * u_xi)[work])
        # the closed-form consumption satisfies its Euler condition exactly
        # wherever the cap and floor are inactive
        capped = sol.c_star[work] >= 0.999
        assert float(np.max(np.abs(res[~capped]))) <= 1e-10

    def test_higher_eis_lowers_threshold(self, retire_grid, retire_baseline):
        th_crra = retire_baseline.wealth_threshold()
        prev = th_crra
        for psi in (0.5, 0.8):
            sol = rt.epstein_zin_solve(baseline_retire_params(eis_psi=psi),
                                       retire_grid)
            th = sol.wealth_threshold()
            assert th < prev
            prev = th

    def test_unit_eis_rejected(self):
        with pytest.raises(ValidationError):
            rt._Mode(baseline_retire_params(eis_psi=1.0), recursive=True)


@pytest.fixture(scope="module")
def horizon_solution(retire_grid):
    p = baseline_retire_params(horizon_T=50.0)
    return rt.finite_horizon_solve(p, retire_grid, dt=0.5)


class TestFiniteHorizon:
    def test_threshold_declines_with_age_to_zero(self, horizon_solution):
        sol = horizon_solution
        j0 = int(np.argmin(np.abs(sol.z)))
        th = rt.wealth_to_income(sol.xi_retire_by_age[:, j0], sol.params.r)
        assert th[-1] <= 1e-6                      # forced retirement at T
        assert th[0] >= th[len(th) // 2] >= th[-1]
        coarse = th[:: len(th) // 10]
        assert np.all(np.diff(coarse) <= 1e-9)

    def test_long_horizon_matches_stationary(self, retire_grid, retire_baseline):
        p = baseline_retire_params(horizon_T=200.0)
        sol = rt.finite_horizon_solve(p, retire_grid, dt=0.5)
        j0 = int(np.argmin(np.abs(sol.z)))
        th_T = rt.wealth_to_income(sol.xi_retire_by_age[0, j0], p.r)
        th_inf = retire_baseline.wealth_threshold()
        assert th_T == pytest.approx(th_inf, rel=0.01)

    def test_cointegrated_threshold_below_benchmark_at_fixed_age(
            self, horizon_solution, retire_grid):
        p0 = baseline_retire_params(horizon_T=50.0, mean_reversion=0.0)
        bench = rt.finite_horizon_solve(p0, retire_grid, dt=0.5)
        j0 = int(np.argmin(np.abs(bench.z)))
        k = len(bench.ages) // 2
        th_b = rt.wealth_to_income(bench.xi_retire_by_age[k, j0], p0.r)
        th_c = rt.wealth_to_income(horizon_solution.xi_retire_by_age[k, j0], p0.r)
        assert th_c < th_b

    def test_requires_horizon(self, retire_grid):
        with pytest.raises(ValidationError):
            rt.finite_horizon_solve(baseline_retire_params(), retire_grid)


class TestImplicitHumanCapital:
    def test_hump_shape_along_baseline_slice(self, retire_baseline):
        sol = retire_baseline
        w_star = sol.wealth_threshold(0.0)
        ws = np.linspace(0.5, w_star * 0.98, 60)
        vals = [rt.implicit_human_capital(sol, w, 1.0, 0.0) for w in ws]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        assert vals[peak] > vals[0] and vals[peak] > vals[-1]

    def test_finite_limit_at_zero_income_share(self, retire_baseline):
        # xi -> 0: ratio tends to a finite limit set by u_xi(0, z)
        sol = retire_baseline
        j = int(np.argmin(np.abs(sol.z)))
        h = sol.xi[1] - sol.xi[0]
        u_xi0 = (sol.u[j, 1] - sol.u[j, 0]) / h
        limit = (1.0 + u_xi0) / sol.params.r
        assert np.isfinite(limit)

    def test_outside_work_region_raises(self, retire_baseline):
        sol = retire_baseline
        w_star = sol.wealth_threshold(0.0)
        with pytest.raises(OutsideWorkRegion):
            rt.implicit_human_capital(sol, w_star * 1.5, 1.0, 0.0)


class TestGridRefinement:
    def test_boundaries_stable_under_mesh_halving(self):
        p = baseline_retire_params()
        coarse = rt.penalty_solve_retire(p, rt.default_retire_grid(n_xi=76, n_z=51))
        fine = rt.penalty_solve_retire(p, rt.default_retire_grid(n_xi=151, n_z=101))
        j0c = int(np.argmin(np.abs(coarse.z)))
        j0f = int(np.argmin(np.abs(fine.z)))
        dxi_coarse = coarse.xi[1] - coarse.xi[0]
        assert abs(coarse.xi_retire[j0c] - fine.xi_retire[j0f]) <= dxi_coarse + 1e-12
        assert abs(coarse.xi_participate[j0c] - fine.xi_participate[j0f]) \
            <= dxi_coarse + 1e-12
