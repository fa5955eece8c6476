"""Retirement solver: constants, jump expectation, control clamps, obstacle
consistency, benchmark reduction, recursive-utility equivalence, horizon."""

import functools
import math
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from sc_control import interp, retire as rt
from sc_control.errors import NoConvergence, ValidationError
from sc_control.params import RetireGrid

from conftest import baseline_retire_params, stalling_stepper


def foc_residual(mode, u, c, one_minus_xiu):
    """Per-node residual of the consumption first-order condition
    K^{1/psi} e^{-(1-1/psi)u} c^{-1/psi} = 1 - xi u_xi, which the solver's
    closed-form consumption solves."""
    base = np.maximum(one_minus_xiu, 1e-12)
    return mode.k**mode.ipsi * np.exp(-(1.0 - mode.ipsi) * u) * c ** (-mode.ipsi) - base


class TestMertonConstants:
    def test_baseline_values(self):
        p = baseline_retire_params()
        assert p.theta == pytest.approx(0.22222222222222222, abs=1e-15)
        assert p.K_bar == pytest.approx(0.025486968449931413, abs=1e-15)

    def test_recursive_rate_reduces_at_psi_inverse_gamma(self):
        p = baseline_retire_params(eis_psi=1.0 / 3.0)
        assert p.k_bar_psi() == pytest.approx(p.K_bar, rel=1e-14)


class TestJumpSpec:
    def test_power_density_normalizes(self):
        nodes, weights = rt._jump_sizes(baseline_retire_params(power_nu=2.5))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # E[kappa] = nu/(nu+1) under the power density
        assert float(weights @ nodes) == pytest.approx(2.5 / 3.5, abs=1e-6)

    def test_fixed_mode_single_node(self):
        nodes, weights = rt._jump_sizes(baseline_retire_params(recovery=0.8))
        assert nodes.tolist() == [0.8] and weights.tolist() == [1.0]


def stepper_on_11_nodes(p):
    """Solver stepper on xi = 0, 0.1, ..., 1 (3 z-rows), so 0.3, 0.5 and 1.0
    are nodes."""
    return rt._RetireStepper(p, RetireGrid(n_x=11, n_y=3))


def jump_expectation(p, u_row):
    """E_k[...] on every xi node: the solver's jump term over its intensity."""
    st = stepper_on_11_nodes(p)
    u = np.broadcast_to(u_row, (3, 11)).copy()
    return st.jump_term(u)[1] / p.jump_intensity


def controls_at(p, xi, u, u_xi, u_xixi, u_z, u_xiz):
    """(y*, c*) of the solver's vectorized controls at node ``xi``."""
    st = stepper_on_11_nodes(p)
    i = int(round(xi * 10))
    assert st.xi[i] == pytest.approx(xi, abs=1e-15)
    y, c = st.controls(*(np.full((3, 11), v) for v in (u, u_xi, u_z, u_xixi, u_xiz)))
    return y[1, i], c[1, i]


def assemble(st, u, dt_inv, rho_pen, active):
    """The stepper's sparse system (dt_inv + rho*chi - A) u_new = dt_inv*u +
    flow + ... in natural node order, on a copy of its fixed pattern, with
    the right-hand side and the controls: the reference its column-ordered
    factorisations are checked against."""
    entries, rhs, y, c = st._stencil(u, dt_inv, rho_pen, active)
    pat = st._pattern
    A = sp.csc_matrix((entries[pat.data], pat.indices, pat.indptr), shape=pat.shape, copy=True)
    return A, rhs, y, c


class TestAssembly:
    """The assembled matrix on linear test functions, where the 9-point
    stencil is exact: A = (1/dt + rho*chi) I - L_h."""

    @pytest.fixture(scope="class")
    def system(self):
        p = baseline_retire_params()
        st = rt._RetireStepper(p, RetireGrid(n_x=31, n_y=21))
        u = np.maximum(math.log(p.B) + 0.3 * st.XI * (1.0 - st.XI) + 0.05 * st.ZZ,
                       st.obstacle)
        active = (np.broadcast_to(st.obstacle, u.shape) - u) >= 0.0
        A, _, y, c = assemble(st, u, 4.0, 1e3, active)
        u_xi, u_z, _, _ = st.derivatives(u)
        return st, A, active, st.coefficients(u, y, c, u_xi, u_z)

    def test_constants_see_only_time_and_penalty(self, system):
        st, A, active, _ = system
        assert active.any() and not active.all()
        expected = 4.0 + 1e3 * active.ravel()
        np.testing.assert_allclose(A @ np.ones(A.shape[0]), expected, rtol=0, atol=1e-9)

    def test_cross_term_on_xi_times_z(self, system):
        st, A, active, (a_xx, a_xz, a_zz, b_xi, b_z, _) = system
        f = st.XI * st.ZZ
        got = (A @ f.ravel()).reshape(f.shape)[1:-1, 1:-1]
        lf = a_xz + b_xi * st.ZZ + b_z * st.XI
        want = ((4.0 + 1e3 * active) * f - lf)[1:-1, 1:-1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestFixedPatternSolve:
    """A step that factorises factors A[:, q] in the minimum-degree column
    order q that the stepper took from SuperLU on the sparsity pattern alone,
    and returns what a fresh factorisation under that ordering gives; a step
    that refines on the kept factor returns it within 1e-12."""

    @pytest.mark.parametrize("n_x, n_y", [(21, 15), (31, 21)])
    @pytest.mark.parametrize("power_nu", [None, 3.0])
    @pytest.mark.parametrize("variant", ["crra", "epstein-zin", "finite-horizon"])
    def test_step_equals_a_fresh_minimum_degree_factorisation(self, variant, power_nu,
                                                              n_x, n_y):
        p = baseline_retire_params(power_nu=power_nu,
                                   eis_psi=0.5 if variant == "epstein-zin" else None)
        st = rt._RetireStepper(p, RetireGrid(n_x=n_x, n_y=n_y))
        obstacle = np.broadcast_to(st.obstacle, (n_y, n_x))
        if variant == "finite-horizon":
            u, dt_inv, rho = obstacle.copy(), 2.0, 1e5
        else:
            u, dt_inv, rho = np.maximum(math.log(p.B), obstacle), 4.0, 1e3
        for k in range(4):
            A, rhs, _, _ = assemble(st, u, dt_inv, rho, (obstacle - u) > 0.0)
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", panel_size=rt._PANEL_SIZE)
            if k == 0:  # the pattern's order is that of the first real matrix
                assert np.array_equal(st._q, np.argsort(lu.perm_c))
            before = st.factorizations
            u, _, _ = st.step(u, dt_inv, rho)
            if st.factorizations > before:
                assert np.array_equal(u.ravel(), lu.solve(rhs))
            else:  # refined on the kept factor
                np.testing.assert_allclose(u.ravel(), lu.solve(rhs), rtol=0, atol=1e-12)

    def test_one_ordering_per_solve(self, monkeypatch):
        calls = []
        real = rt.splu
        monkeypatch.setattr(rt, "splu", lambda A, permc_spec, **kw: calls.append((permc_spec, kw))
                            or real(A, permc_spec=permc_spec, **kw))
        sol = rt.penalty_solve_retire(baseline_retire_params(), RetireGrid(n_x=21, n_y=15))
        # the order once, at construction, then one natural-order factor per
        # step that factorised; the other steps refined on the kept factor
        assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * sol.factorizations
        assert 0 < sol.factorizations < sol.iterations
        assert all(kw == {"panel_size": rt._PANEL_SIZE} for _, kw in calls)


class TestPanelWidthTolerance:
    """The narrow SuperLU panel changes only the order in which the
    factorisation sums, not the pivots or the fill.  Against SuperLU's
    default panel (``panel_size=None``, the 20 columns every retire solve
    used before) the step counts and the retirement set stay identical, u
    moves by at most 1e-12 and the controls by at most 1e-11."""

    SOLVES = {
        "crra": lambda grid: rt.penalty_solve_retire(baseline_retire_params(), grid),
        "epstein-zin": lambda grid: rt.epstein_zin_solve(baseline_retire_params(eis_psi=0.5),
                                                         grid),
        "finite-horizon": lambda grid: rt.finite_horizon_solve(
            baseline_retire_params(horizon_T=50.0), grid, dt=0.5),
    }

    @pytest.mark.parametrize("variant", SOLVES)
    def test_default_panel_agrees_within_the_stated_tolerance(self, variant, monkeypatch):
        solve = functools.partial(self.SOLVES[variant], RetireGrid(n_x=31, n_y=21))
        narrow = solve()
        monkeypatch.setattr(rt, "_PANEL_SIZE", None)
        wide = solve()
        assert narrow.iterations == wide.iterations
        assert np.array_equal(narrow.retired, wide.retired)
        assert np.array_equal(narrow.xi_retire, wide.xi_retire)
        np.testing.assert_allclose(narrow.u, wide.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(narrow.y_star, wide.y_star, rtol=0, atol=1e-11)
        np.testing.assert_allclose(narrow.c_star, wide.c_star, rtol=0, atol=1e-11)


class TestFactorReuse:
    """A step under the key (dt_inv, penalty, active set) of the kept factor
    refines on it to roundoff instead of factorising.  Against the oracle
    that factorises at every step (no correction allowed) the step counts,
    the retirement sets and both boundaries stay identical, u moves by at
    most 1e-12 and the controls by at most 1e-11."""

    SOLVES = dict(
        TestPanelWidthTolerance.SOLVES,
        power_nu=lambda grid: rt.penalty_solve_retire(baseline_retire_params(power_nu=3.0),
                                                      grid),
        mean_reversion_0=lambda grid: rt.penalty_solve_retire(
            baseline_retire_params(mean_reversion=0.0), grid))

    @pytest.mark.parametrize("variant", SOLVES)
    def test_agrees_with_factorising_every_step(self, variant, monkeypatch):
        solve = functools.partial(self.SOLVES[variant], RetireGrid(n_x=31, n_y=21))
        reused = solve()
        monkeypatch.setattr(rt, "_MAX_CORRECTIONS", 0)
        fresh = solve()
        assert fresh.factorizations == fresh.iterations
        assert 0 < reused.factorizations < reused.iterations
        assert reused.iterations == fresh.iterations
        for name in ("retired", "xi_retire", "xi_participate"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name),
                                  equal_nan=name != "retired"), name
        np.testing.assert_allclose(reused.u, fresh.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(reused.y_star, fresh.y_star, rtol=0, atol=1e-11)
        np.testing.assert_allclose(reused.c_star, fresh.c_star, rtol=0, atol=1e-11)

    # the second step's u lifts the first's by amplitude * xi (1 - xi), which
    # keeps the (empty) active set: at 0.5 the corrections still contract
    # but reach no roundoff floor in the allowed number, at 2.0 the second
    # correction is more than a quarter of the first
    @pytest.mark.parametrize("amplitude", [0.5, 2.0])
    def test_a_matrix_moved_under_the_same_key_is_factorised(self, amplitude, monkeypatch):
        refined = []
        real = rt._RetireStepper._refine

        def refine(self, rhs):
            refined.append(real(self, rhs))
            return refined[-1]

        monkeypatch.setattr(rt._RetireStepper, "_refine", refine)
        st = rt._RetireStepper(baseline_retire_params(), RetireGrid(n_x=31, n_y=21))
        obstacle = np.broadcast_to(st.obstacle, st.XI.shape)
        dt_inv, rho = 0.01, 1e5
        st.step(obstacle.copy(), dt_inv, rho)
        u = obstacle + amplitude * st.XI * (1.0 - st.XI)
        A, rhs, _, _ = assemble(st, u, dt_inv, rho, (obstacle - u) > 0.0)
        u_new, _, _ = st.step(u, dt_inv, rho)
        assert refined == [None] and st.factorizations == 2
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", panel_size=rt._PANEL_SIZE)
        assert np.array_equal(u_new.ravel(), lu.solve(rhs))


class TestDampedPolish:
    def test_running_out_of_steps_raises(self, monkeypatch):
        class Chattering(rt._RetireStepper):
            """Settles at once in the pseudo-time stages; each polish step
            (dt_inv = 1/100) flips u by 2, so the half-step moves it by 1."""

            flip = 1.0

            def step(self, u, dt_inv, rho_pen):
                zero = np.zeros_like(u)
                if dt_inv > 0.01:
                    return u, zero, zero
                self.flip = -self.flip
                return u + 2.0 * self.flip, zero, zero

        monkeypatch.setattr(rt, "_RetireStepper", Chattering)
        with pytest.raises(NoConvergence, match="polish") as exc:
            rt.penalty_solve_retire(baseline_retire_params(), RetireGrid(n_x=11, n_y=5))
        assert exc.value.residual == pytest.approx(1.0)


class TestStalledStages:
    """A penalty stage that stalls for 25 steps hands over to the next one
    and is counted on the solution."""

    @staticmethod
    def solve(monkeypatch, stalling):
        monkeypatch.setattr(rt, "_RetireStepper", stalling_stepper(stalling))
        return rt.penalty_solve_retire(baseline_retire_params(), RetireGrid(n_x=11, n_y=5))

    @pytest.mark.parametrize("stalling", [(), (1e4,), (1e3, 1e5)])
    def test_each_stalled_stage_counted(self, monkeypatch, stalling):
        sol = self.solve(monkeypatch, stalling)
        assert sol.stalled_stages == len(stalling)
        # a stalled stage ends after 1 + 25 steps, a settled one after 1;
        # then one polish step
        assert sol.iterations == 26 * len(stalling) + (3 - len(stalling)) + 1

    def test_converged_solves_record_none(self, retire_baseline, horizon_solution):
        assert retire_baseline.stalled_stages == 0
        assert horizon_solution.stalled_stages == 0


class TestZFreeSolve:
    """With mean_reversion = 0 the public solves run on three z rows and
    repeat row 0 onto the grid.  Against the private cores on the full grid
    the step counts, retirement sets, boundaries and z grid are identical,
    u agrees within 1e-12 and the controls within 1e-11."""

    CASES = {  # name: (parameter overrides, public solve, full-grid core)
        "crra": ({}, rt.penalty_solve_retire, rt._solve_stationary),
        "epstein-zin": ({"eis_psi": 0.5}, rt.epstein_zin_solve, rt._solve_stationary),
        "power_nu": ({"power_nu": 3.0}, rt.penalty_solve_retire, rt._solve_stationary),
        "finite-horizon": ({"horizon_T": 10.0},
                           lambda p, grid: rt.finite_horizon_solve(p, grid, dt=0.5),
                           lambda p, grid: rt._solve_finite(p, grid, 0.5)),
    }

    @staticmethod
    @functools.cache
    def solves(variant, n_x, n_y):
        """(public, full-grid) solves of the mean_reversion = 0 variant."""
        overrides, public, full_grid = TestZFreeSolve.CASES[variant]
        p = baseline_retire_params(mean_reversion=0.0, **overrides)
        grid = RetireGrid(n_x=n_x, n_y=n_y)
        return public(p, grid), full_grid(p, grid)

    @pytest.mark.parametrize("n_x, n_y", [(21, 15), (41, 31)])
    @pytest.mark.parametrize("variant", CASES)
    def test_agrees_with_the_full_grid_solve(self, variant, n_x, n_y):
        z_free, full = self.solves(variant, n_x, n_y)
        assert z_free.iterations == full.iterations
        assert z_free.z.tobytes() == full.z.tobytes()
        assert z_free.retired.shape == (n_y, n_x)
        for name in ("retired", "xi_retire", "xi_participate", "xi_retire_by_age"):
            a, b = getattr(z_free, name), getattr(full, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        np.testing.assert_allclose(z_free.u, full.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z_free.y_star, full.y_star, rtol=0, atol=1e-11)
        np.testing.assert_allclose(z_free.c_star, full.c_star, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("variant", CASES)
    def test_full_grid_solve_is_z_constant(self, variant):
        # no z-dependence may leak into the operator when mean_reversion = 0
        _, full = self.solves(variant, 41, 31)
        assert float(np.max(np.std(full.u, axis=0))) < 1e-12

    @pytest.mark.parametrize("variant", CASES)
    def test_returned_arrays_are_writeable_copies(self, variant):
        overrides, public, _ = self.CASES[variant]
        sol = public(baseline_retire_params(mean_reversion=0.0, **overrides),
                     RetireGrid(n_x=11, n_y=5))
        for name in ("u", "y_star", "c_star", "retired", "xi_retire", "xi_participate",
                     "xi_retire_by_age"):
            a = getattr(sol, name)
            if a is None:
                continue
            assert a.flags.writeable and a.flags.owndata, name
            by_z = np.moveaxis(a, 1 if name == "xi_retire_by_age" else 0, 0)
            before = by_z.copy()
            by_z[0] = ~by_z[0] if a.dtype == bool else -7.0  # z row 0 alone moves
            assert not np.array_equal(by_z[0], before[0]), name
            assert np.array_equal(by_z[1:], before[1:], equal_nan=True), name

    @pytest.mark.parametrize("mean_reversion, rows", [(0.15, 15), (0.0, 3)])
    def test_factored_rows(self, monkeypatch, mean_reversion, rows):
        # the z-free rule reads mean_reversion only: with z-dependence the
        # whole n_y x n_x system is factored
        shapes = []
        real = rt.splu
        monkeypatch.setattr(rt, "splu", lambda A, **kw: shapes.append(A.shape) or real(A, **kw))
        sol = rt.penalty_solve_retire(baseline_retire_params(mean_reversion=mean_reversion),
                                      RetireGrid(n_x=21, n_y=15))
        # the ordering, then each step that factorised
        assert len(shapes) == sol.factorizations + 1
        assert set(shapes) == {(rows * 21, rows * 21)}
        assert sol.u.shape == (15, 21)


class TestJumpExpectation:
    def test_zero_income_share_is_constant(self):
        p = baseline_retire_params()
        u_row = np.linspace(0.7, 0.1, 11)
        val = jump_expectation(replace(p, recovery=0.8), u_row)[0]
        assert val == pytest.approx(1.0 / (1.0 - p.gamma), abs=1e-12)

    def test_identity_jump_changes_nothing(self):
        p = baseline_retire_params()
        u_row = np.sin(np.linspace(0, 1, 11))
        vals = jump_expectation(replace(p, recovery=1.0), u_row)
        for i in (2, 5, 9):  # xi = 0.2, 0.5, 0.9
            assert vals[i] == pytest.approx(1.0 / (1.0 - p.gamma), abs=1e-12)

    def test_large_power_parameter_approaches_identity_jump(self):
        p = baseline_retire_params()
        u_row = 0.5 - 0.3 * np.linspace(0, 1, 11)
        ref = 1.0 / (1.0 - p.gamma)
        prev = None
        for nu in (5.0, 50.0, 500.0):
            val = jump_expectation(replace(p, power_nu=nu), u_row)[5]  # xi = 0.5
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
        # mean_reversion = 0 and sigma = sigma_z: the control formula
        # collapses to the single-factor h (the solve's z-constancy is
        # checked on the full grid in TestZFreeSolve)
        sol = retire_benchmark
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
    def test_psi_inverse_gamma_equals_crra(self, retire_ez, retire_baseline):
        ez = retire_ez(1.0 / 3.0)
        assert float(np.max(np.abs(ez.u - retire_baseline.u))) <= 1e-6

    def test_consumption_foc_residual_at_nodes(self, retire_ez):
        sol = retire_ez(0.5)
        p = sol.params
        mode = rt._Mode(p)
        h = sol.xi[1] - sol.xi[0]
        u_xi = np.gradient(sol.u, h, axis=1)
        work = ~sol.retired
        work[:, -1] = False  # the income cap binds at xi = 1 by design
        res = foc_residual(mode, sol.u[work], sol.c_star[work],
                           (1.0 - sol.xi[None, :] * u_xi)[work])
        # the closed-form consumption satisfies its Euler condition exactly
        # wherever the cap and floor are inactive
        capped = sol.c_star[work] >= 0.999
        assert float(np.max(np.abs(res[~capped]))) <= 1e-10

    def test_higher_eis_lowers_threshold(self, retire_ez, retire_baseline):
        th_crra = retire_baseline.wealth_threshold()
        prev = th_crra
        for psi in (0.5, 0.8):
            th = retire_ez(psi).wealth_threshold()
            assert th < prev
            prev = th

    def test_recursive_formulas_are_crra_at_psi_inverse_gamma(self):
        p = baseline_retire_params(eis_psi=1.0 / 3.0)
        crra, rec = rt._Mode(replace(p, eis_psi=None)), rt._Mode(p)
        rng = np.random.default_rng(5)
        u, c, base = rng.uniform(-1.0, 1.0, 200), rng.uniform(0.01, 1.0, 200), \
            rng.uniform(0.1, 2.0, 200)
        for a, b in ((crra.consumption(u, base), rec.consumption(u, base)),
                     (crra.flow_terms(u, c), rec.flow_terms(u, c)),
                     (foc_residual(crra, u, c, base), foc_residual(rec, u, c, base))):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)

    def test_unit_eis_rejected(self):
        with pytest.raises(ValidationError):
            rt._Mode(baseline_retire_params(eis_psi=1.0))


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

    @pytest.mark.parametrize("dt", [0.35, 0.3, 0.7])
    def test_horizon_not_a_whole_number_of_steps_is_refused(self, dt):
        # 10/0.35 once ran 29 steps with ages from -0.15, and 10/0.3 stopped
        # the march at age 0.1
        p = baseline_retire_params(horizon_T=10.0)
        with pytest.raises(ValidationError, match=f"^dt={dt!r} must divide horizon_T=10.0 "):
            rt.finite_horizon_solve(p, RetireGrid(n_x=21, n_y=15), dt=dt)

    def test_horizon_a_whole_number_of_steps_up_to_roundoff_runs(self):
        # 0.3/0.1 is 2.9999999999999996: three steps, down to age 0
        p = baseline_retire_params(horizon_T=0.3)
        sol = rt.finite_horizon_solve(p, RetireGrid(n_x=21, n_y=15), dt=0.1)
        assert sol.iterations == 3
        assert sol.ages[-1] == 0.3 and sol.ages[0] == pytest.approx(0.0, abs=1e-15)


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

    @staticmethod
    def row_formula(sol, w, j):
        """The ratio read on z row j alone (income 1)."""
        xi = float(rt.xi_of_wealth(w, sol.params.r))
        h = sol.xi[1] - sol.xi[0]
        i = int(np.clip(np.searchsorted(sol.xi, xi), 1, sol.xi.size - 2))
        u_xi = (sol.u[j, i + 1] - sol.u[j, i - 1]) / (2.0 * h)
        return (1.0 + (1.0 - xi) * u_xi) / (sol.params.r * max(1.0 - xi * u_xi, 1e-12))

    def test_a_node_reads_its_own_row(self, retire_baseline):
        sol = retire_baseline
        rows = (0, 1, sol.z.size // 2, sol.z.size - 1)
        w = 0.5 * min(sol.wealth_threshold(float(sol.z[j])) for j in rows)
        for j in rows:
            got = rt.implicit_human_capital(sol, w, 1.0, float(sol.z[j]))
            assert got.hex() == self.row_formula(sol, w, j).hex()

    def test_between_nodes_lies_between_the_rows(self, retire_baseline):
        sol = retire_baseline
        w = 0.5 * min(sol.wealth_threshold(z) for z in sol.z[:2])
        row0, row1 = self.row_formula(sol, w, 0), self.row_formula(sol, w, 1)
        assert row0 != row1
        mid = rt.implicit_human_capital(sol, w, 1.0, float(0.5 * (sol.z[0] + sol.z[1])))
        assert min(row0, row1) < mid < max(row0, row1)

    def test_outside_work_region_is_nan(self, retire_baseline):
        sol = retire_baseline
        w_star = sol.wealth_threshold(0.0)
        assert math.isnan(rt.implicit_human_capital(sol, w_star * 1.5, 1.0, 0.0))

    def test_a_wealth_grid_reads_as_its_points(self, retire_baseline):
        sol = retire_baseline
        w_star = sol.wealth_threshold(0.0)
        ws = np.linspace(0.5, 1.5 * w_star, 25)
        got = rt.implicit_human_capital(sol, ws, 1.0, 0.0)
        one_by_one = [rt.implicit_human_capital(sol, float(w), 1.0, 0.0) for w in ws]
        assert got.tobytes() == np.array(one_by_one).tobytes()
        assert np.array_equal(np.isnan(got), ws >= w_star)


class TestProfileReads:
    """The z-profiles of the 76 x 51 baseline read through interp.read."""

    def test_participation_target_on_a_node_beside_a_nan_row(self, retire_coarse_baseline):
        sol = retire_coarse_baseline
        assert np.isnan(sol.xi_participate[1]) and np.isfinite(sol.xi_participate[2])
        assert sol.participation_target(float(sol.z[2])) == 10.294117647058815
        # lerp in the node's cell weighs row 1's NaN by 0
        assert np.isnan(interp.lerp(sol.xi_participate, *interp.cell(sol.z, sol.z[2])))

    def test_wealth_threshold_between_nodes_is_the_race_read(self, retire_coarse_baseline):
        sol = retire_coarse_baseline
        zq = np.concatenate([0.5 * (sol.z[1:] + sol.z[:-1]), 0.3 * sol.z[1:] + 0.7 * sol.z[:-1]])
        race = interp.lerp(sol.xi_retire, *interp.UniformAxis(sol.z, "z").cell(zq))
        got = np.array([sol.wealth_threshold(float(z)) for z in zq])
        assert got.tobytes() == rt.wealth_to_income(race, sol.params.r).tobytes()


class TestMpcCurve:
    """The consumption rows are read at z, as wealth_threshold reads the
    boundary; an even n_y leaves z = 0 between two rows."""

    W = np.linspace(1.0, 20.0, 39)

    @pytest.fixture(scope="class")
    def sol(self):
        return rt.penalty_solve_retire(baseline_retire_params(), RetireGrid(n_x=31, n_y=20))

    def row_formula(self, sol, j):
        """The MPC read on z row j alone."""
        r = sol.params.r
        c_bar = interp.read(sol.xi, sol.c_star[j], rt.xi_of_wealth(self.W, r))
        return np.diff(c_bar * (self.W + 1.0 / r)) / np.diff(self.W)

    def test_xi_read_is_np_interp_to_roundoff(self, sol):
        r = sol.params.r
        for z in (0.0, float(sol.z[3]), 0.37):
            _, got = rt.mpc_curve(sol, z, self.W)
            c_row = interp.read(sol.z, sol.c_star.T, z)
            c_bar = np.interp(rt.xi_of_wealth(self.W, r)[::-1], sol.xi, c_row)[::-1]
            want = np.diff(c_bar * (self.W + 1.0 / r)) / np.diff(self.W)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_a_node_reads_its_own_row(self, sol):
        for j in (0, 1, sol.z.size // 2, sol.z.size - 1):
            _, got = rt.mpc_curve(sol, float(sol.z[j]), self.W)
            assert got.tobytes() == self.row_formula(sol, j).tobytes()

    def test_between_nodes_lies_between_the_rows(self, sol):
        j = sol.z.size // 2
        assert sol.z[j - 1] < 0.0 < sol.z[j]
        row0, row1 = self.row_formula(sol, j - 1), self.row_formula(sol, j)
        _, mid = rt.mpc_curve(sol, 0.0, self.W)
        apart = row0 != row1
        assert apart.any()
        assert np.all((np.minimum(row0, row1) < mid)[apart])
        assert np.all((mid < np.maximum(row0, row1))[apart])
        np.testing.assert_array_equal(mid[~apart], row0[~apart])


class TestGridRefinement:
    def test_boundaries_stable_under_mesh_halving(self, retire_coarse_baseline,
                                                  retire_baseline):
        coarse, fine = retire_coarse_baseline, retire_baseline
        j0c = int(np.argmin(np.abs(coarse.z)))
        j0f = int(np.argmin(np.abs(fine.z)))
        dxi_coarse = coarse.xi[1] - coarse.xi[0]
        assert abs(coarse.xi_retire[j0c] - fine.xi_retire[j0f]) <= dxi_coarse + 1e-12
        assert abs(coarse.xi_participate[j0c] - fine.xi_participate[j0f]) \
            <= dxi_coarse + 1e-12

    def test_gamma_ordering_is_not_a_grid_artifact(self):
        # acceptance 9(iii)'s stated cause: on 51 x 41, as on its 101 x 81, the
        # CRRA threshold rises with gamma, so the ordering is the operator's
        grid = rt.default_retire_grid(n_xi=51, n_z=41)
        th = [rt.penalty_solve_retire(baseline_retire_params(gamma=g), grid).wealth_threshold()
              for g in (2.0, 3.0, 4.0)]
        assert th[0] < th[1] < th[2]


def boundaries_by_row(xi, y, retired):
    """The per-row definition of retire._boundaries, one slice at a time."""
    n_z, n_x = retired.shape
    xi_ret = np.empty(n_z)
    xi_np = np.full(n_z, np.nan)
    for j in range(n_z):
        work = np.where(~retired[j])[0]
        if work.size == 0:
            xi_ret[j] = 1.0
            continue
        xi_ret[j] = xi[work[0] - 1] if work[0] > 0 else 0.0
        nohold = np.where(~(y[j] > 1e-8) & ~retired[j] & (np.arange(n_x) >= work[0]))[0]
        inner = nohold[nohold < n_x - 1]
        if inner.size:
            xi_np[j] = xi[inner[0]]
    return xi_ret, xi_np


class TestBoundaries:
    XI = np.linspace(0.0, 1.0, 6)

    def boundaries(self, y, retired):
        return rt._boundaries(types.SimpleNamespace(xi=self.XI), np.asarray(y, float),
                              np.asarray(retired, bool))

    def test_edge_rows(self):
        T, F = True, False
        retired = [[T, T, T, T, T, T],   # all retired
                   [F, F, F, F, F, F],   # works from column 0
                   [T, T, F, F, F, F],   # holds stock at every working node
                   [T, F, F, F, F, F]]   # does not hold only in the last column
        y = [[0.0] * 6, [0.0, 0.0, 0.5, 0.0, 0.5, 0.5], [0.5] * 6, [0.5] * 5 + [0.0]]
        xi_ret, xi_np = self.boundaries(y, retired)
        np.testing.assert_array_equal(xi_ret, [1.0, 0.0, self.XI[1], 0.0])
        np.testing.assert_array_equal(xi_np, [np.nan, 0.0, np.nan, np.nan])

    def test_non_holding_node_before_the_first_working_one_does_not_count(self):
        xi_ret, xi_np = self.boundaries([[0.0, 0.0, 0.0, 0.5, 0.0, 0.5]],
                                        [[True, True, False, False, True, False]])
        assert xi_ret[0] == self.XI[1] and xi_np[0] == self.XI[2]

    def test_equals_the_row_by_row_definition(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            retired = rng.random((7, 6)) < rng.random()
            y = np.where(rng.random((7, 6)) < 0.4, 0.0, rng.random((7, 6)))
            y[rng.random((7, 6)) < 0.1] = np.nan
            got = self.boundaries(y, retired)
            want = boundaries_by_row(self.XI, y, retired)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
