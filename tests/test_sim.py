"""Monte Carlo engine tests: bank path bookkeeping and retirement timing."""

import dataclasses
import math

import numpy as np
import pytest

from sc_control import bank_full, retire as rt, simulate as sim
from sc_control.errors import ValidationError
from sc_control.params import BankParams
from sc_control.retire import RetireSolution

from conftest import baseline_retire_params, digest, fig_bank_params, table_bank_params


@pytest.fixture(scope="module")
def fig_solution():
    return bank_full.solve_barriers(fig_bank_params())


def sim_params():
    # book-equity simulation figure calibration
    return BankParams(mu=0.035, alpha=0.04, sigma=0.05, delta=0.12, omega=0.3,
                      kappa_min=0.048, issue_cost_K=0.002, delay_Delta=0.5,
                      noise_m=0.03, rho=-0.30, conf_a=0.8)


class TestSimulateBank:
    def test_noiseless_expected_equals_true(self, fig_solution):
        p = fig_bank_params()
        bundle = sim.simulate_bank(p, fig_solution, horizon=5.0, n_paths=50,
                                   dt=p.delay_Delta / 8.0, seed=3)
        alive = ~np.isnan(bundle.true_equity)
        assert np.allclose(bundle.true_equity[alive],
                           bundle.expected_equity[alive], atol=1e-12)

    def test_coincide_at_start_and_no_delay_dividends(self, fig_solution):
        p = fig_bank_params()
        bundle = sim.simulate_bank(p, fig_solution, horizon=10.0, n_paths=100,
                                   dt=p.delay_Delta / 8.0, seed=5)
        assert np.allclose(bundle.true_equity[:, 0], bundle.expected_equity[:, 0])
        assert bundle.dividend_in_delay == 0

    def test_tracking_error_near_long_run_level(self):
        # 20 years of quarterly reports at the simulation-figure parameters:
        # log-asset tracking error settles near sqrt(m sigma (1 - rho))
        p = sim_params()
        # raw reporting dynamics (the figure applies no controls)
        bundle = sim.simulate_bank(p, None, horizon=20.0, n_paths=500,
                                   dt=0.02, seed=11)
        target = np.sqrt(p.s_infinity)
        # compare on the second half of the horizon (stationary regime)
        half = bundle.times.size // 2
        t_assets = bundle.true_equity[:, half:] + bundle.debt[half:]
        e_assets = bundle.expected_equity[:, half:] + bundle.debt[half:]
        alive = ~np.isnan(t_assets) & (t_assets > 0) & (e_assets > 0)
        err = np.std(np.log(t_assets[alive]) - np.log(e_assets[alive]))
        assert err == pytest.approx(target, rel=0.30)

    def test_dt_guard(self, fig_solution):
        with pytest.raises(ValidationError):
            sim.simulate_bank(fig_bank_params(), fig_solution, horizon=1.0,
                              n_paths=10, dt=0.2, seed=1)

    @pytest.mark.parametrize("field, run", [
        ("n_paths", dict(n_paths=0)), ("n_paths", dict(n_paths=2.5)),
        ("dt", dict(dt=0.0)), ("dt", dict(dt=-0.05)), ("dt", dict(dt=math.nan)),
        ("horizon", dict(horizon=0.0)), ("horizon", dict(horizon=-1.0))])
    def test_unusable_run_settings_raise_naming_them(self, fig_solution, field, run):
        run = {"horizon": 1.0, "n_paths": 10, "dt": 0.0625, **run}
        with pytest.raises(ValidationError, match=field):
            sim.simulate_bank(fig_bank_params(), fig_solution, **run, seed=1)

    def test_reproducible(self, fig_solution):
        p = fig_bank_params()
        a = sim.simulate_bank(p, fig_solution, 5.0, 40, p.delay_Delta / 8, seed=9)
        b = sim.simulate_bank(p, fig_solution, 5.0, 40, p.delay_Delta / 8, seed=9)
        assert np.array_equal(a.true_equity, b.true_equity, equal_nan=True)
        assert np.array_equal(a.dividends_paid, b.dividends_paid)

    def test_issuance_completion_tops_up_to_barrier(self, fig_solution, monkeypatch):
        # two paths start below u1 and order at step 0; the shocks are zero
        # except one kick that lifts path 1 above u2 while its order is pending
        p, sol = fig_bank_params(), fig_solution
        dt = p.delay_Delta / 8.0
        kick = 2.0 * (sol.u2 - sol.u1) / ((1.0 + sol.u1) * p.sigma * math.sqrt(dt))

        class Shocks:
            calls = 0

            def standard_normal(self, n):
                z = np.zeros(n)
                if self.calls == 2:  # the asset shock of step 1
                    z[1] = kick
                self.calls += 1
                return z

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Shocks())
        bundle = sim.simulate_bank(p, sol, horizon=1.0, n_paths=2, dt=dt, seed=0,
                                   x0=0.5 * (sol.kappa + sol.u1))
        k = 8  # the order completes at the start of step Delta/dt
        D = bundle.debt[k]
        E = bundle.true_equity
        assert E[1, k] / D > sol.u2
        assert np.array_equal(bundle.issuances, [1, 1])

        def after_step(e):  # the noiseless step from equity e at step k's start
            return e + (p.alpha * e + (p.alpha - p.mu) * D) * dt

        # path 0 is lifted to u2 * D_k; path 1, already above u2, gets nothing
        assert E[0, k + 1] == pytest.approx(after_step(sol.u2 * D), rel=1e-14)
        assert E[1, k + 1] == pytest.approx(after_step(E[1, k]), rel=1e-14)
        assert np.array_equal(bundle.expected_equity, E)


class TestBankPathsPinned:
    """Every PathBundle field of two filtered runs under Table-B noise, pinned
    bit for bit: any change to the arithmetic of the path loop or of the
    continuous filter step shows here."""

    FIELDS = ("times", "true_equity", "expected_equity", "debt", "liquidation_time",
              "dividends_paid", "issuances")
    CASES = {  # name: (horizon, seed, digests in FIELDS order)
        "raw": (2.0, 3, ("5103c58a64d135c4", "464685bbdf63a48e", "0d8909d4ac10eb17",
                         "99cb3d6fbd5bebed", "b76c8aea636974cb", "076a27c79e5ace2a",
                         "076a27c79e5ace2a")),
        "partial": (5.0, 5, ("84ee6e75d9a4db09", "c7d83c39523bbb4f", "072e5ea72c3d1c47",
                             "2eceeca9caf814a4", "dd60cf2e8ca6ff8b", "61233b383bb0bf73",
                             "7bd93742cb8310ca")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fields_pinned_exactly(self, case, table_b_small):
        horizon, seed, digests = self.CASES[case]
        p = table_bank_params()
        policy = table_b_small.full_line if case == "partial" else None
        bundle = sim.simulate_bank(p, policy, horizon, 64, p.delay_Delta / 8, seed)
        assert tuple(digest(getattr(bundle, f)) for f in self.FIELDS) == digests
        assert (bundle.dividend_in_delay, bundle.seed, bundle.dt) == (0, seed, 0.0625)

    def test_partial_solution_rejected_naming_its_type(self, table_b_small):
        # the paths run the invariant line's policy, table_b_small.full_line
        p = table_bank_params()
        with pytest.raises(ValidationError, match="PartialSolution"):
            sim.simulate_bank(p, table_b_small, 1.0, 4, p.delay_Delta / 8, seed=0)


@pytest.fixture(scope="module")
def small_retire_solves(retire_small_grid, retire_small_baseline):
    ben = rt.penalty_solve_retire(baseline_retire_params(mean_reversion=0.0), retire_small_grid)
    return retire_small_baseline, ben


class TestSimulateRetirement:
    def test_immediate_exercise_above_threshold(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        start = pol.wealth_threshold(0.0) * 1.5
        ours, _ = sim.simulate_retirement(p, pol, ben, start, 200, 0.05, seed=2)
        assert ours.expected_time == 0.0
        assert ours.expected_share == 0.0  # zero-duration paths report zero

    def test_reproducible(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        a = sim.simulate_retirement(p, pol, ben, 10.0, 400, 0.1, seed=4)
        b = sim.simulate_retirement(p, pol, ben, 10.0, 400, 0.1, seed=4)
        assert a[0] == b[0] and a[1] == b[1]

    def test_times_capped(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        _, dl = sim.simulate_retirement(p, pol, ben, 1.0, 200, 0.2, seed=7)
        assert dl.expected_time <= sim.RETIRE_TIME_CAP

    def test_halved_step_consistent_within_monte_carlo_error(self,
                                                             small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        coarse, _ = sim.simulate_retirement(p, pol, ben, 10.0, 3000, 0.1, seed=8)
        fine, _ = sim.simulate_retirement(p, pol, ben, 10.0, 3000, 0.05, seed=8)
        # means differ by discretization drift below twice the MC error bar
        assert fine.expected_time == pytest.approx(coarse.expected_time, rel=0.10)

    @pytest.mark.parametrize("world, n", [
        ({}, 300), ({"power_nu": 3.0}, 300), ({}, 301), ({"power_nu": 1.5}, 301),
        ({}, 1), ({"power_nu": 3.0}, 1)],
        ids=["plain", "power_nu", "odd", "power_nu_odd", "one_path", "one_path_power_nu"])
    def test_each_side_of_the_pair_is_one_policy_run(self, small_retire_solves, world, n):
        # the draws do not depend on the policy, so racing changes neither side
        pol, ben = small_retire_solves
        p = baseline_retire_params(**world)
        ours, dl = sim.simulate_retirement(p, pol, ben, 10.0, n, 0.1, 3)
        assert sim.simulate_policy(p, pol, 10.0, n, 0.1, 3) == ours
        alone = sim.simulate_policy(p, ben, 10.0, n, 0.1, 3)
        assert dataclasses.replace(alone, policy="benchmark") == dl
        assert ours.n_paths == dl.n_paths == n


def synthetic_policy(boundary: float, n_xi: int = 41, z_half: float = 1.0) -> RetireSolution:
    """A hand-built solution: analytic controls and retirement boundary
    on linspace grids, so the engine is tested apart from the HJB solver."""
    xi = np.linspace(0.0, 1.0, n_xi)
    z = np.linspace(-z_half, z_half, 17)
    XI, ZZ = np.meshgrid(xi, z)
    y = 0.4 * (1.0 - XI) * (1.0 + 0.3 * np.tanh(ZZ))
    c = 0.004 + 0.004 * XI * (1.0 + 0.2 * ZZ)
    xr = boundary * (1.0 + 0.5 * z)
    return RetireSolution(params=baseline_retire_params(), xi=xi, z=z, u=np.zeros_like(y),
                          y_star=y, c_star=c, retired=XI <= xr[:, None], xi_retire=xr,
                          xi_participate=np.full(z.size, np.nan), iterations=0, residual=0.0)


class TestEngineOnSyntheticPolicy:
    """RetireStats pinned exactly, as recorded before the engine kept only
    the working paths and read both controls with one lookup (power_nu: as
    recorded when its recovery uniforms became one full draw per step)."""

    CASES = {  # name: (boundary, world overrides, start, n_paths, dt, seed,
               #        (expected_time, expected_share, retired_fraction))
        "plain": (0.3, {}, 10.0, 200, 0.25, 1, (125.84375, 0.3954291994494977, 0.97)),
        # recorded while the boundary was still read by the np.interp twin
        "odd": (0.3, {}, 10.0, 201, 0.25, 2,
                (124.45522388059702, 0.39563078566541354, 0.9651741293532339)),
        "power_nu": (0.3, {"power_nu": 3.0}, 10.0, 200, 0.25, 3,
                     (122.39625, 0.3928046291963062, 0.97)),
        "start_above_boundary": (0.3, {}, 400.0, 50, 0.25, 4, (0.0, 0.0, 1.0)),
        # the start's xi equals the boundary at the z = z_bar node, where
        # the z cell's weight is 1: the tie retires every path at once
        "start_on_boundary_at_a_node": (rt.xi_of_wealth(10.0, baseline_retire_params().r),
                                        {}, 10.0, 50, 0.25, 7, (0.0, 0.0, 1.0)),
        "some_reach_the_cap": (0.12, {}, 10.0, 200, 0.5, 5,
                               (177.3375, 0.3936513223791195, 0.82)),
        "all_retire_early": (0.6, {}, 10.0, 150, 0.25, 6, (55.605, 0.3936361267332747, 1.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_stats_pinned_exactly(self, case):
        boundary, world, start, n, dt, seed, expected = self.CASES[case]
        st = sim.simulate_policy(baseline_retire_params(**world), synthetic_policy(boundary),
                                 start, n, dt, seed)
        assert (st.expected_time, st.expected_share, st.retired_fraction) == expected
        assert st.n_paths == n and st.policy == "policy"

    @pytest.mark.parametrize("field, run", [
        ("n_paths", dict(n_paths=0)), ("n_paths", dict(n_paths=-3)),
        ("dt", dict(dt=0.0)), ("dt", dict(dt=-0.5)), ("dt", dict(dt=math.inf)),
        ("start_w_over_i", dict(start_w_over_i=-5.0)),
        ("start_w_over_i", dict(start_w_over_i=math.nan))])
    def test_unusable_run_settings_raise_naming_them(self, field, run):
        run = {"start_w_over_i": 10.0, "n_paths": 10, "dt": 0.5, **run}
        with pytest.raises(ValidationError, match=field):
            sim.simulate_policy(baseline_retire_params(), synthetic_policy(0.3), **run, seed=1)

    @pytest.mark.parametrize("first_retires", [True, False])
    def test_side_retiring_at_step_zero_leaves_the_other_alone(self, first_retires):
        # xi = 1/(1 + r*400) = 0.2 at the start: at or below the 0.3 boundary,
        # above the 0.12 one, so one side empties at step 0 and the other works
        p = baseline_retire_params()
        early, late = synthetic_policy(0.3), synthetic_policy(0.12)
        pair = (early, late) if first_retires else (late, early)
        race = sim.simulate_retirement(p, *pair, 400.0, 60, 0.5, 9)
        alone = [sim.simulate_policy(p, sol, 400.0, 60, 0.5, 9) for sol in pair]
        assert [dataclasses.replace(s, policy="policy") for s in race] == alone
        assert [s.expected_time == 0.0 for s in race] == [first_retires, not first_retires]

    @pytest.mark.parametrize("axis, other", [("xi", dict(n_xi=31)), ("z", dict(z_half=1.5))])
    def test_pair_on_different_grids_raises_naming_the_axis(self, axis, other):
        with pytest.raises(ValidationError, match=f"^{axis} grid differs"):
            sim.simulate_retirement(baseline_retire_params(), synthetic_policy(0.3),
                                    synthetic_policy(0.3, **other), 10.0, 10, 0.5, seed=1)


@pytest.fixture(scope="module")
def solve_pair_21x15():
    grid = rt.default_retire_grid(n_xi=21, n_z=15)
    pol = rt.penalty_solve_retire(baseline_retire_params(), grid)
    ben = rt.penalty_solve_retire(baseline_retire_params(mean_reversion=0.0), grid)
    return pol, ben


class TestRealSolvePairPinned:
    """Both sides of simulate_retirement on a real 21 x 15 solve pair, every
    RetireStats float pinned by float.hex as recorded while the cells were
    still found by binary search and the boundary by np.interp.  The shares
    were re-recorded when the solves moved to a two-column SuperLU panel,
    which moved u by roundoff and each share by 4 to 48 ulp."""

    CASES = {  # name: (world overrides, n_paths, seed,
               #        (time, share, retired) hex for the policy, then the benchmark)
        "plain": ({}, 300, 11,
                  ("0x1.00006d3a06d3ap+7", "0x1.074d34ce408c8p-3", "0x1.ae147ae147ae1p-1"),
                  ("0x1.bc2b851eb851fp+6", "0x1.950b04d9ffd8ap-1", "0x1.f92c5f92c5f93p-1")),
        # recorded while the boundary was still read by the np.interp twin
        "odd": ({}, 301, 12,
                ("0x1.fcd653594d653p+6", "0x1.ed2615ee11d45p-4", "0x1.9d5799f0b0e75p-1"),
                ("0x1.c1fae5a271f78p+6", "0x1.94081fb83d7afp-1", "0x1.f77eb9689c7dep-1")),
        "power_nu": ({"power_nu": 3.0}, 300, 13,
                     ("0x1.03317e4b17e4bp+7", "0x1.e2a3f28bfb5bcp-4", "0x1.b69d0369d036ap-1"),
                     ("0x1.79d999999999ap+6", "0x1.9e12198e3e52ap-1", "0x1.fe4b17e4b17e5p-1")),
    }
    # power_nu expected times at 4000 paths, dt 0.25, seed 17, as recorded
    # while each side drew its recovery factors per jumping working path
    POWER_NU_BEFORE_COMMON_DRAWS = (131.0085, 92.44025)

    @pytest.mark.parametrize("case", CASES)
    def test_both_sides_pinned_exactly(self, case, solve_pair_21x15):
        world, n, seed, *expected = self.CASES[case]
        pair = sim.simulate_retirement(baseline_retire_params(**world), *solve_pair_21x15,
                                       10.0, n, 0.25, seed)
        got = [tuple(v.hex() for v in (s.expected_time, s.expected_share, s.retired_fraction))
               for s in pair]
        assert got == expected
        assert [(s.n_paths, s.policy) for s in pair] == [(n, "policy"), (n, "benchmark")]

    def test_power_nu_means_kept_within_monte_carlo_error(self, solve_pair_21x15):
        # Drawing the recoveries as one full uniform per step changes which
        # random numbers reach each path, not their law.  A capped time lies
        # in [0, 250], so its standard deviation is at most 125 and the
        # standard error of a mean over n paths at most 125/sqrt(n); the
        # difference of the two estimates, however correlated, has a
        # standard deviation of at most twice that.  Allow three of those.
        n = 4000
        pair = sim.simulate_retirement(baseline_retire_params(power_nu=3.0),
                                       *solve_pair_21x15, 10.0, n, 0.25, 17)
        bound = 3.0 * 2.0 * 125.0 / math.sqrt(n)
        for stats, before in zip(pair, self.POWER_NU_BEFORE_COMMON_DRAWS):
            assert abs(stats.expected_time - before) <= bound


class TestNonUniformGridRejected:
    @pytest.mark.parametrize("axis", ["xi", "z"])
    def test_raises_naming_the_axis(self, axis):
        sol = synthetic_policy(0.3)
        grid = getattr(sol, axis).copy()
        grid[3] += 0.3 * (grid[4] - grid[3])  # still increasing, no longer uniform
        with pytest.raises(ValidationError, match=f"^{axis} grid is not uniform"):
            sim.simulate_policy(baseline_retire_params(), dataclasses.replace(sol, **{axis: grid}),
                                10.0, 10, 0.5, seed=1)
