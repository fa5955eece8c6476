"""Monte Carlo engine tests: bank path bookkeeping and retirement timing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sc_control import bank_full, retire as rt, simulate as sim
from sc_control.errors import ValidationError
from sc_control.params import BankParams
from sc_control.retire import RetireSolution

from conftest import (baseline_retire_params, digest, fig_bank_params, race_alone,
                      table_bank_params)


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
        assert np.array_equal(bundle.true_equity, bundle.expected_equity, equal_nan=True)
        assert bundle.tracking_error() == 0.0

    def test_coincide_at_start_and_no_delay_dividends(self, fig_solution):
        p = fig_bank_params()
        bundle = sim.simulate_bank(p, fig_solution, horizon=10.0, n_paths=100,
                                   dt=p.delay_Delta / 8.0, seed=5)
        assert np.array_equal(bundle.gap_moments[:, 0], (100, 0.0, 0.0))
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
        assert bundle.tracking_error(start=half) == pytest.approx(target, rel=0.30)

    def test_dt_guard(self, fig_solution):
        with pytest.raises(ValidationError, match=r"^dt=0\.2 must be <= Delta/8 = 0\.0625"):
            sim.simulate_bank(fig_bank_params(), fig_solution, horizon=1.0,
                              n_paths=10, dt=0.2, seed=1)

    @pytest.mark.parametrize("horizon, dt", [(20.0, 0.3), (1.0, 1.0), (1.5, 1.0)])
    def test_horizon_need_not_be_a_whole_number_of_steps(self, horizon, dt):
        sim.check_run_settings(10, dt, horizon=horizon)

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
        assert np.array_equal(a.gap_moments, b.gap_moments)
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

        def run(n_steps):  # each run draws the same shocks from a new Shocks
            return sim.simulate_bank(p, sol, horizon=n_steps * dt, n_paths=2, dt=dt,
                                     seed=0, x0=0.5 * (sol.kappa + sol.u1))

        k = 8  # the order completes at the start of step Delta/dt
        before, after = run(k), run(k + 1)
        D = after.debt[k]
        E = before.true_equity  # the states at step k's start
        assert E[1] / D > sol.u2
        assert np.array_equal(before.issuances, [0, 0])
        assert np.array_equal(after.issuances, [1, 1])

        def after_step(e):  # the noiseless step from equity e at step k's start
            return e + (p.alpha * e + (p.alpha - p.mu) * D) * dt

        # path 0 is lifted to u2 * D_k; path 1, already above u2, gets nothing
        assert after.true_equity[0] == pytest.approx(after_step(sol.u2 * D), rel=1e-14)
        assert after.true_equity[1] == pytest.approx(after_step(E[1]), rel=1e-14)
        assert np.array_equal(after.expected_equity, after.true_equity)


class TestBankPathsPinned:
    """Every PathBundle array of bank runs, pinned bit for bit: any change to
    the arithmetic of the path loop, of the continuous filter step or of the
    order in which the live paths read the draws shows here.  The equity
    pins are of the horizon states.

    Besides a raw and a controlled run under Table-B noise, the cases cover
    a start just above the barrier (51 of 64 paths liquidated, 28 of them at
    step 1), a start on it (every path liquidated at step 0, so no path is left
    to step), a noiseless run with dividends and completed issuances, and
    an odd path count."""

    FIELDS = ("times", "true_equity", "expected_equity", "debt", "liquidation_time",
              "dividends_paid", "issuances", "gap_moments")
    # name: (policy, x0 - kappa or None for the default start, horizon,
    #        n_paths, seed, digests in FIELDS order)
    CASES = {
        "raw": ("none", None, 2.0, 64, 3, (
            "5103c58a64d135c4", "7e16730590311dc2", "e5b18ef6609eba3f", "99cb3d6fbd5bebed",
            "b76c8aea636974cb", "076a27c79e5ace2a", "076a27c79e5ace2a", "a9b05a60fc9e62c6")),
        "partial": ("line", None, 5.0, 64, 5, (
            "84ee6e75d9a4db09", "2fa84c706c769bf6", "a188da5ed7aec413", "2eceeca9caf814a4",
            "dd60cf2e8ca6ff8b", "61233b383bb0bf73", "7bd93742cb8310ca", "76f48aa70e9fb2c6")),
        "above_barrier": ("line", 0.001, 5.0, 64, 7, (
            "84ee6e75d9a4db09", "a02d613220e93ee5", "dac11fb0e7a170c8", "2eceeca9caf814a4",
            "57fc3ba404e1ecdf", "0f881ef4ecd1db64", "e013333c82f7e1c0", "6d5aa5ebd63daa82")),
        "on_barrier": ("line", 0.0, 2.0, 64, 1, (
            "5103c58a64d135c4", "b76c8aea636974cb", "b76c8aea636974cb", "99cb3d6fbd5bebed",
            "076a27c79e5ace2a", "076a27c79e5ace2a", "076a27c79e5ace2a", "39232cccccb66a6c")),
        "noiseless": ("full", None, 10.0, 64, 2, (
            "e30579e9a3e508eb", "5a8f6711f56f5ed9", "5a8f6711f56f5ed9", "da727e2fa83bf2a0",
            "702dd1f160102176", "887b6af7a5ccffc1", "0fab8ff176e407c7", "53cfed915146a7aa")),
        "odd_paths": ("line", None, 5.0, 63, 5, (
            "84ee6e75d9a4db09", "0c44f7e1e5a8e4bb", "8901c06ac316f542", "2eceeca9caf814a4",
            "e0a463adcc37b7c0", "98e32c22bb86103e", "6b26569946060a07", "56069420879d87f0")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fields_pinned_exactly(self, case, table_b_small, fig_solution):
        kind, above, horizon, n_paths, seed, digests = self.CASES[case]
        p, policy = table_bank_params(), table_b_small.full_line
        if kind == "none":
            policy = None
        elif kind == "full":
            p, policy = fig_bank_params(), fig_solution
        x0 = None if above is None else policy.kappa + above
        bundle = sim.simulate_bank(p, policy, horizon, n_paths, p.delay_Delta / 8, seed, x0=x0)
        assert tuple(digest(getattr(bundle, f)) for f in self.FIELDS) == digests
        assert (bundle.dividend_in_delay, bundle.seed, bundle.dt) == (0, seed, 0.0625)

    def test_cases_reach_what_they_cover(self, table_b_small, fig_solution):
        p, line = table_bank_params(), table_b_small.full_line
        dt = p.delay_Delta / 8

        def liquidated(bundle):
            return ~np.isnan(bundle.liquidation_time)

        above = sim.simulate_bank(p, line, 5.0, 64, dt, 7, x0=line.kappa + 0.001)
        assert liquidated(above).sum() == 51
        assert np.count_nonzero(above.liquidation_time == dt) == 28
        on = sim.simulate_bank(p, line, 2.0, 64, dt, 1, x0=line.kappa)
        assert np.array_equal(on.liquidation_time, np.zeros(64))
        assert np.all(np.isnan(on.true_equity)) and not on.gap_moments[:, 1:].any()
        fp = fig_bank_params()
        noiseless = sim.simulate_bank(fp, fig_solution, 10.0, 64, dt, 2)
        assert noiseless.dividends_paid.min() >= 0 and np.count_nonzero(noiseless.dividends_paid)
        assert noiseless.issuances.sum() > 0 and liquidated(noiseless).any()

    def test_partial_solution_rejected_naming_its_type(self, table_b_small):
        # the paths run the invariant line's policy, table_b_small.full_line
        p = table_bank_params()
        with pytest.raises(ValidationError, match="PartialSolution"):
            sim.simulate_bank(p, table_b_small, 1.0, 4, p.delay_Delta / 8, seed=0)


class TestStreamedTrackingError:
    """The tracking error merged from per-step gap moments, checked against
    the standard deviation over the full path matrices."""

    @pytest.mark.parametrize("case", ["raw", "partial"])
    def test_matches_the_std_over_the_path_matrices(self, case, table_b_small):
        # a shorter horizon draws the same shocks, so the run of k steps
        # gives column k of the matrices; the start state is column 0
        p = table_bank_params()
        policy = table_b_small.full_line if case == "partial" else None
        x0 = 0.5 * (policy.kappa + policy.u1) if policy else p.kappa_min + 0.05
        dt, n_paths, K = p.delay_Delta / 8, 64, 40
        runs = [sim.simulate_bank(p, policy, k * dt, n_paths, dt, seed=2, x0=x0)
                for k in range(1, K + 1)]
        true_eq = np.column_stack([np.full(n_paths, x0 * runs[-1].debt[0])]
                                  + [r.true_equity for r in runs])
        exp_eq = np.column_stack([np.full(n_paths, x0 * runs[-1].debt[0])]
                                 + [r.expected_equity for r in runs])
        if policy:  # some paths are liquidated, so the mask matters
            assert 0 < np.isnan(true_eq[:, -1]).sum() < n_paths

        def matrix_std(start):
            alive = ~np.isnan(true_eq[:, start:])
            t_assets = true_eq[:, start:] + runs[-1].debt[start:]
            e_assets = exp_eq[:, start:] + runs[-1].debt[start:]
            return float(np.std(np.log(t_assets[alive]) - np.log(e_assets[alive])))

        assert runs[-1].tracking_error() == pytest.approx(matrix_std(0), rel=1e-15, abs=0)
        assert runs[-1].tracking_error(start=K // 2) == pytest.approx(
            matrix_std(K // 2), rel=1e-15, abs=0)

    def test_nan_gap_gives_nan(self):
        # total assets start below zero, so every log gap is NaN
        p = table_bank_params()
        with np.errstate(invalid="ignore"):
            bundle = sim.simulate_bank(p, None, 1.0, 4, p.delay_Delta / 8, seed=0, x0=-2.0)
        assert math.isnan(bundle.tracking_error())

    def test_memory_does_not_grow_with_paths_times_steps(self):
        # 2,000 paths x 320 steps: one (n_paths, n_steps + 1) float matrix
        # takes 5 MB, so a run that stores paths breaks the ceiling
        p = table_bank_params()
        tracemalloc.start()
        try:
            sim.simulate_bank(p, None, 20.0, 2000, p.delay_Delta / 8, seed=0).tracking_error()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


@pytest.fixture(scope="module")
def small_retire_solves(retire_small_grid, retire_small_baseline):
    ben = rt.penalty_solve_retire(baseline_retire_params(mean_reversion=0.0), retire_small_grid)
    return retire_small_baseline, ben


class TestSimulateRetirement:
    def test_immediate_exercise_above_threshold(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        start = pol.wealth_threshold(0.0) * 1.5
        ours, _ = sim.simulate_retirement(p, (pol, ben), start, 200, 0.05, seed=2)
        assert ours.expected_time == 0.0
        assert ours.expected_share == 0.0  # zero-duration paths report zero

    def test_reproducible(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        a = sim.simulate_retirement(p, (pol, ben), 10.0, 400, 0.1, seed=4)
        b = sim.simulate_retirement(p, (pol, ben), 10.0, 400, 0.1, seed=4)
        assert a[0] == b[0] and a[1] == b[1]

    def test_times_capped(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        _, dl = sim.simulate_retirement(p, (pol, ben), 1.0, 200, 0.2, seed=7)
        assert dl.expected_time <= sim.RETIRE_TIME_CAP

    def test_halved_step_consistent_within_monte_carlo_error(self,
                                                             small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        coarse, _ = sim.simulate_retirement(p, (pol, ben), 10.0, 3000, 0.1, seed=8)
        fine, _ = sim.simulate_retirement(p, (pol, ben), 10.0, 3000, 0.05, seed=8)
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
        ours, dl = sim.simulate_retirement(p, (pol, ben), 10.0, n, 0.1, 3)
        assert race_alone(p, pol, 10.0, n, 0.1, 3) == ours
        assert race_alone(p, ben, 10.0, n, 0.1, 3) == dl
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
        st = race_alone(baseline_retire_params(**world), synthetic_policy(boundary),
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
            race_alone(baseline_retire_params(), synthetic_policy(0.3), **run, seed=1)

    @pytest.mark.parametrize("first_retires", [True, False])
    def test_side_retiring_at_step_zero_leaves_the_other_alone(self, first_retires):
        # xi = 1/(1 + r*400) = 0.2 at the start: at or below the 0.3 boundary,
        # above the 0.12 one, so one side empties at step 0 and the other works
        p = baseline_retire_params()
        early, late = synthetic_policy(0.3), synthetic_policy(0.12)
        pair = (early, late) if first_retires else (late, early)
        race = sim.simulate_retirement(p, pair, 400.0, 60, 0.5, 9)
        assert race == [race_alone(p, sol, 400.0, 60, 0.5, 9) for sol in pair]
        assert [s.expected_time == 0.0 for s in race] == [first_retires, not first_retires]

    @pytest.mark.parametrize("axis, other", [("xi", dict(n_xi=31)), ("z", dict(z_half=1.5))])
    def test_pair_on_different_grids_raises_naming_the_axis(self, axis, other):
        with pytest.raises(ValidationError, match=f"^{axis} grid differs"):
            sim.simulate_retirement(baseline_retire_params(),
                                    (synthetic_policy(0.3), synthetic_policy(0.3, **other)),
                                    10.0, 10, 0.5, seed=1)


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
    which moved u by roundoff and each share by 4 to 48 ulp, and the
    benchmark shares again when the mean_reversion = 0 solve moved to three
    z rows repeated onto the grid (1 to 2 ulp)."""

    CASES = {  # name: (world overrides, n_paths, seed,
               #        (time, share, retired) hex for the policy, then the benchmark)
        "plain": ({}, 300, 11,
                  ("0x1.00006d3a06d3ap+7", "0x1.074d34ce408c8p-3", "0x1.ae147ae147ae1p-1"),
                  ("0x1.bc2b851eb851fp+6", "0x1.950b04d9ffd8cp-1", "0x1.f92c5f92c5f93p-1")),
        # recorded while the boundary was still read by the np.interp twin
        "odd": ({}, 301, 12,
                ("0x1.fcd653594d653p+6", "0x1.ed2615ee11d45p-4", "0x1.9d5799f0b0e75p-1"),
                ("0x1.c1fae5a271f78p+6", "0x1.94081fb83d7b0p-1", "0x1.f77eb9689c7dep-1")),
        "power_nu": ({"power_nu": 3.0}, 300, 13,
                     ("0x1.03317e4b17e4bp+7", "0x1.e2a3f28bfb5bcp-4", "0x1.b69d0369d036ap-1"),
                     ("0x1.79d999999999ap+6", "0x1.9e12198e3e52bp-1", "0x1.fe4b17e4b17e5p-1")),
    }
    # benchmark-side expected shares as recorded while the mean_reversion = 0
    # solve ran on every z row of the grid
    BENCHMARK_SHARE_BEFORE_Z_FREE = {"plain": "0x1.950b04d9ffd8ap-1",
                                     "odd": "0x1.94081fb83d7afp-1",
                                     "power_nu": "0x1.9e12198e3e52ap-1"}
    # power_nu expected times at 4000 paths, dt 0.25, seed 17, as recorded
    # while each side drew its recovery factors per jumping working path
    POWER_NU_BEFORE_COMMON_DRAWS = (131.0085, 92.44025)

    @pytest.mark.parametrize("case", CASES)
    def test_both_sides_pinned_exactly(self, case, solve_pair_21x15):
        world, n, seed, *expected = self.CASES[case]
        pair = sim.simulate_retirement(baseline_retire_params(**world), solve_pair_21x15,
                                       10.0, n, 0.25, seed)
        got = [tuple(v.hex() for v in (s.expected_time, s.expected_share, s.retired_fraction))
               for s in pair]
        assert got == expected
        assert [(s.n_paths, s.policy) for s in pair] == [(n, "policy"), (n, "policy")]

    @pytest.mark.parametrize("case", CASES)
    def test_benchmark_share_kept_within_roundoff_of_the_full_grid_solve(
            self, case, solve_pair_21x15):
        # The three-row benchmark solve moves y* from the full-grid one by
        # roundoff only (test_retire.TestZFreeSolve), and every retirement
        # step and time stays the same, so each share moves at that order
        world, n, seed, *_ = self.CASES[case]
        _, bench = sim.simulate_retirement(baseline_retire_params(**world),
                                           solve_pair_21x15, 10.0, n, 0.25, seed)
        before = float.fromhex(self.BENCHMARK_SHARE_BEFORE_Z_FREE[case])
        assert abs(bench.expected_share - before) <= 1e-13 * abs(before)

    def test_power_nu_means_kept_within_monte_carlo_error(self, solve_pair_21x15):
        # Drawing the recoveries as one full uniform per step changes which
        # random numbers reach each path, not their law.  A capped time lies
        # in [0, 250], so its standard deviation is at most 125 and the
        # standard error of a mean over n paths at most 125/sqrt(n); the
        # difference of the two estimates, however correlated, has a
        # standard deviation of at most twice that.  Allow three of those.
        n = 4000
        pair = sim.simulate_retirement(baseline_retire_params(power_nu=3.0),
                                       solve_pair_21x15, 10.0, n, 0.25, 17)
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
            race_alone(baseline_retire_params(), dataclasses.replace(sol, **{axis: grid}),
                       10.0, 10, 0.5, seed=1)
