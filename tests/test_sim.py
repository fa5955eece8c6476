"""Monte Carlo engine tests: bank path bookkeeping and retirement timing."""

import numpy as np
import pytest

from sc_control import bank_full, retire as rt, simulate as sim
from sc_control.errors import ValidationError
from sc_control.params import BankParams

from conftest import baseline_retire_params, fig_bank_params


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

    def test_reproducible(self, fig_solution):
        p = fig_bank_params()
        a = sim.simulate_bank(p, fig_solution, 5.0, 40, p.delay_Delta / 8, seed=9)
        b = sim.simulate_bank(p, fig_solution, 5.0, 40, p.delay_Delta / 8, seed=9)
        assert np.array_equal(a.true_equity, b.true_equity, equal_nan=True)
        assert np.array_equal(a.dividends_paid, b.dividends_paid)

    def test_issuance_completion_tops_up_to_barrier(self, fig_solution):
        p = fig_bank_params()
        bundle = sim.simulate_bank(p, fig_solution, horizon=20.0, n_paths=300,
                                   dt=p.delay_Delta / 8.0, seed=21,
                                   x0=fig_solution.u1 * 1.02)
        assert bundle.issuances.sum() > 0


@pytest.fixture(scope="module")
def small_retire_solves():
    grid = rt.default_retire_grid(n_xi=101, n_z=81)
    pol = rt.penalty_solve_retire(baseline_retire_params(), grid)
    ben = rt.penalty_solve_retire(baseline_retire_params(mean_reversion=0.0), grid)
    return pol, ben


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

    def test_antithetic_leaves_mean_within_error(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        plain, _ = sim.simulate_retirement(p, pol, ben, 10.0, 3000, 0.1, seed=6)
        anti, _ = sim.simulate_retirement(p, pol, ben, 10.0, 3000, 0.1, seed=6,
                                          antithetic=True)
        assert anti.expected_time == pytest.approx(plain.expected_time, rel=0.12)

    def test_antithetic_odd_path_count_runs_and_reproduces(self, small_retire_solves):
        pol, ben = small_retire_solves
        p = baseline_retire_params()
        a = sim.simulate_retirement(p, pol, ben, 10.0, 101, 0.1, seed=5, antithetic=True)
        b = sim.simulate_retirement(p, pol, ben, 10.0, 101, 0.1, seed=5, antithetic=True)
        assert a == b
        assert a[0].n_paths == 101

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
