"""Filtering tests: Riccati closed form vs RK4, discrete filter and
log-likelihood vs a brute-force joint-Gaussian oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sc_control import filtering as fl
from sc_control.errors import SingularTransform, ValidationError
from sc_control.params import BankParams

from conftest import digest, table_bank_params

THETA_TEST = (0.04, 0.05, 0.03, -0.30)


def rk4_riccati(p: BankParams, s0: float, t_final: float, n: int = 200000):
    """Independent RK4 integration of dS = sigma^2 - (S/m + sigma rho)^2."""
    def f(s):
        return p.sigma**2 - (s / p.noise_m + p.sigma * p.rho) ** 2

    h = t_final / n
    s = s0
    for _ in range(n):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        s += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def joint_gaussian_oracle(theta, a0, P0, y):
    """Posterior mean/var of M_n and log density of y by direct covariance."""
    alpha, sigma, m, rho = theta
    c = alpha - 0.5 * sigma**2
    N = len(y)
    mean = np.empty(2 * N)
    cov = np.zeros((2 * N, 2 * N))
    mean[0] = a0
    for k in range(1, N):
        mean[k] = mean[k - 1] + c
    for i in range(N):
        for j in range(N):
            cov[i, j] = P0 + sigma**2 * min(i, j)
    for i in range(N):
        mean[N + i] = mean[i]
        for j in range(N):
            cme = m * sigma * rho if (i >= 1 and j >= i) else 0.0
            cov[N + i, j] = cov[i, j] + cme
            cov[j, N + i] = cov[N + i, j]
    for i in range(N):
        for j in range(N):
            cmi = m * sigma * rho if (i >= 1 and j >= i) else 0.0
            cmj = m * sigma * rho if (j >= 1 and i >= j) else 0.0
            cov[N + i, N + j] = cov[i, j] + cmi + cmj + (m**2 if i == j else 0.0)
    Syy = cov[N:, N:]
    SMy = cov[:N, N:]
    resid = np.asarray(y) - mean[N:]
    sol = np.linalg.solve(Syy, resid)
    mu_post = mean[:N] + SMy @ sol
    cov_post = cov[:N, :N] - SMy @ np.linalg.solve(Syy, SMy.T)
    sign, logdet = np.linalg.slogdet(Syy)
    ll = -0.5 * (N * math.log(2 * math.pi) + logdet + resid @ sol)
    return mu_post[-1], cov_post[-1, -1], ll


class TestRiccati:
    def test_stationary_point_is_fixed(self):
        p = table_bank_params()
        s_inf = p.s_infinity
        for t in (0.1, 1.0, 7.3):
            assert fl.riccati_variance(p, s_inf, t) == pytest.approx(s_inf, abs=1e-15)

    def test_limit_independent_of_start(self):
        p = table_bank_params()
        s_inf = p.s_infinity
        for s0 in (0.0, 0.4 * s_inf, 3.0 * s_inf, 10.0 * s_inf):
            assert fl.riccati_variance(p, s0, 80.0) == pytest.approx(s_inf, rel=1e-9)

    @pytest.mark.parametrize("s0_mult,t", [(2.0, 0.25), (2.0, 0.5), (2.0, 1.5),
                                           (0.3, 0.8), (5.0, 2.0)])
    def test_matches_rk4_oracle(self, s0_mult, t):
        p = table_bank_params()
        s0 = s0_mult * p.s_infinity
        closed = fl.riccati_variance(p, s0, t)
        assert closed == pytest.approx(rk4_riccati(p, s0, t, n=50000), abs=1e-10)

    def test_solves_the_ode_by_central_differences(self):
        p = table_bank_params()
        s0 = 2.0 * p.s_infinity
        h = 1e-5
        for t in (0.2, 0.7, 1.9):
            dS = (fl.riccati_variance(p, s0, t + h)
                  - fl.riccati_variance(p, s0, t - h)) / (2 * h)
            s = fl.riccati_variance(p, s0, t)
            rhs = p.sigma**2 - (s / p.noise_m + p.sigma * p.rho) ** 2
            assert dS == pytest.approx(rhs, abs=1e-6)

    def test_a_path_stays_on_its_side_of_the_limit(self):
        # once A*e is large the closed form can round one ulp past s_inf:
        # those values are s_inf itself, and every other is the formula's
        t = np.array([5.0, 50.0])
        crossed = 0
        for rho in np.linspace(-0.9, 0.9, 37).tolist():
            for m in (0.01, 0.0285, 0.05):
                p = table_bank_params(rho=rho, noise_m=m)
                ms, s_inf = m * p.sigma, p.s_infinity
                fracs = np.concatenate([np.linspace(0.025, 0.975, 20), np.linspace(1.25, 6.0, 20)])
                for s0 in (fracs * s_inf).tolist():
                    side = 1.0 if s0 < s_inf else -1.0
                    A_e = abs((ms * (1.0 + rho) + s0) / (s_inf - s0)) * np.exp(2.0 * p.sigma * t / m)
                    formula = ms * (A_e - side) / (A_e + side) - ms * rho
                    past = side * (formula - s_inf) > 0.0
                    np.testing.assert_array_equal(fl.riccati_variance(p, s0, t),
                                                  np.where(past, s_inf, formula))
                    crossed += np.count_nonzero(past)
        assert crossed > 0

    def test_noiseless_model_stays_at_zero(self):
        p = table_bank_params(noise_m=0.0, S_bar=None)
        assert fl.riccati_variance(p, 0.0, 3.0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(ratio=st.floats(0.05, 0.95) | st.floats(1.05, 8.0),
           t=st.floats(0.01, 5.0))
    def test_monotone_approach_to_the_limit(self, ratio, t):
        p = table_bank_params()
        s_inf = p.s_infinity
        s0 = ratio * s_inf
        before = fl.riccati_variance(p, s0, t)
        after = fl.riccati_variance(p, s0, t + 0.1)
        if s0 > s_inf:
            assert s_inf < after < before
        else:
            assert before < after < s_inf


class TestContinuousKalman:
    def test_zero_innovation_advances_by_drift(self):
        p = table_bank_params()
        dt = 0.01
        m_hat, _ = fl.kalman_step_continuous(0.3, p.s_infinity, dZ=0.3 * dt, dt=dt, p=p)
        drift = (p.alpha - 0.5 * p.sigma**2) * dt
        assert m_hat == pytest.approx(0.3 + drift, abs=1e-15)

    def test_uncorrelated_gain_reduces_to_s_over_m(self):
        p = table_bank_params(rho=0.0, S_bar=None)
        dt = 0.01
        dZ = 0.5 * dt
        m_hat, _ = fl.kalman_step_continuous(0.0, 0.002, dZ, dt, p)
        gain = 0.002 / p.noise_m
        expected = (p.alpha - 0.5 * p.sigma**2) * dt + gain * (dZ / p.noise_m)
        assert m_hat == pytest.approx(expected, abs=1e-15)

    def test_rejects_noiseless_model(self):
        p = table_bank_params(noise_m=0.0, S_bar=None)
        with pytest.raises(SingularTransform):
            fl.kalman_step_continuous(0.0, 0.0, 0.0, 0.01, p)

    def test_tracks_simulated_path_at_stationary_error(self):
        # Euler-simulate signal/truth, filter, compare error variance to the
        # stationary conditional variance m sigma (1 - rho)
        p = table_bank_params(noise_m=0.03, sigma=0.05, rho=-0.30, alpha=0.04,
                              S_bar=None)
        rng = np.random.default_rng(3)
        dt = 1.0 / 200.0
        n_steps, n_paths = 1000, 200
        s_inf = p.s_infinity
        M = np.zeros(n_paths)
        # the filter advances all paths at once; started at s_inf the
        # variance stays there
        m_hat = np.zeros(n_paths)
        rho_c = math.sqrt(1 - p.rho**2)
        drift = (p.alpha - 0.5 * p.sigma**2) * dt
        for _ in range(n_steps):
            zw = rng.standard_normal(n_paths)
            zb = p.rho * zw + rho_c * rng.standard_normal(n_paths)
            dZ = M * dt + p.noise_m * math.sqrt(dt) * zb
            m_hat, _ = fl.kalman_step_continuous(m_hat, s_inf, dZ, dt, p)
            M = M + drift + p.sigma * math.sqrt(dt) * zw
        err_var = np.var(M - m_hat)
        assert err_var == pytest.approx(s_inf, rel=0.25)


class TestDiscreteKalman:
    def test_zero_prior_variance_ignores_observation(self):
        st0 = fl.filter_series([0.7], THETA_TEST, a0=0.7, P0=0.0)[0]
        assert st0.a_post == st0.a
        assert st0.P_post == 0.0

    def test_large_noise_ignores_observation(self):
        theta = (0.04, 0.05, 1e6, -0.30)
        st0 = fl.filter_series([5.0], theta, a0=0.0, P0=0.5)[0]
        assert st0.a_post == pytest.approx(st0.a, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_posterior_matches_joint_gaussian_oracle(self, seed):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=7, seed=seed, m0=0.2)
        a0, P0 = float(obs[0]), 0.02
        states = fl.filter_series(obs, THETA_TEST, a0=a0, P0=P0)
        mu_o, var_o, _ = joint_gaussian_oracle(THETA_TEST, a0, P0, obs)
        assert states[-1].a_post == pytest.approx(mu_o, abs=1e-10)
        assert states[-1].P_post == pytest.approx(var_o, abs=1e-12)

    def test_singular_transform_rejected(self):
        theta = (0.04, 0.05, 0.03, -0.6)  # 1 + sigma rho / m = 0
        assert 1.0 + theta[1] * theta[3] / theta[2] == 0.0
        with pytest.raises(SingularTransform):
            fl.filter_series([0.0], theta, 0.0, 0.1)

    def test_stability_ratio_below_one_on_table_calibration(self):
        # numerical check of the asserted filter-stability condition
        alpha, sigma, m, rho = 0.0321, 0.026, 0.0143, -0.2671
        theta = (alpha, sigma, m, rho)
        _, obs = fl.simulate_signal_series(theta, n=200, seed=0)
        states = fl.filter_series(obs, theta)
        tfac = 1.0 + sigma * rho / m
        ratios = [m**2 / ((m**2 + s.P) * tfac) for s in states[-50:]]
        assert all(abs(r) < 1.0 for r in ratios)


class TestLogLikelihood:
    def test_single_pair_exact_mean_formula(self):
        theta = (0.0, 0.05, 0.03, 0.0)
        m = theta[2]
        # two observations, P0 = 0, both innovations zero by construction
        c = theta[0] - 0.5 * theta[1] ** 2
        series = np.array([0.4, 0.4 + c])
        ll = fl.log_likelihood(series, theta, a0=0.4, P0=0.0)
        F1 = theta[1] ** 2 + m**2
        expected = -math.log(2 * math.pi) - 0.5 * math.log(m**2) - 0.5 * math.log(F1)
        assert ll == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n,seed", [(4, 0), (7, 5), (7, 9)])
    def test_equals_joint_gaussian_log_density(self, n, seed):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=n, seed=seed, m0=-0.1)
        a0, P0 = float(obs[0]) + 0.05, 0.01
        _, _, ll_o = joint_gaussian_oracle(THETA_TEST, a0, P0, obs)
        assert fl.log_likelihood(obs, THETA_TEST, a0=a0, P0=P0) == \
            pytest.approx(ll_o, abs=1e-10)

    def test_shift_invariance(self):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=30, seed=2)
        ll = fl.log_likelihood(obs, THETA_TEST, a0=obs[0], P0=0.01)
        ll_shift = fl.log_likelihood(obs + 5.0, THETA_TEST, a0=obs[0] + 5.0, P0=0.01)
        assert ll == pytest.approx(ll_shift, abs=1e-9)

    def test_true_theta_beats_perturbed_in_expectation(self):
        rng_seeds = range(50)
        wins = 0
        theta_bad = (0.04, 0.075, 0.03, -0.30)
        diff = 0.0
        for seed in rng_seeds:
            _, obs = fl.simulate_signal_series(THETA_TEST, n=400, seed=seed)
            diff += fl.log_likelihood(obs, THETA_TEST) \
                - fl.log_likelihood(obs, theta_bad)
        assert diff / len(rng_seeds) > 0.0


class TestThetaCheckedOnEntry:
    @pytest.mark.parametrize("theta, field", [
        ((0.04, 0.05, 0.03, 1.5), "rho"), ((0.04, 0.05, 0.03, -1.5), "rho"),
        ((0.04, -0.05, 0.03, -0.30), "sigma"), ((0.04, math.nan, 0.03, -0.30), "sigma")])
    def test_out_of_range_parameter_named(self, theta, field):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=10, seed=1)
        for fn in (fl.filter_series, fl.log_likelihood):
            with pytest.raises(ValidationError, match=rf"^{field}="):
                fn(obs, theta)

    @pytest.mark.parametrize("field", fl.THETA_FIELDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_named(self, field, bad):
        theta = dict(zip(fl.THETA_FIELDS, (0.04, 0.05, 0.03, -0.30)), **{field: bad})
        theta = tuple(theta.values())
        for fn in (fl.filter_series, fl.log_likelihood):
            with pytest.raises(ValidationError, match=rf"^{field}={bad!r} must be a finite"):
                fn([0.1, 0.2, 0.15], theta)

    @pytest.mark.parametrize("theta", [
        (0.04, 0.05, 0.0, -0.30), (0.04, 0.05, -0.03, -0.30), (0.04, 0.05, 0.03, -0.6)])
    def test_singular_transform_rejected(self, theta):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=10, seed=1)
        for fn in (fl.filter_series, fl.log_likelihood):
            with pytest.raises(SingularTransform):
                fn(obs, theta)

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.0, 0.5), m=st.floats(1e-3, 0.5), rho=st.floats(-1.0, 1.0))
    def test_variances_nonnegative_for_every_usable_theta(self, sigma, m, rho):
        # why the recursion needs no per-step check once theta passed
        assume(1.0 + sigma * rho / m != 0.0)
        _, obs = fl.simulate_signal_series(THETA_TEST, n=40, seed=0)
        states = fl.filter_series(obs, (0.04, sigma, m, rho))
        assert np.all(states.P >= 0.0) and np.all(states.P_post >= 0.0)
        assert np.all(states.F > 0.0)


class TestPinnedOutputs:
    """Every filter column and the log-likelihood, pinned bit for bit: any
    change to the order of operations of the recursion shows here."""

    COLUMNS = ("a", "P", "v", "F", "a_post", "P_post")

    def test_long_series(self):
        # the paths benchmark workload's series: 20,000 observations
        _, obs = fl.simulate_signal_series(THETA_TEST, n=19_999, seed=7)
        states = fl.filter_series(obs, THETA_TEST)
        assert states.dtype.names == self.COLUMNS and len(states) == obs.size
        assert {f: digest(states[f]) for f in self.COLUMNS} == {
            "a": "6ff89050cf75ddcb", "P": "a652da70fa2fd39c", "v": "f54d5de5d903cdc3",
            "F": "b4ce8a544b397314", "a_post": "3d57db09b00dac4c", "P_post": "686f9b4ee17ab707"}
        assert fl.log_likelihood(obs, THETA_TEST).hex() == "0x1.c0f899124c255p+14"
        # the same sum from the states the caller already has
        assert fl.log_likelihood(obs, THETA_TEST, states=states).hex() == "0x1.c0f899124c255p+14"
        with pytest.raises(ValidationError, match="states has 19999 rows"):
            fl.log_likelihood(obs, THETA_TEST, states=states[1:])

    def test_short_series_with_explicit_prior(self):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=7, seed=5, m0=-0.1)
        a0, P0 = float(obs[0]) + 0.05, 0.01
        states = fl.filter_series(obs, THETA_TEST, a0=a0, P0=P0)
        assert {f: digest(states[f]) for f in self.COLUMNS} == {
            "a": "dd3c3ddbd6c8e789", "P": "f520f1c15754ae39", "v": "48add26025f9696d",
            "F": "bec8b259cd5177ed", "a_post": "6e3885664da21c08", "P_post": "b45a577fd9f30b5b"}
        assert fl.log_likelihood(obs, THETA_TEST, a0=a0, P0=P0).hex() == "0x1.43d5475b08950p+3"

    def test_one_observation_with_zero_prior_variance(self):
        (row,) = fl.filter_series([0.7], THETA_TEST, P0=0.0)
        assert {f: float(row[f]).hex() for f in self.COLUMNS} == {
            "a": "0x1.6666666666666p-1", "P": "0x0.0p+0", "v": "0x0.0p+0",
            "F": "0x1.d7dbf487fcb92p-11", "a_post": "0x1.6666666666666p-1", "P_post": "0x0.0p+0"}


class TestSimulateSeries:
    def test_deterministic_line_when_noiseless(self):
        M, obs = fl.simulate_signal_series((0.04, 0.0, 0.0, 0.0), n=10, seed=1)
        assert np.allclose(np.diff(M), 0.04)
        assert np.allclose(obs, M)

    def test_reproducible_bit_identical(self):
        a = fl.simulate_signal_series(THETA_TEST, n=50, seed=12)
        b = fl.simulate_signal_series(THETA_TEST, n=50, seed=12)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sample_correlation_matches_rho(self):
        alpha, sigma, m, rho = THETA_TEST
        M, obs = fl.simulate_signal_series(THETA_TEST, n=100000, seed=7)
        eps = np.diff(M) - (alpha - 0.5 * sigma**2)
        e = (obs - M)[1:]
        corr = np.corrcoef(eps, e)[0, 1]
        assert corr == pytest.approx(rho, abs=0.01)

    def test_csv_round_trip(self, tmp_path):
        _, obs = fl.simulate_signal_series(THETA_TEST, n=20, seed=4)
        path = tmp_path / "series.csv"
        path.write_text("k,value\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(obs.tolist())))
        back = fl.series_from_csv(path)
        assert np.array_equal(back, obs)

    def test_csv_with_one_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("k,value\n0,1.5\n")
        assert np.array_equal(fl.series_from_csv(path), [1.5])

    @pytest.mark.parametrize("rows, bad", [
        ("1,0.1\n0,0.2\n1,0.3\n", "data row 3 has k=1;"),
        ("0,0.1\n2,0.2\n", "data row 2 has k=2;"),
        ("0,0.1\n,0.2\n1,0.3\n", "data row 2 has k=nan;"),
        ("0.5,0.1\n1.5,0.2\n", "data row 1 has k=0.5;")],
        ids=["repeated", "skipped", "empty", "fractional"])
    def test_csv_k_not_consecutive_integers_names_the_row(self, tmp_path, rows, bad):
        path = tmp_path / "series.csv"
        path.write_text("k,value\n" + rows)
        with pytest.raises(ValidationError, match=re.escape(bad)):
            fl.series_from_csv(path)

    def test_csv_rows_in_any_order_start_at_any_k(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("k,value\n5,0.1\n3,0.2\n4,0.3\n")
        assert np.array_equal(fl.series_from_csv(path), [0.2, 0.3, 0.1])

    def test_csv_with_a_header_only_reads_empty(self, tmp_path):
        # as_series then refuses it by length, with an error.json in the CLI
        path = tmp_path / "series.csv"
        path.write_text("k,value\n")
        assert fl.series_from_csv(path).size == 0

    def test_requires_positive_length(self):
        with pytest.raises(ValidationError):
            fl.simulate_signal_series(THETA_TEST, n=0, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_observation_named_by_index(bad):
    _, obs = fl.simulate_signal_series(THETA_TEST, n=10, seed=2)
    obs[4] = bad
    for fn in (fl.filter_series, fl.log_likelihood):
        with pytest.raises(ValidationError, match=r"series\[4\]"):
            fn(obs, THETA_TEST)
