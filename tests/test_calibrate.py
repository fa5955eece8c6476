"""Particle-filter tests."""

import numpy as np
import pytest

from sc_control import calibrate as cb
from sc_control import filtering as fl
from sc_control.errors import DegenerateCloud, ValidationError

TRUTH = (0.04, 0.05, 0.03, -0.30)


def small_cfg(seed=0, n=400):
    return cb.PfConfig(n_particles=n, seed=seed)


@pytest.mark.parametrize("n_particles", [200.5, 150.0, "200", 99, -100])
def test_particle_count_must_be_an_integer_of_at_least_100(n_particles):
    with pytest.raises(ValidationError, match="n_particles"):
        cb.PfConfig(n_particles=n_particles)


class TestPfStep:
    @pytest.mark.parametrize("rho", [0.0, TRUTH[3]])
    def test_identical_particles_keep_uniform_weights(self, rho):
        cfg = small_cfg()
        n = cfg.n_particles
        theta = np.tile(np.array(TRUTH[:3] + (rho,)), (n, 1))
        cloud = cb.ParticleCloud(state=np.zeros(n), theta=theta,
                                 weights=np.full(n, 1.0 / n),
                                 rng=np.random.default_rng(0))
        out = cb.pf_step(cloud, 0.01)
        assert out.n_resamples == 0
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.effective_size > 0.3 * n
        # at rho = 0 the importance ratio is the predictive density, the same
        # for every particle; otherwise the measurement density leaves rho
        # out and the proposal does not, so it varies with the sampled state
        spread = np.ptp(np.log(out.weights))
        assert spread <= 1e-12 if rho == 0.0 else spread > 0.05

    def test_infinite_observation_degenerates_the_cloud(self):
        cfg = small_cfg(n=100)
        cloud = cb.init_cloud(0.0, cfg)
        with np.errstate(invalid="ignore"), pytest.raises(DegenerateCloud):
            cb.pf_step(cloud, np.inf)

    def test_resampling_resets_weights_to_uniform(self, monkeypatch):
        monkeypatch.setattr(cb, "RESAMPLE_THRESHOLD", 1.0)
        cloud = cb.init_cloud(0.0, cb.PfConfig(n_particles=200, seed=1))
        out = cb.pf_step(cloud, 0.02)
        assert out.n_resamples == 1
        assert np.allclose(out.weights, 1.0 / 200)
        assert out.effective_size == pytest.approx(200.0)

    def test_systematic_resample_preserves_weighted_mean(self):
        rng = np.random.default_rng(5)
        drift = []
        for _ in range(500):
            w = rng.random(64)
            w /= w.sum()
            x = rng.standard_normal(64)
            idx = cb._systematic_resample(w, rng)
            drift.append(np.mean(x[idx]) - np.sum(w * x))
        assert abs(np.mean(drift)) < 0.01 * np.std(
            np.abs(drift)) + 0.01  # relative drift below 1%

    def test_jitter_with_a_near_one_and_zero_covariance_is_identity(self, monkeypatch):
        monkeypatch.setattr(cb, "SHRINKAGE_A", 0.999999)
        monkeypatch.setattr(cb, "RESAMPLE_THRESHOLD", 1e-9)
        n = 200
        theta = np.tile(np.array(TRUTH), (n, 1))  # zero spread -> zero cov
        cloud = cb.ParticleCloud(state=np.zeros(n), theta=theta,
                                 weights=np.full(n, 1.0 / n),
                                 rng=np.random.default_rng(3))
        out = cb.pf_step(cloud, 0.01)
        assert np.allclose(out.theta, theta, atol=1e-6)

    def test_projection_keeps_particles_admissible(self):
        theta = np.array([[0.0, 0.05, 0.03, -0.62],   # near singular curve
                          [0.5, 0.3, 0.2, 1.2],       # outside boxes
                          [0.0, -0.1, -0.1, 0.0]])
        cb._project_theta(theta)
        assert np.all(theta[:, 1] > 0) and np.all(theta[:, 2] > 0)
        assert np.all(np.abs(theta[:, 3]) < 1.0)
        tfac = 1.0 + theta[:, 1] * theta[:, 3] / theta[:, 2]
        assert np.all(np.abs(tfac) >= cb._TRANSFORM_BAND - 1e-12)


class TestEstimateTheta:
    def test_non_finite_observation_rejected_before_filtering(self):
        _, obs = fl.simulate_signal_series(TRUTH, n=30, seed=8)
        obs[7] = np.nan
        with pytest.raises(ValidationError, match=r"series\[7\]"):
            cb.estimate_theta(obs, small_cfg(n=100))

    def test_reproducible_bit_for_bit(self):
        _, obs = fl.simulate_signal_series(TRUTH, n=120, seed=8)
        a = cb.estimate_theta(obs, small_cfg(seed=3))
        b = cb.estimate_theta(obs, small_cfg(seed=3))
        assert a["theta_hat"] == b["theta_hat"]
        assert a["loglik"] == b["loglik"]

    def test_annualization_rule(self):
        _, obs = fl.simulate_signal_series(TRUTH, n=120, seed=8)
        out = cb.estimate_theta(obs, small_cfg(seed=3))
        th, ann = out["theta_hat"], out["theta_annual"]
        assert ann["alpha"] == pytest.approx(4.0 * th["alpha"])
        assert ann["sigma"] == pytest.approx(2.0 * th["sigma"])
        assert ann["m"] == pytest.approx(2.0 * th["m"])
        assert ann["rho"] == th["rho"]

    def test_shuffled_series_fits_worse(self):
        _, obs = fl.simulate_signal_series(TRUTH, n=300, seed=10)
        out = cb.estimate_theta(obs, small_cfg(seed=5, n=600))
        th = out["theta_hat"]
        theta_hat = (th["alpha"], th["sigma"], th["m"], th["rho"])
        rng = np.random.default_rng(0)
        shuffled = obs.copy()
        rng.shuffle(shuffled[1:])
        ll_shuffled = fl.log_likelihood(shuffled, theta_hat)
        assert out["loglik"] > ll_shuffled

    def test_noiseless_truth_recovered_as_small_m(self):
        theta0 = (0.04, 0.05, 0.0, 0.0)
        _, obs = fl.simulate_signal_series(theta0, n=400, seed=21)
        cfg = cb.PfConfig(n_particles=1500, seed=7)
        out = cb.estimate_theta(obs, cfg)
        # the data identify only m^2 + m sigma rho; with zero-noise truth the
        # composite is zero, and the posterior mean of m settles below 0.01
        # (re-derived by simulation; the ridge keeps it off exact zero)
        assert out["theta_hat"]["m"] <= 0.01
        composite = out["theta_hat"]["m"] ** 2 + out["theta_hat"]["m"]             * out["theta_hat"]["sigma"] * out["theta_hat"]["rho"]
        assert abs(composite) <= 2e-4

    def test_posterior_rmse_shrinks_on_average(self):
        # convergence diagnostic: mean RMSE of (alpha, sigma, m) over the
        # first quarter of the series exceeds that over the last quarter
        errs_early, errs_late = [], []
        for seed in range(6):
            _, obs = fl.simulate_signal_series(TRUTH, n=400, seed=100 + seed)
            out = cb.estimate_theta(obs, cb.PfConfig(n_particles=800, seed=seed))
            hist = out["history"]
            truth = np.array(TRUTH[:3])
            rmse = np.sqrt(np.mean((hist[:, :3] - truth) ** 2, axis=1))
            errs_early.append(rmse[:100].mean())
            errs_late.append(rmse[-100:].mean())
        assert np.mean(errs_late) < np.mean(errs_early)
