"""Parameter estimation from observed accounting series.

Theta = (alpha, sigma, m, rho) is estimated by sequential importance
resampling (SIR) particle filtering with Liu-West jittering.  Direct
maximization of the Kalman log-likelihood is deliberately not offered (the
surface is non-concave and ill-conditioned in (sigma, m, rho)); the particle
filter is the estimator of record.

Per observation the filter runs, for every particle i carrying a state
sample M_{k-1}^(i) and parameters Theta^(i):

 1. Kalman prediction per particle: the exact Gaussian conditional of the
    state given the particle's previous state and the incoming observation,
        mean = M_{k-1} + c + (sigma^2 + m sigma rho)/D * (M_k^ac - M_{k-1} - c)
        var  = sigma^2 m^2 (1 - rho^2) / D,   D = sigma^2 + 2 m sigma rho + m^2
    (a point-mass particle makes the filtered variance collapse to this),
 2. sample M_k^(i) from that Gaussian (the proposal),
 3. weight update with the importance ratio
        N(M_k^ac; M_k, m^2) * p(M_k | M_{k-1}) / q(M_k),
    where q is the proposal of step 2.  The measurement density in the
    numerator leaves out the correlation rho between the measurement and
    state shocks, which the proposal keeps, so the ratio collapses to the
    one-step predictive density N(M_k^ac; M_{k-1} + c, D) only at rho = 0.
    At rho != 0 it varies with the sampled state: 400 particles with
    identical state and Theta at rho = -0.3 get log-weights with s.d. 0.21
    (range 2.1), against a range of 2e-15 at rho = 0.  Weighting by the
    predictive density instead is a change of estimator, not of roundoff:
    on the five 400-observation series of the recovery acceptance test the
    mean m moves from 0.0190 to 0.0198 and the mean of
    q = m^2 + m sigma rho from 3.24e-4 to 3.91e-4,
 4. jittering of Theta toward the weighted mean with shrinkage a and added
    covariance (1-a^2)*Cov (keeps the spread constant), followed by a
    projection onto the admissible box that also keeps 1+sigma*rho/m away
    from zero,
 5. systematic resampling with the single uniform u1 ~ U[0, 1/N] whenever
    the effective sample size drops below the threshold fraction of N,
 6. the posterior summary is the weighted particle mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCloud, ValidationError
from .filtering import as_series, log_likelihood

# keep 1 + sigma*rho/m away from the singular curve after jittering
_TRANSFORM_BAND = 0.02
# uniform prior boxes of (alpha, sigma, m, rho); jittered particles are
# projected back into them (both lower bounds of sigma and m are > 0)
PRIOR_BOX = ((-0.1, 0.4), (0.005, 0.25), (0.001, 0.15), (-0.95, 0.95))
# Liu-West shrinkage a, in (0, 1)
SHRINKAGE_A = 0.98
# resample when the effective sample size falls below this fraction of N
RESAMPLE_THRESHOLD = 2.0 / 3.0


@dataclass
class PfConfig:
    """Particle-filter controls: the cloud size and the seed of its draws."""

    n_particles: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_particles, numbers.Integral) or self.n_particles < 100:
            raise ValidationError(f"n_particles={self.n_particles!r} must be an integer >= 100")


@dataclass
class ParticleCloud:
    """Weighted particles (M_k, alpha, sigma, m, rho)."""

    state: np.ndarray      # (N,) current M_k sample per particle
    theta: np.ndarray      # (N, 4) columns alpha, sigma, m, rho
    weights: np.ndarray    # (N,) nonnegative, summing to 1
    n_resamples: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if np.any(self.weights < 0.0):
            raise ValidationError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValidationError("weights must sum to 1 within 1e-12")

    @property
    def effective_size(self) -> float:
        return 1.0 / float(np.sum(self.weights**2))

    def theta_mean(self) -> np.ndarray:
        return self.weights @ self.theta


def init_cloud(obs0: float, cfg: PfConfig) -> ParticleCloud:
    """Draw the initial cloud from the prior boxes, state at obs0."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_particles
    theta = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in PRIOR_BOX])
    _project_theta(theta)
    state = obs0 + theta[:, 2] * rng.standard_normal(n)
    w = np.full(n, 1.0 / n)
    return ParticleCloud(state=state, theta=theta, weights=w, rng=rng)


def _project_theta(theta: np.ndarray) -> None:
    """Clip parameters into the prior box, in place.

    Also pushes rho off the singular curve 1 + sigma*rho/m = 0 (the curve
    crosses the box; jittered particles must not land on it).
    """
    for j, (lo, hi) in enumerate(PRIOR_BOX):
        np.clip(theta[:, j], lo, hi, out=theta[:, j])
    tfac = 1.0 + theta[:, 1] * theta[:, 3] / theta[:, 2]
    bad = np.abs(tfac) < _TRANSFORM_BAND
    if np.any(bad):
        side = np.where(tfac[bad] >= 0.0, _TRANSFORM_BAND, -_TRANSFORM_BAND)
        theta[bad, 3] = (side - 1.0) * theta[bad, 2] / theta[bad, 1]
        np.clip(theta[:, 3], *PRIOR_BOX[3], out=theta[:, 3])


def _systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    """Systematic resampling: one uniform u1 ~ U[0, 1/N]."""
    n = weights.size
    u1 = rng.uniform(0.0, 1.0 / n)
    positions = u1 + np.arange(n) / n
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0
    return np.searchsorted(cumw, positions, side="left")


def pf_step(cloud: ParticleCloud, obs: float) -> ParticleCloud:
    """One SIR step consuming observation M_k^ac; each particle carries its M_{k-1}."""
    rng = cloud.rng
    alpha, sigma, m, rho = (cloud.theta[:, j] for j in range(4))
    c = alpha - 0.5 * sigma**2

    # (1)+(2) per-particle Kalman conditional of M_k given (M_{k-1}, obs)
    D = sigma**2 + 2.0 * m * sigma * rho + m**2
    D = np.maximum(D, 1e-12)
    mean_q = cloud.state + c + (sigma**2 + m * sigma * rho) / D * (obs - cloud.state - c)
    sd_q = sigma * m * np.sqrt(np.maximum(1.0 - rho**2, 0.0) / D)
    sd_q = np.maximum(sd_q, 1e-12)
    state_new = mean_q + sd_q * rng.standard_normal(cloud.state.size)

    # (3) importance ratio p(y|M) p(M|M_prev) / q(M|M_prev, y), in logs
    log_like = -0.5 * ((obs - state_new) / m) ** 2 - np.log(m)
    log_prior = -0.5 * ((state_new - cloud.state - c) / sigma) ** 2 - np.log(sigma)
    log_prop = -0.5 * ((state_new - mean_q) / sd_q) ** 2 - np.log(sd_q)
    logw = np.log(np.maximum(cloud.weights, 1e-300)) + log_like + log_prior - log_prop
    logw -= logw.max()
    w = np.exp(logw)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateCloud("all particle weights underflowed")
    w /= total

    # (4) Liu-West jittering toward the weighted mean
    a = SHRINKAGE_A
    theta_bar = w @ cloud.theta
    dev = cloud.theta - theta_bar
    cov = (dev * w[:, None]).T @ dev
    cov = (1.0 - a**2) * 0.5 * (cov + cov.T)
    jitter = rng.multivariate_normal(np.zeros(4), cov, size=cloud.theta.shape[0],
                                     method="eigh")
    theta_new = a * cloud.theta + (1.0 - a) * theta_bar + jitter
    _project_theta(theta_new)

    # (5) systematic resampling below the effective-size threshold
    n = w.size
    n_res = cloud.n_resamples
    if 1.0 / np.sum(w**2) < RESAMPLE_THRESHOLD * n:
        idx = _systematic_resample(w, rng)
        state_new = state_new[idx]
        theta_new = theta_new[idx]
        w = np.full(n, 1.0 / n)
        n_res += 1

    return ParticleCloud(state=state_new, theta=theta_new, weights=w,
                         n_resamples=n_res, rng=rng)


def estimate_theta(series, cfg: PfConfig) -> dict:
    """Run the particle filter over a series; posterior means of Theta.

    Returns the estimate in the time unit of the series plus the annualized
    version for quarterly input (drifts x4, volatilities x2, rho unchanged),
    the log-likelihood at the estimate, and a per-step summary history.
    """
    series = as_series(series, min_size=2)
    cloud = init_cloud(float(series[0]), cfg)
    history = np.empty((series.size - 1, 4))
    for k in range(1, series.size):
        cloud = pf_step(cloud, float(series[k]))
        history[k - 1] = cloud.theta_mean()
    theta_hat = cloud.theta_mean()
    alpha, sigma, m, rho = (float(v) for v in theta_hat)
    return {
        "theta_hat": {"alpha": alpha, "sigma": sigma, "m": m, "rho": rho},
        "theta_annual": {"alpha": 4.0 * alpha, "sigma": 2.0 * sigma, "m": 2.0 * m, "rho": rho},
        "loglik": log_likelihood(series, (alpha, sigma, m, rho)),
        "history": history,
        "effective_size": cloud.effective_size,
        "n_resamples": cloud.n_resamples,
        "n_particles": cfg.n_particles,
        "seed": cfg.seed,
    }

