"""Filtering of the noisy log-asset signal.

Continuous time: the conditional variance S_t of log assets given the
cumulative signal is deterministic and solves the Riccati equation

    dS/dt = sigma^2 - (S/m + sigma*rho)^2,

with the closed three-case solution used throughout (``riccati_variance``).
The conditional mean follows a Kalman filter driven by the innovation
(dZ - m_hat dt)/m.

Discrete time (quarterly estimation model): M_k = M_{k-1} + (alpha -
sigma^2/2) + sigma*eps_k observed as M_k^ac = M_k + m*e_k with
corr(eps, e) = rho.  Because the errors are correlated, the filter predicts
through the transformed transition that conditions on the incoming
observation (divisions by 1 + sigma*rho/m); the resulting recursion is the
exact Gaussian conditional, which the test suite checks against a
brute-force joint-covariance oracle.  The log-likelihood accumulates the
innovation densities plus the innovation-scaling correction
-n*log(1 + sigma*rho/m) so that it equals the joint log density of the
observations (for rho = 0 the correction vanishes).

The time unit of the discrete model is one quarter; conversion to annual
estimates happens in :mod:`sc_control.calibrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularTransform, ValidationError
from .params import BankParams


@dataclass(frozen=True)
class FilterState:
    """Continuous-time filter state: conditional mean and variance at t.

    ``m_hat`` may be an array of paths that share the variance; ``innovation``
    is the normalised innovation (dZ - m_hat dt)/m of the step that led here.
    """

    m_hat: float | np.ndarray
    s_var: float
    t: float = 0.0
    innovation: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.s_var < 0.0:
            raise ValidationError(f"s_var={self.s_var} must be >= 0")


@dataclass(frozen=True)
class DiscreteFilterState:
    """One step of the discrete Kalman recursion.

    a, P are the predicted mean/variance, v, F the innovation and its
    variance, a_post, P_post the filtered (posterior) mean/variance, k the
    observation index.
    """

    a: float
    P: float
    v: float
    F: float
    a_post: float
    P_post: float
    k: int = 0

    def __post_init__(self):
        if self.P < 0.0 or self.P_post < 0.0:
            raise ValidationError("variances must be >= 0")
        if self.F <= 0.0:
            raise ValidationError("innovation variance must be > 0")


def riccati_variance(p: BankParams, s0: float, t) -> float | np.ndarray:
    """Closed-form conditional variance S_t from initial variance s0.

    Handles the degenerate noiseless case m = 0 (S stays at 0) and the
    stationary case s0 = m*sigma*(1-rho) exactly.
    """
    if s0 < 0.0:
        raise ValidationError(f"s0={s0} must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValidationError("t must be >= 0")
    m, sigma, rho = p.noise_m, p.sigma, p.rho
    if m == 0.0:
        return np.zeros_like(t) if t.ndim else 0.0
    ms = m * sigma
    s_inf = ms * (1.0 - rho)
    if s0 == s_inf:
        out = np.full_like(t, s_inf)
        return out if t.ndim else float(out)
    A = abs((ms * (1.0 + rho) + s0) / (s_inf - s0))
    # guard exp overflow: for large t the solution is at the limit anyway
    e = np.exp(np.minimum(2.0 * sigma * t / m, 700.0))
    with np.errstate(over="ignore"):
        if s0 < s_inf:
            out = ms * (A * e - 1.0) / (A * e + 1.0) - ms * rho
        else:
            out = ms * (A * e + 1.0) / (A * e - 1.0) - ms * rho
    out = np.where(np.isfinite(out), out, s_inf)
    return out if t.ndim else float(out)


def filter_gain(s_var, p: BankParams):
    """Posterior volatility S/m + sigma*rho: the filter's gain on the innovation."""
    return s_var / p.noise_m + p.sigma * p.rho


def kalman_step_continuous(state: FilterState, dZ, dt: float, p: BankParams) -> FilterState:
    """Advance the continuous filter by one signal increment dZ over dt.

    The mean uses the gain (S_t/m + sigma*rho) at the start of the step
    (Euler); the variance advances by the exact closed form.  ``dZ`` and
    ``state.m_hat`` may be arrays of paths.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    if p.noise_m == 0.0:
        raise SingularTransform("m = 0: use the exact-observation path instead")
    innovation = (dZ - state.m_hat * dt) / p.noise_m
    m_hat = state.m_hat + (p.alpha - 0.5 * p.sigma**2) * dt \
        + filter_gain(state.s_var, p) * innovation
    s_var = riccati_variance(p, state.s_var, dt)
    return FilterState(m_hat=m_hat, s_var=s_var, t=state.t + dt, innovation=innovation)


def _check_transform(theta) -> float:
    alpha, sigma, m, rho = theta
    if m <= 0.0:
        raise SingularTransform("discrete filter requires m > 0")
    tfac = 1.0 + sigma * rho / m
    if tfac == 0.0:
        raise SingularTransform(
            "1 + sigma*rho/m = 0: swapped error decomposition not implemented"
        )
    return tfac


def kalman_init_discrete(obs0: float, theta, a0: float, P0: float) -> DiscreteFilterState:
    """State at k = 0 from the prior (a0, P0) and the first observation."""
    alpha, sigma, m, rho = theta
    _check_transform(theta)
    if P0 < 0.0:
        raise ValidationError("P0 must be >= 0")
    F = P0 + m * m
    v = obs0 - a0
    gain = P0 / F
    return DiscreteFilterState(
        a=a0, P=P0, v=v, F=F, a_post=a0 + gain * v, P_post=P0 - gain * P0, k=0
    )


def kalman_step_discrete(st: DiscreteFilterState, obs: float, theta) -> DiscreteFilterState:
    """Advance the discrete filter with the next observation M^ac_{k+1}.

    Prediction runs through the transformed transition, which conditions on
    the incoming observation; the update with gain P/(P + m^2) is then the
    exact Gaussian conditional.
    """
    alpha, sigma, m, rho = theta
    tfac = _check_transform(theta)
    c = alpha - 0.5 * sigma**2
    a = (st.a_post + c + sigma * rho * obs / m) / tfac
    P = (st.P_post + sigma**2 * (1.0 - rho**2)) / tfac**2
    F = P + m * m
    v = obs - a
    gain = P / F
    return DiscreteFilterState(
        a=a, P=P, v=v, F=F, a_post=a + gain * v, P_post=P - gain * P, k=st.k + 1
    )


def as_series(series, min_size: int = 1) -> np.ndarray:
    """The observations as a 1-D float array; rejects short or non-finite input.

    The error names the first non-finite entry (an empty CSV cell reads as
    NaN), which would otherwise turn the likelihood into NaN.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < min_size:
        raise ValidationError(f"series must be a 1-D array with >= {min_size} entries")
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        raise ValidationError(f"series[{bad[0]}] = {series[bad[0]]} is not finite")
    return series


def filter_series(series, theta, a0: float | None = None, P0: float | None = None):
    """Run the discrete filter over a series; returns the list of states.

    Defaults: a0 = first observation, P0 = m*sigma*(1-rho) (the long-run
    continuous-time variance) unless overridden.
    """
    series = as_series(series)
    alpha, sigma, m, rho = theta
    if a0 is None:
        a0 = float(series[0])
    if P0 is None:
        P0 = m * sigma * (1.0 - rho)
    states = [kalman_init_discrete(float(series[0]), theta, a0, P0)]
    for obs in series[1:]:
        states.append(kalman_step_discrete(states[-1], float(obs), theta))
    return states


def log_likelihood(series, theta, a0: float | None = None, P0: float | None = None) -> float:
    """Joint Gaussian log density of the observed series under theta.

    Sums -(log F_k + v_k^2/F_k)/2 over the recursion plus the constant and
    the innovation-scaling term -n*log|1 + sigma*rho/m| that makes the value
    the exact log density of the observations.
    """
    series = as_series(series, min_size=2)
    alpha, sigma, m, rho = theta
    tfac = _check_transform(theta)
    states = filter_series(series, theta, a0=a0, P0=P0)
    n = series.size - 1
    ll = -0.5 * (n + 1) * math.log(2.0 * math.pi)
    for st in states:
        ll -= 0.5 * (math.log(abs(st.F)) + st.v**2 / st.F)
    ll -= n * math.log(abs(tfac))
    return ll


def simulate_signal_series(theta, n: int, seed: int, m0: float = 0.0):
    """Simulate (true log assets M_k, observed M_k^ac) for k = 0..n.

    Correlated shocks via the Cholesky factor of [[1, rho], [rho, 1]];
    bit-identical output under a fixed seed.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    alpha, sigma, m, rho = theta
    if not -1.0 <= rho <= 1.0:
        raise ValidationError("rho outside [-1, 1]")
    rng = np.random.default_rng(seed)
    c = alpha - 0.5 * sigma**2
    eps = rng.standard_normal(n + 1)
    eta = rng.standard_normal(n + 1)
    e = rho * eps + math.sqrt(max(0.0, 1.0 - rho**2)) * eta
    M = np.empty(n + 1)
    M[0] = m0
    M[1:] = m0 + np.cumsum(c + sigma * eps[1:])
    Mac = M + m * e
    Mac[0] = M[0] + m * eta[0]  # k = 0 noise independent of any increment
    return M, Mac


def series_to_csv(path, series) -> None:
    """Write a series as the two-column CSV (k, value)."""
    series = np.asarray(series, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,value\n")
        for k, val in enumerate(series):
            fh.write(f"{k},{float(val)!r}\n")


def series_from_csv(path) -> np.ndarray:
    """Read a (k, value) CSV back into an array ordered by k."""
    # a single data row reads as a 0-d record
    rows = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    order = np.argsort(rows["k"])
    return np.asarray(rows["value"])[order]
