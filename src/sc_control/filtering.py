"""Filtering of the noisy log-asset signal.

Continuous time: the conditional variance S_t of log assets given the
cumulative signal is deterministic and solves the Riccati equation

    dS/dt = sigma^2 - (S/m + sigma*rho)^2,

with the closed three-case solution used throughout (``riccati_variance``).
The conditional mean follows a Kalman filter driven by the innovation
(dZ - m_hat dt)/m; ``kalman_step_continuous`` advances only the mean, since
the variance path is ``riccati_variance`` alone.

Discrete time (quarterly estimation model): M_k = M_{k-1} + (alpha -
sigma^2/2) + sigma*eps_k observed as M_k^ac = M_k + m*e_k with
corr(eps, e) = rho.  Because the errors are correlated, the filter predicts
through the transformed transition that conditions on the incoming
observation (divisions by 1 + sigma*rho/m); the resulting recursion is the
exact Gaussian conditional, which the test suite checks against a
brute-force joint-covariance oracle.  ``filter_series`` runs that recursion
in one loop and returns its columns as a record array; theta is checked
once, on entry (rho in [-1, 1], sigma >= 0, m > 0).  ``log_likelihood``
sums the innovation densities over those columns plus the
innovation-scaling correction -n*log|1 + sigma*rho/m|, so that it equals
the joint log density of the observations (for rho = 0 the correction
vanishes).

The time unit of the discrete model is one quarter; conversion to annual
estimates happens in :mod:`sc_control.calibrate`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularTransform, ValidationError
from .params import BankParams, finite_number

# the entries of a theta tuple, in order
THETA_FIELDS = ("alpha", "sigma", "m", "rho")
_FILTER_COLUMNS = [(name, float) for name in ("a", "P", "v", "F", "a_post", "P_post")]


def riccati_variance(p: BankParams, s0: float, t) -> float | np.ndarray:
    """Closed-form conditional variance S_t from initial variance s0.

    Handles the degenerate noiseless case m = 0 (S stays at 0) and the
    stationary case s0 = m*sigma*(1-rho) exactly.  A path stays on its
    starting side of that level: where the formula rounds past it, the
    result is the level itself.
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
            out = np.minimum(ms * (A * e - 1.0) / (A * e + 1.0) - ms * rho, s_inf)
        else:
            out = np.maximum(ms * (A * e + 1.0) / (A * e - 1.0) - ms * rho, s_inf)
    out = np.where(np.isfinite(out), out, s_inf)
    return out if t.ndim else float(out)


def filter_gain(s_var, p: BankParams):
    """Posterior volatility S/m + sigma*rho: the filter's gain on the innovation."""
    return s_var / p.noise_m + p.sigma * p.rho


def kalman_step_continuous(m_hat, s_var: float, dZ, dt: float, p: BankParams):
    """Advance the conditional mean by one signal increment dZ over dt.

    Returns ``(m_hat, innovation)`` with the normalised innovation
    (dZ - m_hat dt)/m.  The mean uses the gain (S_t/m + sigma*rho) at the
    start of the step (Euler); the variance path S_t is deterministic and
    comes from :func:`riccati_variance`.  ``dZ`` and ``m_hat`` may be arrays
    of paths.
    """
    if s_var < 0.0:
        raise ValidationError(f"s_var={s_var} must be >= 0")
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    if p.noise_m == 0.0:
        raise SingularTransform("m = 0: use the exact-observation path instead")
    innovation = (dZ - m_hat * dt) / p.noise_m
    m_hat = m_hat + (p.alpha - 0.5 * p.sigma**2) * dt + filter_gain(s_var, p) * innovation
    return m_hat, innovation


def _check_theta(theta) -> float:
    """The transform factor 1 + sigma*rho/m of a usable theta.

    With rho in [-1, 1], sigma >= 0 and m > 0 every predicted and filtered
    variance is >= 0 and every innovation variance is > 0.  A NaN or
    infinite entry raises ValidationError naming it.
    """
    alpha, sigma, m, rho = theta
    for name, value in zip(THETA_FIELDS, theta):
        if not finite_number(value):
            raise ValidationError(f"{name}={value!r} must be a finite number")
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"rho={rho!r} must lie in [-1, 1]")
    if not sigma >= 0.0:
        raise ValidationError(f"sigma={sigma!r} must be >= 0")
    if m <= 0.0:
        raise SingularTransform("discrete filter requires m > 0")
    tfac = 1.0 + sigma * rho / m
    if tfac == 0.0:
        raise SingularTransform(
            "1 + sigma*rho/m = 0: swapped error decomposition not implemented"
        )
    return tfac


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
    """Run the discrete filter over a series; one record per observation.

    Returns an ``np.recarray`` with fields ``a, P`` (predicted mean and
    variance), ``v, F`` (innovation and its variance) and ``a_post, P_post``
    (filtered mean and variance).  Row 0 updates the prior (a0, P0) with the
    first observation; each later row predicts through the transformed
    transition, which conditions on the incoming observation, so the update
    with gain P/(P + m^2) is the exact Gaussian conditional.

    Defaults: a0 = first observation, P0 = m*sigma*(1-rho) (the long-run
    continuous-time variance) unless overridden.
    """
    series = as_series(series)
    tfac = _check_theta(theta)
    alpha, sigma, m, rho = theta
    if a0 is None:
        a0 = float(series[0])
    if P0 is None:
        P0 = m * sigma * (1.0 - rho)
    if P0 < 0.0:
        raise ValidationError(f"P0={P0!r} must be >= 0")
    c = alpha - 0.5 * sigma**2
    q = sigma**2 * (1.0 - rho**2)
    sr, m2, tfac2 = sigma * rho, m * m, tfac**2
    a, P = a0, P0
    rows = []
    for k, obs in enumerate(series.tolist()):
        if k:
            a = (a_post + c + sr * obs / m) / tfac
            P = (P_post + q) / tfac2
        F = P + m2
        v = obs - a
        gain = P / F
        a_post = a + gain * v
        P_post = P - gain * P
        rows.append((a, P, v, F, a_post, P_post))
    return np.rec.fromrecords(rows, dtype=_FILTER_COLUMNS)


def log_likelihood(series, theta, a0: float | None = None, P0: float | None = None,
                   states=None) -> float:
    """Joint Gaussian log density of the observed series under theta.

    Sums -(log F_k + v_k^2/F_k)/2 over the filter's columns plus the
    constant and the innovation-scaling term -n*log|1 + sigma*rho/m| that
    makes the value the exact log density of the observations.  A caller
    that already holds ``filter_series(series, theta, a0, P0)`` passes it
    as ``states``, and the recursion is not run again.
    """
    series = as_series(series, min_size=2)
    tfac = _check_theta(theta)
    if states is None:
        states = filter_series(series, theta, a0=a0, P0=P0)
    elif len(states) != series.size:
        raise ValidationError(f"states has {len(states)} rows for a series of "
                              f"{series.size} observations")
    n = series.size - 1
    ll = -0.5 * (n + 1) * math.log(2.0 * math.pi)
    for F, v in zip(states.F.tolist(), states.v.tolist()):
        ll -= 0.5 * (math.log(F) + v**2 / F)
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


def series_from_csv(path) -> np.ndarray:
    """Read a (k, value) CSV back into an array ordered by k; the sorted k
    must be consecutive integers (else ValidationError naming a row)."""
    # a single data row reads as a 0-d record
    rows = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    order = np.argsort(rows["k"], kind="stable")
    k = rows["k"][order]
    bad = np.flatnonzero((k != k[:1] + np.arange(k.size)) | (k != np.floor(k)))
    if bad.size:
        row = int(order[bad[0]])
        raise ValidationError(f"{path}: data row {row + 1} has k={rows['k'][row]:g}; the sorted "
                              f"k must be consecutive integers")
    return np.asarray(rows["value"])[order]
