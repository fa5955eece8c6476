"""Monte Carlo engines exercising the solved policies.

Bank paths: correlated asset/signal shocks, Euler-Maruyama on log assets,
continuous-time Kalman filtering of the signal, and the solved policy's
dividend/issuance/liquidation rules with the execution-delay bookkeeping
(no dividends while an issuance is pending).  Paths start at the invariant
variance s_inf, a fixed point of the Riccati flow, so S_t = s_inf and the
policy is the fully observed one under (kappa1, omega1), with the regulator
stop at X_hat <= kappa1.  With zero accounting noise the filter is bypassed,
the expected path coincides with the true one, and the log assets that
drive the signal are not stepped.  Only the live paths are stepped: their
ids and states sit in arrays kept in ascending path order and compacted at
each step where some path is liquidated, and the per-path results are
written back through the ids.  Every step still draws both
normals for all ``n_paths`` paths and a live path reads its own column, so
the draw stream and every output are those of a loop over all paths; the
loop stops once no path is live.  No path matrix is kept: a run returns the
states at the horizon and, for each step, the count, mean and sum of squared
deviations of the live paths' log asset gap, from which the tracking error
is merged.  Memory is O(n_paths + n_steps).

Retirement paths: (W, I, Z) under the cointegrated dynamics with Poisson
income jumps, feedback controls interpolated from a solved surface, stopping
at the policy's retirement boundary xi*(z).  Each step locates every path's
z cell once and reads the boundary (linear in z) and both controls from it.
Reported times are capped at 250 years.  Each policy races alone on a
generator seeded by ``seed``.  The draws do not depend on the policy, so
the policies of one call see the same shocks (common random numbers), and a
summary is reproducible bit for bit from its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bank_full import FullSolution
from .errors import ValidationError
from .filtering import filter_gain, kalman_step_continuous
from .interp import UniformAxis, blend, lerp
from .params import BankParams, RetireParams, finite_number
from .retire import RetireSolution, xi_of_wealth

RETIRE_TIME_CAP = 250.0


@dataclass
class PathBundle:
    """Simulated bank paths: states at the horizon, per-step gap moments and
    bookkeeping."""

    times: np.ndarray
    true_equity: np.ndarray       # (n_paths,) at the horizon, nan if liquidated
    expected_equity: np.ndarray   # (n_paths,) at the horizon, nan if liquidated
    # (3, n_times): per step, the live paths' count, mean and sum of squared
    # deviations of log(E + D) - log(E_hat + D)
    gap_moments: np.ndarray
    debt: np.ndarray              # (n_times,)
    liquidation_time: np.ndarray  # (n_paths,) nan if none
    dividends_paid: np.ndarray    # (n_paths,) cumulative, undiscounted
    issuances: np.ndarray         # (n_paths,) count of completed issuances
    dividend_in_delay: int        # admissibility violation counter (must be 0)
    seed: int
    dt: float

    def tracking_error(self, start: int = 0) -> float:
        """Std of log(true total assets) - log(expected total assets) over the
        live paths of steps ``start`` to the horizon.

        The steps' moments merge by the pairwise update of Chan, Golub and
        LeVeque (1983): the pooled sum of squares is each step's own plus its
        count times its mean's squared distance from the pooled mean.  A NaN
        gap gives NaN; a noiseless run gives 0.0.
        """
        n, mean, m2 = self.gap_moments[:, start:]
        total = n.sum()
        pooled = (n * mean).sum() / total
        return math.sqrt((m2.sum() + (n * (mean - pooled) ** 2).sum()) / total)


@dataclass
class RetireStats:
    """Retirement-timing summary for one policy under one world."""

    expected_time: float
    expected_share: float
    n_paths: int
    policy: str
    retired_fraction: float


def check_run_settings(n_paths, dt, horizon=RETIRE_TIME_CAP, start_w_over_i=0.0) -> None:
    """Raise ValidationError naming the first unusable Monte Carlo setting."""
    if not isinstance(n_paths, numbers.Integral) or isinstance(n_paths, bool) or n_paths < 1:
        raise ValidationError(f"n_paths={n_paths!r} must be an integer >= 1")
    if not (finite_number(dt) and dt > 0.0):
        raise ValidationError(f"dt={dt!r} must be a finite number > 0")
    if not (finite_number(horizon) and horizon > 0.0):
        raise ValidationError(f"horizon={horizon!r} must be a finite number > 0")
    if horizon < dt:  # a whole number of steps is not required
        raise ValidationError(f"dt={dt!r} is longer than horizon={horizon!r}: "
                              "no step would be simulated")
    if not (finite_number(start_w_over_i) and start_w_over_i >= 0.0):
        raise ValidationError(f"start_w_over_i={start_w_over_i!r} must be a finite number >= 0")


def check_bank_run(p: BankParams, horizon, n_paths, dt) -> None:
    """check_run_settings, plus the bank's step bound dt <= Delta/8."""
    check_run_settings(n_paths, dt, horizon=horizon)
    if p.delay_Delta > 0.0 and dt > p.delay_Delta / 8.0 + 1e-15:
        raise ValidationError(f"dt={dt!r} must be <= Delta/8 = {p.delay_Delta / 8.0!r} "
                              f"(delay_Delta={p.delay_Delta!r})")


def simulate_bank(p: BankParams, policy, horizon: float, n_paths: int,
                  dt: float, seed: int, x0: float | None = None) -> PathBundle:
    """Simulate bank equity paths under the solved policy.

    ``policy`` is a :class:`FullSolution` (for a partially observed bank,
    ``PartialSolution.full_line``) or None, which runs the raw reporting
    dynamics with no controls and no liquidation (the configuration of the
    book-equity tracking figure).
    """
    if isinstance(policy, FullSolution):
        Ib, u1b, u2b = (policy.kappa, policy.u1 if policy.has_recapitalization else -math.inf,
                        policy.u2)
    elif policy is None:
        Ib, u1b, u2b = -math.inf, -math.inf, math.inf
    else:
        raise ValidationError(f"policy must be a FullSolution or None, not "
                              f"{type(policy).__name__}")
    check_bank_run(p, horizon, n_paths, dt)
    rng = np.random.default_rng(seed)
    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    noiseless = p.noise_m == 0.0
    S = p.s_infinity  # every path starts on the invariant line and stays there

    if x0 is None:
        x0 = u2b  # start at the dividend barrier
        if not np.isfinite(x0):
            x0 = p.kappa_min + 0.05
    D0 = 1.0
    debt = D0 * np.exp(p.mu * times)
    delay_steps = int(round(p.delay_Delta / dt))
    # per-path results, written through the live paths' ids
    liq_time = np.full(n_paths, np.nan)
    divs = np.zeros(n_paths)
    n_issue = np.zeros(n_paths, dtype=int)
    true_equity = np.full(n_paths, np.nan)
    expected_equity = np.full(n_paths, np.nan)
    viol = 0
    gap_moments = np.zeros((3, n_steps + 1))
    # the live paths: their ids (ascending) and states
    ids = np.arange(n_paths)
    M = np.zeros(n_paths)             # true log assets (without controls), for the filter
    M_hat = np.zeros(n_paths)         # filtered
    E = np.full(n_paths, x0 * D0)     # true equity with controls
    E_hat = np.full(n_paths, x0 * D0)
    pend_step = np.full(n_paths, -1, dtype=np.int64)  # completion step index

    def record_gap(k):
        """Column k of gap_moments from the live paths' states at step k."""
        g = np.log(E + debt[k]) - np.log(E_hat + debt[k])
        mean = g.mean()
        gap_moments[:, k] = g.size, mean, np.square(g - mean).sum()

    record_gap(0)

    sqdt = math.sqrt(dt)
    rho_c = math.sqrt(max(0.0, 1.0 - p.rho**2))
    for k in range(n_steps):
        t = times[k]
        Dk = debt[k]

        # policy at the step's start (hysteresis: act when strictly inside)
        X_hat = E_hat / Dk
        liq = X_hat <= Ib
        if liq.any():
            liq_time[ids[liq]] = t
            keep = ~liq
            ids, M, M_hat, E, E_hat, pend_step, X_hat = (
                v[keep] for v in (ids, M, M_hat, E, E_hat, pend_step, X_hat))
            if ids.size == 0:
                break  # no path is left to step
        free = pend_step < 0
        div = free & (X_hat > u2b)
        if div.any():
            viol += int(np.count_nonzero(div & (pend_step >= 0)))
            amount = (X_hat[div] - u2b) * Dk
            divs[ids[div]] += amount
            E_hat[div] -= amount
            E[div] -= amount
        order = free & ~div & (E_hat / Dk <= u1b)
        pend_step[order] = k + delay_steps

        # issuance completion at the step's start
        comp = pend_step == k
        if comp.any():
            top = np.maximum(u2b * Dk - E_hat[comp], 0.0)
            E_hat[comp] += top
            E[comp] += top
            n_issue[ids[comp]] += 1
            pend_step[comp] = -1

        # shocks: every step draws both normals for all n_paths paths, so the
        # stream does not depend on the liquidations; path j reads column j
        zw = rng.standard_normal(n_paths)[ids]
        zb = rng.standard_normal(n_paths)  # read by the filter only
        dW = sqdt * zw
        # equity dynamics (true and filtered)
        E += (p.alpha * E + (p.alpha - p.mu) * Dk) * dt + (E + Dk) * p.sigma * dW
        if noiseless:
            E_hat = E.copy()  # dividends and top-ups write to both
        else:
            dB = sqdt * (p.rho * zw + rho_c * zb[ids])
            dZ = M * dt + p.noise_m * dB  # signal increment from the true level
            M_hat, innovation = kalman_step_continuous(M_hat, S, dZ, dt, p)
            E_hat += (p.alpha * E_hat + (p.alpha - p.mu) * Dk) * dt \
                + (E_hat + Dk) * filter_gain(S, p) * innovation
            M = M + ((p.alpha - 0.5 * p.sigma**2) * dt + p.sigma * dW)
        record_gap(k + 1)
    true_equity[ids] = E
    expected_equity[ids] = E_hat

    return PathBundle(times=times, true_equity=true_equity, expected_equity=expected_equity,
                      gap_moments=gap_moments, debt=debt, liquidation_time=liq_time,
                      dividends_paid=divs, issuances=n_issue, dividend_in_delay=viol,
                      seed=seed, dt=dt)


def simulate_retirement(p: RetireParams, sols: tuple[RetireSolution, ...],
                        start_w_over_i: float, n_paths: int, dt: float, seed: int) -> list:
    """RetireStats of each solved policy in ``sols``, all labelled "policy".

    Each solution races alone in the cointegrated world of ``p``, on a
    generator seeded by ``seed``: path j reads column j of each step's
    draws.  Every step draws the two Brownian shocks and the jump indicators
    for all ``n_paths`` paths (retired ones included), then, under
    ``power_nu`` and only at a step where some indicator is set, a recovery
    uniform for every path.  The draws thus depend only on
    ``(seed, dt, n_paths, p)``, never on the policy, so the sides of one
    call see the same shocks, jumps and recovery factors (common random
    numbers), and a side's stats do not depend on the others in ``sols``.
    Retired paths stop; times are capped at RETIRE_TIME_CAP.  The run
    settings and every solution's xi and z grids (which must be uniform)
    are checked before any race.
    """
    check_run_settings(n_paths, dt, start_w_over_i=start_w_over_i)
    axes = [(UniformAxis(sol.xi, "xi"), UniformAxis(sol.z, "z")) for sol in sols]
    return [_race(p, sol, xi_axis, z_axis, float(start_w_over_i), n_paths, dt, seed)
            for sol, (xi_axis, z_axis) in zip(sols, axes)]


def _race(p: RetireParams, sol: RetireSolution, xi_axis: UniformAxis, z_axis: UniformAxis,
          start_w_over_i: float, n_paths: int, dt: float, seed: int) -> RetireStats:
    """RetireStats of one policy.  The working paths are compressed at each
    step where some retire, and the loop ends when none is left."""
    controls = np.stack([sol.y_star, sol.c_star])
    rng = np.random.default_rng(seed)
    n_steps = int(round(RETIRE_TIME_CAP / dt))
    ret_time = np.full(n_paths, RETIRE_TIME_CAP)
    shares = np.zeros(n_paths)
    # the working paths: their ids (ascending, each its draw column), states
    # and share sums
    ids = np.arange(n_paths)
    W = np.full(n_paths, start_w_over_i)
    inc = np.ones(n_paths)
    Z = np.full(n_paths, p.z_bar)
    share_sum = np.zeros(n_paths)
    sq = math.sqrt(dt)
    for k in range(n_steps):
        xi_q = xi_of_wealth(W / inc, p.r)
        # one z cell serves the retirement test and both controls
        i, w = z_axis.cell(Z)
        hit = xi_q <= lerp(sol.xi_retire, i, w)
        if hit.any():
            # a path retiring at step k worked k steps; its share is their mean
            ret_time[ids[hit]] = k * dt
            if k > 0:
                shares[ids[hit]] = share_sum[hit] / k
            keep = ~hit
            ids, W, inc, Z, share_sum, xi_q, i, w = (
                v[keep] for v in (ids, W, inc, Z, share_sum, xi_q, i, w))
            if ids.size == 0:
                break
        total = W + inc / p.r
        y, c = blend(controls, (i, w), xi_axis.cell(xi_q)) * total
        y = np.minimum(y, W)  # borrowing constraint in levels
        z1 = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        jumps = rng.random(n_paths) < p.jump_intensity * dt
        if p.power_nu is not None and jumps.any():
            recovery_u = rng.random(n_paths)
        share_sum += np.where(W > 1e-12, y / np.maximum(W, 1e-12), 0.0)
        dB1 = sq * z1[ids]
        dB2 = sq * z2[ids]
        drift_i = p.mu_income - p.mean_reversion * (Z - p.z_bar)
        W = np.maximum(W + (p.r * W - c + inc) * dt
                       + y * p.sigma_stock * (dB1 + p.theta * dt), 0.0)
        inc = inc * (1.0 + drift_i * dt + (p.sigma_stock - p.sigma_z) * dB1
                     + p.sigma_income * dB2)
        Z = Z - p.mean_reversion * (Z - p.z_bar) * dt \
            - p.sigma_z * dB1 + p.sigma_income * dB2
        jump = jumps[ids]
        if jump.any():
            if p.power_nu is not None:
                recov = recovery_u[ids[jump]] ** (1.0 / p.power_nu)
            else:
                recov = np.full(int(np.count_nonzero(jump)), p.recovery)
            inc[jump] *= recov
            # income jumps move the cointegration gap with them, keeping
            # the identity Z = ln I - ln S; the gap then mean-reverts
            Z[jump] += np.log(np.maximum(recov, 1e-10))
        inc = np.maximum(inc, 1e-10)
    # paths still working at the cap worked every step
    shares[ids] = share_sum / n_steps
    return RetireStats(expected_time=float(np.mean(ret_time)),
                       expected_share=float(np.mean(shares)),
                       n_paths=n_paths, policy="policy",
                       retired_fraction=float(np.mean(ret_time < RETIRE_TIME_CAP)))
