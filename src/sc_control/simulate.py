"""Monte Carlo engines exercising the solved policies.

Bank paths: correlated asset/signal shocks, Euler-Maruyama on log assets,
continuous-time Kalman filtering of the signal, and the solved policy's
dividend/issuance/liquidation rules with the execution-delay bookkeeping
(no dividends while an issuance is pending, regulator stop at
X_hat <= I(S_t)).  With zero accounting noise the filter is bypassed and the
expected path coincides with the true one.

Retirement paths: (W, I, Z) under the cointegrated dynamics with Poisson
income jumps, feedback controls interpolated from a solved surface, stopping
at the policy's retirement boundary.  Reported times are capped at 250
years.  Everything is reproducible bit-for-bit from (seed, dt, n_paths);
paths use a single generator so summaries are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bank_full import FullSolution
from .bank_partial import LiquidationRule, PartialSolution
from .errors import ValidationError
from .filtering import riccati_variance
from .params import BankParams, RetireParams
from .retire import RetireSolution, xi_of_wealth

RETIRE_TIME_CAP = 250.0


@dataclass
class PathBundle:
    """Simulated bank paths and bookkeeping."""

    times: np.ndarray
    true_equity: np.ndarray       # (n_paths, n_times)
    expected_equity: np.ndarray   # (n_paths, n_times)
    debt: np.ndarray              # (n_times,)
    liquidation_time: np.ndarray  # (n_paths,) nan if none
    dividends_paid: np.ndarray    # (n_paths,) cumulative, undiscounted
    issuances: np.ndarray         # (n_paths,) count of completed issuances
    dividend_in_delay: int        # admissibility violation counter (must be 0)
    seed: int
    dt: float

    def tracking_error(self) -> float:
        """Std of log(true total assets) - log(expected total assets)."""
        alive = ~np.isnan(self.true_equity)
        t_assets = self.true_equity + self.debt
        e_assets = self.expected_equity + self.debt
        diff = np.log(t_assets[alive]) - np.log(e_assets[alive])
        return float(np.std(diff))


@dataclass
class RetireStats:
    """Retirement-timing summary for one policy under one world."""

    expected_time: float
    expected_share: float
    n_paths: int
    policy: str
    retired_fraction: float


def _policy_curves(policy, p: BankParams):
    """(I(S), u1(S), u2(S)) lookups for either solution type."""
    if isinstance(policy, PartialSolution):
        ss = policy.ss
        u1 = np.where(np.isfinite(policy.barrier_u1), policy.barrier_u1, -np.inf)
        u2 = policy.barrier_u2

        def curves(S):
            return (float(np.interp(S, ss, policy.barrier_I)),
                    float(np.interp(S, ss, u1)),
                    float(np.interp(S, ss, u2)))

        return curves
    if isinstance(policy, FullSolution):
        u1 = policy.u1 if policy.has_recapitalization else -np.inf

        def curves(S):
            return policy.kappa, u1, policy.u2

        return curves
    if policy is None:
        # raw dynamics: no controls and no regulator stop (the book-equity
        # tracking figure simulates the uncontrolled reporting process)
        def curves(S):
            return -np.inf, -np.inf, np.inf

        return curves
    raise ValidationError(f"unsupported policy type {type(policy)!r}")


def simulate_bank(p: BankParams, policy, horizon: float, n_paths: int,
                  dt: float, seed: int, x0: float | None = None,
                  s0: float | None = None) -> PathBundle:
    """Simulate bank equity paths under the solved policy.

    ``policy=None`` runs the raw reporting dynamics with no controls and no
    liquidation (the configuration of the book-equity tracking figure).
    """
    if p.delay_Delta > 0.0 and dt > p.delay_Delta / 8.0 + 1e-15:
        raise ValidationError("dt must be <= Delta/8")
    rng = np.random.default_rng(seed)
    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    curves = _policy_curves(policy, p)
    noiseless = p.noise_m == 0.0

    s0 = (p.s_infinity if s0 is None else s0)
    s_path = riccati_variance(p, s0, times) if not noiseless else np.zeros_like(times)
    rule = LiquidationRule(p.kappa_min, p.conf_a)

    # states per path
    if x0 is None:
        x0 = curves(float(s_path[0]))[2]  # start at the dividend barrier
        if not np.isfinite(x0):
            x0 = p.kappa_min + 0.05
    D0 = 1.0
    debt = D0 * np.exp(p.mu * times)
    M = np.zeros(n_paths)             # true log assets (without controls)
    M_hat = np.zeros(n_paths)         # filtered
    E = np.full(n_paths, x0 * D0)     # true equity with controls
    E_hat = np.full(n_paths, x0 * D0)
    alive = np.ones(n_paths, bool)
    pend_step = np.full(n_paths, -1, dtype=np.int64)  # completion step index
    delay_steps = int(round(p.delay_Delta / dt))
    liq_time = np.full(n_paths, np.nan)
    divs = np.zeros(n_paths)
    n_issue = np.zeros(n_paths, dtype=int)
    viol = 0

    true_eq = np.full((n_paths, n_steps + 1), np.nan)
    exp_eq = np.full((n_paths, n_steps + 1), np.nan)
    true_eq[:, 0] = E
    exp_eq[:, 0] = E_hat

    sqdt = math.sqrt(dt)
    rho_c = math.sqrt(max(0.0, 1.0 - p.rho**2))
    for k in range(n_steps):
        t = times[k]
        S = float(s_path[k])
        Dk = debt[k]
        Ib, u1b, u2b = curves(S)
        a = alive

        # policy at the step's start (hysteresis: act when strictly inside)
        X_hat = E_hat / Dk
        liq = a & (X_hat <= Ib)
        if liq.any():
            liq_time[liq] = t
            alive[liq] = False
            a = alive
        free = a & (pend_step < 0)
        div = free & (X_hat > u2b)
        if div.any():
            viol += int(np.count_nonzero(div & (pend_step >= 0)))
            amount = (X_hat[div] - u2b) * Dk
            divs[div] += amount
            E_hat[div] -= amount
            E[div] -= amount
        order = free & ~div & (E_hat / Dk <= u1b)
        pend_step[order] = k + delay_steps

        # issuance completion at the step's start
        comp = a & (pend_step == k)
        if comp.any():
            _, _, u2c = curves(S)
            top = np.maximum(u2c * Dk - E_hat[comp], 0.0)
            E_hat[comp] += top
            E[comp] += top
            n_issue[comp] += 1
            pend_step[comp] = -1

        # shocks
        zw = rng.standard_normal(n_paths)
        zb = p.rho * zw + rho_c * rng.standard_normal(n_paths)
        dW = sqdt * zw
        dB = sqdt * zb
        dM = (p.alpha - 0.5 * p.sigma**2) * dt + p.sigma * dW
        if noiseless:
            innov = None
        else:
            dZ = M * dt + p.noise_m * dB  # signal increment from the true level
            innov = (dZ - M_hat * dt) / p.noise_m
        # equity dynamics (true and filtered)
        E[a] += (p.alpha * E[a] + (p.alpha - p.mu) * Dk) * dt \
            + (E[a] + Dk) * p.sigma * dW[a]
        if noiseless:
            E_hat = E.copy()
            M_hat = M.copy()
        else:
            gain = S / p.noise_m + p.sigma * p.rho
            E_hat[a] += (p.alpha * E_hat[a] + (p.alpha - p.mu) * Dk) * dt \
                + (E_hat[a] + Dk) * gain * innov[a]
            M_hat = M_hat + (p.alpha - 0.5 * p.sigma**2) * dt + gain * innov
        M = M + dM

        true_eq[a, k + 1] = E[a]
        exp_eq[a, k + 1] = E_hat[a]

    return PathBundle(times=times, true_equity=true_eq, expected_equity=exp_eq,
                      debt=debt, liquidation_time=liq_time, dividends_paid=divs,
                      issuances=n_issue, dividend_in_delay=viol, seed=seed, dt=dt)


def _retire_policy(sol: RetireSolution):
    """Interpolators for (y*, c*, xi*(z)) from a solved surface."""
    xi, z = sol.xi, sol.z

    def lookup(surface, xi_q, z_q):
        j = np.clip(np.searchsorted(z, z_q) - 1, 0, z.size - 2)
        w = np.clip((z_q - z[j]) / (z[j + 1] - z[j]), 0.0, 1.0)
        i = np.clip(np.searchsorted(xi, xi_q) - 1, 0, xi.size - 2)
        t = np.clip((xi_q - xi[i]) / (xi[i + 1] - xi[i]), 0.0, 1.0)
        v00 = surface[j, i]
        v01 = surface[j, i + 1]
        v10 = surface[j + 1, i]
        v11 = surface[j + 1, i + 1]
        return (1 - w) * ((1 - t) * v00 + t * v01) + w * ((1 - t) * v10 + t * v11)

    def controls(xi_q, z_q):
        return lookup(sol.y_star, xi_q, z_q), lookup(sol.c_star, xi_q, z_q)

    def xi_star(z_q):
        return np.interp(z_q, z, sol.xi_retire)

    return controls, xi_star


def simulate_retirement(p: RetireParams, policy: RetireSolution,
                        benchmark: RetireSolution, start_w_over_i: float,
                        n_paths: int, dt: float, seed: int,
                        antithetic: bool = False) -> tuple:
    """(RetireStats for policy, RetireStats for benchmark).

    Both policies face the same cointegrated world (the dynamics of ``p``);
    the benchmark is typically the mean_reversion = 0 solve, whose controls
    ignore z.  Identical shocks drive both for variance reduction.
    """
    out = []
    for sol, label in ((policy, "policy"), (benchmark, "benchmark")):
        rng = np.random.default_rng(seed)
        controls, xi_star = _retire_policy(sol)
        n_steps = int(round(RETIRE_TIME_CAP / dt))
        W = np.full(n_paths, float(start_w_over_i))
        inc = np.ones(n_paths)
        Z = np.full(n_paths, p.z_bar)
        active = np.ones(n_paths, bool)
        ret_time = np.full(n_paths, RETIRE_TIME_CAP)
        share_sum = np.zeros(n_paths)
        share_n = np.zeros(n_paths)
        sq = math.sqrt(dt)
        for k in range(n_steps):
            if not active.any():
                break
            wi = W[active] / inc[active]
            xi_q = xi_of_wealth(wi, p.r)
            z_q = Z[active]
            hit = xi_q <= xi_star(z_q)
            if hit.any():
                idx = np.where(active)[0][hit]
                ret_time[idx] = k * dt
                active[idx] = False
            if not active.any():
                break
            a = active
            xi_q = xi_of_wealth(W[a] / inc[a], p.r)
            y_bar, c_bar = controls(xi_q, Z[a])
            total = W[a] + inc[a] / p.r
            y = y_bar * total
            y = np.minimum(y, W[a])  # borrowing constraint in levels
            c = c_bar * total
            z1 = rng.standard_normal(n_paths)
            z2 = rng.standard_normal(n_paths)
            jumps = rng.random(n_paths) < p.jump_intensity * dt
            if antithetic:
                # mirror the first half onto the second; an odd last path
                # keeps its own draw
                half = n_paths // 2
                z1[half:2 * half] = -z1[:half]
                z2[half:2 * half] = -z2[:half]
            share_sum[a] += np.where(W[a] > 1e-12, y / np.maximum(W[a], 1e-12), 0.0)
            share_n[a] += 1.0
            dB1 = sq * z1[a]
            dB2 = sq * z2[a]
            drift_i = p.mu_income - p.mean_reversion * (Z[a] - p.z_bar)
            W[a] = W[a] + (p.r * W[a] - c + inc[a]) * dt \
                + y * p.sigma_stock * (dB1 + p.theta * dt)
            W[a] = np.maximum(W[a], 0.0)
            inc_new = inc[a] * (1.0 + drift_i * dt
                                + (p.sigma_stock - p.sigma_z) * dB1
                                + p.sigma_income * dB2)
            z_jump = np.zeros(jumps[a].sum())
            if jumps[a].any():
                recov = np.ones(jumps[a].sum())
                if p.power_nu is not None:
                    recov = rng.random(jumps[a].sum()) ** (1.0 / p.power_nu)
                else:
                    recov[:] = p.recovery
                inc_new[jumps[a]] *= recov
                z_jump = np.log(np.maximum(recov, 1e-10))
            inc[a] = np.maximum(inc_new, 1e-10)
            Z[a] = Z[a] - p.mean_reversion * (Z[a] - p.z_bar) * dt \
                - p.sigma_z * dB1 + p.sigma_income * dB2
            if jumps[a].any():
                # income jumps move the cointegration gap with them, keeping
                # the identity Z = ln I - ln S; the gap then mean-reverts
                za = Z[a]
                za[jumps[a]] += z_jump
                Z[a] = za
        shares = np.where(share_n > 0, share_sum / np.maximum(share_n, 1.0), 0.0)
        out.append(RetireStats(
            expected_time=float(np.mean(np.minimum(ret_time, RETIRE_TIME_CAP))),
            expected_share=float(np.mean(shares)),
            n_paths=n_paths, policy=label,
            retired_fraction=float(np.mean(ret_time < RETIRE_TIME_CAP)),
        ))
    return tuple(out)
