"""Monte Carlo engines exercising the solved policies.

Bank paths: correlated asset/signal shocks, Euler-Maruyama on log assets,
continuous-time Kalman filtering of the signal, and the solved policy's
dividend/issuance/liquidation rules with the execution-delay bookkeeping
(no dividends while an issuance is pending).  Paths start at the invariant
variance s_inf, a fixed point of the Riccati flow, so S_t = s_inf and the
policy is the fully observed one under (kappa1, omega1), with the regulator
stop at X_hat <= kappa1.  With zero accounting noise the filter is bypassed
and the expected path coincides with the true one.

Retirement paths: (W, I, Z) under the cointegrated dynamics with Poisson
income jumps, feedback controls interpolated from a solved surface, stopping
at the policy's retirement boundary xi*(z).  Each step locates every path's
z cell once and reads the boundary (linear in z) and both controls from it.
Reported times are capped at 250 years.  Each run draws from one generator
seeded by ``seed``, and the policies of a race advance in lockstep on the
same draws, so a summary is reproducible bit for bit from its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

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


def check_run_settings(n_paths, dt, horizon=RETIRE_TIME_CAP, start_w_over_i=0.0) -> None:
    """Raise ValidationError naming the first unusable Monte Carlo setting."""
    if not isinstance(n_paths, numbers.Integral) or n_paths < 1:
        raise ValidationError(f"n_paths={n_paths!r} must be an integer >= 1")
    if not (finite_number(dt) and dt > 0.0):
        raise ValidationError(f"dt={dt!r} must be a finite number > 0")
    if not (finite_number(horizon) and horizon > 0.0):
        raise ValidationError(f"horizon={horizon!r} must be a finite number > 0")
    if not (finite_number(start_w_over_i) and start_w_over_i >= 0.0):
        raise ValidationError(f"start_w_over_i={start_w_over_i!r} must be a finite number >= 0")


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
    check_run_settings(n_paths, dt, horizon=horizon)
    if p.delay_Delta > 0.0 and dt > p.delay_Delta / 8.0 + 1e-15:
        raise ValidationError("dt must be <= Delta/8")
    rng = np.random.default_rng(seed)
    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    noiseless = p.noise_m == 0.0
    S = p.s_infinity  # every path starts on the invariant line and stays there

    # states per path
    if x0 is None:
        x0 = u2b  # start at the dividend barrier
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
        Dk = debt[k]
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
            top = np.maximum(u2b * Dk - E_hat[comp], 0.0)
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
        # equity dynamics (true and filtered)
        E[a] += (p.alpha * E[a] + (p.alpha - p.mu) * Dk) * dt \
            + (E[a] + Dk) * p.sigma * dW[a]
        if noiseless:
            E_hat = E.copy()
        else:
            dZ = M * dt + p.noise_m * dB  # signal increment from the true level
            M_hat, innovation = kalman_step_continuous(M_hat, S, dZ, dt, p)
            E_hat[a] += (p.alpha * E_hat[a] + (p.alpha - p.mu) * Dk) * dt \
                + (E_hat[a] + Dk) * filter_gain(S, p) * innovation[a]
        M = M + dM

        true_eq[a, k + 1] = E[a]
        exp_eq[a, k + 1] = E_hat[a]

    return PathBundle(times=times, true_equity=true_eq, expected_equity=exp_eq,
                      debt=debt, liquidation_time=liq_time, dividends_paid=divs,
                      issuances=n_issue, dividend_in_delay=viol, seed=seed, dt=dt)


def simulate_retirement(p: RetireParams, policy: RetireSolution,
                        benchmark: RetireSolution, start_w_over_i: float,
                        n_paths: int, dt: float, seed: int) -> tuple:
    """(RetireStats for policy, RetireStats for benchmark).

    Both policies race in the same cointegrated world (the dynamics of
    ``p``); the benchmark is typically the mean_reversion = 0 solve, whose
    controls ignore z.  The two sides advance in lockstep on one stream of
    draws, so path j of either side sees the same shocks, jumps and (under
    ``power_nu``) recovery factors: common random numbers, with or without
    ``power_nu``.  Each side equals its lone :func:`simulate_policy` run.
    Both solutions must share their xi and z grids; a pair that does not
    raises ValidationError naming the axis.
    """
    ours, bench = _race(p, (policy, benchmark), start_w_over_i, n_paths, dt, seed)
    return ours, replace(bench, policy="benchmark")


def simulate_policy(p: RetireParams, sol: RetireSolution, start_w_over_i: float,
                    n_paths: int, dt: float, seed: int) -> RetireStats:
    """Retirement timing of one solved policy in the world ``p``.

    Every step draws the two Brownian shocks and the jump indicators for all
    ``n_paths`` paths (retired ones included), then, under ``power_nu`` and
    only at a step where some indicator is set, a recovery uniform for every
    path.  The draws thus depend only on ``(seed, dt, n_paths, p)``, never
    on the policy.  Retired paths stop; times are capped at
    RETIRE_TIME_CAP.  This is the one-policy case of the race that
    :func:`simulate_retirement` runs.
    """
    (stats,) = _race(p, (sol,), start_w_over_i, n_paths, dt, seed)
    return stats


def _shared_axes(sols):
    """The UniformAxis pair (xi, z) of solutions that share both grids."""
    for name in ("xi", "z"):
        grids = [getattr(sol, name) for sol in sols]
        if any(not np.array_equal(g, grids[0]) for g in grids[1:]):
            raise ValidationError(f"{name} grid differs between the solutions: "
                                  + ", ".join(f"{g.size} nodes from {g[:1]} to {g[-1:]}"
                                              for g in grids))
    return UniformAxis(sols[0].xi, "xi"), UniformAxis(sols[0].z, "z")


def _race(p: RetireParams, sols, start_w_over_i: float, n_paths: int, dt: float,
          seed: int) -> list:
    """RetireStats of each solution in ``sols``, all advanced in lockstep.

    Path j of every side reads column j of each step's draws.  The working
    paths of all sides form one set, in (side, path) order, compressed at
    each step where some retire; the loop ends when none is left.  The
    cells are found arithmetically on the shared uniform xi and z grids, and
    each step's z cell serves both the retirement test and the one lookup of
    both controls.  Side s reads its boundary and its controls at z rows
    offset by s*n_z of the stacked curves and surfaces.
    """
    check_run_settings(n_paths, dt, start_w_over_i=start_w_over_i)
    xi_axis, z_axis = _shared_axes(sols)
    n_z = z_axis.grid.size
    boundary = np.concatenate([sol.xi_retire for sol in sols])
    controls = np.stack([np.concatenate([sol.y_star for sol in sols]),
                         np.concatenate([sol.c_star for sol in sols])])
    rng = np.random.default_rng(seed)
    n_steps = int(round(RETIRE_TIME_CAP / dt))
    n = len(sols) * n_paths
    # side s's results fill slots s*n_paths to (s + 1)*n_paths
    ret_time = np.full(n, RETIRE_TIME_CAP)
    shares = np.zeros(n)
    # the working paths: their slots (ascending), draw columns, row offsets
    # into the stacked boundaries and controls, states and share sums
    slot = np.arange(n)
    a = slot % n_paths
    rows = slot // n_paths * n_z
    W = np.full(n, float(start_w_over_i))
    inc = np.ones(n)
    Z = np.full(n, p.z_bar)
    share_sum = np.zeros(n)
    sq = math.sqrt(dt)
    for k in range(n_steps):
        xi_q = xi_of_wealth(W / inc, p.r)
        # one z cell, on each side's rows, serves the retirement test and
        # both controls
        i, w = z_axis.cell(Z)
        i += rows
        hit = xi_q <= lerp(boundary, i, w)
        if hit.any():
            # a path retiring at step k worked k steps; its share is their mean
            ret_time[slot[hit]] = k * dt
            if k > 0:
                shares[slot[hit]] = share_sum[hit] / k
            keep = ~hit
            slot, a, rows, W, inc, Z, share_sum, xi_q, i, w = (
                v[keep] for v in (slot, a, rows, W, inc, Z, share_sum, xi_q, i, w))
            if slot.size == 0:
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
        dB1 = sq * z1[a]
        dB2 = sq * z2[a]
        drift_i = p.mu_income - p.mean_reversion * (Z - p.z_bar)
        W = np.maximum(W + (p.r * W - c + inc) * dt
                       + y * p.sigma_stock * (dB1 + p.theta * dt), 0.0)
        inc = inc * (1.0 + drift_i * dt + (p.sigma_stock - p.sigma_z) * dB1
                     + p.sigma_income * dB2)
        Z = Z - p.mean_reversion * (Z - p.z_bar) * dt \
            - p.sigma_z * dB1 + p.sigma_income * dB2
        jump = jumps[a]
        if jump.any():
            if p.power_nu is not None:
                recov = recovery_u[a[jump]] ** (1.0 / p.power_nu)
            else:
                recov = np.full(int(np.count_nonzero(jump)), p.recovery)
            inc[jump] *= recov
            # income jumps move the cointegration gap with them, keeping
            # the identity Z = ln I - ln S; the gap then mean-reverts
            Z[jump] += np.log(np.maximum(recov, 1e-10))
        inc = np.maximum(inc, 1e-10)
    if n_steps > 0:
        # paths still working at the cap worked every step
        shares[slot] = share_sum / n_steps
    return [RetireStats(expected_time=float(np.mean(ret_time[part])),
                        expected_share=float(np.mean(shares[part])),
                        n_paths=n_paths, policy="policy",
                        retired_fraction=float(np.mean(ret_time[part] < RETIRE_TIME_CAP)))
            for part in (slice(s * n_paths, (s + 1) * n_paths) for s in range(len(sols)))]
