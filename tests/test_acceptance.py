"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, from the criteria statements.  Known honest
failures (documented in the reviewer notes with their blocking analysis) are
asserted at the stated tolerances anyway: a red line here records a
criterion this implementation cannot attain, not a looser reading of it.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sc_control import bank_full, bank_partial as bp, calibrate as cb
from sc_control import filtering as fl, retire as rt, simulate as sim
from sc_control.params import BankParams

from conftest import baseline_retire_params, fig_bank_params, race_alone, table_bank_params
from test_filtering import joint_gaussian_oracle, rk4_riccati


def _report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}: {label} {detail}")
    return ok


def test_criterion_1_liquidation_barrier():
    p = table_bank_params()
    bp.liquidation_barrier(p.s_infinity, p)  # warm-up
    t0 = time.perf_counter()
    val = bp.liquidation_barrier(p.s_infinity, p)
    elapsed = time.perf_counter() - t0
    ok_val = _report(1, "I(m sigma (1-rho)) = 1.15% +- 0.02pp",
                     abs(val - 0.0115) <= 2e-4, f"(got {val:.6f})")
    ok_rt = _report(1, "runtime < 1 ms", elapsed < 1e-3, f"({elapsed * 1e3:.3f} ms)")
    assert ok_val and ok_rt


def test_criterion_2_fully_observed_barriers():
    t0 = time.perf_counter()
    sol = bank_full.solve_barriers(fig_bank_params())
    elapsed = time.perf_counter() - t0
    ok_u2 = _report(2, "u2 = 11.22% +- 0.15pp", abs(sol.u2 - 0.1122) <= 0.0015,
                    f"(got {sol.u2:.4%})")
    ok_u1 = _report(2, "u1 = 6.44% +- 0.15pp", abs(sol.u1 - 0.0644) <= 0.0015,
                    f"(got {sol.u1:.4%}; the exact tangency of the printed "
                    f"system sits 0.22pp below the quoted cross-bank mean)")
    ok_rt = _report(2, "runtime < 60 s", elapsed < 60.0, f"({elapsed:.1f} s)")
    assert ok_u2 and ok_rt
    assert ok_u1


def test_criterion_3_riccati():
    p = table_bank_params()
    s_inf = p.s_infinity
    ok = True
    for s0 in (0.3 * s_inf, 2.0 * s_inf, 6.0 * s_inf):
        for t in (0.5, 3.0, 10.0):
            closed = fl.riccati_variance(p, s0, t)
            ok &= abs(closed - rk4_riccati(p, s0, t, n=100000)) <= 1e-8
    ok = _report(3, "closed form vs RK4 <= 1e-8 on t in [0,10], 3 starts", ok)
    lim = fl.riccati_variance(p, 2.0 * s_inf, 200.0)
    ok_lim = _report(3, "limit equals m sigma (1-rho)",
                     abs(lim - s_inf) / s_inf <= 1e-9)
    s15 = fl.riccati_variance(p, 2.0 * s_inf, 1.5)
    ok_15 = _report(3, "|S(1.5y) - limit|/limit < 5% from twice the limit",
                    abs(s15 - s_inf) / s_inf < 0.05,
                    f"(got {abs(s15 - s_inf) / s_inf:.4%})")
    assert ok and ok_lim and ok_15


def test_criterion_4_filtering_oracle():
    theta = (0.04, 0.05, 0.03, -0.30)
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 8):
        for seed in (0, 1):
            _, obs = fl.simulate_signal_series(theta, n=n - 1, seed=seed, m0=0.1)
            a0, P0 = float(obs[0]), 0.015
            states = fl.filter_series(obs, theta, a0=a0, P0=P0)
            mu_o, var_o, ll_o = joint_gaussian_oracle(theta, a0, P0, obs)
            ok &= abs(states[-1].a_post - mu_o) <= 1e-8
            ok &= abs(states[-1].P_post - var_o) <= 1e-8
            ok &= abs(fl.log_likelihood(obs, theta, a0=a0, P0=P0) - ll_o) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = _report(4, "posterior and log-likelihood match brute-force joint "
                    "Gaussian to 1e-8 (n <= 8)", ok)
    ok_rt = _report(4, "runtime < 1 s", elapsed < 1.0, f"({elapsed:.2f} s)")
    assert ok and ok_rt


def test_criterion_5_particle_filter_recovery():
    truth = (0.04, 0.05, 0.03, -0.30)
    tol = (0.01, 0.01, 0.01, 0.15)
    t0 = time.perf_counter()
    ests = []
    for seed in range(5):
        _, obs = fl.simulate_signal_series(truth, n=400, seed=300 + seed)
        out = cb.estimate_theta(obs, cb.PfConfig(n_particles=2000, seed=seed))
        th = out["theta_hat"]
        ests.append([th["alpha"], th["sigma"], th["m"], th["rho"]])
    elapsed = time.perf_counter() - t0
    mean = np.mean(ests, axis=0)
    names = ("alpha", "sigma", "m", "rho")
    oks = []
    for name, m_est, t_true, t_tol in zip(names, mean, truth, tol):
        err = abs(m_est - t_true)
        note = ""
        if name in ("m", "rho"):
            note = ("; the data law identifies only m^2 + m sigma rho, so the "
                    "cloud cannot pin this coordinate")
        oks.append(_report(5, f"{name} within +-{t_tol} over 5 seeds",
                           err <= t_tol, f"(err {err:.4f}{note})"))
    ok_rt = _report(5, "runtime < 2 min", elapsed < 120.0, f"({elapsed:.0f} s)")
    assert oks[0] and oks[1] and ok_rt
    assert oks[2], "m recovery outside stated tolerance (ridge drift)"
    assert oks[3], "rho recovery outside stated tolerance (unidentified)"


def test_criterion_6_degenerate_line_agreement(bank_partial_solution):
    sol = bank_partial_solution
    ok = _report(6, "invariant-line PDE vs semi-explicit <= 1e-3 relative "
                    "(401 x 81)", sol.line_sup_error <= 1e-3,
                 f"(got {sol.line_sup_error:.2e})")
    assert ok


@pytest.fixture(scope="module")
def elasticity_runs(bank_partial_solution):
    """Perturbed partially-observed solves for the sign table (301 x 61)."""
    p = table_bank_params()
    runs = {}
    for name in ("sigma", "noise_m", "omega", "rho", "delay_Delta",
                 "issue_cost_K"):
        v0 = getattr(p, name)
        step = 0.05 * abs(v0)
        out = {}
        for tag, v in (("hi", v0 + step), ("lo", v0 - step)):
            q = replace(p, **{name: v, "S_bar": None})
            out[tag] = (q, bp.penalty_solve(q, bp.default_grid(q, n_x=301, n_s=61)))
        out["step"] = step
        runs[name] = out
    return runs


def test_criterion_7_comparative_statics_signs(bank_partial_solution,
                                               elasticity_runs):
    p = table_bank_params()
    sol = bank_partial_solution
    s_inf = p.s_infinity
    # value monotone in S at the liquidation-sensitive capital level 2*kappa1
    x_ref = 2.0 * sol.full_line.kappa
    vals = [sol.value(x_ref, f * s_inf) for f in (1.0, 2.0, 3.0, 4.0)]
    ok_up = _report(7, "V increasing in S at a = 0.8 (X = 2 kappa1)",
                    all(b > a for a, b in zip(vals, vals[1:])))
    p02 = table_bank_params(conf_a=0.2)
    sol02 = bp.penalty_solve(p02, bp.default_grid(p02, n_x=301, n_s=61))
    x02 = 2.0 * sol02.full_line.kappa
    vals02 = [sol02.value(x02, f * s_inf) for f in (1.0, 2.0, 3.0, 4.0)]
    ok_down = _report(7, "V decreasing in S at a = 0.2",
                      all(b < a for a, b in zip(vals02, vals02[1:])))
    # barrier monotone decreasing below the knee for a > 1/2
    from scipy.special import ndtri
    ss = np.linspace(1e-6, 0.99 * ndtri(0.8) ** 2, 200)
    dI = np.diff(np.asarray(bp.liquidation_barrier(ss, table_bank_params(conf_a=0.8))))
    ok_I = _report(7, "I(S) decreasing on S < (Phi^-1(a))^2 for a = 0.8",
                   bool(np.all(dI < 0)))
    # V-elasticity sign pattern at the same capital level
    expected = {"S": +1, "sigma": +1, "noise_m": +1, "omega": +1,
                "rho": -1, "delay_Delta": -1, "issue_cost_K": -1}
    got = {}
    v0b = sol.value(x_ref, s_inf)
    for name, run in elasticity_runs.items():
        hi_p, hi_s = run["hi"]
        lo_p, lo_s = run["lo"]
        dv = hi_s.value(x_ref, hi_p.s_infinity) - lo_s.value(x_ref, lo_p.s_infinity)
        got[name] = dv / v0b
    dS = 0.25 * s_inf
    els = [(sol.value(x_ref, f * s_inf + dS) - sol.value(x_ref, f * s_inf - dS))
           for f in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
    got["S"] = float(np.mean(els))
    sign_oks = {}
    for name, sgn in expected.items():
        sign_oks[name] = _report(
            7, f"V-elasticity sign for {name} is {'+' if sgn > 0 else '-'}",
            np.sign(got[name]) == sgn, f"(slope {got[name]:+.2e})")
    # liquidation-barrier elasticities exactly zero for omega, Delta, K
    grid = bp.default_grid(p, n_x=201, n_s=41)
    ok_zero = True
    for name in ("omega", "delay_Delta", "issue_cost_K"):
        out = bp.elasticity(p, [name], rel_step=0.05, grid=grid, baseline=sol)[name]
        ok_zero &= out["I"] == 0.0
    ok_zero = _report(7, "I-elasticities exactly zero for omega, Delta, K",
                      ok_zero)
    assert ok_up and ok_down and ok_I and ok_zero
    for name in ("S", "noise_m", "omega", "rho", "delay_Delta", "issue_cost_K"):
        assert sign_oks[name], f"sign of {name} elasticity"
    assert sign_oks["sigma"], \
        "sigma elasticity sign (leniency and volatility channels offset here)"


def test_criterion_8_barrier_elasticity_magnitude(bank_partial_solution):
    out = bp.elasticity(table_bank_params(), ["S"], baseline=bank_partial_solution)["S"]
    ok = _report(8, "elasticity of I wrt S = -3.756 +- 20%",
                 abs(out["I"] - (-3.756)) <= 0.20 * 3.756,
                 f"(got {out['I']:.3f}; sweep S/s_inf in {{1,...,4}})")
    assert ok


def test_criterion_9_retirement_properties(retire_baseline, retire_benchmark, retire_ez,
                                           horizon_solution, retire_small_grid,
                                           retire_small_baseline, retire_coarse_baseline):
    sol, bench = retire_baseline, retire_benchmark
    # (i) non-participation target with share rising above it
    j0 = int(np.argmin(np.abs(sol.z)))
    target = sol.participation_target(0.0)
    xi_np = sol.xi_participate[j0]
    sel = (sol.xi < xi_np - 0.02) & (sol.xi > sol.xi_retire[j0] + 0.02)
    w_share = sol.y_star[j0, sel] / np.maximum(1.0 - sol.xi[sel], 1e-12)
    order = np.argsort(rt.wealth_to_income(sol.xi[sel], sol.params.r))
    ok_i = _report(9, "(i) non-participation target exists; share increases "
                      "with wealth above it",
                   np.isfinite(target) and target > 1.0
                   and np.mean(np.diff(w_share[order]) >= -1e-6) > 0.9,
                   f"(target w/I = {target:.1f})")
    # (ii) MPC decreasing and below the benchmark's
    w, mpc = rt.mpc_curve(sol, w_grid=np.linspace(1, 40, 79))
    _, mpc_b = rt.mpc_curve(bench, w_grid=np.linspace(1, 40, 79))
    ok_ii = _report(9, "(ii) MPC decreasing in w/I and below the "
                       "mean_reversion = 0 benchmark",
                    bool(np.all(np.diff(mpc) < 1e-4)
                         and np.all(mpc < mpc_b + 1e-12)))
    # (iii) thresholds decreasing in gamma and in psi
    th_gamma = []
    for g in (2.0, 3.0, 4.0):
        s = retire_small_baseline if g == 3.0 else rt.penalty_solve_retire(
            baseline_retire_params(gamma=g), retire_small_grid)
        th_gamma.append(s.wealth_threshold())
    ok_gamma = _report(9, "(iii) retirement threshold decreasing in gamma",
                       th_gamma[0] > th_gamma[1] > th_gamma[2],
                       f"(got {[round(t, 1) for t in th_gamma]}; the printed "
                       f"operator yields the opposite ordering)")
    th_psi = [retire_baseline.wealth_threshold()]
    for psi in (0.5, 0.8):
        th_psi.append(retire_ez(psi).wealth_threshold())
    ok_psi = _report(9, "(iii) retirement threshold decreasing in EIS psi",
                     th_psi[0] > th_psi[1] > th_psi[2],
                     f"(got {[round(t, 1) for t in th_psi]})")
    # (iv) finite-horizon threshold decreasing with age, ~0 at the deadline
    fh = horizon_solution
    th_age = rt.wealth_to_income(fh.xi_retire_by_age[:, j0], 0.01)
    coarse = th_age[:: len(th_age) // 10]
    ok_iv = _report(9, "(iv) finite-horizon threshold decreasing in age, "
                       "zero at the deadline",
                    bool(np.all(np.diff(coarse) <= 1e-9) and th_age[-1] <= 1e-6))
    # (v) recursive utility at psi = 1/gamma equals the CRRA solve
    ez = retire_ez(1.0 / 3.0)
    gap = float(np.max(np.abs(ez.u - sol.u)))
    ok_v = _report(9, "(v) psi = 1/gamma recursive solve equals CRRA to 1e-6",
                   gap <= 1e-6, f"(sup gap {gap:.2e})")
    # grid-refinement stability of the free boundaries
    coarse_sol = retire_coarse_baseline
    jc = int(np.argmin(np.abs(coarse_sol.z)))
    cell = coarse_sol.xi[1] - coarse_sol.xi[0]
    moved = abs(coarse_sol.xi_retire[jc] - sol.xi_retire[j0])
    ok_ref = _report(9, "free boundaries move < one coarse cell under mesh "
                        "halving", moved <= cell + 1e-12,
                     f"(moved {moved:.4f} vs cell {cell:.4f})")
    assert ok_i and ok_ii and ok_psi and ok_iv and ok_v and ok_ref
    assert ok_gamma, "threshold ordering in gamma (honest failure, see notes)"


def test_criterion_10_retirement_monte_carlo(retire_grid, retire_baseline,
                                             retire_benchmark):
    t0 = time.perf_counter()
    p15 = baseline_retire_params()
    ours, dl = sim.simulate_retirement(p15, (retire_baseline, retire_benchmark),
                                       start_w_over_i=10.0, n_paths=10000,
                                       dt=0.05, seed=11)
    bench_times = {0.15: dl.expected_time}
    for alpha in (0.05, 0.25):
        world = baseline_retire_params(mean_reversion=alpha)
        bench_times[alpha] = race_alone(world, retire_benchmark, 10.0,
                                        10000, 0.05, seed=11).expected_time
    elapsed = time.perf_counter() - t0
    ok_ours = _report(10, "our-policy expected time = 129y +- 20%",
                      abs(ours.expected_time - 129.0) <= 0.2 * 129.0,
                      f"(got {ours.expected_time:.0f}y)")
    ok_dl = _report(10, "benchmark expected time = 180y +- 20%",
                    abs(dl.expected_time - 180.0) <= 0.2 * 180.0,
                    f"(got {dl.expected_time:.0f}y; the faithful jump "
                    f"treatment reaches the threshold sooner)")
    ok_order = _report(10, "our-policy time strictly smaller",
                       ours.expected_time < dl.expected_time,
                       f"({ours.expected_time:.0f} < {dl.expected_time:.0f})")
    ok_mono = _report(10, "benchmark time increasing in mean reversion",
                      bench_times[0.05] < bench_times[0.15] < bench_times[0.25],
                      f"({bench_times[0.05]:.0f} < {bench_times[0.15]:.0f} "
                      f"< {bench_times[0.25]:.0f})")
    ok_rt = _report(10, "runtime < 10 min", elapsed < 600.0, f"({elapsed:.0f} s)")
    assert ok_ours and ok_order and ok_mono and ok_rt
    assert ok_dl, "benchmark time outside stated band (honest failure)"
