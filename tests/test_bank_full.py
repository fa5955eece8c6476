"""Fully observed model: root identities, first-passage oracle, delayed
value oracle, barrier solve, and value-function structure.

The first-passage CDF and the interior HJB operator have closed forms that
the solver never evaluates; they live here as the oracles of its
derivative, density and value function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from sc_control import bank_full as bf, bank_partial
from sc_control.errors import NoBracket, NoSolution, ValidationError
from sc_control.params import BankParams

from conftest import fig_bank_params, table_bank_params


@pytest.fixture(scope="module")
def fig_solution():
    return bf.solve_barriers(fig_bank_params())


def laplace_hit_oracle(p, X, lam, t, kappa=None):
    """Closed-form E[e^{-lam tau} 1{tau <= t}] (independent derivation)."""
    kappa = p.kappa_min if kappa is None else kappa
    mum = p.alpha - p.mu - 0.5 * p.sigma**2
    d = math.log((1.0 + X) / (1.0 + kappa))
    th = math.sqrt(mum**2 + 2.0 * lam * p.sigma**2)
    sq = p.sigma * math.sqrt(t)
    return (math.exp(d * (th - mum) / p.sigma**2) * norm.cdf((-d - th * t) / sq)
            + math.exp(-d * (th + mum) / p.sigma**2) * norm.cdf((-d + th * t) / sq))


def hitting_cdf(X, t, p):
    """P[first passage of X to kappa_min <= t | X_0 = X] (reflection principle)."""
    mum = p.alpha - p.mu - 0.5 * p.sigma**2
    d = np.log((1.0 + np.asarray(X, dtype=float)) / (1.0 + p.kappa_min))
    sq = p.sigma * math.sqrt(t)
    return 1.0 - ndtr((d + mum * t) / sq) \
        + np.exp(-2.0 * mum * d / p.sigma**2) * ndtr((-d + mum * t) / sq)


def hjb_residual(sol, X):
    """(L0 V)(X) on the interior branch f1, its derivatives in closed form."""
    p = sol.params
    lam_m, lam_p = roots = (sol.lambda_minus, sol.lambda_plus)
    X = np.asarray(X, dtype=float)
    u2 = sol.u2
    V = bf.candidate_value_f1(X, u2, roots)
    Vx = bf.candidate_value_f1_dX(X, u2, roots)
    Vxx = (lam_p - 1.0) * (lam_m - 1.0) / (lam_p - lam_m) \
        * ((1.0 + X) ** (lam_m - 2.0) / (1.0 + u2) ** (lam_m - 1.0)
           - (1.0 + X) ** (lam_p - 2.0) / (1.0 + u2) ** (lam_p - 1.0))
    return 0.5 * p.sigma**2 * (1.0 + X) ** 2 * Vxx + (p.alpha - p.mu) * (1.0 + X) * Vx \
        - (p.delta - p.mu) * V


def delayed_value_H(X, u2, p, kappa=None, omega=None):
    """The solver's value of a pending issuance order."""
    return bf._H(bf._Ctx(p, kappa=kappa, omega=omega), X, u2)


def conditions(p):
    """The sufficient-conditions report at the params' dividend-only barrier."""
    ctx = bf._Ctx(p)
    return bf.check_conditions(ctx, bf.solve_u0(ctx))


def scalar_action(X, sol):
    """The feedback rule one ratio at a time: the labeller's oracle."""
    if X < sol.kappa:
        return "liquidate"
    if sol.has_recapitalization and X <= sol.u1:
        return "order_equity"
    if X >= sol.u2:
        return "pay_dividend"
    return "wait"


class TestLambdaRoots:
    def test_fig_params_against_high_precision_solve(self):
        lam_m, lam_p = bf.lambda_roots(fig_bank_params())
        # 50-digit quadratic solve, frozen
        assert lam_p == pytest.approx(8.8237656657296202, abs=1e-12)
        assert lam_m == pytest.approx(-29.949260646137184, abs=1e-12)

    def test_symmetric_when_linear_coefficient_vanishes(self):
        sigma = 0.05
        alpha = 0.10
        mu = alpha - 0.5 * sigma**2
        p = BankParams(mu=mu, alpha=alpha, sigma=sigma, delta=0.25,
                       omega=0.3, kappa_min=0.048)
        lam_m, lam_p = bf.lambda_roots(p)
        assert lam_p == pytest.approx(-lam_m, rel=1e-12)
        assert lam_p == pytest.approx(math.sqrt(2 * (p.delta - p.mu)) / sigma, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(0.0, 0.12), gap=st.floats(0.001, 0.08),
           sigma=st.floats(0.01, 0.2), spread=st.floats(0.01, 0.3))
    def test_vieta_identities(self, mu, gap, sigma, spread):
        p = BankParams(mu=mu, alpha=mu + gap, sigma=sigma,
                       delta=mu + gap + spread, omega=0.3, kappa_min=0.048)
        lam_m, lam_p = bf.lambda_roots(p)
        assert lam_m < 0 < 1 < lam_p
        assert lam_m * lam_p == pytest.approx(-2 * (p.delta - p.mu) / sigma**2,
                                              rel=1e-12)
        assert lam_m + lam_p == pytest.approx(
            -2 * (p.alpha - p.mu - 0.5 * sigma**2) / sigma**2, rel=1e-9)


class TestCandidates:
    def test_value_at_own_barrier(self, fig_solution):
        p = fig_bank_params()
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        for u2 in (0.08, 0.11, 0.2):
            expected = (p.alpha - p.mu) / (p.delta - p.mu) * (1 + u2)
            assert bf.candidate_value_f1(u2, u2, roots) == pytest.approx(expected, rel=1e-12)

    def test_smooth_pasting_at_barrier(self, fig_solution):
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        u2 = 0.11
        assert bf.candidate_value_f1_dX(u2, u2, roots) == pytest.approx(1.0, abs=1e-12)
        h = 1e-4
        d2 = (bf.candidate_value_f1(u2 + h, u2, roots)
              - 2 * bf.candidate_value_f1(u2, u2, roots)
              + bf.candidate_value_f1(u2 - h, u2, roots)) / h**2
        assert d2 == pytest.approx(0.0, abs=1e-5)

    def test_f2_is_affine_continuation(self, fig_solution):
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        u2 = 0.11
        for X in (0.12, 0.3, 1.0):
            assert bf.candidate_value_f2(X, u2, roots) \
                - bf.candidate_value_f1(u2, u2, roots) == pytest.approx(X - u2, abs=1e-15)


class TestHittingCdf:
    def test_at_barrier_is_one(self):
        p = fig_bank_params()
        assert hitting_cdf(p.kappa_min, 0.5, p) == pytest.approx(1.0, abs=1e-12)

    def test_far_away_is_zero(self):
        p = fig_bank_params()
        assert hitting_cdf(5.0, 0.5, p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        # bridge-corrected Euler MC, 400k paths, dt = 1e-3, seed 42 (frozen):
        # p_mc(0.08, 0.5) = 0.122460 +- 0.000518
        p = fig_bank_params()
        assert abs(hitting_cdf(0.08, 0.5, p) - 0.122460) <= 3 * 0.000518

    def test_derivatives_match_finite_differences(self):
        p = fig_bank_params()
        for X, t in [(0.06, 0.3), (0.1, 0.5)]:
            h = 1e-6
            fd_x = (hitting_cdf(X + h, t, p) - hitting_cdf(X - h, t, p)) / (2 * h)
            assert bf.hitting_cdf_dX(bf._Ctx(p), X, t) == pytest.approx(fd_x, rel=1e-5)
            fd_t = (hitting_cdf(X, t + h, p) - hitting_cdf(X, t - h, p)) / (2 * h)
            assert bf._hitting_density(bf._Ctx(p), X, t) == pytest.approx(fd_t, rel=1e-5)


class TestDelayedValueH:
    def test_boundary_value_is_liquidation_payoff(self, fig_solution):
        p = fig_bank_params()
        val = delayed_value_H(p.kappa_min, fig_solution.u2, p)
        assert val == pytest.approx(p.omega * p.kappa_min, abs=1e-12)

    def test_hit_integral_matches_laplace_oracle(self, fig_solution):
        # quadrature path vs an independent closed form of the same integral
        p = fig_bank_params()
        u2 = fig_solution.u2
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        for X in (0.05, 0.06, 0.09):
            quad_val, _ = quad(
                lambda t: math.exp(-(p.delta - p.mu) * t)
                * float(bf._hitting_density(bf._Ctx(p), X, t)), 0, p.delay_Delta,
                epsabs=1e-13, limit=200)
            assert quad_val == pytest.approx(
                laplace_hit_oracle(p, X, p.delta - p.mu, p.delay_Delta), abs=1e-10)

    def test_zero_delay_limit_is_costly_topup(self, fig_solution):
        # Delta -> 0+: H -> V(u2) - (u2 - X) - K for X < u2
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "delay_Delta": 1e-6, "S_bar": None})
        u2 = fig_solution.u2
        roots = bf.lambda_roots(p)
        for X in (0.06, 0.08):
            expected = bf.candidate_value_f1(u2, u2, roots) - (u2 - X) - p.issue_cost_K
            assert delayed_value_H(X, u2, p) == pytest.approx(expected, abs=1e-4)

    def test_increasing_and_concave_below_u1(self, fig_solution):
        p = fig_bank_params()
        xs = np.linspace(p.kappa_min + 1e-4, fig_solution.u1, 60)
        vals = delayed_value_H(xs, fig_solution.u2, p)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-10)


class TestSolveU0:
    def test_fig_value_against_bisection_oracle(self, fig_solution):
        p = fig_bank_params()
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        target = p.omega * p.kappa_min
        lo, hi = p.kappa_min, 1.0
        for _ in range(200):  # plain bisection oracle to ~3e-16
            mid = 0.5 * (lo + hi)
            if bf.candidate_value_f1(p.kappa_min, mid, roots) > target:
                lo = mid
            else:
                hi = mid
        u0 = bf.solve_u0(bf._Ctx(p))
        assert u0 == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert bf.candidate_value_f1(p.kappa_min, u0, roots) - target == \
            pytest.approx(0.0, abs=1e-9)

    def test_zero_recovery_root(self):
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "omega": 0.0, "S_bar": None})
        u0 = bf.solve_u0(bf._Ctx(p))
        roots = bf.lambda_roots(p)
        assert bf.candidate_value_f1(p.kappa_min, u0, roots) == pytest.approx(0.0, abs=1e-10)

    def test_precondition_violation_raises(self):
        # omega*kappa above f1(kappa; kappa) leaves no bracket
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "alpha": 0.1053, "omega": 1.0,
                          "kappa_min": 4.0, "S_bar": None})
        with pytest.raises(NoBracket):
            bf.solve_u0(bf._Ctx(p))

    def test_f1_strictly_decreasing_in_barrier(self, fig_solution):
        p = fig_bank_params()
        roots = (fig_solution.lambda_minus, fig_solution.lambda_plus)
        thetas = np.linspace(p.kappa_min + 1e-3, 0.5, 40)
        vals = [bf.candidate_value_f1(p.kappa_min, th, roots) for th in thetas]
        assert np.all(np.diff(vals) < 0)


class TestConditions:
    def test_fig_report_structure_and_known_outcomes(self, fig_solution):
        rep = fig_solution.conditions_report
        assert set(rep) == {"slope_at_kappa", "drift_nonnegative",
                            "liquidation_value_bound", "u0_bound",
                            "passage_slope_bound", "all_pass"}
        # evaluated exactly, four of the five stated inequalities hold at the
        # calibrated parameters; the passage-slope bound fails numerically
        # (sufficient conditions only -- the tangency pair still exists)
        assert rep["slope_at_kappa"] and rep["drift_nonnegative"]
        assert rep["liquidation_value_bound"] and rep["u0_bound"]
        assert not rep["passage_slope_bound"]

    def test_drift_condition_fails_when_volatility_large(self):
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "sigma": 0.2, "S_bar": None})
        rep = conditions(p)
        assert not rep["drift_nonnegative"]

    def test_liquidation_bound_fails_for_large_recovery(self):
        # omega*kappa inside the narrow window between the (strict) bound
        # with the delay discount and the u0-existence bound
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "omega": 0.2167, "kappa_min": 0.6,
                          "S_bar": None})
        rep = conditions(p)
        assert not rep["liquidation_value_bound"]


class TestSolveBarriers:
    def test_ordering_and_tangency(self, fig_solution):
        p = fig_bank_params()
        sol = fig_solution
        assert p.kappa_min < sol.u1 < sol.u2 < sol.u0
        roots = (sol.lambda_minus, sol.lambda_plus)
        xs = np.linspace(p.kappa_min, sol.u2, 2001)
        gap = bf.candidate_value_f1(xs, sol.u2, roots) - delayed_value_H(xs, sol.u2, p)
        assert gap.min() >= -1e-8              # H <= f1 on [kappa, u2]
        assert abs(gap.min()) <= 1e-8           # with tangency contact
        h = 1e-6
        slope_gap = (bf.candidate_value_f1(sol.u1 + h, sol.u2, roots)
                     - bf.candidate_value_f1(sol.u1 - h, sol.u2, roots)
                     - float(delayed_value_H(sol.u1 + h, sol.u2, p))
                     + float(delayed_value_H(sol.u1 - h, sol.u2, p))) / (2 * h)
        assert slope_gap == pytest.approx(0.0, abs=1e-5)

    def test_quoted_u1_band_holds_no_tangency(self, fig_solution):
        # acceptance 2's stated cause: the smooth-fit residual f1' - H' of the
        # printed system vanishes at the solved u1 (6.2227%) and nowhere in
        # the quoted band 6.44% +- 0.15pp
        p, sol = fig_bank_params(), fig_solution
        ctx = bf._Ctx(p)

        def smooth_fit(X):
            return np.abs(bf.candidate_value_f1_dX(X, sol.u2, ctx.roots)
                          - bf._H_dX(ctx, X, sol.u2))

        assert sol.u1 == pytest.approx(0.062227, abs=5e-7)
        assert smooth_fit(sol.u1) < 1e-6
        band = np.linspace(0.0644 - 0.0015, 0.0644 + 0.0015, 31)
        assert np.all(smooth_fit(band) > 1e-3)

    def test_huge_issuance_cost_has_no_tangency(self):
        p0 = fig_bank_params()
        p = BankParams(**{**p0.__dict__, "issue_cost_K": 5.0, "S_bar": None})
        with pytest.raises(NoSolution):
            bf.solve_barriers(p)
        fallback = bf.solve_dividend_only(p)
        assert not fallback.has_recapitalization
        assert fallback.u2 == fallback.u0

    def test_dividend_only_value_is_lower(self, fig_solution):
        p = fig_bank_params()
        no_recap = bf.solve_dividend_only(p)
        for X in (0.05, 0.08, 0.12):
            assert fig_solution.value(X) >= no_recap.value(X) - 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solve", [
        bf.solve_barriers, bf.solve_dividend_only,
        lambda p: delayed_value_H(0.08, 0.11, p),
        lambda p: bank_partial.penalty_solve(p, bank_partial.default_grid(p, n_x=21, n_s=7))],
        ids=["solve_barriers", "solve_dividend_only", "delayed_value_H", "penalty_solve"])
    def test_zero_delay_raises_naming_it(self, solve):
        # the delayed issuance value has no zero-delay form: a clean rejection,
        # with no divide-by-zero warning on the way
        with pytest.raises(ValidationError, match="delay_Delta=0.0"):
            solve(table_bank_params(delay_Delta=0.0))


class TestValueFunction:
    def test_boundary_value(self, fig_solution):
        p = fig_bank_params()
        assert fig_solution.value(p.kappa_min) == pytest.approx(
            p.omega * p.kappa_min, abs=1e-10)

    def test_continuity_at_barriers(self, fig_solution):
        for b in (fig_solution.u1, fig_solution.u2):
            below = fig_solution.value(b - 1e-9)
            above = fig_solution.value(b + 1e-9)
            assert below == pytest.approx(above, abs=1e-7)

    def test_slope_one_above_u2(self, fig_solution):
        for X in (fig_solution.u2, 0.2, 0.5):
            h = 1e-7
            slope = (fig_solution.value(X + h) - fig_solution.value(X)) / h
            assert slope == pytest.approx(1.0, abs=1e-6)

    def test_hjb_residual_on_continuation_region(self, fig_solution):
        xs = np.linspace(fig_solution.u1, fig_solution.u2, 501)
        res = hjb_residual(fig_solution, xs)
        assert np.max(np.abs(res)) <= 1e-8

    def test_globally_concave_except_kink(self, fig_solution):
        p = fig_bank_params()
        xs = np.linspace(p.kappa_min + 1e-4, 2 * fig_solution.u2, 800)
        vals = fig_solution.value(xs)
        d2 = np.diff(vals, 2)
        h = xs[1] - xs[0]
        kink = np.searchsorted(xs, fig_solution.u1)
        mask = np.ones(d2.size, bool)
        mask[max(kink - 3, 0):kink + 3] = False
        assert np.all(d2[mask] <= 1e-9 * h + 1e-12)

    def test_scale_homogeneity(self, fig_solution):
        # phi(gamma E, gamma D) = gamma phi(E, D) via the ratio reduction
        E, D = 0.09, 1.0
        base = D * fig_solution.value(E / D)
        for gamma in (0.5, 2.0, 7.0):
            scaled = gamma * D * fig_solution.value((gamma * E) / (gamma * D))
            assert scaled == pytest.approx(gamma * base, rel=1e-14)


class TestActions:
    def test_plot_grid_matches_the_scalar_rule(self, fig_solution):
        # the solve-bank-full plot grid, and the same span reaching below kappa
        sol = fig_solution
        for lo in (sol.kappa, sol.kappa - 0.02):
            xs = np.linspace(lo, 3.0 * sol.u2, 301)
            assert sol.actions(xs).tolist() == [scalar_action(x, sol) for x in xs.tolist()]

    def test_labels_at_the_barriers(self, fig_solution):
        sol = fig_solution
        assert sol.actions(sol.kappa - 0.01) == "liquidate"
        assert sol.actions(sol.u1) == "order_equity"
        assert sol.actions(0.5 * (sol.u1 + sol.u2)) == "wait"
        assert sol.actions(sol.u2) == "pay_dividend"
        assert sol.actions(float("nan")) == "wait"
        assert sol.actions([sol.u1, sol.u2]).tolist() == ["order_equity", "pay_dividend"]

    def test_dividend_only_never_orders_equity(self):
        sol = bf.solve_dividend_only(fig_bank_params())
        xs = np.linspace(sol.kappa - 0.02, 3.0 * sol.u2, 301)
        labels = sol.actions(xs)
        assert "order_equity" not in labels
        assert labels.tolist() == [scalar_action(x, sol) for x in xs.tolist()]
        assert sol.actions(sol.kappa) == "wait"

    def test_barrier_itself_is_labelled_an_issuance_at_the_liquidation_payoff(
            self, fig_solution):
        # known inconsistency, kept because the benchmark pins the labels: at
        # X = kappa the label orders equity, yet V there is the liquidation
        # payoff omega*kappa and the Monte Carlo engine liquidates a path
        # that starts there
        sol = fig_solution
        assert sol.actions(sol.kappa) == "order_equity"
        assert sol.value(sol.kappa) == sol.omega * sol.kappa
