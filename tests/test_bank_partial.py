"""Partially observed model: liquidation rule, psi payoff, impulse operator
against the closed-form oracle, penalty solve properties, elasticities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, roots_hermitenorm

from sc_control import bank_full, bank_partial as bp
from sc_control.errors import ValidationError

from conftest import table_bank_params


def psi_gauss_hermite_oracle(x, y, n=64):
    """64-node Gauss-Hermite quadrature of E[((x+1)e^{-y/2+u sqrt y} - 1)^+]."""
    nodes, weights = roots_hermitenorm(n)
    vals = np.maximum((x + 1.0) * np.exp(-0.5 * y + nodes * math.sqrt(y)) - 1.0, 0.0)
    return float(weights @ vals / math.sqrt(2.0 * math.pi))


def psi_quadrature_oracle(x, y):
    """Adaptive quadrature of the payoff integral, split at the kink."""
    from scipy.integrate import quad

    ustar = (0.5 * y - math.log1p(x)) / math.sqrt(y)

    def integrand(u):
        return ((x + 1.0) * math.exp(-0.5 * y + u * math.sqrt(y)) - 1.0) \
            * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    val, _ = quad(integrand, ustar, ustar + 12.0, epsabs=1e-13, limit=200)
    return val


class TestLiquidationBarrier:
    def test_zero_variance_returns_kappa(self):
        rule = bp.LiquidationRule(0.048, 0.7993)
        assert bp.liquidation_barrier(0.0, rule) == pytest.approx(0.048, abs=1e-12)

    def test_long_run_barrier_matches_calibrated_value(self):
        p = table_bank_params()
        rule = bp.LiquidationRule(p.kappa_min, p.conf_a)
        val = bp.liquidation_barrier(p.s_infinity, rule)
        assert val == pytest.approx(0.0115, abs=2e-4)  # kappa-hat 1.15%

    def test_monotonicity_pattern_by_confidence(self):
        # a > 1/2: decreasing below (Phi^-1(a))^2, increasing above;
        # a < 1/2: increasing everywhere
        for a, kappa in ((0.8, 0.048), (0.2, 0.048)):
            rule = bp.LiquidationRule(kappa, a)
            s_knee = ndtri(a) ** 2
            ss = np.linspace(1e-6, max(2.5 * s_knee, 0.2), 4001)
            vals = np.asarray(bp.liquidation_barrier(ss, rule))
            dI = np.diff(vals)
            if a > 0.5:
                below = ss[:-1] < s_knee * 0.999
                above = ss[:-1] > s_knee * 1.001
                assert np.all(dI[below] < 0)
                assert np.all(dI[above] > 0)
            else:
                assert np.all(dI > 0)


class TestPsi:
    def test_degenerate_variance_is_positive_part(self):
        assert bp.psi(0.5, 0.0) == 0.5
        assert bp.psi(-0.5, 0.0) == 0.0

    def test_matches_quadrature_oracles_at_barrier(self):
        p = table_bank_params()
        rule = bp.LiquidationRule(p.kappa_min, p.conf_a)
        for s_mult in (0.5, 1.0, 3.0):
            S = s_mult * p.s_infinity
            x = float(bp.liquidation_barrier(S, rule))
            # kink-split adaptive quadrature resolves the integral exactly;
            # plain 64-node Gauss-Hermite stalls near 1e-4 on the kink
            assert bp.psi(x, S) == pytest.approx(psi_quadrature_oracle(x, S),
                                                 abs=1e-10)
            assert bp.psi(x, S) == pytest.approx(
                psi_gauss_hermite_oracle(x, S), abs=5e-4)

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(-0.9, 3.0), y=st.floats(1e-6, 1.0))
    def test_bounds_and_monotonicity(self, x, y):
        val = bp.psi(x, y)
        assert 0.0 <= val <= x + 1.0
        assert bp.psi(x + 0.05, y) >= val - 1e-12


class TestDegenerateBoundary:
    def test_noiseless_reduces_to_original_parameters(self):
        p = table_bank_params(noise_m=0.0, S_bar=None)
        kappa1, omega1 = bp.degenerate_boundary_params(p)
        assert kappa1 == p.kappa_min
        assert omega1 == p.omega

    def test_table_calibration_value(self):
        p = table_bank_params()
        kappa1, omega1 = bp.degenerate_boundary_params(p)
        assert kappa1 == pytest.approx(0.0115, abs=2e-4)
        assert omega1 == pytest.approx(
            p.omega * bp.psi(kappa1, p.s_infinity) / kappa1, rel=1e-12)

    def test_zero_recovery_gives_zero_omega1(self):
        p = table_bank_params(omega=0.0)
        _, omega1 = bp.degenerate_boundary_params(p)
        assert omega1 == 0.0


class TestShiftSup:
    def test_exact_line_search_against_brute_force(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0.0, 1.0, 40))
        V = np.cumsum(rng.uniform(0.5, 2.0, 40))  # increasing, slope <> 1
        for sbar in (0.05, 0.3, 2.0):
            got = bp._shift_sup(xs, V, sbar, cost_K=0.01)
            for i in range(40):
                cand = [V[j] - (xs[j] - xs[i]) for j in range(i, 40)
                        if xs[j] - xs[i] <= sbar]
                assert got[i] == pytest.approx(max(cand) - 0.01, abs=1e-12)


class TestImpulseOperator:
    def test_matches_closed_form_H_on_invariant_line(self, bank_partial_solution):
        sol = bank_partial_solution
        p = sol.params
        s_inf = p.s_infinity
        fl = sol.full_line
        for X in (0.02, 0.04, fl.u1, 0.09):
            pv = bp.impulse_operator(sol, (X, s_inf))
            hv = bank_full.delayed_value_H(X, fl.u2, p, kappa=sol.kappa1,
                                           omega=sol.omega1)
            assert abs(pv - hv) / abs(hv) <= 1e-3

    def test_monotone_in_ratio(self, bank_partial_solution):
        sol = bank_partial_solution
        s0 = 2.0 * sol.params.s_infinity
        vals = [bp.impulse_operator(sol, (x, s0)) for x in (0.03, 0.06, 0.1, 0.2)]
        assert np.all(np.diff(vals) > 0)


class TestPenaltySolve:
    def test_line_agreement_with_semi_explicit(self, bank_partial_solution):
        assert bank_partial_solution.line_sup_error <= 1e-3

    def test_boundary_value_on_liquidation_curve(self, bank_partial_solution):
        sol = bank_partial_solution
        p = sol.params
        rule = bp.LiquidationRule(p.kappa_min, p.conf_a)
        for j in (2, sol.line_index + 5, sol.ss.size - 2):
            S = float(sol.ss[j])
            i0 = int(np.searchsorted(sol.xs, bp.liquidation_barrier(S, rule)))
            payoff = p.omega * bp.psi(float(bp.liquidation_barrier(S, rule)), S)
            assert sol.V[j, max(i0 - 1, 0)] == pytest.approx(payoff, rel=5e-2)

    def test_value_dominates_liquidation_payoff(self, bank_partial_solution):
        sol = bank_partial_solution
        p = sol.params
        for j in range(0, sol.ss.size, 7):
            S = float(sol.ss[j])
            live = sol.regions[j] != 0
            payoff = p.omega * bp.psi(sol.xs[live], S)
            assert np.all(sol.V[j, live] >= payoff - 1e-6)

    def test_monotone_and_slope_bounded_below(self, bank_partial_solution):
        sol = bank_partial_solution
        for j in range(0, sol.ss.size, 5):
            live = np.where(sol.regions[j] != 0)[0]
            if live.size < 3:
                continue
            v = sol.V[j, live[0]:]
            x = sol.xs[live[0]:]
            slopes = np.diff(v) / np.diff(x)
            # the cut cell adjacent to the liquidation boundary may dip a
            # fraction of a percent below one; interior nodes must not
            assert slopes[0] >= 0.95
            # dividend-active nodes satisfy the constraint up to the final
            # penalty weight: violation ~ |L V| / rho_p ~ 1e-5
            assert slopes[1:].min() >= 1.0 - 1e-4

    def test_linear_growth_bounds(self, bank_partial_solution):
        # X - C0 <= V <= X + C1 + C2 S for explicit constants: lower bound
        # from paying everything out now; upper from the drift comparison
        sol = bank_partial_solution
        p = sol.params
        for j in range(0, sol.ss.size, 9):
            S = float(sol.ss[j])
            live = sol.regions[j] != 0
            x = sol.xs[live]
            v = sol.V[j, live]
            assert np.all(v >= x - 1.0)
            assert np.all(v <= x + 1.0 + 10.0 * S)

    def test_complementarity_on_interior(self, bank_partial_solution):
        # at every interior live node at least one of the three operators is
        # near zero and none is significantly positive: check via regions --
        # CR nodes satisfy the PDE, DR nodes have slope 1, RR nodes V = P
        sol = bank_partial_solution
        j = sol.line_index + 10
        live = np.where(sol.regions[j] != 0)[0][1:-1]
        labels = sol.regions[j, live]
        assert set(np.unique(labels)) <= {1, 2, 3}
        dr = live[labels == 3]
        if dr.size:
            i = dr[dr > live[0] + 1]
            slopes = (sol.V[j, i] - sol.V[j, i - 1]) / (sol.xs[i] - sol.xs[i - 1])
            assert np.all(np.abs(slopes - 1.0) < 1e-3)

    def test_homogeneity_in_debt_scale(self, bank_partial_solution):
        # (E, D, S) value equals D * V(E/D, S) by construction of the
        # reduction; evaluate at three debt levels
        sol = bank_partial_solution
        E, S = 0.12, 1.5 * sol.params.s_infinity
        base = sol.value(E, S)
        for D in (0.5, 2.0, 4.0):
            assert D * sol.value(E, S) == pytest.approx(D * base, rel=1e-14)

    def test_region_ordering_where_recap_active(self, bank_partial_solution):
        sol = bank_partial_solution
        curves = bp.extract_regions(sol)
        has_rr = np.isfinite(curves["u1"])
        assert np.any(has_rr)
        assert np.all(curves["I"][has_rr] < curves["u1"][has_rr])
        assert np.all(curves["u1"][has_rr] < curves["u2"][has_rr] + 1e-12)

    def test_barriers_tighten_at_small_variance(self, bank_partial_solution):
        sol = bank_partial_solution
        width_low = sol.barrier_u2[1] - np.nan_to_num(sol.barrier_u1[1], nan=sol.barrier_I[1])
        width_line = sol.full_line.u2 - sol.full_line.u1
        assert width_low < width_line

    def test_recap_region_vanishes_at_large_variance(self, bank_partial_solution):
        sol = bank_partial_solution
        assert not np.isfinite(sol.barrier_u1[-1])

    @pytest.mark.parametrize("x_hi", [0.0, 0.01, 0.03])
    def test_barrier_beyond_the_x_grid_is_a_validation_error(self, x_hi):
        p = table_bank_params()
        grid = dataclasses.replace(bp.default_grid(p, n_x=21, n_s=7), x_hi=x_hi)
        with pytest.raises(ValidationError, match="barrier outside"):
            bp.penalty_solve(p, grid)

    def test_noiseless_collapse_toward_fully_observed(self):
        # m -> 0: the invariant-line solution tends to the fully observed one
        p0 = table_bank_params()
        full = bank_full.solve_barriers(p0, kappa=p0.kappa_min, omega=p0.omega)
        prev_gap = None
        for m in (1e-2, 1e-3, 1e-4):
            p = table_bank_params(noise_m=m, S_bar=None)
            kappa1, omega1 = bp.degenerate_boundary_params(p)
            line = bank_full.solve_barriers(p, kappa=kappa1, omega=omega1)
            gap = abs(line.u1 - full.u1) + abs(line.u2 - full.u2)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        # kappa1 - kappa shrinks like sqrt(m), so the collapse is slow
        assert prev_gap < 1e-2


class TestElasticity:
    def test_zero_elasticities_of_barrier(self, bank_partial_solution):
        p = table_bank_params()
        grid = bp.default_grid(p, n_x=201, n_s=41)
        for name in ("omega", "delay_Delta", "issue_cost_K"):
            out = bp.elasticity(p, name, rel_step=0.05, grid=grid,
                                baseline=bank_partial_solution)
            assert out["I"] == pytest.approx(0.0, abs=1e-12)

    def test_barrier_elasticity_wrt_variance(self, bank_partial_solution):
        out = bp.elasticity(table_bank_params(), "S",
                            baseline=bank_partial_solution)
        assert out["I"] == pytest.approx(-3.756, rel=0.20)
