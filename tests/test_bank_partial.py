"""Partially observed model: liquidation rule, psi payoff, impulse operator
against the closed-form oracle, penalty solve properties, elasticities."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, roots_hermitenorm

from sc_control import bank_full, bank_partial as bp, cli
from sc_control.errors import NoConvergence, ValidationError

from conftest import table_bank_params


def impulse_at(sol, x0, s0):
    """P V at one point of a solved surface, from the solver's slice."""
    vals = bp._impulse_slice(bp._SliceProblem(sol.params, sol.xs), float(s0),
                             lambda s: sol.value(sol.xs, s))
    return float(np.interp(x0, sol.xs, vals))


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


def node_above_barrier(p, S, base):
    """(x_lo, h) of a uniform X grid with base's spacing and a node 1% of a
    cell above I(S), where the cut cell is too short for the one-sided stencil."""
    x_b = bp.liquidation_barrier(S, p)
    h = (base.x_hi - base.x_lo) / (base.n_x - 1)
    k = math.ceil((x_b + 0.01 * h - base.x_lo) / h)
    return x_b + 0.01 * h - k * h, h


class TestLiquidationBarrier:
    def test_zero_variance_returns_kappa(self):
        p = table_bank_params(kappa_min=0.048, conf_a=0.7993)
        assert bp.liquidation_barrier(0.0, p) == pytest.approx(0.048, abs=1e-12)

    def test_long_run_barrier_matches_calibrated_value(self):
        p = table_bank_params()
        val = bp.liquidation_barrier(p.s_infinity, p)
        assert val == pytest.approx(0.0115, abs=2e-4)  # kappa-hat 1.15%

    def test_monotonicity_pattern_by_confidence(self):
        # a > 1/2: decreasing below (Phi^-1(a))^2, increasing above;
        # a < 1/2: increasing everywhere
        for a, kappa in ((0.8, 0.048), (0.2, 0.048)):
            p = table_bank_params(kappa_min=kappa, conf_a=a)
            s_knee = ndtri(a) ** 2
            ss = np.linspace(1e-6, max(2.5 * s_knee, 0.2), 4001)
            vals = np.asarray(bp.liquidation_barrier(ss, p))
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
        for s_mult in (0.5, 1.0, 3.0):
            S = s_mult * p.s_infinity
            x = float(bp.liquidation_barrier(S, p))
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
    @staticmethod
    def brute_force(xs, V, sbar):
        return [max(V[j] - (xs[j] - xs[i]) for j in range(i, xs.size)
                    if xs[j] - xs[i] <= sbar) - 0.01 for i in range(xs.size)]

    def test_exact_line_search_against_brute_force(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0.0, 1.0, 40))
        V = np.cumsum(rng.uniform(0.5, 2.0, 40))  # increasing, slope <> 1
        for sbar in (0.0, 0.05, 0.3, 2.0):
            assert bp._shift_sup(xs, V, sbar, cost_K=0.01) == pytest.approx(
                self.brute_force(xs, V, sbar), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_one_cell_window_against_brute_force(self, n):
        # a dyadic grid: each node plus one cell is the next node exactly
        xs = 0.25 * np.arange(n)
        V = np.random.default_rng(n).normal(size=n)
        assert bp._shift_sup(xs, V, 0.25, cost_K=0.01) == pytest.approx(
            self.brute_force(xs, V, 0.25), abs=1e-12)


class TestImpulseOperator:
    def test_matches_closed_form_H_on_invariant_line(self, bank_partial_solution):
        sol = bank_partial_solution
        p = sol.params
        s_inf = p.s_infinity
        fl = sol.full_line
        for X in (0.02, 0.04, fl.u1, 0.09):
            pv = impulse_at(sol, X, s_inf)
            hv = bank_full._H(bank_full._Ctx(p, kappa=fl.kappa, omega=fl.omega), X, fl.u2)
            assert abs(pv - hv) / abs(hv) <= 1e-3

    def test_monotone_in_ratio(self, bank_partial_solution):
        sol = bank_partial_solution
        s0 = 2.0 * sol.params.s_infinity
        vals = [impulse_at(sol, x, s0) for x in (0.03, 0.06, 0.1, 0.2)]
        assert np.all(np.diff(vals) > 0)


class TestPenaltySolve:
    def test_line_agreement_with_semi_explicit(self, bank_partial_solution):
        assert bank_partial_solution.line_sup_error <= 1e-3

    def test_boundary_value_on_liquidation_curve(self, bank_partial_solution):
        sol = bank_partial_solution
        p = sol.params
        for j in (2, sol.line_index + 5, sol.ss.size - 2):
            S = float(sol.ss[j])
            i0 = int(np.searchsorted(sol.xs, bp.liquidation_barrier(S, p)))
            payoff = p.omega * bp.psi(float(bp.liquidation_barrier(S, p)), S)
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
        has_rr = np.isfinite(sol.barrier_u1)
        assert np.any(has_rr)
        assert np.all(sol.barrier_I[has_rr] < sol.barrier_u1[has_rr])
        assert np.all(sol.barrier_u1[has_rr] < sol.barrier_u2[has_rr] + 1e-12)

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

    def test_impulse_path_with_barrier_beyond_the_x_grid(self, table_b_small):
        # I(5) is about 0.96, past x_hi = 0.65; the path falls back inside
        # after one step, and the guard checks every step
        with pytest.raises(ValidationError, match="barrier outside"):
            impulse_at(table_b_small, 0.1, 5.0)

    def test_barrier_on_a_node_is_dirichlet(self):
        # place a node of a uniform X grid a hair above I(S) on the lowest S-slice
        p = table_bank_params()
        base = bp.default_grid(p, n_x=41, n_s=7)
        ss, _ = bp._s_grid(p, base)
        x_b = bp.liquidation_barrier(ss[0], p)
        x_lo, h = node_above_barrier(p, ss[0], base)
        grid = dataclasses.replace(base, x_lo=x_lo, x_hi=x_lo + (base.n_x - 1) * h,
                                   stretching="uniform")
        sol = bp.penalty_solve(p, grid)
        i0 = int(np.searchsorted(sol.xs, x_b, side="right"))
        assert sol.xs[i0] - x_b < 0.05 * h
        assert np.all(np.isfinite(sol.V))
        assert sol.regions[0, i0] == 0
        assert sol.V[0, i0] == pytest.approx(p.omega * bp.psi(x_b, ss[0]), rel=1e-12)
        assert np.all(sol.regions[0, i0 + 1:] > 0)

    def test_noiseless_collapse_toward_fully_observed(self):
        # m -> 0: the invariant-line solution tends to the fully observed one
        p0 = table_bank_params()
        full = bank_full.solve_barriers(p0, kappa=p0.kappa_min, omega=p0.omega)
        prev_gap = None
        for m in (1e-2, 1e-3, 1e-4):
            p = table_bank_params(noise_m=m, S_bar=None)
            line = bp.line_policy(p)
            gap = abs(line.u1 - full.u1) + abs(line.u2 - full.u2)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        # kappa1 - kappa shrinks like sqrt(m), so the collapse is slow
        assert prev_gap < 1e-2


class TestSliceAssembly:
    def test_impulse_path_starting_on_a_node_is_dirichlet_there(self):
        # I(S0) sits a hair below a node: the march's last step (at S0)
        # takes the snap branch, so P V is the liquidation payoff up to i0
        p = table_bank_params()
        S0 = 0.05 * p.s_infinity
        x_lo, h = node_above_barrier(p, S0, bp.default_grid(p, n_x=41, n_s=7))
        xs = np.linspace(x_lo, x_lo + 40 * h, 41)
        sp = bp._SliceProblem(p, xs)
        dt = p.delay_Delta / bp._N_TIME
        s_path = bp.riccati_variance(p, S0, np.linspace(0.0, p.delay_Delta, bp._N_TIME + 1))
        systems = sp.banded_system(s_path[:-1], bp.filter_gain(s_path[:-1], p) ** 2, 1.0 / dt)
        assert systems.snap[0] and not systems.snap[-1]
        i0 = int(systems.i0[0])
        out = bp._impulse_slice(sp, S0, lambda s: np.maximum(xs, 0.0) + 0.1)
        payoff = p.omega * bp.psi(bp.liquidation_barrier(S0, p), S0)
        np.testing.assert_array_equal(out[:i0 + 1], np.full(i0 + 1, payoff))
        assert np.all(out[i0 + 1:] > payoff)

    def test_slice_policy_iteration_out_of_iterations_raises(self, table_b_small):
        sol = table_b_small
        p = sol.params
        sp = bp._SliceProblem(p, sol.xs)
        S = float(sol.ss[sol.line_index])
        p_line = bp._impulse_slice(sp, S, lambda s: sol.value(sol.xs, s))
        rhs = np.zeros(sol.xs.size)
        v, _, active = bp._solve_slice(sp, S, 0.0, rhs, p_line, 1e5)
        assert active[0].any() and active[1].any()
        with pytest.raises(NoConvergence, match=f"S={S!r}") as err:
            bp._solve_slice(sp, S, 0.0, rhs, p_line, 1e5, max_iter=1)
        assert err.value.residual > 0
        # started from its own fixed point, one solve confirms it
        v_warm, _, _ = bp._solve_slice(sp, S, 0.0, rhs, p_line, 1e5, active=active,
                                       max_iter=1)
        np.testing.assert_array_equal(v_warm, v)

    def test_policy_iteration_settles_where_a_strict_tolerance_cycles(self):
        # sigma + 1% on 201x41 (the elasticity benchmark's perturbed solve):
        # one slice's lowest dividend node sits 2e-13 under slope one while
        # active; a rule that drops it there alternates between two sets
        p = table_bank_params()
        q = dataclasses.replace(p, sigma=1.01 * p.sigma, S_bar=None)
        sol = bp.penalty_solve(q, bp.default_grid(p, n_x=201, n_s=41))
        assert sol.iterations == 149


class TestStackedBilinear:
    """One cell lookup for a stack of surfaces equals one lookup per surface."""

    XS = np.array([0.0, 0.1, 0.25, 0.3, 0.6, 1.0])
    YS = np.array([-1.0, -0.2, 0.5, 2.0])

    def surfaces(self):
        rng = np.random.default_rng(7)
        return rng.standard_normal((3, self.YS.size, self.XS.size))

    @pytest.mark.parametrize("x, y", [
        (np.array([0.05, 0.29, 0.7, 0.99]), np.array([-0.9, 0.1, 1.9, 0.5])),  # inside
        (np.array([-0.5, 1.5, 0.2, 3.0]), np.array([0.0, -4.0, 9.0, 2.5])),     # outside
        (np.array([0.0, 0.25, 0.6, 1.0]), np.array([-1.0, 0.5, -0.2, 2.0])),    # on nodes
        (np.array([[0.1, 0.4], [0.9, -1.0]]), np.array([0.3, 5.0])),            # broadcast
    ])
    def test_stack_equals_separate_lookups_byte_for_byte(self, x, y):
        stack = self.surfaces()
        out = bp.bilinear(self.XS, self.YS, stack, x, y)
        assert out.shape == (3,) + np.broadcast_shapes(x.shape, y.shape)
        for m in range(3):
            assert out[m].tobytes() == bp.bilinear(self.XS, self.YS, stack[m], x, y).tobytes()

    def test_scalar_query_gives_one_value_per_surface(self):
        stack = self.surfaces()
        out = bp.bilinear(self.XS, self.YS, stack, 0.27, 1.1)
        single = [bp.bilinear(self.XS, self.YS, s, 0.27, 1.1) for s in stack]
        assert all(isinstance(v, float) for v in single)
        assert out.shape == (3,)
        assert out.tobytes() == np.array(single).tobytes()

    def test_nodes_and_edges_reproduce_the_surface(self):
        s = self.surfaces()[0]
        X, Y = np.meshgrid(self.XS, self.YS)
        np.testing.assert_array_equal(bp.bilinear(self.XS, self.YS, s, X, Y), s)
        # outside the grid the nearest edge value is taken
        assert bp.bilinear(self.XS, self.YS, s, 7.0, -7.0) == s[0, -1]


class TestTableBRegression:
    """The Table-B 21x7 solve, pinned to values recorded before the path
    assembly was vectorised and policy iteration warm-started."""

    V_NODES = (  # (slice, node, V)
        (0, 6, 0.10977720063651761),   # RR
        (0, 10, 0.20500460753397864),  # DR
        (1, 5, 0.0803658010603582),    # CR
        (2, 5, 0.07707712914234396),   # RR
        (3, 5, 0.07498220818958888),   # invariant line, RR
        (4, 8, 0.14742215547555862),   # CR
        (5, 3, 0.028288432855679124),  # RR
        (6, 14, 0.3415555336170303),   # DR
        (7, 1, 0.011537569796511861),  # first live node
        (7, 3, 0.0372087574133129),    # RR
        (7, 20, 0.6943140138155928),   # far field
    )

    def test_iterations_regions_and_values(self, table_b_small):
        sol = table_b_small
        assert sol.iterations == 39
        assert np.bincount(sol.regions.ravel(), minlength=4).tolist() == [26, 10, 57, 75]
        for j, i, v in self.V_NODES:
            assert sol.V[j, i] == pytest.approx(v, rel=1e-12, abs=0.0)

    def test_residual_is_the_refinement_change(self, table_b_small):
        sol = table_b_small
        assert 0.0 < sol.residual < 10 * 5e-7
        assert sol.residual != sol.line_sup_error


class TestElasticity:
    def test_zero_elasticities_of_barrier(self, bank_partial_solution):
        p = table_bank_params()
        grid = bp.default_grid(p, n_x=201, n_s=41)
        for name in ("omega", "delay_Delta", "issue_cost_K"):
            out = bp.elasticity(p, [name], rel_step=0.05, grid=grid,
                                baseline=bank_partial_solution)[name]
            assert out["I"] == pytest.approx(0.0, abs=1e-12)

    def test_barrier_elasticity_wrt_variance(self, bank_partial_solution):
        out = bp.elasticity(table_bank_params(), ["S"],
                            baseline=bank_partial_solution)["S"]
        assert out["I"] == pytest.approx(-3.756, rel=0.20)


def pde_read_rows(p, name, rel_step, grid, baseline):
    """Elasticity rows read off perturbed penalty solves, as they once were."""
    x_ref = baseline.full_line.u2

    def outputs_at(sol):
        return {"u1": sol.full_line.u1, "u2": sol.full_line.u2, "I": sol.full_line.kappa,
                "V": float(sol.value(x_ref, sol.params.s_infinity))}

    v0 = getattr(p, name)
    step = rel_step * abs(v0)
    hi = outputs_at(bp.penalty_solve(dataclasses.replace(p, **{name: v0 + step, "S_bar": None}), grid))
    lo = outputs_at(bp.penalty_solve(dataclasses.replace(p, **{name: v0 - step, "S_bar": None}), grid))
    base = outputs_at(baseline)
    din = 2.0 * step / (abs(v0) if name == "rho" else v0)
    return {k: float(((hi[k] - lo[k]) / (abs(base[k]) if k == "I" else base[k])) / din)
            for k in ("u1", "u2", "I", "V")}


@pytest.fixture(scope="module")
def small_baselines():
    p = table_bank_params()
    return {"grid": bp.penalty_solve(p, bp.default_grid(p, n_x=21, n_s=7)),
            "other": bp.penalty_solve(p, bp.default_grid(p, n_x=31, n_s=9))}


class TestSigmaSignOnTheLine:
    """Acceptance 7's stated cause: on the invariant line, with no PDE solve,
    the closed-form value at X = 2*kappa1 moves with each parameter as the
    acceptance test expects, except that it falls in sigma."""

    EXPECTED = {"noise_m": +1, "omega": +1, "rho": -1, "delay_Delta": -1,
                "issue_cost_K": -1, "sigma": -1}

    def test_v_slope_signs(self):
        p = table_bank_params()
        base = bp.line_policy(p)
        x_ref = 2.0 * base.kappa
        v0 = bank_full.value_function(x_ref, base)
        for name, sign in self.EXPECTED.items():
            # each parameter moved +-5%, as the acceptance fixture moves it
            step = 0.05 * abs(getattr(p, name))
            hi, lo = (bp.line_policy(dataclasses.replace(p, **{name: getattr(p, name) + d,
                                                               "S_bar": None}))
                      for d in (step, -step))
            slope = (bank_full.value_function(x_ref, hi)
                     - bank_full.value_function(x_ref, lo)) / v0
            assert np.sign(slope) == sign, (name, slope)


class TestClosedFormElasticity:
    """The non-S rows come from the invariant line without a PDE solve, and
    equal byte for byte the rows once read off two perturbed solves."""

    NAMES = ("sigma", "noise_m", "omega", "rho", "delay_Delta", "issue_cost_K")

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("mode", ["grid", "no grid", "other baseline"])
    def test_rows_equal_the_pde_read_rows(self, monkeypatch, small_baselines, name, mode):
        p = table_bank_params()
        grid = bp.default_grid(p, n_x=21, n_s=7)
        baseline = small_baselines["other"] if mode == "other baseline" else None
        if mode == "no grid":
            # each record's own default grid, at 21 x 7 to keep the solves small
            default_grid = bp.default_grid
            monkeypatch.setattr(bp, "default_grid",
                                lambda q, n_x=21, n_s=7: default_grid(q, n_x, n_s))
            grid = None
        with monkeypatch.context() as m:
            m.setattr(bp, "penalty_solve", _no_solve)
            got = bp.elasticity(p, [name], grid=grid, baseline=baseline)[name]
        want = pde_read_rows(p, name, 0.01, grid,
                             baseline if baseline is not None else small_baselines["grid"])
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_no_penalty_solve_without_s(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bp, "penalty_solve", _no_solve)
        p = table_bank_params()
        grid = bp.default_grid(p, n_x=21, n_s=7)
        assert bp.elasticity(p, ["omega"], grid=grid)["omega"]["I"] == 0.0
        cfg = {"bank_params": {f: getattr(p, f) for f in (
                   "mu", "alpha", "sigma", "delta", "omega", "kappa_min", "issue_cost_K",
                   "delay_Delta", "noise_m", "rho", "conf_a")},
               "grid": dataclasses.asdict(grid), "parameters": ["sigma", "omega"]}
        out = cli.run("elasticity", cfg, str(tmp_path))
        assert set(out["elasticities"]) == {"sigma", "omega"}

    def test_mixed_names_share_one_baseline(self, monkeypatch):
        p = table_bank_params()
        grid = bp.default_grid(p, n_x=21, n_s=7)
        names = ["sigma", "S", "omega", "rho"]
        calls = []
        solve = bank_full.solve_barriers
        with monkeypatch.context() as m:
            m.setattr(bank_full, "solve_barriers",
                      lambda *a, **k: calls.append(a) or solve(*a, **k))
            table = bp.elasticity(p, names, grid=grid)
        # the line of the S baseline's solve, then two perturbed lines per other name
        assert len(calls) == 1 + 2 * 3
        assert list(table) == names
        for name in names:
            alone = bp.elasticity(p, [name], grid=grid)[name]
            assert {k: v.hex() for k, v in table[name].items()} == \
                {k: v.hex() for k, v in alone.items()}

    @pytest.mark.parametrize("name", ["sigmaa", "S_bar", "", None])
    def test_unknown_parameter_rejected_before_any_solve(self, monkeypatch, name):
        monkeypatch.setattr(bp, "penalty_solve", _no_solve)
        monkeypatch.setattr(bank_full, "solve_barriers", _no_solve)
        with pytest.raises(ValidationError, match=re.escape(f"param_name={name!r}")) as err:
            bp.elasticity(table_bank_params(), [name])
        assert "valid: S, mu, alpha, sigma" in str(err.value)
        assert "S_bar" not in str(err.value).split("valid:")[1]

    NOT_A_LIST = {"str": lambda: "sigma", "generator": lambda: (n for n in ["omega"]),
                  "set": lambda: {"omega"}}

    @pytest.mark.parametrize("kind", NOT_A_LIST)
    def test_names_other_than_a_list_or_tuple_rejected_before_any_solve(self, monkeypatch,
                                                                         kind):
        # a bare string would be read letter by letter, and a generator would
        # be used up by the name check and give an empty table
        monkeypatch.setattr(bp, "penalty_solve", _no_solve)
        monkeypatch.setattr(bank_full, "solve_barriers", _no_solve)
        with pytest.raises(ValidationError, match=f"^names must be a list or tuple of "
                                                  f"parameter names, not {kind}$"):
            bp.elasticity(table_bank_params(), self.NOT_A_LIST[kind]())

    @pytest.mark.parametrize("rel_step", [0.0, -0.01, math.nan, math.inf, "0.01", None])
    def test_unusable_step_rejected_before_any_solve(self, monkeypatch, rel_step):
        monkeypatch.setattr(bp, "penalty_solve", _no_solve)
        monkeypatch.setattr(bank_full, "solve_barriers", _no_solve)
        for name in ("S", "sigma"):
            with pytest.raises(ValidationError, match="rel_step=.* must be a finite number > 0"):
                bp.elasticity(table_bank_params(), [name], rel_step=rel_step)


def _no_solve(*args, **kwargs):
    raise AssertionError("solver called")
