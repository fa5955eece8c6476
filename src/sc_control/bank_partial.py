"""Penalty-method PDE solver for the partially observed bank problem.

State (X_hat, S): expected equity-to-debt ratio and conditional variance of
log assets.  The variance is deterministic (Riccati), flowing monotonically
toward the invariant level s_inf = m*sigma*(1-rho) from either side, where
the problem degenerates to a fully observed model with liquidation barrier
kappa1 = I(s_inf) and liquidation value omega1 = omega*psi(kappa1,
s_inf)/kappa1.

The HJB variational inequality

    max{ L V + (sigma^2 - (S/m+sigma*rho)^2) V_S,  1 - V_X,  P V - V } = 0

is solved separately on the sub-domains S < s_inf and S > s_inf with
Dirichlet data on the invariant line (semi-explicit fully observed solution)
and V = omega*psi(I(S), S) on the liquidation boundary X = I(S).  Because
the S-characteristics flow toward the invariant line, upwinding the V_S term
in the flow direction decouples the slices: the solver marches away from the
line, solving a one-dimensional obstacle problem per slice (penalized, with
active-set policy iteration on a tridiagonal M-matrix).  The nonlocal
delayed-issuance operator P is evaluated by an auxiliary backward parabolic
PDE in X over [0, Delta] along the deterministic S-path, with an absorbing
moving boundary at I(S_t) paying omega*psi and terminal condition
sup_s [V(X+s, S_Delta) - s - K]; the sup is an exact discrete line search
(V - s is piecewise linear between nodes).  Marching makes every slice the
operator needs already solved; only the invariant-line slice references
itself and is iterated with the operator frozen at the previous sweep.

The liquidation boundary is handled with a cut cell (Shortley-Weller
one-sided stencil) so the barrier position enters exactly, not rounded to
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

from . import bank_full
from .errors import NoConvergence, ValidationError
from .filtering import riccati_variance
from .params import BankGrid, BankParams


@dataclass(frozen=True)
class LiquidationRule:
    """Regulator rule: close the bank when X_hat <= I(S)."""

    kappa_min: float
    conf_a: float

    def barrier(self, S):
        return liquidation_barrier(S, self)

    def payoff(self, S, omega: float):
        """Shareholder payoff density omega*psi(I(S), S) at liquidation."""
        return omega * psi(self.barrier(S), S)


def liquidation_barrier(S, rule: LiquidationRule):
    """I(S) = -1 + (1+kappa) exp(S/2 - Phi^{-1}(a) sqrt(S))."""
    S = np.asarray(S, dtype=float)
    if np.any(S < 0.0):
        raise ValidationError("S must be >= 0")
    q = ndtri(rule.conf_a)
    out = -1.0 + (1.0 + rule.kappa_min) * np.exp(0.5 * S - q * np.sqrt(S))
    return out if out.ndim else float(out)


def psi(x, y):
    """E[((x+1) e^{-y/2 + u sqrt(y)} - 1)^+], u standard normal.

    Black-Scholes-like closed form (x+1) Phi(sqrt(y) - u*) - Phi(-u*) with
    u* = (y/2 - ln(1+x))/sqrt(y); max(x, 0) in the degenerate y = 0 limit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    out = np.zeros(x.shape)
    flat = y <= 0.0
    out[flat] = np.maximum(x[flat], 0.0)
    # the payoff's positive part is identically zero below x = -1
    live = ~flat & ~(x <= -1.0)
    xl, yl = x[live], y[live]
    ustar = (0.5 * yl - np.log1p(xl)) / np.sqrt(yl)
    out[live] = (xl + 1.0) * ndtr(np.sqrt(yl) - ustar) - ndtr(-ustar)
    return float(out[0]) if scalar else out


def degenerate_boundary_params(p: BankParams):
    """(kappa1, omega1) of the fully observed model on the invariant line."""
    s_inf = p.s_infinity
    rule = LiquidationRule(p.kappa_min, p.conf_a)
    if s_inf == 0.0:
        return p.kappa_min, p.omega
    kappa1 = float(liquidation_barrier(s_inf, rule))
    omega1 = p.omega * float(psi(kappa1, s_inf)) / kappa1
    return kappa1, omega1


@dataclass
class PartialSolution:
    """Solved (X_hat, S) surface with regions and boundary curves."""

    params: BankParams
    xs: np.ndarray            # X_hat grid (shared by all slices)
    ss: np.ndarray            # S grid (both sub-domains, invariant line included)
    V: np.ndarray             # (n_s, n_x) value surface
    regions: np.ndarray       # (n_s, n_x) int8: 0 dead, 1 RR, 2 CR, 3 DR
    barrier_I: np.ndarray     # I(S) per slice
    barrier_u1: np.ndarray    # recapitalization boundary per slice (nan if RR empty)
    barrier_u2: np.ndarray    # dividend boundary per slice
    kappa1: float
    omega1: float
    line_index: int           # slice index of the invariant line
    line_solution: np.ndarray  # numerically solved invariant-line slice
    line_sup_error: float     # sup rel. error of numeric line slice vs closed form
    full_line: bank_full.FullSolution
    iterations: int
    residual: float

    def value(self, x, s):
        """Bilinear interpolation of the surface (clipped to the domain)."""
        return _interp2(self.xs, self.ss, self.V, x, s)


def _interp2(xs, ss, V, x, s):
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    scalar = x.ndim == 0 and s.ndim == 0
    x, s = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(s))
    i = np.clip(np.searchsorted(ss, s) - 1, 0, ss.size - 2)
    w = np.clip((s - ss[i]) / (ss[i + 1] - ss[i]), 0.0, 1.0)
    lo = _interp_rows(xs, V, i, x)
    hi = _interp_rows(xs, V, i + 1, x)
    out = (1.0 - w) * lo + w * hi
    return float(out[0]) if scalar else out


def _interp_rows(xs, V, rows, x):
    j = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
    t = np.clip((x - xs[j]) / (xs[j + 1] - xs[j]), 0.0, 1.0)
    return (1.0 - t) * V[rows, j] + t * V[rows, j + 1]


def default_grid(p: BankParams, n_x: int = 401, n_s: int = 81) -> BankGrid:
    """Default (X_hat, S) discretization: S in [s_inf/20, S_bar]."""
    s_inf = p.s_infinity
    if s_inf <= 0.0:
        raise ValidationError("partially observed solver requires noise_m > 0")
    rule = LiquidationRule(p.kappa_min, p.conf_a)
    x_lo = float(min(liquidation_barrier(np.asarray([p.S_bar, s_inf]), rule).min(), p.kappa_min))
    x_hi = 5.0 * max(p.kappa_min, 0.13)
    return BankGrid(x_lo=x_lo - 0.005, x_hi=x_hi, n_x=n_x,
                    y_lo=s_inf / 20.0, y_hi=p.S_bar, n_y=n_s,
                    stretching="geometric")


def _x_grid(spec: BankGrid) -> np.ndarray:
    if spec.stretching == "geometric":
        # cluster nodes near the liquidation end of the axis
        t = np.linspace(0.0, 1.0, spec.n_x)
        c = 2.0
        return spec.x_lo + (spec.x_hi - spec.x_lo) * (np.expm1(c * t) / math.expm1(c))
    return np.linspace(spec.x_lo, spec.x_hi, spec.n_x)


def _s_grid(p: BankParams, spec: BankGrid):
    """S grid containing the invariant line as an exact node."""
    s_inf = p.s_infinity
    lo, hi = spec.y_lo, spec.y_hi
    if not lo < s_inf < hi:
        raise ValidationError("S grid must straddle the invariant line")
    n = spec.n_y
    n_below = max(3, int(round(n * (s_inf - lo) / (hi - lo))))
    n_above = max(3, n - n_below)
    below = np.linspace(lo, s_inf, n_below + 1)
    above = np.linspace(s_inf, hi, n_above + 1)
    ss = np.concatenate([below[:-1], above])
    return ss, n_below  # ss[n_below] == s_inf


def _diff_ops(xs):
    """Nonuniform three-point first/second difference coefficients."""
    h_m = np.diff(xs)[:-1]
    h_p = np.diff(xs)[1:]
    d2_l = 2.0 / (h_m * (h_m + h_p))
    d2_c = -2.0 / (h_m * h_p)
    d2_r = 2.0 / (h_p * (h_m + h_p))
    return d2_l, d2_c, d2_r


def _shift_sup(xs, V, sbar, cost_K):
    """sup over s in [0, sbar] of V(x+s) - s, minus K, exactly on the grid.

    V - s is piecewise linear between nodes so the sup is attained at a node
    (or at s = 0); ties resolve toward smaller s because the running max is
    strict.  Beyond the last node V continues with slope one, which adds
    nothing.
    """
    W = V - xs
    if sbar >= xs[-1] - xs[0]:
        best = np.maximum.accumulate(W[::-1])[::-1]
    else:
        best = np.empty_like(W)
        j_hi = np.searchsorted(xs, xs + sbar, side="right") - 1
        # two-pointer sweep keeping a decreasing deque of candidate indices
        from collections import deque

        dq: deque = deque()
        j = xs.size - 1
        for i in range(xs.size - 1, -1, -1):
            while j >= i:
                while dq and W[dq[-1]] <= W[j]:
                    dq.pop()
                dq.append(j)
                j -= 1
            while dq and dq[0] > j_hi[i]:
                dq.popleft()
            best[i] = W[dq[0]] if dq else W[i]
    return best + xs - cost_K


class _SliceProblem:
    """Shared coefficients of the per-slice obstacle problems on the X grid."""

    def __init__(self, p: BankParams, xs: np.ndarray, n_time: int = 64):
        self.p = p
        self.rule = LiquidationRule(p.kappa_min, p.conf_a)
        self.xs = xs
        self.n_time = n_time
        self.dm = p.delta - p.mu
        self.am = p.alpha - p.mu

    def vol(self, S):
        return S / self.p.noise_m + self.p.sigma * self.p.rho

    def boundary_value(self, S):
        return self.rule.payoff(S, self.p.omega)

    def lop_rows(self, S, extra_diag=0.0):
        """Interior rows of -(L - extra_diag) as banded tridiagonal parts.

        Returns (sub, diag, sup) arrays over interior nodes 1..n-2, with the
        first-order term upwinded by the sign of the drift.
        """
        xs = self.xs
        vol2 = self.vol(S) ** 2
        diffc = 0.5 * vol2 * (1.0 + xs[1:-1]) ** 2
        drift = self.am * (1.0 + xs[1:-1])
        d2_l, d2_c, d2_r = _diff_ops(xs)
        h_m = np.diff(xs)[:-1]
        h_p = np.diff(xs)[1:]
        sub = -diffc * d2_l
        dia = -diffc * d2_c + self.dm + extra_diag
        sup = -diffc * d2_r
        up = drift >= 0.0
        sup[up] -= drift[up] / h_p[up]
        dia[up] += drift[up] / h_p[up]
        dia[~up] += -drift[~up] / h_m[~up]
        sub[~up] -= -drift[~up] / h_m[~up]
        return sub, dia, sup

    def banded_system(self, S, vol2, extra_diag, rhs):
        """Banded system of -(L - extra_diag) V = rhs on the slice at variance S.

        Rows below the barrier I(S) are Dirichlet at the liquidation payoff;
        the first node above it takes the Shortley-Weller one-sided stencil
        (Dirichlet when the barrier sits essentially on the node); the last
        row imposes V_X = 1.  ``vol2`` is the squared volatility of the cut
        cell and ``rhs`` the interior right-hand side on the whole grid.
        Returns (ab, b, i0, snap): i0 is the first node above the barrier.
        """
        xs = self.xs
        n = xs.size
        x_b = float(liquidation_barrier(S, self.rule))
        v_b = self.boundary_value(S)
        i0 = int(np.searchsorted(xs, x_b, side="right"))
        if i0 >= n - 2:
            raise ValidationError("liquidation barrier outside the X grid")
        sub, dia, sup = self.lop_rows(S, extra_diag=extra_diag)
        ab = np.zeros((3, n))
        b = np.zeros(n)
        ab[1, :i0] = 1.0
        b[:i0] = v_b
        h_sw = xs[i0] - x_b
        hp = xs[i0 + 1] - xs[i0]
        snap = h_sw < 0.05 * hp  # barrier essentially on the node
        if snap:
            ab[1, i0] = 1.0
            b[i0] = v_b
        else:
            # Shortley-Weller one-sided stencil at the cut cell i0
            diffc = 0.5 * vol2 * (1.0 + xs[i0]) ** 2
            drift = self.am * (1.0 + xs[i0])
            c_b = 2.0 * diffc / (h_sw * (h_sw + hp))
            c_r = 2.0 * diffc / (hp * (h_sw + hp))
            dia_i = c_b + c_r + self.dm + extra_diag
            sup_i = -c_r
            rhs_i = rhs[i0] + c_b * v_b
            if drift >= 0.0:
                dia_i += drift / hp
                sup_i -= drift / hp
            else:
                dia_i += -drift / h_sw
                rhs_i += -drift / h_sw * v_b
            ab[1, i0] = dia_i
            ab[0, i0 + 1] = sup_i
            b[i0] = rhs_i
        start = i0 + 1
        ab[2, start - 1:n - 2] = sub[start - 1:]
        ab[1, start:n - 1] = dia[start - 1:]
        ab[0, start + 1:n] = sup[start - 1:]
        b[start:n - 1] = rhs[start:n - 1]
        # far field: V_X = 1
        ab[1, n - 1] = 1.0
        ab[2, n - 2] = -1.0
        b[n - 1] = xs[-1] - xs[-2]
        return ab, b, i0, snap


def _solve_slice(sp: _SliceProblem, S, extra_diag, rhs_extra, p_op: np.ndarray,
                 rho_pen: float, max_iter: int = 60):
    """Active-set policy iteration for one penalized slice problem.

    Solves  max{ L V - extra_diag V + rhs_extra, 1 - V_X, P - V } = 0 on the
    slice system of :meth:`_SliceProblem.banded_system`, with penalty rho_pen
    on the two constraints.  The iteration starts from empty active sets.
    Returns (V, regions).
    """
    xs = sp.xs
    n = xs.size
    ab0, b0, i0, snap = sp.banded_system(S, sp.vol(S) ** 2, extra_diag, rhs_extra)
    start = i0 + 1
    idx = np.arange(n)
    h_m_full = np.empty(n)
    h_m_full[1:] = np.diff(xs)
    h_m_full[0] = h_m_full[1]
    div_active = np.zeros(n, dtype=bool)
    rec_active = np.zeros(n, dtype=bool)

    for it in range(max_iter):
        # penalties (implicit in V) on interior active nodes; the dividend
        # constraint discretizes V_X backward, which keeps the M-matrix
        ab = ab0.copy()
        b = b0.copy()
        sl = np.where(div_active & (idx > start) & (idx < n - 1))[0]
        ab[1, sl] += rho_pen / h_m_full[sl]
        ab[2, sl - 1] -= rho_pen / h_m_full[sl]
        b[sl] += rho_pen
        act_r = rec_active & (idx >= start) & (idx < n - 1)
        ab[1, act_r] += rho_pen
        b[act_r] += rho_pen * p_op[act_r]
        V = solve_banded((1, 1), ab, b)

        slope_b = np.empty(n)
        slope_b[1:] = np.diff(V) / np.diff(xs)
        slope_b[0] = slope_b[1]
        new_d = slope_b < 1.0 - 1e-12
        new_r = (p_op - V) > 1e-12
        new_r &= ~new_d  # dividend constraint wins where both fire
        if np.array_equal(new_d, div_active) and np.array_equal(new_r, rec_active):
            break
        div_active, rec_active = new_d, new_r
    regions = np.full(n, 2, dtype=np.int8)
    regions[:i0] = 0
    regions[div_active & (idx > start)] = 3
    regions[rec_active & (idx >= start)] = 1
    if snap:
        regions[i0] = 0
    return V, regions


def _impulse_slice(sp: _SliceProblem, S0: float, surface_lookup) -> np.ndarray:
    """P V on the whole X grid for a slice starting at variance S0.

    Backward parabolic solve over [0, Delta] along the deterministic S-path;
    ``surface_lookup(x_array, S)`` must return already-solved values of V at
    variance S (plus closed-form boundary payoff below I(S)).
    """
    p = sp.p
    xs = sp.xs
    n_t = sp.n_time
    dt = p.delay_Delta / n_t
    s_path = riccati_variance(p, S0, np.linspace(0.0, p.delay_Delta, n_t + 1))
    # terminal condition: exact line search over issuance sizes
    v_term = surface_lookup(xs, float(s_path[-1]))
    u = _shift_sup(xs, v_term, p.issue_cap_sbar, p.issue_cost_K)
    vol2 = sp.vol(np.asarray(s_path)) ** 2
    for k in range(n_t - 1, -1, -1):
        ab, b, _, _ = sp.banded_system(float(s_path[k]), float(vol2[k]), 1.0 / dt, u / dt)
        u = solve_banded((1, 1), ab, b)
    return u


def impulse_operator(sol: PartialSolution, start, p: BankParams | None = None,
                     n_time: int = 64) -> float:
    """P V at a single point of a solved surface."""
    p = sol.params if p is None else p
    x0, s0 = start
    sp = _SliceProblem(p, sol.xs, n_time=n_time)
    vals = _impulse_slice(sp, float(s0), sol.value)
    return float(np.interp(x0, sol.xs, vals))


def penalty_solve(p: BankParams, grid: BankGrid | None = None,
                  n_time: int = 64, line_tol: float = 5e-7,
                  line_max_sweeps: int = 40) -> PartialSolution:
    """Solve the variational inequality on both sub-domains.

    Marches away from the invariant line (Dirichlet data from the
    semi-explicit fully observed solution under (kappa1, omega1)); also
    solves the invariant-line slice numerically as a self-consistency
    diagnostic (``line_solution`` / ``line_sup_error``).
    """
    if grid is None:
        grid = default_grid(p)
    kappa1, omega1 = degenerate_boundary_params(p)
    full_line = bank_full.solve_barriers(p, kappa=kappa1, omega=omega1)
    sp = _SliceProblem(p, _x_grid(grid), n_time=n_time)
    xs = sp.xs
    ss, line_idx = _s_grid(p, grid)
    n_s, n_x = ss.size, xs.size
    rule = sp.rule

    V = np.zeros((n_s, n_x))
    regions = np.zeros((n_s, n_x), dtype=np.int8)
    solved = np.zeros(n_s, dtype=bool)

    # invariant line: closed-form Dirichlet data
    line_vals = np.asarray(bank_full.value_function(np.maximum(xs, kappa1), full_line))
    line_vals[xs <= kappa1] = omega1 * kappa1
    V[line_idx] = line_vals
    regions[line_idx, xs <= kappa1] = 0
    regions[line_idx, (xs > kappa1) & (xs <= full_line.u1)] = 1
    regions[line_idx, (xs > full_line.u1) & (xs < full_line.u2)] = 2
    regions[line_idx, xs >= full_line.u2] = 3
    solved[line_idx] = True

    def lookup(x_arr, S):
        # values at variance S, interpolated in S across solved slices; while
        # marching, the short initial path segment inside the yet-unsolved
        # slice clamps to the nearest solved neighbor (O(dS) startup error,
        # removed by the refinement sweeps)
        i = int(np.clip(np.searchsorted(ss, S) - 1, 0, n_s - 2))
        if not (solved[i] and solved[i + 1]):
            cand = np.where(solved)[0]
            i_near = int(cand[np.argmin(np.abs(ss[cand] - S))])
            rows = np.full(np.shape(x_arr), i_near)
            return _interp_rows(xs, V, rows, x_arr)
        w = (S - ss[i]) / (ss[i + 1] - ss[i])
        w = min(max(w, 0.0), 1.0)
        rows_lo = np.full(np.shape(x_arr), i)
        return (1.0 - w) * _interp_rows(xs, V, rows_lo, x_arr) \
            + w * _interp_rows(xs, V, rows_lo + 1, x_arr)

    total_iters = 0
    residual = 0.0
    # each slice solve starts policy iteration from empty active sets, so the
    # earlier, smaller penalties of the schedule would not change its result
    rho_pen = grid.penalty_schedule[-1]

    # numeric solve of the invariant-line slice (diagnostic; frozen-P sweeps)
    s_line = float(ss[line_idx])
    x_b = float(liquidation_barrier(s_line, rule))
    v_num = np.maximum(rule.payoff(s_line, p.omega) + (xs - x_b), rule.payoff(s_line, p.omega))
    V_line_saved = V[line_idx].copy()
    for sweep in range(line_max_sweeps):
        V[line_idx] = v_num  # the line's own P references this iterate
        p_line = _impulse_slice(sp, s_line, lookup)
        v_new, _ = _solve_slice(sp, s_line, 0.0, np.zeros(n_x), p_line, rho_pen)
        change = float(np.max(np.abs(v_new - v_num) / (1.0 + np.abs(v_num))))
        v_num = v_new
        total_iters += 1
        if change < line_tol:
            break
    else:
        raise NoConvergence("invariant-line sweep did not converge", residual=change)
    V[line_idx] = V_line_saved
    denom = 1.0 + np.abs(xs)
    live = xs > kappa1 + 1e-9
    line_sup_error = float(np.max(np.abs(v_num - V_line_saved)[live] / denom[live]))

    # march the two sub-domains away from the line, then refine with the
    # nonlocal operator frozen at the previous full sweep
    order = list(range(line_idx - 1, -1, -1)) + list(range(line_idx + 1, n_s))
    for sweep in range(1 + line_max_sweeps):
        change = 0.0
        for j in order:
            S = float(ss[j])
            toward = j + 1 if j < line_idx else j - 1
            dS = abs(ss[toward] - ss[j])
            b_drift = p.sigma**2 - sp.vol(S) ** 2
            adv = abs(b_drift) / dS
            p_slice = _impulse_slice(sp, S, lookup)
            v, reg = _solve_slice(sp, S, adv, adv * V[toward], p_slice, rho_pen)
            if sweep > 0:
                change = max(change, float(np.max(np.abs(v - V[j]) / (1.0 + np.abs(V[j])))))
            V[j] = v
            regions[j] = reg
            solved[j] = True
            total_iters += 1
        if sweep > 0:
            residual = change
            if change < line_tol * 10.0:
                break
    else:
        raise NoConvergence("surface refinement did not converge",
                            residual=residual)

    barrier_I = np.asarray(liquidation_barrier(ss, rule))
    barrier_u1 = np.full(n_s, np.nan)
    barrier_u2 = np.full(n_s, np.nan)
    for j in range(n_s):
        # the dividend boundary is the start of the terminal slope-one run;
        # at large S a separate payout collar can sit just above the
        # liquidation boundary (below the long-run barrier) and is tracked
        # through the region labels, not the boundary curve
        dr = np.where(regions[j] == 3)[0]
        if dr.size:
            breaks = np.where(np.diff(dr) > 1)[0]
            start_idx = dr[breaks[-1] + 1] if breaks.size else dr[0]
            barrier_u2[j] = xs[start_idx]
            rr = np.where(regions[j][:start_idx] == 1)[0]
        else:
            rr = np.where(regions[j] == 1)[0]
        if rr.size:
            barrier_u1[j] = xs[rr[-1]]
    barrier_u1[line_idx] = full_line.u1
    barrier_u2[line_idx] = full_line.u2

    return PartialSolution(
        params=p, xs=xs, ss=ss, V=V, regions=regions,
        barrier_I=barrier_I, barrier_u1=barrier_u1, barrier_u2=barrier_u2,
        kappa1=kappa1, omega1=omega1, line_index=line_idx,
        line_solution=v_num, line_sup_error=line_sup_error,
        full_line=full_line, iterations=total_iters, residual=line_sup_error,
    )


def extract_regions(sol: PartialSolution) -> dict:
    """Boundary curves per S-slice: I(S), u1(S) (nan if RR empty), u2(S)."""
    return {
        "S": sol.ss.copy(),
        "I": sol.barrier_I.copy(),
        "u1": sol.barrier_u1.copy(),
        "u2": sol.barrier_u2.copy(),
    }


_SWEEP_FRACTIONS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)  # of s_inf, for the S-row


def elasticity(p: BankParams, param_name: str, rel_step: float = 0.01,
               grid: BankGrid | None = None, solver=penalty_solve,
               baseline: PartialSolution | None = None) -> dict:
    """Central-difference elasticities of {u1, u2, I, V} at the long-run S.

    For parameters other than ``S`` the perturbed problems are re-solved and
    outputs are read on the invariant line (where S tracks its long-run
    level m*sigma*(1-rho) through the perturbation); V is evaluated at the
    baseline dividend barrier.  For ``S`` no rerun is needed: the surface
    itself varies in S, and the elasticity is averaged over the documented
    sweep S/s_inf in {1, 1.5, ..., 4}, the comparative-statics range of the
    uncertainty panel, using quarter-s_inf central differences (barrier
    curves are grid-quantized, so tighter steps would alias).  Denominators
    use |output| wherever the quantity may change sign (I and rho per the
    stated convention).
    """
    if baseline is None:
        baseline = solver(p, grid)
    s_inf = p.s_infinity
    x_ref = baseline.full_line.u2

    def outputs_at(sol: PartialSolution, x_eval: float):
        return {
            "u1": sol.full_line.u1,
            "u2": sol.full_line.u2,
            "I": sol.kappa1,
            "V": float(sol.value(x_eval, sol.params.s_infinity)),
        }

    if param_name == "S":
        rule = LiquidationRule(p.kappa_min, p.conf_a)
        out = {"u1": [], "u2": [], "I": [], "V": []}
        for frac in _SWEEP_FRACTIONS:
            S0 = frac * s_inf
            dS = 0.25 * s_inf
            for name, fn in (
                ("I", lambda s: float(liquidation_barrier(s, rule))),
                ("u1", lambda s: float(np.interp(s, baseline.ss, baseline.barrier_u1))),
                ("u2", lambda s: float(np.interp(s, baseline.ss, baseline.barrier_u2))),
                ("V", lambda s: float(baseline.value(x_ref, s))),
            ):
                hi, lo, mid = fn(S0 + dS), fn(S0 - dS), fn(S0)
                denom = abs(mid) if name == "I" else mid
                if denom == 0.0 or not np.isfinite(hi - lo):
                    out[name].append(np.nan)
                else:
                    out[name].append((hi - lo) / (2.0 * dS) * S0 / denom)
        return {k: float(np.nanmean(v)) for k, v in out.items()}

    value0 = getattr(p, param_name)
    step = rel_step * abs(value0) if value0 != 0.0 else rel_step
    p_hi = replace(p, **{param_name: value0 + step, "S_bar": None})
    p_lo = replace(p, **{param_name: value0 - step, "S_bar": None})
    sol_hi = solver(p_hi, grid)
    sol_lo = solver(p_lo, grid)
    base_out = outputs_at(baseline, x_ref)
    hi_out = outputs_at(sol_hi, x_ref)
    lo_out = outputs_at(sol_lo, x_ref)
    result = {}
    use_abs_in = param_name == "rho"
    din = 2.0 * step / (abs(value0) if use_abs_in and value0 != 0.0 else value0) \
        if value0 != 0.0 else 2.0 * step
    for name in ("u1", "u2", "I", "V"):
        dout = hi_out[name] - lo_out[name]
        denom = abs(base_out[name]) if name == "I" else base_out[name]
        result[name] = float((dout / denom) / din) if denom != 0.0 else np.nan
    return result
