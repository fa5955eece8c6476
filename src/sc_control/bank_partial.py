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
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr, ndtri

from . import bank_full
from .errors import NoConvergence, ValidationError
from .filtering import filter_gain, riccati_variance
from .interp import bilinear, cell, lerp, read
from .params import BankGrid, BankParams, finite_number

_N_TIME = 64  # time steps of each delayed-issuance path over [0, Delta]
_LINE_TOL = 5e-7  # line sweeps stop below this relative change, surface sweeps at 10x
_LINE_MAX_SWEEPS = 40  # cap on the line sweeps and on the surface refinement sweeps


def liquidation_barrier(S, p: BankParams):
    """I(S) = -1 + (1+kappa_min) exp(S/2 - Phi^{-1}(conf_a) sqrt(S)), the
    regulator's rule: close the bank when X_hat <= I(S)."""
    S = np.asarray(S, dtype=float)
    if np.any(S < 0.0):
        raise ValidationError("S must be >= 0")
    q = ndtri(p.conf_a)
    out = -1.0 + (1.0 + p.kappa_min) * np.exp(0.5 * S - q * np.sqrt(S))
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
    if s_inf == 0.0:
        return p.kappa_min, p.omega
    kappa1 = float(liquidation_barrier(s_inf, p))
    omega1 = p.omega * float(psi(kappa1, s_inf)) / kappa1
    return kappa1, omega1


def line_policy(p: BankParams) -> bank_full.FullSolution:
    """The fully observed policy of the invariant line, under (kappa1, omega1)."""
    return bank_full.solve_barriers(p, *degenerate_boundary_params(p))


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
    line_index: int           # slice index of the invariant line
    line_sup_error: float     # sup rel. error of numeric line slice vs closed form
    full_line: bank_full.FullSolution  # the line's policy; its kappa, omega are kappa1, omega1
    iterations: int
    residual: float           # final relative change of the refinement sweeps

    def value(self, x, s):
        """Bilinear interpolation of the surface (clipped to the domain)."""
        return bilinear(self.xs, self.ss, self.V, x, s)


def default_grid(p: BankParams, n_x: int = 401, n_s: int = 81) -> BankGrid:
    """Default (X_hat, S) discretization: S in [s_inf/20, S_bar]."""
    s_inf = p.s_infinity
    if s_inf <= 0.0:
        raise ValidationError("partially observed solver requires noise_m > 0")
    x_lo = float(min(liquidation_barrier(np.asarray([p.S_bar, s_inf]), p).min(), p.kappa_min))
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
    (or at s = 0): at node i it is the max of W = V - x over the nodes j with
    x_i <= x_j <= x_i + sbar.  Beyond the last node V continues with slope
    one, which adds nothing.  Each window is covered by two power-of-two
    blocks of a sparse table, whose maxima are exact.
    """
    W = V - xs
    n = W.size
    start = np.arange(n)
    end = np.searchsorted(xs, xs + sbar, side="right")  # one past each window
    # row L of the table: the max of W over [i, min(i + 2**L, n) - 1]
    table = [W]
    while 2 ** len(table) <= n:
        prev, half = table[-1], 2 ** (len(table) - 1)
        row = prev.copy()
        np.maximum(prev[:-half], prev[half:], out=row[:-half])
        table.append(row)
    level = np.frexp(end - start)[1] - 1  # floor(log2) of each window's length
    flat = np.concatenate(table)
    at = level * n
    best = np.maximum(flat.take(at + start), flat.take(at + end - np.left_shift(1, level)))
    return best + xs - cost_K


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) x = b with LAPACK gtsv; b is overwritten."""
    x, info = dgtsv(dl, d, du, b, overwrite_b=1)[3:]
    if info:
        raise np.linalg.LinAlgError("singular slice system")
    return x


@dataclass
class _SliceSystems:
    """Tridiagonal slice systems, one per variance, in LAPACK ``gtsv`` layout.

    Row k of ``dl``/``d``/``du`` is the matrix of the slice at the k-th
    variance.  The right-hand side is the caller's interior vector with the
    Dirichlet rows, the cut cell and the far field filled in by :meth:`rhs`.
    """

    dl: np.ndarray       # (k, n-1) sub-diagonal
    d: np.ndarray        # (k, n) diagonal
    du: np.ndarray       # (k, n-1) super-diagonal
    i0: np.ndarray       # first node above the barrier
    snap: np.ndarray     # barrier essentially on node i0: Dirichlet there
    v_b: np.ndarray      # liquidation payoff omega*psi(I(S), S)
    cut_b: np.ndarray    # cut-cell right-hand side from the barrier value
    cut_d: np.ndarray    # ... and from the upwinded drift (0 when drift >= 0)
    far: float           # far-field V_X = 1 right-hand side

    def rhs(self, k, r):
        """Right-hand side of system k with interior values ``r`` (filled in place)."""
        i0 = self.i0[k]
        r[:i0] = self.v_b[k]
        r[i0] = self.v_b[k] if self.snap[k] else r[i0] + self.cut_b[k] + self.cut_d[k]
        r[-1] = self.far
        return r

    def solve(self, k, r):
        """Solution of system k with interior right-hand side ``r`` (overwritten)."""
        return _gtsv(self.dl[k], self.d[k], self.du[k], self.rhs(k, r))


class _SliceProblem:
    """Shared coefficients of the per-slice obstacle problems on the X grid.

    The S-independent parts of the operator (difference weights, (1+X)^2 and
    the upwinded drift) are computed once here.
    """

    def __init__(self, p: BankParams, xs: np.ndarray):
        self.p = p
        self.xs = xs
        self.dm = p.delta - p.mu
        self.am = p.alpha - p.mu
        self.d2 = _diff_ops(xs)
        self.xsq = (1.0 + xs[1:-1]) ** 2
        # the cut cell squares a single node, which rounds through libm pow
        self.xsq_cut = np.array([(1.0 + x) ** 2 for x in xs.tolist()])
        # first-order term upwinded by the sign of the drift
        h_m = np.diff(xs)[:-1]
        h_p = np.diff(xs)[1:]
        drift = self.am * (1.0 + xs[1:-1])
        self.up = drift >= 0.0
        self.drift_up = drift[self.up] / h_p[self.up]
        self.drift_dn = -drift[~self.up] / h_m[~self.up]

    def banded_system(self, s, cut_vol2, extra_diag) -> _SliceSystems:
        """Systems of -(L - extra_diag) V = rhs on the slices at variances ``s``.

        Rows below the barrier I(S) are Dirichlet at the liquidation payoff;
        the first node above it takes the Shortley-Weller one-sided stencil
        (Dirichlet when the barrier sits essentially on the node); the last
        row imposes V_X = 1.  ``cut_vol2`` is the squared volatility of each
        cut cell; the interior rows square each gain as a Python float.
        """
        xs = self.xs
        n = xs.size
        k = s.size
        x_b = liquidation_barrier(s, self.p)
        v_b = self.p.omega * psi(x_b, s)
        i0 = np.searchsorted(xs, x_b, side="right")
        if np.any(i0 >= n - 2):
            raise ValidationError("liquidation barrier outside the X grid")

        vol2 = np.array([g ** 2 for g in filter_gain(s, self.p).tolist()])
        diffc = 0.5 * vol2[:, None] * self.xsq
        d2_l, d2_c, d2_r = self.d2
        sub = -diffc * d2_l
        dia = -diffc * d2_c + self.dm + extra_diag
        sup = -diffc * d2_r
        up = self.up
        sup[:, up] -= self.drift_up
        dia[:, up] += self.drift_up
        dia[:, ~up] += self.drift_dn
        sub[:, ~up] -= self.drift_dn
        live = np.arange(1, n - 1) > i0[:, None]
        d = np.ones((k, n))
        dl = np.zeros((k, n - 1))
        du = np.zeros((k, n - 1))
        d[:, 1:-1] = np.where(live, dia, 1.0)
        dl[:, :-1] = np.where(live, sub, 0.0)
        du[:, 1:] = np.where(live, sup, 0.0)
        dl[:, -1] = -1.0  # far field: V_X = 1

        # Shortley-Weller one-sided stencil at the cut cell i0
        h_sw = xs[i0] - x_b
        hp = xs[i0 + 1] - xs[i0]
        snap = h_sw < 0.05 * hp
        diffc_b = 0.5 * cut_vol2 * self.xsq_cut[i0]
        drift_b = self.am * (1.0 + xs[i0])
        c_b = 2.0 * diffc_b / (h_sw * (h_sw + hp))
        c_r = 2.0 * diffc_b / (hp * (h_sw + hp))
        dia_b = c_b + c_r + self.dm + extra_diag
        up_b = drift_b >= 0.0
        dia_b = np.where(up_b, dia_b + drift_b / hp, dia_b + -drift_b / h_sw)
        sup_b = np.where(up_b, -c_r - drift_b / hp, -c_r)
        rows = np.arange(k)
        d[rows, i0] = np.where(snap, 1.0, dia_b)
        du[rows, i0] = np.where(snap, 0.0, sup_b)
        return _SliceSystems(dl=dl, d=d, du=du, i0=i0, snap=snap, v_b=v_b,
                             cut_b=c_b * v_b,
                             cut_d=np.where(up_b, 0.0, -drift_b / h_sw * v_b),
                             far=xs[-1] - xs[-2])


def _solve_slice(sp: _SliceProblem, S, extra_diag, rhs_extra, p_op: np.ndarray,
                 rho_pen: float, active=None, max_iter: int = 60):
    """Active-set policy iteration for one penalized slice problem.

    Solves  max{ L V - extra_diag V + rhs_extra, 1 - V_X, P - V } = 0 on the
    slice system of :meth:`_SliceProblem.banded_system`, with penalty rho_pen
    on the two constraints.  The iteration starts from the (dividend,
    recapitalization) sets ``active``, or from empty sets; the penalized
    problem has one solution, so a good start saves iterations.  Returns
    (V, regions, final active sets); raises :class:`NoConvergence` when
    ``max_iter`` solves reach no fixed point.
    """
    xs = sp.xs
    n = xs.size
    system = sp.banded_system(np.array([S]), np.array([filter_gain(S, sp.p) ** 2]), extra_diag)
    i0, snap = int(system.i0[0]), bool(system.snap[0])
    b0 = system.rhs(0, rhs_extra.copy())
    start = i0 + 1
    idx = np.arange(n)
    h_m_full = np.empty(n)
    h_m_full[1:] = np.diff(xs)
    h_m_full[0] = h_m_full[1]
    if active is None:
        active = np.zeros((2, n), dtype=bool)
    div_active, rec_active = active

    for it in range(max_iter):
        # penalties (implicit in V) on interior active nodes; the dividend
        # constraint discretizes V_X backward, which keeps the M-matrix
        dl = system.dl[0].copy()
        d = system.d[0].copy()
        b = b0.copy()
        sl = np.where(div_active & (idx > start) & (idx < n - 1))[0]
        d[sl] += rho_pen / h_m_full[sl]
        dl[sl - 1] -= rho_pen / h_m_full[sl]
        b[sl] += rho_pen
        act_r = rec_active & (idx >= start) & (idx < n - 1)
        d[act_r] += rho_pen
        b[act_r] += rho_pen * p_op[act_r]
        V = _gtsv(dl, d, system.du[0], b)

        slope_b = np.empty(n)
        slope_b[1:] = np.diff(V) / np.diff(xs)
        slope_b[0] = slope_b[1]
        # a node joins a set once its constraint is violated by more than
        # 1e-12 and leaves only when it is not violated at all: an active
        # node's penalty leaves a violation of order 1/rho_pen, which can sit
        # under the tolerance, and dropping it then flips it back next time
        new_d = (slope_b < 1.0 - 1e-12) | (div_active & (slope_b < 1.0))
        new_r = ((p_op - V) > 1e-12) | (rec_active & (p_op > V))
        new_r &= ~new_d  # dividend constraint wins where both fire
        if np.array_equal(new_d, div_active) and np.array_equal(new_r, rec_active):
            break
        flips = int(np.count_nonzero(new_d != div_active) + np.count_nonzero(new_r != rec_active))
        div_active, rec_active = new_d, new_r
    else:
        raise NoConvergence(f"slice policy iteration at S={S!r} found no fixed point in "
                            f"{max_iter} iterations; the last one changed {flips} "
                            f"active-set nodes", residual=flips)
    regions = np.full(n, 2, dtype=np.int8)
    regions[:i0] = 0
    regions[div_active & (idx > start)] = 3
    regions[rec_active & (idx >= start)] = 1
    if snap:
        regions[i0] = 0
    return V, regions, (div_active, rec_active)


def _impulse_slice(sp: _SliceProblem, S0: float, surface_lookup) -> np.ndarray:
    """P V on the whole X grid for a slice starting at variance S0.

    Backward parabolic solve over [0, Delta] along the deterministic S-path;
    ``surface_lookup(S)`` must return already-solved values of V at variance
    S on the X grid's nodes (plus closed-form boundary payoff below I(S)).
    Only the terminal condition depends on V; the path's systems are
    assembled in one pass.
    """
    p = sp.p
    xs = sp.xs
    n_t = _N_TIME
    dt = p.delay_Delta / n_t
    s_path = riccati_variance(p, S0, np.linspace(0.0, p.delay_Delta, n_t + 1))
    steps = s_path[:-1]
    path = sp.banded_system(steps, filter_gain(steps, p) ** 2, 1.0 / dt)
    # terminal condition: exact line search over issuance sizes
    v_term = surface_lookup(float(s_path[-1]))
    u = _shift_sup(xs, v_term, p.issue_cap_sbar, p.issue_cost_K)
    for k in range(n_t - 1, -1, -1):
        u = path.solve(k, u / dt)
    return u


def _line_data(p: BankParams, xs: np.ndarray):
    """(full_line, V on the invariant line at the nodes xs).

    On S = s_inf the model is the fully observed one under (kappa1, omega1):
    the row is the semi-explicit value function, omega1*kappa1 at and below
    the barrier kappa1.  It is the solver's Dirichlet data.
    """
    full_line = line_policy(p)
    kappa1 = full_line.kappa
    line_vals = np.asarray(bank_full.value_function(np.maximum(xs, kappa1), full_line))
    line_vals[xs <= kappa1] = full_line.omega * kappa1
    return full_line, line_vals


def penalty_solve(p: BankParams, grid: BankGrid | None = None) -> PartialSolution:
    """Solve the variational inequality on both sub-domains.

    Marches away from the invariant line (Dirichlet data from the
    semi-explicit fully observed solution under (kappa1, omega1)); also
    solves the invariant-line slice numerically as a self-consistency
    diagnostic (``line_sup_error``).
    """
    if grid is None:
        grid = default_grid(p)
    sp = _SliceProblem(p, _x_grid(grid))
    xs = sp.xs
    ss, line_idx = _s_grid(p, grid)
    n_s, n_x = ss.size, xs.size
    full_line, line_vals = _line_data(p, xs)

    V = np.zeros((n_s, n_x))
    regions = np.zeros((n_s, n_x), dtype=np.int8)
    solved = np.zeros(n_s, dtype=bool)

    # invariant line: closed-form Dirichlet data
    V[line_idx] = line_vals
    regions[line_idx, xs <= full_line.kappa] = 0
    regions[line_idx, (xs > full_line.kappa) & (xs <= full_line.u1)] = 1
    regions[line_idx, (xs > full_line.u1) & (xs < full_line.u2)] = 2
    regions[line_idx, xs >= full_line.u2] = 3
    solved[line_idx] = True

    def row_at(S):
        # the row of V at variance S, interpolated in S across solved slices;
        # while marching, the short initial path segment inside the
        # yet-unsolved slice clamps to the nearest solved neighbor (O(dS)
        # startup error, removed by the refinement sweeps)
        i, w = cell(ss, S)
        if solved[i] and solved[i + 1]:
            return lerp(V.T, i, w)
        cand = np.where(solved)[0]
        return V[cand[np.argmin(np.abs(ss[cand] - S))]].copy()

    total_iters = 0
    residual = 0.0
    # only the final penalty is solved; policy iteration starts from the
    # slice's last (dividend, recapitalization) sets, or on a first visit from
    # those of its neighbor toward the line, which saves iterations but does
    # not move the fixed point it reaches
    rho_pen = grid.penalty_schedule[-1]
    sets = np.zeros((n_s, 2, n_x), dtype=bool)

    # numeric solve of the invariant-line slice (diagnostic; frozen-P sweeps)
    s_line = float(ss[line_idx])
    x_b = float(liquidation_barrier(s_line, p))
    v_b = p.omega * psi(x_b, s_line)  # the liquidation payoff
    v_num = np.maximum(v_b + (xs - x_b), v_b)
    for sweep in range(_LINE_MAX_SWEEPS):
        # a path from s_inf stays there, so the line's own P reads this iterate
        p_line = _impulse_slice(sp, s_line, lambda S: v_num)
        v_new, _, sets[line_idx] = _solve_slice(sp, s_line, 0.0, np.zeros(n_x), p_line,
                                                rho_pen, active=sets[line_idx])
        change = float(np.max(np.abs(v_new - v_num) / (1.0 + np.abs(v_num))))
        v_num = v_new
        total_iters += 1
        if change < _LINE_TOL:
            break
    else:
        raise NoConvergence("invariant-line sweep did not converge", residual=change)
    denom = 1.0 + np.abs(xs)
    live = xs > full_line.kappa + 1e-9
    line_sup_error = float(np.max(np.abs(v_num - line_vals)[live] / denom[live]))

    # march the two sub-domains away from the line, then refine with the
    # nonlocal operator frozen at the previous full sweep
    order = list(range(line_idx - 1, -1, -1)) + list(range(line_idx + 1, n_s))
    for sweep in range(1 + _LINE_MAX_SWEEPS):
        change = 0.0
        for j in order:
            S = float(ss[j])
            toward = j + 1 if j < line_idx else j - 1
            dS = abs(ss[toward] - ss[j])
            b_drift = p.sigma**2 - filter_gain(S, p) ** 2
            adv = abs(b_drift) / dS
            p_slice = _impulse_slice(sp, S, row_at)
            v, reg, sets[j] = _solve_slice(sp, S, adv, adv * V[toward], p_slice, rho_pen,
                                           active=sets[j] if solved[j] else sets[toward])
            if sweep > 0:
                change = max(change, float(np.max(np.abs(v - V[j]) / (1.0 + np.abs(V[j])))))
            V[j] = v
            regions[j] = reg
            solved[j] = True
            total_iters += 1
        if sweep > 0:
            residual = change
            if change < _LINE_TOL * 10.0:
                break
    else:
        raise NoConvergence("surface refinement did not converge",
                            residual=residual)

    barrier_I = np.asarray(liquidation_barrier(ss, p))
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
        line_index=line_idx,
        line_sup_error=line_sup_error,
        full_line=full_line, iterations=total_iters, residual=residual,
    )


_SWEEP_FRACTIONS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)  # of s_inf, for the S-row
# "S" is the state variance; every other name is a BankParams field, except
# S_bar, which the perturbed records reset to their default
_ELASTICITY_PARAMETERS = ("S",) + tuple(
    f.name for f in fields(BankParams) if f.name != "S_bar")


def _closed_form_line(q: BankParams, grid: BankGrid | None):
    """(xs, full_line, line_vals) of ``q``'s invariant line on the X axis of
    ``grid`` (of q's default grid when None), with no PDE solve."""
    xs = _x_grid(default_grid(q) if grid is None else grid)
    return (xs, *_line_data(q, xs))


def _line_outputs(xs, full_line, line_vals, x_eval) -> dict:
    """{u1, u2, I, V} of an invariant line whose row of V on the nodes ``xs``
    is ``line_vals``: V at ``x_eval`` as ``PartialSolution.value`` reads it
    on the line, where the row below has weight 0."""
    v = read(xs, line_vals, x_eval)
    return {"u1": full_line.u1, "u2": full_line.u2, "I": full_line.kappa, "V": float(v)}


def _variance_elasticity(p: BankParams, baseline: PartialSolution) -> dict:
    """The S row, read off the solved surface over the S/s_inf sweep."""
    s_inf = p.s_infinity
    x_ref = baseline.full_line.u2
    out = {"u1": [], "u2": [], "I": [], "V": []}
    for frac in _SWEEP_FRACTIONS:
        S0 = frac * s_inf
        dS = 0.25 * s_inf
        for name, fn in (
            ("I", lambda s: float(liquidation_barrier(s, p))),
            ("u1", lambda s: float(read(baseline.ss, baseline.barrier_u1, s))),
            ("u2", lambda s: float(read(baseline.ss, baseline.barrier_u2, s))),
            ("V", lambda s: float(baseline.value(x_ref, s))),
        ):
            hi, lo, mid = fn(S0 + dS), fn(S0 - dS), fn(S0)
            denom = abs(mid) if name == "I" else mid
            if denom == 0.0 or not np.isfinite(hi - lo):
                out[name].append(np.nan)
            else:
                out[name].append((hi - lo) / (2.0 * dS) * S0 / denom)
    return {k: float(np.nanmean(v)) for k, v in out.items()}


def _line_elasticity(p: BankParams, name: str, rel_step: float, grid: BankGrid | None,
                     base: dict) -> dict:
    """The row of a BankParams field, from two perturbed closed-form lines."""
    value0 = getattr(p, name)
    step = rel_step * abs(value0) if value0 != 0.0 else rel_step
    hi_out, lo_out = (
        _line_outputs(*_closed_form_line(replace(p, **{name: v, "S_bar": None}), grid),
                      base["u2"])
        for v in (value0 + step, value0 - step))
    din = 2.0 * step / (abs(value0) if name == "rho" else value0) if value0 != 0.0 else 2.0 * step
    result = {}
    for out in ("u1", "u2", "I", "V"):
        dout = hi_out[out] - lo_out[out]
        denom = abs(base[out]) if out == "I" else base[out]
        result[out] = float((dout / denom) / din) if denom != 0.0 else np.nan
    return result


def elasticity(p: BankParams, names, rel_step: float = 0.01,
               grid: BankGrid | None = None,
               baseline: PartialSolution | None = None) -> dict:
    """Central-difference elasticities {name: {u1, u2, I, V}} at the long-run S.

    For parameters other than ``S`` the outputs are read on the invariant
    line, where S tracks its long-run level m*sigma*(1-rho) through the
    perturbation.  There the model is the fully observed one under
    (kappa1, omega1), whose semi-explicit solution gives u1, u2, I = kappa1
    and the line's row of V in closed form, so no PDE is solved: V is that
    row on the X axis of ``grid`` (of each perturbed record's default grid
    when None), interpolated as ``PartialSolution.value`` interpolates on
    the line, at the base dividend barrier.  The grid's S axis does not act
    on these rows.  The base outputs are computed once for all the rows:
    off the line of ``baseline`` when there is one, else in closed form on
    the line of ``grid``.
    For ``S`` the surface itself varies in S: the elasticity is read off
    ``baseline`` (solved on ``grid`` when None and ``S`` is listed),
    averaged over the documented sweep S/s_inf in {1, 1.5, ..., 4}, the
    comparative-statics range of the uncertainty panel, using quarter-s_inf
    central differences (barrier curves are grid-quantized, so tighter steps
    would alias).
    Denominators use |output| wherever the quantity may change sign (I and
    rho per the stated convention).  ``names`` is a list or tuple; it, every
    name in it and the step are checked before any solve.
    """
    if not isinstance(names, (list, tuple)):
        raise ValidationError(f"names must be a list or tuple of parameter names, "
                              f"not {type(names).__name__}")
    for name in names:
        if name not in _ELASTICITY_PARAMETERS:
            raise ValidationError(f"param_name={name!r} has no elasticity; "
                                  f"valid: {', '.join(_ELASTICITY_PARAMETERS)}")
    if not (finite_number(rel_step) and rel_step > 0.0):
        raise ValidationError(f"rel_step={rel_step!r} must be a finite number > 0")
    if "S" in names and baseline is None:
        baseline = penalty_solve(p, grid)
    base = None
    if any(name != "S" for name in names):
        xs, full_line, line_vals = (
            _closed_form_line(p, grid) if baseline is None else
            (baseline.xs, baseline.full_line, baseline.V[baseline.line_index]))
        base = _line_outputs(xs, full_line, line_vals, full_line.u2)
    return {name: _variance_elasticity(p, baseline) if name == "S"
            else _line_elasticity(p, name, rel_step, grid, base)
            for name in names}
