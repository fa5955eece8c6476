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
operator needs already solved; refinement sweeps then repeat the march with
the operator read off the previous sweep.  A slice's own system (fixed S
and V_S weight) is the same on every sweep: all of them, the line's
included, are one batch assembled once per solve.  The X drift
(alpha-mu)(1+X) is upwinded forward only: with alpha <= mu the line has no
dividend barrier (``NoBracket``), so no slice is solved with a drift that
points down.  Each sub-domain's first slice
warm-starts policy iteration from the closed-form line's sets.  The
invariant-line slice is also solved numerically, iterated with its own
operator frozen at the previous sweep (its issuance path assembled once),
as a diagnostic only: nothing reads it.  The two
sub-domains never read each other, so each converges on its own, and on
grids large enough to pay for a fork the one below runs, with the numeric
line, in a forked child (``parallel.fork``).  The side that converged first
then sweeps on to the other's count, until both stop on one sweep count, as
one joint sweep over both would.

The liquidation boundary is handled with a cut cell (Shortley-Weller
one-sided stencil) so the barrier position enters exactly, not rounded to
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import ndtr, ndtri

from . import bank_full, parallel
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


@dataclass
class _SliceSystems:
    """Tridiagonal slice systems, one per variance, in LAPACK ``gtsv`` layout.

    Row k of ``dl``/``d``/``du`` is the matrix of the slice at the variance
    ``s[k]``.  The right-hand side is the caller's interior vector with the
    Dirichlet rows, the cut cell and the far field filled in by :meth:`rhs`,
    from each row's scalars, which are kept as Python numbers as well: an
    issuance path fills 64 right-hand sides in turn.
    """

    s: np.ndarray        # (k,) variances
    dl: np.ndarray       # (k, n-1) sub-diagonal
    d: np.ndarray        # (k, n) diagonal
    du: np.ndarray       # (k, n-1) super-diagonal
    i0: np.ndarray       # first node above the barrier
    snap: np.ndarray     # barrier essentially on node i0: Dirichlet there
    v_b: np.ndarray      # liquidation payoff omega*psi(I(S), S)
    cut_b: np.ndarray    # cut-cell right-hand side from the barrier value
    far: float           # far-field V_X = 1 right-hand side

    def __post_init__(self):
        self._rows = list(zip(*(a.tolist() for a in (self.i0, self.snap, self.v_b, self.cut_b))))

    def rhs(self, k, r):
        """Right-hand side of system k with interior values ``r`` (filled in place)."""
        i0, snap, v_b, cut_b = self._rows[k]
        r[:i0] = v_b
        r[i0] = v_b if snap else r[i0] + cut_b
        r[-1] = self.far
        return r


class _SliceProblem:
    """Shared coefficients of the per-slice obstacle problems on the X grid.

    The S-independent parts of the operator are computed once here: the
    negated second-difference weights, (1+X)^2 and the forward-difference
    weight ``dup`` of the drift (alpha - mu)(1+X), which points up at every
    node above I(S) > -1.  alpha <= mu is refused: the invariant line then
    has no dividend barrier (:func:`line_policy` raises ``NoBracket``).  It
    also keeps LAPACK's tridiagonal solver (:meth:`gtsv`).
    """

    def __init__(self, p: BankParams, xs: np.ndarray):
        self.p = p
        self.xs = xs
        self.dm = p.delta - p.mu
        self.am = p.alpha - p.mu
        if not self.am > 0.0:
            raise ValidationError(f"alpha - mu = {self.am!r} must be > 0: the slices "
                                  f"upwind an upward drift")
        dx = np.diff(xs)
        h_m, h_p = dx[:-1], dx[1:]
        self.neg_d2 = (-2.0 / (h_m * (h_m + h_p)), 2.0 / (h_m * h_p),
                       -2.0 / (h_p * (h_m + h_p)))
        self.xsq = (1.0 + xs) ** 2
        self.dup = self.am * (1.0 + xs[1:-1]) / h_p
        # each node's backward step, the first node's repeating the second's
        self.h_back = np.concatenate((dx[:1], dx))
        # scipy.linalg loads with the first solve, not with the package; the
        # routine is bound here, once, since an import statement in gtsv would
        # cost about a microsecond on each of its ~18k calls in a 401x81 solve
        from scipy.linalg.lapack import dgtsv
        self._dgtsv = dgtsv

    def gtsv(self, dl, d, du, b):
        """Solve the tridiagonal system (dl, d, du) x = b with LAPACK gtsv; b is overwritten."""
        # overwrite flags (dl, d, du, b) passed by position: keywords add about
        # 0.3 us to the f2py wrapper's 1 us per call.  The rest is LAPACK's
        # serial elimination, 8 us at 401 unknowns, so march steps, not calls,
        # are what a faster solve would cut
        x, info = self._dgtsv(dl, d, du, b, 0, 0, 0, 1)[3:]
        if info:
            raise np.linalg.LinAlgError("singular slice system")
        return x

    def banded_system(self, s, extra_diag) -> _SliceSystems:
        """Systems of -(L - extra_diag) V = rhs on the slices at variances ``s``.

        ``extra_diag`` is one weight for every row or an array of one per
        row.  Rows below the barrier I(S) are Dirichlet at the liquidation
        payoff; the first node above it takes the Shortley-Weller one-sided
        stencil (Dirichlet when the barrier sits essentially on the node);
        the last row imposes V_X = 1.  The gain of each variance is computed
        once and squared as a Python float, for the interior rows and the
        cut cell alike.

        The interior rows are written in place into the band arrays, only
        above the batch's lowest cut cell: every node at or below it is some
        slice's Dirichlet row or cut cell.  Then the Dirichlet prefixes, the
        nodes below each row's cut cell, are written with the identity row
        through one mask, and the cut cells with their stencil.  A row is
        bit for bit what a lone slice at its variance assembles.
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
        m = int(i0.min()) + 1  # the lowest interior row of the batch
        diffc = 0.5 * vol2[:, None] * self.xsq[m:-1]
        neg_l, neg_c, neg_r = (w[m - 1:] for w in self.neg_d2)
        d = np.empty((k, n))
        dl = np.empty((k, n - 1))
        du = np.empty((k, n - 1))
        # node j's diagonal is d[j], its sub- and super-diagonal dl[j-1], du[j]
        dia, sub, sup = d[:, m:-1], dl[:, m - 1:-1], du[:, m:]
        np.multiply(diffc, neg_l, out=sub)
        np.multiply(diffc, neg_c, out=dia)
        dia += self.dm
        dia += np.reshape(extra_diag, (-1, 1))
        dia += self.dup[m - 1:]
        np.multiply(diffc, neg_r, out=sup)
        sup -= self.dup[m - 1:]
        d[:, -1] = 1.0
        dl[:, -1] = -1.0  # far field: V_X = 1
        # the prefixes end below the batch's highest cut cell
        top = int(i0.max())
        prefix = np.arange(top) < i0[:, None]
        d[:, :top][prefix] = 1.0
        dl[:, :top][prefix] = 0.0
        du[:, :top][prefix] = 0.0

        # Shortley-Weller one-sided stencil at the cut cell i0
        h_sw = xs[i0] - x_b
        hp = xs[i0 + 1] - xs[i0]
        snap = h_sw < 0.05 * hp
        diffc_b = 0.5 * vol2 * self.xsq[i0]
        drift_b = self.am * (1.0 + xs[i0])
        c_b = 2.0 * diffc_b / (h_sw * (h_sw + hp))
        c_r = 2.0 * diffc_b / (hp * (h_sw + hp))
        rows = np.arange(k)
        d[rows, i0] = np.where(snap, 1.0, c_b + c_r + self.dm + extra_diag + drift_b / hp)
        du[rows, i0] = np.where(snap, 0.0, -c_r - drift_b / hp)
        return _SliceSystems(s=s, dl=dl, d=d, du=du, i0=i0, snap=snap, v_b=v_b,
                             cut_b=c_b * v_b, far=xs[-1] - xs[-2])


def _advection(p: BankParams, ss: np.ndarray, line_idx: int) -> np.ndarray:
    """Each slice's upwinded V_S weight |sigma^2 - gain^2| / dS, dS the step
    to its neighbor toward the invariant line; 0 on the line, which no
    neighbor feeds."""
    adv = np.zeros(ss.size)
    for j in range(ss.size):
        if j != line_idx:
            toward = j + 1 if j < line_idx else j - 1
            b_drift = p.sigma**2 - filter_gain(float(ss[j]), p) ** 2
            adv[j] = abs(b_drift) / abs(ss[toward] - ss[j])
    return adv


def _solve_slice(sp: _SliceProblem, systems: _SliceSystems, k: int, rhs_extra,
                 p_op: np.ndarray, rho_pen: float, active=None, max_iter: int = 60):
    """Active-set policy iteration for one penalized slice problem.

    Solves  max{ L V - extra_diag V + rhs_extra, 1 - V_X, P - V } = 0 on row
    ``k`` of ``systems`` (the slice at variance ``systems.s[k]``), with
    penalty rho_pen on the two constraints.  The iteration starts from the
    (dividend, recapitalization) sets ``active``, or from empty sets; the
    penalized problem has one solution, so a good start saves iterations.
    Returns (V, regions, final active sets); raises :class:`NoConvergence`
    when ``max_iter`` solves reach no fixed point.
    """
    xs = sp.xs
    n = xs.size
    i0, snap = int(systems.i0[k]), bool(systems.snap[k])
    b0 = systems.rhs(k, rhs_extra.copy())
    start = i0 + 1
    idx = np.arange(n)
    h_back = sp.h_back
    # the interior nodes each constraint can hold
    div_zone = (idx > start) & (idx < n - 1)
    rec_zone = (idx >= start) & (idx < n - 1)
    if active is None:
        active = np.zeros((2, n), dtype=bool)
    div_active, rec_active = active

    for it in range(max_iter):
        # penalties (implicit in V) on interior active nodes; the dividend
        # constraint discretizes V_X backward, which keeps the M-matrix
        dl = systems.dl[k].copy()
        d = systems.d[k].copy()
        b = b0.copy()
        sl = np.where(div_active & div_zone)[0]
        pen = rho_pen / h_back[sl]
        d[sl] += pen
        dl[sl - 1] -= pen
        b[sl] += rho_pen
        act_r = rec_active & rec_zone
        d[act_r] += rho_pen
        b[act_r] += rho_pen * p_op[act_r]
        V = sp.gtsv(dl, d, systems.du[k], b)

        slope_b = np.empty(n)
        slope_b[1:] = np.diff(V) / h_back[1:]
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
        raise NoConvergence(f"slice policy iteration at S={float(systems.s[k])!r} found no "
                            f"fixed point in {max_iter} iterations; the last one changed "
                            f"{flips} active-set nodes", residual=flips)
    regions = np.full(n, 2, dtype=np.int8)
    regions[:i0] = 0
    regions[div_active & (idx > start)] = 3
    regions[rec_active & (idx >= start)] = 1
    if snap:
        regions[i0] = 0
    return V, regions, (div_active, rec_active)


def _issuance_path(sp: _SliceProblem, S0: float):
    """(systems, S_Delta) of the delayed-issuance path from variance S0:
    the systems of its ``_N_TIME`` backward steps over [0, Delta] along the
    deterministic S-path, assembled in one pass, and the variance at its end."""
    p = sp.p
    dt = p.delay_Delta / _N_TIME
    s_path = riccati_variance(p, S0, np.linspace(0.0, p.delay_Delta, _N_TIME + 1))
    return sp.banded_system(s_path[:-1], 1.0 / dt), float(s_path[-1])


def _impulse(sp: _SliceProblem, path: _SliceSystems, v_term) -> np.ndarray:
    """P V on the whole X grid, marched back along the issuance ``path``
    from the row ``v_term`` of V at the path's end, the only input read
    off V."""
    p = sp.p
    dt = p.delay_Delta / _N_TIME
    # terminal condition: exact line search over issuance sizes
    u = _shift_sup(sp.xs, v_term, p.issue_cap_sbar, p.issue_cost_K)
    for k in range(_N_TIME - 1, -1, -1):
        u = sp.gtsv(path.dl[k], path.d[k], path.du[k], path.rhs(k, u / dt))
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


# grids of fewer nodes solve both sub-domains in one process: a fork and join
# cost about 10 ms, and on a 2-vCPU VM splitting saved nothing up to 61x15
# (976 nodes) and about 14% at 101x21 (2222 nodes)
_FORK_MIN_NODES = 1000


def _line_sweeps(sp: _SliceProblem, systems: _SliceSystems, k: int, line_vals,
                 rho_pen: float, kappa1: float):
    """(sweeps, line_sup_error) of the numeric invariant-line slice, row
    ``k`` of ``systems``.

    A diagnostic only: the slice is solved with its own frozen-P sweeps and
    compared with the closed-form row ``line_vals``; nothing else reads it.
    The line's issuance path is assembled once.
    """
    p, xs = sp.p, sp.xs
    s_line = float(systems.s[k])
    x_b = float(liquidation_barrier(s_line, p))
    v_b = p.omega * psi(x_b, s_line)  # the liquidation payoff
    v_num = np.maximum(v_b + (xs - x_b), v_b)
    active = None
    # a path from s_inf stays there, so the line's own P reads the iterate
    path, _ = _issuance_path(sp, s_line)
    for sweep in range(_LINE_MAX_SWEEPS):
        p_line = _impulse(sp, path, v_num)
        v_new, _, active = _solve_slice(sp, systems, k, np.zeros(xs.size), p_line,
                                        rho_pen, active=active)
        change = float(np.max(np.abs(v_new - v_num) / (1.0 + np.abs(v_num))))
        v_num = v_new
        if change < _LINE_TOL:
            break
    else:
        raise NoConvergence("invariant-line sweep did not converge", residual=change)
    live = xs > kappa1 + 1e-9
    denom = 1.0 + np.abs(xs)
    return sweep + 1, float(np.max(np.abs(v_num - line_vals)[live] / denom[live]))


@dataclass
class _Surface:
    """The (X_hat, S) surface as the march fills it in, slice by slice."""

    sp: _SliceProblem
    line_idx: int
    adv: np.ndarray           # (n_s,) each slice's V_S weight (:func:`_advection`)
    systems: _SliceSystems    # row j: slice j's own system, at variance systems.s[j]
    rho_pen: float
    V: np.ndarray             # (n_s, n_x)
    regions: np.ndarray       # (n_s, n_x) int8
    sets: np.ndarray          # (n_s, 2, n_x) each slice's last (dividend, recap.) sets
    solved: np.ndarray        # (n_s,) bool

    def row_at(self, side: slice, S):
        # the row of V at variance S, interpolated in S across the solved
        # slices of one side (the line included); while marching, the short
        # initial path segment inside the yet-unsolved slice clamps to the
        # nearest solved neighbor (O(dS) startup error, removed by the
        # refinement sweeps)
        ss, V, solved = self.systems.s[side], self.V[side], self.solved[side]
        i, w = cell(ss, S)
        if solved[i] and solved[i + 1]:
            return lerp(V.T, i, w)
        cand = np.where(solved)[0]
        return V[cand[np.argmin(np.abs(ss[cand] - S))]].copy()

    def sweep(self, order) -> float:
        """One pass over the slices ``order``, with the nonlocal operator read
        off the surface as it stands; returns the largest relative change of
        the pass (on the march, against the zero rows of unvisited slices:
        converge drops that value)."""
        sp, V, line = self.sp, self.V, self.line_idx
        change = 0.0
        for j in order:
            toward, side = (j + 1, slice(0, line + 1)) if j < line else (j - 1, slice(line, None))
            path, s_end = _issuance_path(sp, float(self.systems.s[j]))
            p_slice = _impulse(sp, path, self.row_at(side, s_end))
            v, reg, self.sets[j] = _solve_slice(
                sp, self.systems, j, self.adv[j] * V[toward], p_slice, self.rho_pen,
                active=self.sets[j] if self.solved[j] else self.sets[toward])
            change = max(change, float(np.max(np.abs(v - V[j]) / (1.0 + np.abs(V[j])))))
            V[j] = v
            self.regions[j] = reg
            self.solved[j] = True
        return change

    def refine(self, order, changes: list, at_least: int = 1) -> list:
        """Append to ``changes`` the largest change of each refinement sweep
        over ``order`` until it holds at least ``at_least`` and the last is
        under tolerance; raises NoConvergence at ``_LINE_MAX_SWEEPS``."""
        while len(changes) < at_least or changes[-1] >= _LINE_TOL * 10.0:
            if len(changes) == _LINE_MAX_SWEEPS:
                raise NoConvergence("surface refinement did not converge",
                                    residual=changes[-1])
            changes.append(self.sweep(order))
        return changes

    def converge(self, order) -> list:
        """The march over the slices ``order``, then refinement sweeps until
        one changes them by less than the tolerance; returns the sweeps'
        largest changes."""
        self.sweep(order)
        return self.refine(order, [])


def _line_and_below(surface: _Surface, below, line_vals, kappa1: float):
    """The numeric line slice and the converged sub-domain ``below`` the line:
    the sub-domain's rows of V, regions and sets, its sweeps' changes, the
    line's sweeps and ``line_sup_error``.  :func:`penalty_solve` runs it
    beside its own march above the line."""
    sweeps, line_sup_error = _line_sweeps(surface.sp, surface.systems, surface.line_idx,
                                          line_vals, surface.rho_pen, kappa1)
    changes = surface.converge(below)
    return (surface.V[below], surface.regions[below], surface.sets[below], changes,
            sweeps, line_sup_error)


def penalty_solve(p: BankParams, grid: BankGrid | None = None) -> PartialSolution:
    """Solve the variational inequality on both sub-domains.

    Marches away from the invariant line (Dirichlet data from the
    semi-explicit fully observed solution under (kappa1, omega1)) and
    refines with full sweeps.  Each sub-domain's first slice starts policy
    iteration from the closed-form line's (dividend, recapitalization)
    sets.  The invariant-line slice is also solved numerically, as a
    self-consistency diagnostic only (``line_sup_error``; its sweeps count
    in ``iterations``): nothing else reads it.

    Neither sub-domain reads the other, since the variance flows toward the
    line from both sides, so each is refined until its own sweep changes it
    by less than the tolerance.  Then the one that stopped first sweeps on
    until both stop on the same sweep count, the first at which both
    changes are under the tolerance: the stop of a sweep over both, so the
    sweeps, ``residual`` (the larger of the two last changes),
    ``iterations`` and every value are those of a joint sweep, bit for bit.
    On a grid of at least ``_FORK_MIN_NODES`` nodes the side below and the
    numeric line run in a child (:func:`parallel.fork`, which runs them in
    this process where :func:`parallel.free` is False) while this process
    solves the side above; a child's error is re-raised once this side has
    converged.  On smaller grids this process solves the side above, then
    the line and the side below.
    """
    if grid is None:
        grid = default_grid(p)
    xs = _x_grid(grid)
    ss, line_idx = _s_grid(p, grid)
    n_s, n_x = ss.size, xs.size
    # the line first: with alpha <= mu it has no dividend barrier (NoBracket)
    full_line, line_vals = _line_data(p, xs)
    sp = _SliceProblem(p, xs)
    # a slice's own system is the same on every sweep: all of them in one batch
    adv = _advection(p, ss, line_idx)
    systems = sp.banded_system(ss, adv)

    # invariant line: closed-form Dirichlet data
    V = np.zeros((n_s, n_x))
    regions = np.zeros((n_s, n_x), dtype=np.int8)
    V[line_idx] = line_vals
    regions[line_idx, xs <= full_line.kappa] = 0
    regions[line_idx, (xs > full_line.kappa) & (xs <= full_line.u1)] = 1
    regions[line_idx, (xs > full_line.u1) & (xs < full_line.u2)] = 2
    regions[line_idx, xs >= full_line.u2] = 3
    # only the final penalty is solved; policy iteration starts from the
    # slice's last (dividend, recapitalization) sets, or on a first visit from
    # those of its neighbor toward the line (on the line, its closed-form
    # sets), which saves iterations but does not move the fixed point it reaches
    sets = np.zeros((n_s, 2, n_x), dtype=bool)
    sets[line_idx] = regions[line_idx] == 3, regions[line_idx] == 1
    solved = np.zeros(n_s, dtype=bool)
    solved[line_idx] = True
    surface = _Surface(sp, line_idx, adv, systems, grid.penalty_schedule[-1], V, regions, sets,
                       solved)

    # march the two sub-domains away from the line and refine each with the
    # nonlocal operator frozen at its previous sweep; the side below, with the
    # numeric line, in a forked child on a grid large enough to pay for it
    below, above = list(range(line_idx - 1, -1, -1)), list(range(line_idx + 1, n_s))
    beside = parallel.fork if n_s * n_x >= _FORK_MIN_NODES else parallel.inline
    with beside(_line_and_below, surface, below, line_vals, full_line.kappa) as join:
        above_changes = surface.converge(above)
        V[below], regions[below], sets[below], below_changes, line_sweeps, line_sup_error = join()
    solved[below] = True
    # each side stopped on its own first converged sweep; both go on to the
    # first sweep count at which both have converged, that of a joint sweep
    sides = ((above, above_changes), (below, below_changes))
    while len(above_changes) != len(below_changes):
        longest = max(len(above_changes), len(below_changes))
        for order, changes in sides:
            surface.refine(order, changes, longest)
    residual = max(above_changes[-1], below_changes[-1])
    total_iters = line_sweeps + sum(len(order) * (1 + len(changes)) for order, changes in sides)

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


def _variance_elasticity(p: BankParams, sol: PartialSolution) -> dict:
    """The S row, read off the solved surface over the S/s_inf sweep."""
    s_inf = p.s_infinity
    x_ref = sol.full_line.u2
    out = {"u1": [], "u2": [], "I": [], "V": []}
    for frac in _SWEEP_FRACTIONS:
        S0 = frac * s_inf
        dS = 0.25 * s_inf
        for name, fn in (
            ("I", lambda s: float(liquidation_barrier(s, p))),
            ("u1", lambda s: float(read(sol.ss, sol.barrier_u1, s))),
            ("u2", lambda s: float(read(sol.ss, sol.barrier_u2, s))),
            ("V", lambda s: float(sol.value(x_ref, s))),
        ):
            hi, lo, mid = fn(S0 + dS), fn(S0 - dS), fn(S0)
            denom = abs(mid) if name == "I" else mid
            if denom == 0.0 or not np.isfinite(hi - lo):
                out[name].append(np.nan)
            else:
                out[name].append((hi - lo) / (2.0 * dS) * S0 / denom)
    return {k: float(np.nanmean(v)) for k, v in out.items()}


def _step(value0: float, rel_step: float) -> float:
    """The central-difference step of a parameter whose value is ``value0``."""
    return rel_step * abs(value0) if value0 != 0.0 else rel_step


def _perturbed_lines(p: BankParams, names, rel_step: float, grid: BankGrid | None) -> dict:
    """{name: (up, down)}: the closed-form lines (xs, full_line, line_vals)
    of ``p`` with the field ``name`` moved up and down by its step, one
    barrier search each."""
    lines = {}
    for name in names:
        value0 = getattr(p, name)
        step = _step(value0, rel_step)
        lines[name] = tuple(_closed_form_line(replace(p, **{name: v, "S_bar": None}), grid)
                            for v in (value0 + step, value0 - step))
    return lines


def _line_elasticity(p: BankParams, name: str, rel_step: float, lines, base: dict) -> dict:
    """The row of a BankParams field from its two perturbed ``lines``, read
    at the base dividend barrier and divided by the ``base`` outputs."""
    value0 = getattr(p, name)
    step = _step(value0, rel_step)
    hi_out, lo_out = (_line_outputs(*line, base["u2"]) for line in lines)
    din = 2.0 * step / (abs(value0) if name == "rho" else value0) if value0 != 0.0 else 2.0 * step
    result = {}
    for out in ("u1", "u2", "I", "V"):
        dout = hi_out[out] - lo_out[out]
        denom = abs(base[out]) if out == "I" else base[out]
        result[out] = float((dout / denom) / din) if denom != 0.0 else np.nan
    return result


def elasticity(p: BankParams, names, rel_step: float = 0.01,
               grid: BankGrid | None = None) -> dict:
    """Central-difference elasticities {name: {u1, u2, I, V}} at the long-run S.

    For parameters other than ``S`` the outputs are read on the invariant
    line, where S tracks its long-run level m*sigma*(1-rho) through the
    perturbation.  There the model is the fully observed one under
    (kappa1, omega1), whose semi-explicit solution gives u1, u2, I = kappa1
    and the line's row of V in closed form, so no PDE is solved: V is that
    row on the X axis of ``grid`` (of each perturbed record's default grid
    when None), interpolated as ``PartialSolution.value`` interpolates on
    the line, at the base dividend barrier.  The grid's S axis does not act
    on these rows.  Each row takes two barrier searches, on its perturbed
    lines; the base outputs are read once for all the rows, off the line
    of the ``S`` solve when ``S`` is listed, which is that closed-form line
    byte for byte, and otherwise off the closed-form line of ``grid``.
    For ``S`` the surface itself varies in S: the elasticity is read off
    ``penalty_solve(p, grid)``, averaged over the documented sweep S/s_inf
    in {1, 1.5, ..., 4}, the comparative-statics range of the uncertainty
    panel, using quarter-s_inf central differences (barrier curves are
    grid-quantized, so tighter steps would alias).
    When ``S`` and other names are listed, the perturbed lines are computed
    in a forked child (:func:`parallel.fork`) beside that solve, and the
    rows built from them here once it is done.  An error of the solve comes
    first, one of the perturbed lines once the ``S`` row is read.
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
    others = [name for name in names if name != "S"]
    # the perturbed lines never read the surface: they run in a child beside its solve
    beside = parallel.fork if "S" in names and others else parallel.inline
    rows = {}
    with beside(_perturbed_lines, p, others, rel_step, grid) as join_lines:
        if "S" in names:
            sol = penalty_solve(p, grid)
            rows["S"] = _variance_elasticity(p, sol)
            xs, line, line_vals = sol.xs, sol.full_line, sol.V[sol.line_index]
        elif others:
            xs, line, line_vals = _closed_form_line(p, grid)
        if others:
            base = _line_outputs(xs, line, line_vals, line.u2)
            lines = join_lines()
            rows |= {name: _line_elasticity(p, name, rel_step, lines[name], base)
                     for name in others}
    return {name: rows[name] for name in names}
