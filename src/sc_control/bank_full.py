"""Semi-explicit solution of the fully observed bank control problem.

State: equity-to-debt ratio X with dX = (alpha-mu)(1+X)dt + sigma(1+X)dW,
liquidation at X <= kappa paying omega*kappa, dividends reflect X down at a
barrier u2, and equity issuance (impulse, fixed cost K, execution delay
Delta) ordered at a barrier u1 topping the ratio up to u2 on completion.

The value function is assembled from
  f1(X; u2)  two-power solution of the interior ODE with smooth pasting
             (value 1 slope / 0 curvature) at u2,
  f2(X; u2)  affine continuation above u2,
  H(X; u2)   value of a pending issuance order: four normal-CDF terms from
             the reflection principle plus the discounted liquidation payoff
             omega*kappa * int_0^Delta e^{-(delta-mu)t} dp/dt dt,
with (u1, u2) solving the tangency system H = f1, H_X = f1_X.  H's terms
live in ``_H_terms``, for ``_H`` and the gap grid alike; each sums the
terms weighted by A(u2) in its own order, since the polish of u1, where
f1 - H is flat, reads the roundoff (``_H`` summed the grid's way moves the
Table-B u1 by about 1e-9).

Numerics: Phi and its inverse are the double-precision Cephes routines
(scipy.special.ndtr/ndtri, |error| < 1e-15 / < 1e-9).  The H integral uses
adaptive Gauss-Kronrod (quad_vec) in the substituted variable t = e^u, which
resolves the integrand's t->0 spike near the liquidation barrier.  One
density formula serves both of quad_vec's paths.  One live X integrates a
Python float, so quad_vec takes its scalar path (errors measured with abs,
sums in Python floats, no array per node); several live X integrate one
array, whose temporaries the formula reuses in place.  Both give the same
bits.  Python and numpy share IEEE +, -, *, / and sqrt, and the exponent
squares as e*e, so only t^1.5 and the two exponentials can round apart:
they stay numpy ufunc calls (np.power, np.exp) on the float path too.  On
an AVX-512 host a Python or numpy scalar's t**1.5 goes to libm's pow and
differs from the ufunc on 5,321 of 100,000 log-uniform t in [1e-12, 0.5],
and math.exp differs from np.exp on 2,349 of 50,000 uniform exponents in
[-700, 0].  For one element, abs(x) equals norm(x) = sqrt(x*x) except at
underflow, far below the tolerance.  The barrier search bisects u2 to a
bracket under 1e-11 over the sign of the tangency residual min_X [f1 - H],
taken on a 2401-node X grid with a parabolic vertex through the grid
argmin; this mirrors the intermediate-value existence argument.  One
bounded minimization of the quadrature-backed f1 - H (xatol 1e-11) then
polishes the tangency point.  H_X is evaluated by central differences
(h = 1e-6) of the smooth closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NoBracket, NoConvergence, NoSolution, QuadratureFailure, ValidationError
from .params import BankParams

_DIFF_H = 1e-6  # central-difference step for H_X
_GAP_NODES = 2401  # X nodes of the tangency-gap grid
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# scipy.integrate and scipy.optimize (which bring scipy.linalg and
# scipy.sparse.linalg) load on the first barrier solve, not with the package:
# they were two fifths of its import.  A barrier search makes a few dozen of
# these calls, so the import statement's half microsecond per call does not
# show.
def quad_vec(*args, **kwargs):
    """``scipy.integrate.quad_vec``, imported on the first call."""
    from scipy.integrate import quad_vec
    return quad_vec(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    """``scipy.optimize.minimize_scalar``, imported on the first call."""
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)


@dataclass(frozen=True)
class FullSolution:
    """Barriers and piecewise value function of the fully observed model."""

    params: BankParams
    kappa: float
    omega: float
    lambda_minus: float
    lambda_plus: float
    u0: float
    u1: float | None
    u2: float
    conditions_report: dict
    has_recapitalization: bool

    def value(self, X):
        return value_function(X, self)

    def actions(self, X):
        """Feedback policy at each ratio X: "liquidate" below kappa, else
        "order_equity" at or below u1, "pay_dividend" at or above u2, and
        "wait" between them (and at NaN)."""
        X = np.asarray(X, dtype=float)
        u1 = self.u1 if self.has_recapitalization else -np.inf
        out = np.select([X < self.kappa, X <= u1, X >= self.u2],
                        ["liquidate", "order_equity", "pay_dividend"], "wait")
        return out if out.ndim else str(out)


class _Ctx:
    """Coefficients shared by all fully-observed formulas.

    kappa/omega may override the params' values: the partially observed
    model re-uses this machinery on its invariant line with (kappa1, omega1).
    """

    def __init__(self, p: BankParams, kappa: float | None = None, omega: float | None = None):
        self.p = p
        self.kappa = p.kappa_min if kappa is None else kappa
        self.omega = p.omega if omega is None else omega
        self.alpha, self.mu, self.delta = p.alpha, p.mu, p.delta
        self.sigma, self.Delta, self.K = p.sigma, p.delay_Delta, p.issue_cost_K
        self.s2 = p.sigma**2
        self.mum = self.alpha - self.mu - 0.5 * self.s2
        self.mup = self.alpha - self.mu + 0.5 * self.s2
        self.roots = self.lam_m, self.lam_p = lambda_roots(p)
        self.disc_m = math.exp(-(self.delta - self.mu) * self.Delta)


def lambda_roots(p: BankParams):
    """Characteristic roots of the interior ODE; lambda- < 0 < 1 < lambda+."""
    s2 = p.sigma**2
    b = p.alpha - p.mu - 0.5 * s2
    disc = math.sqrt(b * b + 2.0 * s2 * (p.delta - p.mu))
    return (-b - disc) / s2, (-b + disc) / s2


def candidate_value_f1(X, u2: float, roots) -> np.ndarray | float:
    """Two-power interior candidate with slope 1, curvature 0 at u2."""
    lam_m, lam_p = roots
    X = np.asarray(X, dtype=float)
    out = (lam_p - 1.0) * (1.0 + X) ** lam_m / (lam_m * (lam_p - lam_m) * (1.0 + u2) ** (lam_m - 1.0)) \
        - (lam_m - 1.0) * (1.0 + X) ** lam_p / (lam_p * (lam_p - lam_m) * (1.0 + u2) ** (lam_p - 1.0))
    return out if out.ndim else float(out)


def candidate_value_f1_dX(X, u2: float, roots):
    lam_m, lam_p = roots
    X = np.asarray(X, dtype=float)
    out = (lam_p - 1.0) * (1.0 + X) ** (lam_m - 1.0) / ((lam_p - lam_m) * (1.0 + u2) ** (lam_m - 1.0)) \
        - (lam_m - 1.0) * (1.0 + X) ** (lam_p - 1.0) / ((lam_p - lam_m) * (1.0 + u2) ** (lam_p - 1.0))
    return out if out.ndim else float(out)


def candidate_value_f2(X, u2: float, roots):
    """Affine continuation: f2(X; u2) = f1(u2; u2) + (X - u2)."""
    X = np.asarray(X, dtype=float)
    out = candidate_value_f1(u2, u2, roots) + (X - u2)
    return out if np.ndim(X) else float(out)


def hitting_cdf_dX(ctx: _Ctx, X, t: float):
    """Analytic d/dX of the first-passage CDF P[tau <= t | X_0 = X] of X to
    kappa, 1 - Phi((d + mu_- t)/(sigma sqrt t)) + e^{-2 mu_- d/sigma^2}
    Phi((-d + mu_- t)/(sigma sqrt t)) with d = ln((1+X)/(1+kappa)) (reflection
    principle)."""
    X = np.asarray(X, dtype=float)
    d = np.log((1.0 + X) / (1.0 + ctx.kappa))
    sq = ctx.sigma * math.sqrt(t)
    phi1 = np.exp(-0.5 * ((d + ctx.mum * t) / sq) ** 2) / math.sqrt(2.0 * math.pi)
    phi2 = np.exp(-0.5 * ((-d + ctx.mum * t) / sq) ** 2) / math.sqrt(2.0 * math.pi)
    expf = np.exp(-2.0 * ctx.mum * d / ctx.s2)
    dp_dd = -phi1 / sq - 2.0 * ctx.mum / ctx.s2 * expf * ndtr((-d + ctx.mum * t) / sq) \
        - expf * phi2 / sq
    out = dp_dd / (1.0 + X)
    return out if out.ndim else float(out)


def _hitting_density(ctx: _Ctx, d, t: float):
    """Analytic dp/dt: first-passage density of the log ratio at time t, at
    the log-distance d = ln((1+X)/(1+kappa)) from the barrier.

    d / (sigma sqrt(2 pi) t^1.5) * exp(-e^2 / (2 sigma^2 t)), e = d + mu_- t.
    A float d is computed on Python floats and returns a float; an array d
    returns a new array and is not written.  Both round as the array
    formula always has: t^1.5 and the exponential are numpy ufunc calls
    (see the module's Numerics), e^2 is the product e*e, and the sign of
    the exponent sits on its divisor, which IEEE division rounds alike.
    """
    scale = ctx.sigma * _SQRT_2PI * float(np.power(t, 1.5))
    e = d + ctx.mum * t
    e *= e
    e /= -2.0 * ctx.s2 * t
    if isinstance(e, float):
        return d / scale * float(np.exp(e))
    out = d / scale
    out *= np.exp(e, out=e)
    return out


def _hit_factor(ctx: _Ctx, X) -> np.ndarray:
    """E[e^{-(delta-mu) tau} 1{tau <= Delta}] by adaptive quadrature.

    Integrates e^{-(delta-mu)t} dp/dt over (0, Delta] in the substituted
    variable t = e^u; returns 1 where X is at the barrier (tau = 0).  The
    log-distance to the barrier is taken once, outside the integrand.  With
    one live X it is a float and the integrand returns a Python float, so
    quad_vec takes its scalar path and sums Python floats; several live X
    integrate one array, scaled in place.  The one-node result is bit for
    bit the one-element array integral (see the module's Numerics).
    """
    X = np.atleast_1d(np.asarray(X, dtype=float))
    lam = ctx.delta - ctx.mu
    out = np.empty_like(X)
    d = np.log((1.0 + X) / (1.0 + ctx.kappa))
    at_barrier = d < 1e-14
    out[at_barrier] = 1.0
    live = ~at_barrier
    if np.any(live):
        d_live = d[live]
        if d_live.size == 1:
            d_live = float(d_live[0])

        def integrand(u):
            t = math.exp(u)
            f = _hitting_density(ctx, d_live, t)
            f *= float(np.exp(-lam * t))
            f *= t
            return f

        # below exp(u_lo) the density underflows for every live X
        d_min = float(np.min(d_live))
        t_lo = max(d_min**2 / (2.0 * ctx.s2 * 1400.0), 1e-300)
        val, err = quad_vec(integrand, math.log(t_lo), math.log(ctx.Delta),
                            epsabs=1e-10, epsrel=1e-10, limit=200)
        if err > 1e-7:
            raise QuadratureFailure(f"hit integral error estimate {err:.2e}")
        out[live] = val
    return out


def _H_terms(ctx: _Ctx, X: np.ndarray):
    """(base0, n_up, e_dn, n_dn, hit) of H at X >= kappa: H = base0 + A(u2)
    disc_m (n_up - e_dn n_dn) + hit, the A terms summed by each caller."""
    d = np.log(np.maximum((1.0 + X) / (1.0 + ctx.kappa), 1.0))
    sq = ctx.sigma * math.sqrt(ctx.Delta)
    disc_a = math.exp(-(ctx.delta - ctx.alpha) * ctx.Delta)
    base0 = disc_a * (1.0 + X) * ndtr((d + ctx.mup * ctx.Delta) / sq) \
        - (1.0 + ctx.kappa) * disc_a \
        * ((1.0 + X) / (1.0 + ctx.kappa)) ** (-2.0 * (ctx.alpha - ctx.mu) / ctx.s2) \
        * ndtr((-d + ctx.mup * ctx.Delta) / sq)
    return (base0, ndtr((d + ctx.mum * ctx.Delta) / sq), np.exp(-2.0 * ctx.mum * d / ctx.s2),
            ndtr((-d + ctx.mum * ctx.Delta) / sq), ctx.omega * ctx.kappa * _hit_factor(ctx, X))


def _H(ctx: _Ctx, X, u2: float):
    if not ctx.Delta > 0.0:
        # the value of a delayed issuance integrates over (0, Delta]
        raise ValidationError(f"delay_Delta={ctx.Delta!r} must be > 0 for an issuance "
                              f"with execution delay")
    X = np.asarray(X, dtype=float)
    scalar = X.ndim == 0
    X = np.atleast_1d(X)
    if np.any(X < ctx.kappa - 1e-15):
        raise ValidationError("X must be >= kappa")
    base0, n_up, e_dn, n_dn, hit = _H_terms(ctx, X)
    A = candidate_value_f1(u2, u2, ctx.roots) - u2 - ctx.K - 1.0
    out = base0 + A * ctx.disc_m * n_up - A * ctx.disc_m * e_dn * n_dn + hit
    return float(out[0]) if scalar else out


def _H_dX(ctx: _Ctx, X, u2: float):
    h = _DIFF_H
    X = np.asarray(X, dtype=float)
    lo = np.maximum(X - h, ctx.kappa)
    return (_H(ctx, X + h, u2) - _H(ctx, lo, u2)) / (X + h - lo)


def solve_u0(ctx: _Ctx) -> float:
    """Dividend-only barrier: unique root of f1(kappa; theta) = omega*kappa.

    f1(kappa; .) is strictly decreasing, so a bracket exists exactly when
    omega*kappa < (alpha-mu)/(delta-mu)*(1+kappa).
    """
    target = ctx.omega * ctx.kappa
    if target >= (ctx.alpha - ctx.mu) / (ctx.delta - ctx.mu) * (1.0 + ctx.kappa):
        raise NoBracket("omega*kappa >= f1(kappa; kappa): no dividend barrier")
    hi = ctx.kappa + 0.5
    for _ in range(60):
        if candidate_value_f1(ctx.kappa, hi, ctx.roots) < target:
            break
        hi *= 2.0
    else:
        raise NoBracket("could not bracket u0")
    from scipy.optimize import brentq  # loaded on first use, as quad_vec above
    return brentq(lambda th: candidate_value_f1(ctx.kappa, th, ctx.roots) - target,
                  ctx.kappa, hi, xtol=1e-12, rtol=1e-12)


def check_conditions(ctx: _Ctx, u0: float) -> dict:
    """Evaluate the five sufficient conditions for the tangency pair."""
    k, om, K = ctx.kappa, ctx.omega, ctx.K
    am, dm, da = ctx.alpha - ctx.mu, ctx.delta - ctx.mu, ctx.delta - ctx.alpha
    slope_H = float(_H_dX(ctx, np.array([k + _DIFF_H]), u0)[0])
    slope_f1 = float(candidate_value_f1_dX(k + _DIFF_H, u0, ctx.roots))
    dpdx = float(hitting_cdf_dX(ctx, k, ctx.Delta))
    lhs5 = da / dm * math.exp(am * ctx.Delta)
    rhs5 = (da / dm * math.exp(am * ctx.Delta) * (1.0 + k) - da / dm * (1.0 + u0) - K) * dpdx
    report = {
        "slope_at_kappa": slope_H > slope_f1,
        "drift_nonnegative": ctx.mum >= 0.0,
        "liquidation_value_bound": om * k < math.exp(-da * ctx.Delta) * am / dm * (1.0 + k),
        "u0_bound": u0 < am / da + dm / da * (k - om * k - K),
        "passage_slope_bound": lhs5 >= rhs5,
    }
    report["all_pass"] = all(report.values())
    return report


class _GapGrid:
    """Precomputed X-grid decomposition of the tangency gap f1 - H.

    Both f1 and H are affine in u2-dependent coefficients:
        f1(X; u2) = c_m(u2) (1+X)^lam- + c_p(u2) (1+X)^lam+
        H(X; u2)  = base0(X) + A(u2) base1(X) + hit(X)
    so one quadrature pass over the grid serves every u2 in the bisection.
    """

    def __init__(self, ctx: _Ctx, x_hi: float):
        self.ctx = ctx
        self.xs = np.linspace(ctx.kappa, x_hi, _GAP_NODES)
        self.g_m = (1.0 + self.xs) ** ctx.lam_m
        self.g_p = (1.0 + self.xs) ** ctx.lam_p
        self.base0, n_up, e_dn, n_dn, self.hit = _H_terms(ctx, self.xs)
        self.base1 = ctx.disc_m * (n_up - e_dn * n_dn)

    def _coeffs(self, u2: float):
        lam_m, lam_p = self.ctx.roots
        c_m = (lam_p - 1.0) / (lam_m * (lam_p - lam_m) * (1.0 + u2) ** (lam_m - 1.0))
        c_p = -(lam_m - 1.0) / (lam_p * (lam_p - lam_m) * (1.0 + u2) ** (lam_p - 1.0))
        A = candidate_value_f1(u2, u2, self.ctx.roots) - u2 - self.ctx.K - 1.0
        return c_m, c_p, A

    def gap(self, u2: float) -> np.ndarray:
        c_m, c_p, A = self._coeffs(u2)
        return c_m * self.g_m + c_p * self.g_p - (self.base0 + A * self.base1 + self.hit)

    def min_gap(self, u2: float):
        """(min over X in [kappa, u2] of f1 - H, argmin) with parabolic refine."""
        gap = self.gap(u2)
        n_in = int(np.searchsorted(self.xs, u2, side="right"))
        g = gap[:n_in]
        i = int(np.argmin(g))
        if 0 < i < n_in - 1:
            # quadratic vertex through the three bracketing grid points
            h = self.xs[1] - self.xs[0]
            denom = g[i - 1] - 2.0 * g[i] + g[i + 1]
            if denom > 0.0:
                shift = 0.5 * (g[i - 1] - g[i + 1]) / denom
                shift = min(max(shift, -1.0), 1.0)
                xv = self.xs[i] + shift * h
                gv = g[i] - 0.25 * (g[i - 1] - g[i + 1]) * shift
                return float(gv), float(xv)
        return float(g[i]), float(self.xs[i])


def solve_barriers(p: BankParams, kappa: float | None = None,
                   omega: float | None = None) -> FullSolution:
    """Solve the tangency system for (u1, u2) and assemble the solution.

    Bisection on u2 in (kappa, u0) over the sign of min_X [f1 - H] on the
    gap grid, whose argmin (parabolic vertex) gives the tangency point u1;
    one bounded minimization against the quadrature-backed H polishes u1.
    Raises :class:`NoSolution` when the residual never changes sign (e.g.
    the issuance cost is so large that recapitalization is never optimal),
    and :class:`NoConvergence` when the polish reports no success (out of
    function evaluations), rather than return an unpolished u1.
    """
    ctx = _Ctx(p, kappa=kappa, omega=omega)
    u0 = solve_u0(ctx)
    # before the gap grid, whose zero-delay divide would pre-empt _H's error
    report = check_conditions(ctx, u0)
    grid = _GapGrid(ctx, u0)

    lo = ctx.kappa + 1e-4 * (u0 - ctx.kappa)
    hi = u0
    g_lo, _ = grid.min_gap(lo)
    g_hi, _ = grid.min_gap(hi)
    if not (g_lo > 0.0 > g_hi):
        raise NoSolution(
            f"tangency residual does not change sign on (kappa, u0): "
            f"gap({lo:.4g})={g_lo:.3g}, gap(u0)={g_hi:.3g}"
        )
    a, b = lo, hi
    u1 = None
    for _ in range(100):
        mid = 0.5 * (a + b)
        g, xmin = grid.min_gap(mid)
        if g > 0.0:
            a = mid
        else:
            b = mid
            u1 = xmin
        if b - a < 1e-11:
            break
    u2 = 0.5 * (a + b)
    if u1 is None:
        raise NoSolution("bisection failed to locate the tangency")
    g, u1 = grid.min_gap(u2)
    # polish the tangency point against the quadrature-backed H
    h = grid.xs[1] - grid.xs[0]
    res = minimize_scalar(
        lambda X: float(candidate_value_f1(X, u2, ctx.roots) - _H(ctx, X, u2)),
        bounds=(max(u1 - h, ctx.kappa), min(u1 + h, u2)),
        method="bounded", options={"xatol": 1e-11},
    )
    if not res.success:
        raise NoConvergence(f"bounded polish of the tangency point u1 did not converge "
                            f"after {res.nfev} evaluations: {res.message}")
    u1 = float(res.x)
    if not (ctx.kappa < u1 < u2 < u0 + 1e-9):
        raise NoSolution(f"tangency ordering violated: {ctx.kappa} {u1} {u2} {u0}")

    return FullSolution(
        params=p, kappa=ctx.kappa, omega=ctx.omega,
        lambda_minus=ctx.lam_m, lambda_plus=ctx.lam_p,
        u0=u0, u1=u1, u2=u2, conditions_report=report,
        has_recapitalization=True,
    )


def solve_dividend_only(p: BankParams, kappa: float | None = None,
                        omega: float | None = None) -> FullSolution:
    """No-issuance solution: value f1(X; u0) below u0, affine above."""
    ctx = _Ctx(p, kappa=kappa, omega=omega)
    u0 = solve_u0(ctx)
    return FullSolution(
        params=p, kappa=ctx.kappa, omega=ctx.omega,
        lambda_minus=ctx.lam_m, lambda_plus=ctx.lam_p,
        u0=u0, u1=None, u2=u0,
        conditions_report=check_conditions(ctx, u0),
        has_recapitalization=False,
    )


def value_function(X, sol: FullSolution):
    """Piecewise H / f1 / f2 evaluation of the solved value function."""
    ctx = _Ctx(sol.params, kappa=sol.kappa, omega=sol.omega)
    X = np.asarray(X, dtype=float)
    scalar = X.ndim == 0
    X = np.atleast_1d(X)
    if np.any(X < sol.kappa - 1e-12):
        raise ValidationError("X must be >= kappa")
    out = np.empty_like(X)
    u1 = sol.u1 if sol.has_recapitalization else sol.kappa  # no H branch otherwise
    lo = X <= u1
    mid = (X > u1) & (X < sol.u2)
    hively = X >= sol.u2
    if np.any(lo):
        out[lo] = _H(ctx, X[lo], sol.u2)
    if np.any(mid):
        out[mid] = candidate_value_f1(X[mid], sol.u2, ctx.roots)
    if np.any(hively):
        out[hively] = candidate_value_f2(X[hively], sol.u2, ctx.roots)
    return float(out[0]) if scalar else out

