"""Penalty-method solver for the retirement portfolio-choice HJB.

After the homogeneity reduction V = K^{-gamma}/(1-gamma) (w + I/r)^{1-gamma}
e^{(1-gamma) u(xi, z)} with xi = (I/r)/(w + I/r), the variational inequality
max{L1 u, obstacle - u} = 0 is solved on [0,1] x [z_bar +- 8 sigma_z].  The
retirement obstacle in u-coordinates is ln B + ln(1 - xi): equating V with
the post-retirement value G(w) = B^{1-gamma} K^{-gamma} w^{1-gamma}/(1-gamma)
forces exactly this form (the leisure coefficient enters through B^{1-gamma}
for every EIS, so the same obstacle serves the recursive-utility variant).

Discretization: implicit pseudo-time marching with one sparse 2-D solve per
iteration.  Second derivatives are central, first-order terms upwind by the
sign of their coefficient, the cross term u_xi_z is central (implicit).  The
quadratic gradient terms (1-gamma) u_xi^2 etc. are linearized one factor at
the previous iterate and folded into the upwound first-order coefficients;
the income-jump expectation is frozen at the previous iterate and refreshed
every sweep.  The obstacle is enforced by an implicit penalty on the active
set with the schedule from the grid record.  Feedback controls come from the
first-order conditions each iteration, clamped to the short-sale and
borrowing constraints 0 <= y_bar <= 1 - xi; consumption at xi = 1 is capped
at the income rate r (in capitalized units).

The finite-horizon (mandatory retirement) variant reuses the same step with
real time from the terminal condition u(., T) = obstacle; the
recursive-utility variant swaps the consumption flow and first-order
condition for their EIS-psi forms (psi = 1/gamma reproduces the CRRA flow
identically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NoConvergence, OutsideWorkRegion, ValidationError
from .params import RetireGrid, RetireParams

_H_DENOM_FLOOR = 1e-10


@dataclass(frozen=True)
class IncomeJumpSpec:
    """Jump-size distribution: fixed recovery or power density nu*k^(nu-1)."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def fixed(cls, recovery: float) -> "IncomeJumpSpec":
        return cls(nodes=np.array([recovery]), weights=np.array([1.0]))

    @classmethod
    def power(cls, nu: float, n_quad: int = 32) -> "IncomeJumpSpec":
        # Gauss-Legendre on [0,1] against the density nu k^(nu-1)
        x, w = np.polynomial.legendre.leggauss(n_quad)
        k = 0.5 * (x + 1.0)
        w = 0.5 * w * nu * np.maximum(k, 1e-300) ** (nu - 1.0)
        return cls(nodes=k, weights=w / w.sum())

    def __post_init__(self):
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValidationError("jump weights must sum to 1")

    @classmethod
    def for_params(cls, p: RetireParams) -> "IncomeJumpSpec":
        if p.power_nu is not None:
            return cls.power(p.power_nu)
        return cls.fixed(p.recovery)


def merton_constants(p: RetireParams) -> dict:
    """Sharpe ratio, Merton consumption rate, post-retirement coefficient."""
    return {
        "theta": p.theta,
        "K_bar": p.K_bar,
        "G_coefficient": p.B ** (1.0 - p.gamma) * p.K_bar ** (-p.gamma) / (1.0 - p.gamma),
    }


def retirement_obstacle(xi, p: RetireParams):
    """Post-retirement value in u-coordinates: ln B + ln(1 - xi)."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(divide="ignore"):
        out = math.log(p.B) + np.log(1.0 - xi)
    return out if out.ndim else float(out)


@dataclass
class RetireSolution:
    """Solved u-surface with feedback controls and free boundaries."""

    params: RetireParams
    xi: np.ndarray                 # (n_xi,)
    z: np.ndarray                  # (n_z,)
    u: np.ndarray                  # (n_z, n_xi)
    y_star: np.ndarray             # (n_z, n_xi) stock share of total wealth w + I/r
    c_star: np.ndarray             # (n_z, n_xi) consumption per unit total wealth
    retired: np.ndarray            # (n_z, n_xi) bool
    xi_retire: np.ndarray          # (n_z,) retirement boundary in xi
    xi_participate: np.ndarray     # (n_z,) non-participation boundary in xi (nan if none)
    iterations: int
    residual: float
    mode: str = "crra"
    ages: np.ndarray | None = None          # finite-horizon: age grid
    xi_retire_by_age: np.ndarray | None = None

    def wealth_threshold(self, z_val: float = 0.0) -> float:
        """w*/I: retire when wealth-to-income exceeds this (z-slice)."""
        xi_star = float(np.interp(z_val, self.z, self.xi_retire))
        return wealth_to_income(xi_star, self.params.r)

    def participation_target(self, z_val: float = 0.0) -> float:
        """(w/I)_0: below this ratio the stock position is zero."""
        xi_np = float(np.interp(z_val, self.z, self.xi_participate))
        return wealth_to_income(xi_np, self.params.r)


def wealth_to_income(xi, r: float):
    xi = np.asarray(xi, dtype=float)
    out = (1.0 - xi) / (r * np.maximum(xi, 1e-300))
    return out if out.ndim else float(out)


def xi_of_wealth(w_over_i, r: float):
    w = np.asarray(w_over_i, dtype=float)
    out = 1.0 / (1.0 + r * w)
    return out if out.ndim else float(out)


class _Mode:
    """Consumption flow and FOC; the CRRA formulas are the psi = 1/gamma case."""

    def __init__(self, p: RetireParams, recursive: bool):
        self.p = p
        self.recursive = recursive
        if recursive:
            if p.eis_psi is None:
                raise ValidationError("recursive mode requires eis_psi")
            if abs(p.eis_psi - 1.0) < 1e-12:
                raise ValidationError("unit EIS (log aggregator) not supported")
            self.psi = p.eis_psi
            self.k_psi = p.k_bar_psi()

    def consumption(self, u, one_minus_xiu):
        p = self.p
        base = np.maximum(one_minus_xiu, 1e-12)
        if not self.recursive:
            return p.K_bar * np.exp((1.0 - 1.0 / p.gamma) * u) * base ** (-1.0 / p.gamma)
        return self.k_psi * np.exp((1.0 - self.psi) * u) * base ** (-self.psi)

    def flow_terms(self, u, c):
        """Consumption utility flow plus the pure-discount term.

        CRRA: K^gamma/(1-gamma) e^{-(1-gamma)u} c^{1-gamma} - beta/(1-gamma);
        recursive: (c^{1-1/psi} K_psi^{1/psi} e^{-(1-1/psi)u} - beta)/(1-1/psi)
        (the two coincide at psi = 1/gamma).
        """
        p = self.p
        if not self.recursive:
            return p.K_bar**p.gamma / (1.0 - p.gamma) * np.exp(-(1.0 - p.gamma) * u) \
                * c ** (1.0 - p.gamma) - p.beta / (1.0 - p.gamma)
        ipsi = 1.0 / self.psi
        return (c ** (1.0 - ipsi) * self.k_psi**ipsi * np.exp(-(1.0 - ipsi) * u)
                - p.beta) / (1.0 - ipsi)

    def foc_residual(self, u, c, one_minus_xiu):
        """Per-node consumption first-order-condition residual."""
        p = self.p
        base = np.maximum(one_minus_xiu, 1e-12)
        if not self.recursive:
            return p.K_bar**p.gamma * np.exp(-(1.0 - p.gamma) * u) * c ** (-p.gamma) - base
        ipsi = 1.0 / self.psi
        return self.k_psi**ipsi * np.exp(-(1.0 - ipsi) * u) * c ** (-ipsi) - base


class _RetireStepper:
    """Assembles and solves one implicit penalized pseudo-time step."""

    def __init__(self, p: RetireParams, grid: RetireGrid, mode: _Mode,
                 jump: IncomeJumpSpec):
        self.p = p
        self.mode = mode
        self.jump = jump
        self.xi = np.linspace(0.0, 1.0, grid.n_x)
        half = 8.0 * p.sigma_z
        self.z = np.linspace(p.z_bar - half, p.z_bar + half, grid.n_y)
        self.h = self.xi[1] - self.xi[0]
        self.hz = self.z[1] - self.z[0]
        # floor the obstacle half a cell short of xi = 1, where it is -inf
        raw = retirement_obstacle(self.xi, p)
        self.obstacle = np.maximum(raw, math.log(p.B) + math.log(0.25 * self.h))
        self.XI = np.broadcast_to(self.xi, (grid.n_y, grid.n_x))
        self.ZZ = np.broadcast_to(self.z[:, None], (grid.n_y, grid.n_x))
        # jump mapping: xi -> k*xi/(1+(k-1)xi), precomputed interp weights
        self._jump_maps = []
        for k in self.jump.nodes:
            denom = 1.0 + (k - 1.0) * self.xi
            xim = np.where(denom > 0.0, k * self.xi / np.maximum(denom, 1e-12), 1.0)
            idx = np.clip(np.searchsorted(self.xi, xim) - 1, 0, grid.n_x - 2)
            t = np.clip((xim - self.xi[idx]) / self.h, 0.0, 1.0)
            self._jump_maps.append((idx, t, denom))

    def derivatives(self, u):
        h, hz = self.h, self.hz
        u_xi = np.gradient(u, h, axis=1)
        u_z = np.gradient(u, hz, axis=0)
        u_xixi = np.empty_like(u)
        u_xixi[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / h**2
        u_xixi[:, 0] = u_xixi[:, 1]
        u_xixi[:, -1] = u_xixi[:, -2]
        u_xiz = np.gradient(u_xi, hz, axis=0)
        return u_xi, u_z, u_xixi, u_xiz

    def controls(self, u, u_xi, u_z, u_xixi, u_xiz):
        """Vectorized clamped first-order-condition controls."""
        p = self.p
        g, sig, sz = p.gamma, p.sigma_stock, p.sigma_z
        xi = self.XI
        Q = u_xixi + (1.0 - g) * u_xi**2
        R = u_xiz + (1.0 - g) * u_xi * u_z
        num = (p.mu_stock - p.r) - g * sig * (sig - sz) * xi \
            + (g * sig * (sig - sz) * (2.0 * xi - 1.0) + p.r - p.mu_stock) * xi * u_xi \
            - (1.0 - g) * sig * sz * u_z \
            + sig * sz * xi * R \
            - sig * (sig - sz) * xi**2 * (1.0 - xi) * Q
        den = sig**2 * xi**2 * Q + 2.0 * g * sig**2 * xi * u_xi - g * sig**2
        den = np.minimum(den, -_H_DENOM_FLOOR)
        y = np.clip(-num / den, 0.0, 1.0 - xi)
        y[:, -1] = 0.0
        c = np.minimum(self.mode.consumption(u, 1.0 - xi * u_xi), 1.0)
        c[:, -1] = np.minimum(c[:, -1], p.r)
        return y, c

    def jump_term(self, u):
        """delta_D * E_k[...] with u frozen (vectorized over the surface)."""
        p = self.p
        if p.jump_intensity == 0.0:
            return np.zeros_like(u)
        g = p.gamma
        total = np.zeros_like(u)
        for w, (idx, t, denom) in zip(self.jump.weights, self._jump_maps):
            u_map = (1.0 - t) * u[:, idx] + t * u[:, idx + 1]
            total += w * denom ** (1.0 - g) / (1.0 - g) \
                * np.exp((1.0 - g) * (u_map - u))
        return p.jump_intensity * total

    def coefficients(self, u, y, c, u_xi, u_z):
        """(a_xx, a_xz, a_zz, b_xi, b_z, flow_expl) with gradient terms
        linearized one factor at the previous iterate."""
        p = self.p
        g, sig, sz, sI = p.gamma, p.sigma_stock, p.sigma_z, p.sigma_income
        xi, z = self.XI, self.ZZ
        dsig = sig - sz
        a_xx = 0.5 * sig**2 * y**2 * xi**2 \
            + 0.5 * (sI**2 + dsig**2) * xi**2 * (1.0 - xi) ** 2 \
            - sig * dsig * y * xi**2 * (1.0 - xi)
        a_xz = sig * sz * y * xi + (sI**2 - sz * dsig) * xi * (1.0 - xi)
        a_zz = 0.5 * (sI**2 + sz**2) * np.ones_like(u)
        drift_xi = (g * sig**2 * y**2 + g * sig * dsig * (2.0 * xi - 1.0) * y
                    - (p.mu_stock - p.r) * y
                    - g * (sI**2 + dsig**2) * xi * (1.0 - xi)
                    + (p.mu_income - p.mean_reversion * (z - p.z_bar)) * (1.0 - xi)
                    - p.r) * xi + c * xi
        b_z = -(1.0 - g) * sig * sz * y + (1.0 - g) * (sI**2 - sz * dsig) * xi \
            - p.mean_reversion * (z - p.z_bar)
        # semi-implicit quadratic gradients: (1-g) u_xi^2 -> coef into drift
        # the whole (1-g) u_xi u_z cross product rides on the u_xi coefficient
        b_xi_eff = drift_xi + a_xx * (1.0 - g) * u_xi + a_xz * (1.0 - g) * u_z
        b_z_eff = b_z + a_zz * (1.0 - g) * u_z
        b_z_eff[0] = 0.0
        b_z_eff[-1] = 0.0  # u_z = 0 on the z-edges
        flow = (p.mu_stock - p.r - g * sig * dsig * xi) * y \
            - 0.5 * g * sig**2 * y**2 \
            - 0.5 * g * (sI**2 + dsig**2) * xi**2 \
            + (p.mu_income - p.mean_reversion * (z - p.z_bar)) * xi + p.r \
            - p.jump_intensity / (1.0 - g) \
            + self.jump_term(u) \
            + self.mode.flow_terms(u, c) - c
        return a_xx, a_xz, a_zz, b_xi_eff, b_z_eff, flow

    def assemble(self, u, dt_inv, rho_pen, active):
        """Sparse system (dt_inv + rho*chi - A) u_new = dt_inv*u + flow + ..."""
        n_z, n_x = u.shape
        n = n_z * n_x
        h, hz = self.h, self.hz
        u_xi, u_z, u_xixi, u_xiz = self.derivatives(u)
        y, c = self.controls(u, u_xi, u_z, u_xixi, u_xiz)
        a_xx, a_xz, a_zz, b_xi, b_z, flow = self.coefficients(u, y, c, u_xi, u_z)

        diag = np.full((n_z, n_x), dt_inv)
        east = np.zeros((n_z, n_x))
        west = np.zeros((n_z, n_x))
        north = np.zeros((n_z, n_x))
        south = np.zeros((n_z, n_x))
        ne = np.zeros((n_z, n_x))
        nw = np.zeros((n_z, n_x))
        se = np.zeros((n_z, n_x))
        sw = np.zeros((n_z, n_x))
        rhs = dt_inv * u + flow

        # second derivative in xi (interior columns)
        cxx = a_xx / h**2
        east[:, 1:-1] += cxx[:, 1:-1]
        west[:, 1:-1] += cxx[:, 1:-1]
        diag[:, 1:-1] += 2.0 * cxx[:, 1:-1]
        # second derivative in z with Neumann mirrors at both edges
        czz = a_zz / hz**2
        north[1:-1] += czz[1:-1]
        south[1:-1] += czz[1:-1]
        diag[1:-1] += 2.0 * czz[1:-1]
        north[0] += 2.0 * czz[0]
        diag[0] += 2.0 * czz[0]
        south[-1] += 2.0 * czz[-1]
        diag[-1] += 2.0 * czz[-1]
        # cross term, central, zero on z-edges (u_z = 0 there) and xi-edges
        cxz = a_xz / (4.0 * h * hz)
        ne[1:-1, 1:-1] += cxz[1:-1, 1:-1]
        sw[1:-1, 1:-1] += cxz[1:-1, 1:-1]
        nw[1:-1, 1:-1] -= cxz[1:-1, 1:-1]
        se[1:-1, 1:-1] -= cxz[1:-1, 1:-1]
        # upwind first-order xi term (one-sided into the domain at xi = 1)
        pos = b_xi >= 0.0
        cpos = np.where(pos, b_xi, 0.0) / h
        cneg = np.where(~pos, -b_xi, 0.0) / h
        east[:, 1:-1] += cpos[:, 1:-1]
        diag[:, 1:-1] += cpos[:, 1:-1] + cneg[:, 1:-1]
        west[:, 1:-1] += cneg[:, 1:-1]
        west[:, -1] += cneg[:, -1]
        diag[:, -1] += cneg[:, -1]  # b_xi <= 0 at xi=1 (c <= r)
        # upwind first-order z term
        posz = b_z >= 0.0
        czp = np.where(posz, b_z, 0.0) / hz
        czn = np.where(~posz, -b_z, 0.0) / hz
        north[:-1] += czp[:-1]
        diag[:-1] += czp[:-1]
        south[1:] += czn[1:]
        diag[1:] += czn[1:]
        # z-edge first-order terms vanish by the Neumann condition
        # penalty on the retirement obstacle
        diag[active] += rho_pen
        rhs[active] += rho_pen * np.broadcast_to(self.obstacle, u.shape)[active]

        idx = np.arange(n).reshape(n_z, n_x)
        r_list = [idx.ravel()]
        c_list = [idx.ravel()]
        v_list = [diag.ravel()]

        def add(mask_rows, mask_cols, coeffs):
            r_list.append(mask_rows.ravel())
            c_list.append(mask_cols.ravel())
            v_list.append(coeffs.ravel())

        add(idx[:, :-1], idx[:, 1:], -east[:, :-1])
        add(idx[:, 1:], idx[:, :-1], -west[:, 1:])
        add(idx[:-1, :], idx[1:, :], -north[:-1, :])
        add(idx[1:, :], idx[:-1, :], -south[1:, :])
        add(idx[:-1, :-1], idx[1:, 1:], -ne[:-1, :-1])
        add(idx[1:, 1:], idx[:-1, :-1], -sw[1:, 1:])
        add(idx[:-1, 1:], idx[1:, :-1], -nw[:-1, 1:])
        add(idx[1:, :-1], idx[:-1, 1:], -se[1:, :-1])
        A = sp.csc_matrix((np.concatenate(v_list),
                           (np.concatenate(r_list), np.concatenate(c_list))),
                          shape=(n, n))
        return A, rhs.ravel(), y, c

    def step(self, u, dt_inv, rho_pen):
        active = (np.broadcast_to(self.obstacle, u.shape) - u) > 0.0
        A, rhs, y, c = self.assemble(u, dt_inv, rho_pen, active)
        u_new = splu(A).solve(rhs).reshape(u.shape)
        return u_new, y, c


def _solve_stationary(p: RetireParams, grid: RetireGrid, mode: _Mode,
                      label: str) -> RetireSolution:
    jump = IncomeJumpSpec.for_params(p)
    stepper = _RetireStepper(p, grid, mode, jump)
    u = np.full((grid.n_y, grid.n_x), math.log(p.B))
    u = np.maximum(u, stepper.obstacle)
    total_iters = 0
    residual = np.inf
    final_rho = grid.penalty_schedule[-1]
    for rho_pen in grid.penalty_schedule:
        dt = 0.25
        prev_resid = np.inf
        stalled = 0
        stage_tol = 1e-6 if rho_pen == final_rho else 1e-5
        for it in range(grid.max_iter):
            dt_inv = 1.0 / dt
            u_new, y, c = stepper.step(u, dt_inv, rho_pen)
            change = float(np.max(np.abs(u_new - u)))
            u = u_new
            total_iters += 1
            residual = change * dt_inv
            if residual < stage_tol:
                break
            stalled = stalled + 1 if residual > 0.8 * prev_resid else 0
            if stalled >= 25:
                break  # limit cycle; the damped polish below resolves it
            dt = min(dt * 1.25, 50.0) if residual <= prev_resid * 2.0 else max(dt * 0.5, 0.05)
            prev_resid = min(prev_resid, residual)
        else:
            raise NoConvergence(f"{label}: stationary sweep at rho={rho_pen} "
                                f"did not converge", residual=residual)
    # damped polish: a half-step update kills the two-cycle chatter of the
    # lagged-coefficient Picard map and drives u to the fixed point
    for it in range(200):
        u_new, y, c = stepper.step(u, 1.0 / 100.0, final_rho)
        u_next = 0.5 * (u + u_new)
        change = float(np.max(np.abs(u_next - u)))
        u = u_next
        total_iters += 1
        residual = change
        if change < 1e-10:
            break
    u_xi, u_z, u_xixi, u_xiz = stepper.derivatives(u)
    y, c = stepper.controls(u, u_xi, u_z, u_xixi, u_xiz)
    retired = (np.broadcast_to(stepper.obstacle, u.shape) - u) > -1e-9
    xi_ret, xi_np = _boundaries(stepper, y, retired)
    return RetireSolution(
        params=p, xi=stepper.xi, z=stepper.z, u=u, y_star=y, c_star=c,
        retired=retired, xi_retire=xi_ret, xi_participate=xi_np,
        iterations=total_iters, residual=residual, mode=label,
    )


def _boundaries(stepper, y, retired):
    """Per z-slice: retirement boundary xi*(z) and non-participation edge."""
    n_z, n_x = retired.shape
    xi = stepper.xi
    xi_ret = np.empty(n_z)
    xi_np = np.full(n_z, np.nan)
    for j in range(n_z):
        work = np.where(~retired[j])[0]
        if work.size == 0:
            xi_ret[j] = 1.0
            continue
        first_work = work[0]
        xi_ret[j] = xi[first_work - 1] if first_work > 0 else 0.0
        hold = y[j] > 1e-8
        # the non-participation region is the high-xi (low-wealth) side
        nohold = np.where(~hold & ~retired[j] & (np.arange(n_x) >= first_work))[0]
        inner = nohold[nohold < n_x - 1]
        if inner.size:
            xi_np[j] = xi[inner[0]]
    return xi_ret, xi_np


def penalty_solve_retire(p: RetireParams, grid: RetireGrid = RetireGrid()) -> RetireSolution:
    """Infinite-horizon CRRA solve."""
    return _solve_stationary(p, grid, _Mode(p, recursive=False), "crra")


def epstein_zin_solve(p: RetireParams, grid: RetireGrid = RetireGrid()) -> RetireSolution:
    """Recursive-utility solve (Duffie-Epstein aggregator, EIS psi)."""
    return _solve_stationary(p, grid, _Mode(p, recursive=True), "epstein-zin")


def finite_horizon_solve(p: RetireParams, grid: RetireGrid = RetireGrid(),
                         dt: float = 0.25) -> RetireSolution:
    """Mandatory-retirement variant: backward marching from u(., T) = obstacle."""
    if p.horizon_T is None:
        raise ValidationError("finite_horizon_solve requires horizon_T")
    mode = _Mode(p, recursive=p.eis_psi is not None)
    jump = IncomeJumpSpec.for_params(p)
    stepper = _RetireStepper(p, grid, mode, jump)
    n_t = int(round(p.horizon_T / dt))
    obstacle = np.broadcast_to(stepper.obstacle, (grid.n_y, grid.n_x))
    u = obstacle.copy()
    rho_pen = grid.penalty_schedule[-1]
    ages = [p.horizon_T]
    xi_ret_ages = []
    y = c = None
    retired = (obstacle - u) > -1e-9
    xi_ret_ages.append(_boundaries(stepper, np.zeros_like(u), retired)[0])
    for k in range(n_t):
        u, y, c = stepper.step(u, 1.0 / dt, rho_pen)
        u = np.maximum(u, obstacle - 1e-12)
        retired = (obstacle - u) > -1e-9
        xi_ret_ages.append(_boundaries(stepper, y, retired)[0])
        ages.append(p.horizon_T - (k + 1) * dt)
    xi_ret, xi_np = _boundaries(stepper, y, retired)
    return RetireSolution(
        params=p, xi=stepper.xi, z=stepper.z, u=u, y_star=y, c_star=c,
        retired=retired, xi_retire=xi_ret, xi_participate=xi_np,
        iterations=n_t, residual=0.0, mode="finite-horizon",
        ages=np.asarray(ages[::-1]), xi_retire_by_age=np.asarray(xi_ret_ages[::-1]),
    )


def implicit_human_capital(sol: RetireSolution, w: float, income: float,
                           z: float) -> float:
    """V_I / V_w = (1/r)(1 + (1-xi) u_xi) / (1 - xi u_xi) in the work region."""
    p = sol.params
    xi = float(xi_of_wealth(w / income, p.r))
    j = int(np.clip(np.searchsorted(sol.z, z), 1, sol.z.size - 1))
    xi_star = float(np.interp(z, sol.z, sol.xi_retire))
    if xi <= xi_star:
        raise OutsideWorkRegion(f"(w/I={w / income:.3g}, z={z:.3g}) is retired")
    row = sol.u[j]
    h = sol.xi[1] - sol.xi[0]
    i = int(np.clip(np.searchsorted(sol.xi, xi), 1, sol.xi.size - 2))
    u_xi = (row[i + 1] - row[i - 1]) / (2.0 * h)
    return (1.0 + (1.0 - xi) * u_xi) / (p.r * max(1.0 - xi * u_xi, 1e-12))


def mpc_curve(sol: RetireSolution, z_val: float = 0.0, w_grid=None):
    """Marginal propensity to consume out of wealth along a z-slice (I = 1)."""
    p = sol.params
    if w_grid is None:
        w_grid = np.linspace(0.5, max(sol.wealth_threshold(z_val) * 0.9, 5.0), 121)
    j = int(np.argmin(np.abs(sol.z - z_val)))
    xi_w = xi_of_wealth(w_grid, p.r)
    c_bar = np.interp(xi_w[::-1], sol.xi, sol.c_star[j])[::-1]
    c = c_bar * (w_grid + 1.0 / p.r)
    return w_grid[:-1], np.diff(c) / np.diff(w_grid)


def default_retire_grid(n_xi: int = 201, n_z: int = 161) -> RetireGrid:
    return RetireGrid(n_x=n_xi, n_y=n_z)
