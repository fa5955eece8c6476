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
sign of their coefficient, the cross term u_xi_z is central (implicit); the
9-point matrix is built from one table of neighbour coefficients keyed by
the (dz, dxi) offset.  The quadratic gradient terms (1-gamma) u_xi^2 etc.
are linearized one factor at the previous iterate and folded into the
upwound first-order coefficients; the income-jump expectation is frozen at
the previous iterate and refreshed every sweep.  The obstacle is enforced by
an implicit penalty on the active set with the schedule from the grid
record.  Feedback controls come from the first-order conditions each
iteration, clamped to the short-sale and borrowing constraints
0 <= y_bar <= 1 - xi; consumption at xi = 1 is capped at the income rate r
(in capitalized units).

The consumption flow and first-order condition are those of the recursive
(Duffie-Epstein) aggregator with EIS psi; CRRA is its psi = 1/gamma case,
so one set of formulas serves both.  The RetireParams record picks the
variant: the stationary solve is CRRA, or recursive utility when
``eis_psi`` is set.  The finite-horizon (mandatory retirement) variant,
the only solve that reads ``horizon_T`` (the stationary one refuses it),
reuses the same step with real time from the terminal condition
u(., T) = obstacle; it penalizes with the last entry of
``penalty_schedule`` only.

Every step of a solve has the same 9-point sparsity pattern, so the stepper
builds it once (CSC index arrays plus one gather from the stacked per-offset
entries) and each step only gathers values into it.  SuperLU's
minimum-degree column order of A^T + A (``permc_spec="MMD_AT_PLUS_A"``),
with its elimination-tree postorder, depends on the pattern alone, so the
stepper takes that order q once, at construction, by factorising the
pattern with 9 on the diagonal and -1 off it.  A step that factorises
factors A[:, q] with ``permc_spec="NATURAL"``, which gives the same factors
as a fresh minimum-degree factorisation of A, and scatters the solution
back.  Rows are not permuted: partial pivoting keeps choosing them.

The stepper keeps the last factor with the key it was taken under: the
step's dt_inv, its penalty and its active set.  A step under the same key
(the damped polish, the late finite-horizon steps), where the matrix moves
only by small coefficient updates, solves with the kept factor and refines,
y += lu.solve(rhs - A[:, q] y), until a correction is at most 1e-13 max|y|
(``_REFINED``).  It factorises after all when the corrections do not get
there within ``_MAX_CORRECTIONS`` (8), or as soon as one is more than
``_CONTRACTION`` (1/4) of the one before it; the old factor is released
first, so at most one is alive.  Against factorising at every step the
stated tolerance, which the tests hold, is 1e-12 on u and 1e-11 on the
controls, with identical step counts, retirement sets and boundaries
(measured from 21x15 to 151x101: u 2.5e-14, y* 2.8e-13, c* 9.8e-16).

Both factorisations update two columns per panel (``_PANEL_SIZE``), not
SuperLU's default 20, which is too wide for this stencil's small
supernodes.  The ordering, the pivots and the fill stay the same, but the
sums inside the factorisation run in another order, so the outputs are no
longer bit for bit those of the default panel: at 101x81 u moves by at
most 1.6e-14, y* by 5.3e-14 and c* by 6.3e-16.  The stated tolerance,
which the tests hold against the default panel, is 1e-12 on u and 1e-11 on
the controls, with identical step counts, retirement sets and boundaries.

With mean_reversion = 0 neither a coefficient nor the obstacle nor the
jump map depends on z, and the z edges are Neumann, so u is constant in z
up to roundoff.  Each public solve then runs the same stepper on three z
rows, the fewest a RetireGrid takes, and repeats row 0 onto the requested
z grid; the step count and residual are those of the three-row solve.
Against the full-grid solve the stated tolerance, which the tests hold, is
1e-12 on u and 1e-11 on the controls, with identical step counts,
retirement sets, boundaries and z grid (measured at 101x81: u 4.0e-14, y*
7.8e-14, c* 6.2e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergence, ValidationError
from .interp import lerp, read
from .params import RetireGrid, RetireParams, finite_number

_H_DENOM_FLOOR = 1e-10
MAX_STAGE_STEPS = 600  # pseudo-time steps a stationary penalty stage may take
_N_QUAD = 32  # Gauss-Legendre nodes of the power jump-size density
# (dz, dxi) offsets of the 9-point stencil's neighbours
_OFFSETS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1))
# SuperLU panel width (columns per panel update): its default of 20 is too
# wide for the small supernodes of the 9-point stencil
_PANEL_SIZE = 2
# Refinement on a kept factor (_RetireStepper._refine) has reached the direct
# solve's roundoff floor once a correction is at most _REFINED of max|y|;
# under an unchanged key it gets there in 3 to 7 corrections, the first
# 1e-6 to 1e-3 of max|y|.  At 101x81 a factorisation costs as much as 13 to
# 20 corrections, so a failed attempt may spend at most _MAX_CORRECTIONS,
# about half of one.  Corrections that shrink by less than _CONTRACTION each
# cannot get from 1e-6 to the floor within that budget (4^7 < 1e7), so the
# first such correction ends the attempt at once.
_REFINED = 1e-13
_MAX_CORRECTIONS = 8
_CONTRACTION = 0.25


def splu(*args, **kwargs):
    """``scipy.sparse.linalg.splu``, imported on the first call: scipy.sparse.linalg
    (which brings scipy.linalg) loads with the first factorisation, not with the
    package.  The import statement costs half a microsecond a step, against
    milliseconds for the step's factorisation."""
    from scipy.sparse.linalg import splu
    return splu(*args, **kwargs)


def _jump_sizes(p: RetireParams) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the income-jump size: the fixed ``recovery``, or
    Gauss-Legendre on [0, 1] against the power density nu k^(nu-1)."""
    if p.power_nu is None:
        return np.array([p.recovery]), np.array([1.0])
    x, w = np.polynomial.legendre.leggauss(_N_QUAD)
    k = 0.5 * (x + 1.0)
    w = 0.5 * w * p.power_nu * np.maximum(k, 1e-300) ** (p.power_nu - 1.0)
    return k, w / w.sum()


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
    stalled_stages: int = 0        # penalty stages left after 25 stalled steps
    factorizations: int = 0        # steps that factorised (the rest refined a kept factor)

    def wealth_threshold(self, z_val: float = 0.0) -> float:
        """w*/I: retire when wealth-to-income exceeds this (z-slice)."""
        xi_star = float(read(self.z, self.xi_retire, z_val))
        return wealth_to_income(xi_star, self.params.r)

    def participation_target(self, z_val: float = 0.0) -> float:
        """(w/I)_0: below this ratio the stock position is zero."""
        xi_np = float(read(self.z, self.xi_participate, z_val))
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
    """Consumption flow and FOC of the Duffie-Epstein aggregator with EIS psi.

    The record picks the mode: without ``eis_psi`` it is CRRA, the
    psi = 1/gamma case with consumption rate K_bar; with it, recursive
    utility with psi = eis_psi and K_psi.  One expression per formula
    serves both.
    """

    def __init__(self, p: RetireParams):
        self.beta = p.beta
        if p.eis_psi is None:
            self.label = "crra"
            self.psi, self.ipsi, self.k = 1.0 / p.gamma, p.gamma, p.K_bar
            return
        self.label = "epstein-zin"
        if abs(p.eis_psi - 1.0) < 1e-12:
            raise ValidationError("unit EIS (log aggregator) not supported")
        self.psi, self.ipsi, self.k = p.eis_psi, 1.0 / p.eis_psi, p.k_bar_psi()

    def consumption(self, u, one_minus_xiu):
        """The consumption that solves the first-order condition
        K^{1/psi} e^{-(1-1/psi)u} c^{-1/psi} = 1 - xi u_xi."""
        base = np.maximum(one_minus_xiu, 1e-12)
        return self.k * np.exp((1.0 - self.psi) * u) * base ** (-self.psi)

    def flow_terms(self, u, c):
        """Consumption utility flow plus the pure-discount term:
        K^{1/psi}/(1-1/psi) e^{-(1-1/psi)u} c^{1-1/psi} - beta/(1-1/psi)."""
        ipsi = self.ipsi
        return self.k**ipsi / (1.0 - ipsi) * np.exp(-(1.0 - ipsi) * u) \
            * c ** (1.0 - ipsi) - self.beta / (1.0 - ipsi)


def _z_nodes(p: RetireParams, n_y: int) -> np.ndarray:
    """The solver's z grid: n_y nodes on z_bar +- 8 sigma_z."""
    half = 8.0 * p.sigma_z
    return np.linspace(p.z_bar - half, p.z_bar + half, n_y)


class _RetireStepper:
    """Assembles and solves one implicit penalized pseudo-time step."""

    def __init__(self, p: RetireParams, grid: RetireGrid):
        self.p = p
        self.mode = _Mode(p)
        nodes, self.jump_weights = _jump_sizes(p)
        self.xi = np.linspace(0.0, 1.0, grid.n_x)
        self.z = _z_nodes(p, grid.n_y)
        self.h = self.xi[1] - self.xi[0]
        self.hz = self.z[1] - self.z[0]
        # floor the obstacle half a cell short of xi = 1, where it is -inf
        raw = retirement_obstacle(self.xi, p)
        self.obstacle = np.maximum(raw, math.log(p.B) + math.log(0.25 * self.h))
        self.XI = np.broadcast_to(self.xi, (grid.n_y, grid.n_x))
        self.ZZ = np.broadcast_to(self.z[:, None], (grid.n_y, grid.n_x))
        # jump mapping: xi -> k*xi/(1+(k-1)xi), precomputed interp weights
        self._jump_maps = []
        for k in nodes:
            denom = 1.0 + (k - 1.0) * self.xi
            xim = np.where(denom > 0.0, k * self.xi / np.maximum(denom, 1e-12), 1.0)
            idx = np.clip(np.searchsorted(self.xi, xim) - 1, 0, grid.n_x - 2)
            t = np.clip((xim - self.xi[idx]) / self.h, 0.0, 1.0)
            self._jump_maps.append((idx, t, denom))
        # fixed 9-point pattern: the diagonal, then each offset on the nodes
        # whose neighbour lies on the grid, explicit zeros kept; its data is
        # the index of each entry in the flat stack that _stencil returns
        n_z, n_x = grid.n_y, grid.n_x
        n = n_z * n_x
        nodes = np.arange(n).reshape(n_z, n_x)
        rows, cols, src = [nodes.ravel()], [nodes.ravel()], [nodes.ravel()]
        for k, (dz, dx) in enumerate(_OFFSETS, start=1):
            on_z = slice(max(-dz, 0), n_z - max(dz, 0))
            on_x = slice(max(-dx, 0), n_x - max(dx, 0))
            r = nodes[on_z, on_x].ravel()
            rows.append(r)
            cols.append(r + dz * n_x + dx)
            src.append(k * n + r)
        pat = self._pattern = sp.csc_matrix(
            (np.concatenate(src), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        # minimum degree on A^T + A: the 9-point stencil's pattern is
        # symmetric, and this ordering fills less than the default COLAMD.
        # It depends on the pattern only, so any non-singular values give
        # it: 9 on the diagonal (the stack's first n entries), -1 off it.
        probe = sp.csc_matrix((np.where(pat.data < n, 9.0, -1.0), pat.indices, pat.indptr),
                              shape=pat.shape)
        self._q = np.argsort(splu(probe, permc_spec="MMD_AT_PLUS_A",
                                  panel_size=_PANEL_SIZE).perm_c)
        # A[:, q] on the pattern, and the gather that fills it from the stack
        by_q = pat[:, self._q]
        self._gather, self._Aq = by_q.data, by_q.astype(float)
        # the factor of the last step that factorised and its key
        # (dt_inv, rho_pen, active set)
        self._lu = self._key = None
        self.factorizations = 0

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
        for w, (idx, t, denom) in zip(self.jump_weights, self._jump_maps):
            u_map = lerp(u, idx, t)
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

    def _stencil(self, u, dt_inv, rho_pen, active):
        """Matrix entries of (dt_inv + rho*chi - A) stacked by offset as
        (diagonal, then -coefficient of each neighbour in _OFFSETS), flat,
        with the right-hand side dt_inv*u + flow + ... and the controls."""
        n_z, n_x = u.shape
        h, hz = self.h, self.hz
        u_xi, u_z, u_xixi, u_xiz = self.derivatives(u)
        y, c = self.controls(u, u_xi, u_z, u_xixi, u_xiz)
        a_xx, a_xz, a_zz, b_xi, b_z, flow = self.coefficients(u, y, c, u_xi, u_z)

        entries = np.zeros((1 + len(_OFFSETS), n_z, n_x))
        diag = entries[0]
        diag += dt_inv
        # neighbour coefficients, in the order of their (dz, dxi) offsets
        east, west, north, south, ne, sw, nw, se = entries[1:]
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
        np.negative(entries[1:], out=entries[1:])
        return entries.ravel(), rhs.ravel(), y, c

    def step(self, u, dt_inv, rho_pen):
        active = (np.broadcast_to(self.obstacle, u.shape) - u) > 0.0
        entries, rhs, y, c = self._stencil(u, dt_inv, rho_pen, active)
        np.take(entries, self._gather, out=self._Aq.data)
        u_new = np.empty_like(rhs)
        u_new[self._q] = self._solve_Aq((dt_inv, rho_pen, active), rhs)
        return u_new.reshape(u.shape), y, c

    def _solve_Aq(self, key, rhs):
        """y with A[:, q] y = rhs: refined on the kept factor when it was
        taken under this step's key, else from a fresh factor of A[:, q] as
        it stands (the same columns in the same order give SuperLU's factors
        under the ordering bit for bit), which becomes the kept one."""
        if self._lu is not None and self._key[:2] == key[:2] \
                and np.array_equal(self._key[2], key[2]):
            y = self._refine(rhs)
            if y is not None:
                return y
        self._lu = None  # release the old factor first: at most one is alive
        self._lu = splu(self._Aq, permc_spec="NATURAL", panel_size=_PANEL_SIZE)
        self._key = key
        self.factorizations += 1
        return self._lu.solve(rhs)

    def _refine(self, rhs):
        """Iterative refinement of A[:, q] y = rhs on the kept factor of an
        earlier matrix; None when it stops contracting or runs out."""
        y = self._lu.solve(rhs)
        last = np.inf
        for _ in range(_MAX_CORRECTIONS):
            d = self._lu.solve(rhs - self._Aq @ y)
            y += d
            size = np.max(np.abs(d))
            if size <= _REFINED * np.max(np.abs(y)):
                return y
            if size > _CONTRACTION * last:
                return None
            last = size
        return None


def _solve_stationary(p: RetireParams, grid: RetireGrid) -> RetireSolution:
    if p.horizon_T is not None:
        raise ValidationError(f"horizon_T={p.horizon_T!r} is read only by the finite-horizon "
                              f"solve (solve-retire-finite); the stationary solve refuses it")
    stepper = _RetireStepper(p, grid)
    label = stepper.mode.label
    u = np.full((grid.n_y, grid.n_x), math.log(p.B))
    u = np.maximum(u, stepper.obstacle)
    total_iters = 0
    stalled_stages = 0
    residual = np.inf
    final_rho = grid.penalty_schedule[-1]
    for rho_pen in grid.penalty_schedule:
        dt = 0.25
        prev_resid = np.inf
        stalled = 0
        stage_tol = 1e-6 if rho_pen == final_rho else 1e-5
        for it in range(MAX_STAGE_STEPS):
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
                stalled_stages += 1
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
    else:
        raise NoConvergence(f"{label}: damped polish did not settle in 200 steps",
                            residual=change)
    u_xi, u_z, u_xixi, u_xiz = stepper.derivatives(u)
    y, c = stepper.controls(u, u_xi, u_z, u_xixi, u_xiz)
    retired = (np.broadcast_to(stepper.obstacle, u.shape) - u) > -1e-9
    xi_ret, xi_np = _boundaries(stepper, y, retired)
    return RetireSolution(
        params=p, xi=stepper.xi, z=stepper.z, u=u, y_star=y, c_star=c,
        retired=retired, xi_retire=xi_ret, xi_participate=xi_np,
        iterations=total_iters, residual=residual, mode=label,
        stalled_stages=stalled_stages, factorizations=stepper.factorizations,
    )


def _boundaries(stepper, y, retired):
    """Per z-slice: retirement boundary xi*(z) and non-participation edge.

    xi*(z) is the node before the slice's first working node (0 if it works
    from the first node, 1 if it never works).  The non-participation edge is
    the first working node at or after that one where the stock share is
    not positive, the last node excluded (nan if none): it lies on the
    high-xi (low-wealth) side.
    """
    xi = stepper.xi
    work = ~retired
    first_work = np.argmax(work, axis=1)
    xi_ret = np.where(work.any(axis=1),
                      np.where(first_work > 0, xi[first_work - 1], 0.0), 1.0)
    nohold = ~(y > 1e-8) & work & (np.arange(xi.size) >= first_work[:, None])
    nohold[:, -1] = False
    xi_np = np.where(nohold.any(axis=1), xi[np.argmax(nohold, axis=1)], np.nan)
    return xi_ret, xi_np


def _z_free_solve(core, p: RetireParams, grid: RetireGrid, *args) -> RetireSolution:
    """``core(p, grid, *args)``; with mean_reversion = 0, where u is constant
    in z, solved on three z rows with row 0 of each surface and boundary
    repeated onto the grid's z nodes as writeable copies.  The steps and
    residual are those of the three-row solve."""
    if p.mean_reversion != 0.0:
        return core(p, grid, *args)
    sol = core(p, replace(grid, n_y=3), *args)
    n_z = grid.n_y

    def rows(a, axis=0):
        return np.repeat(a.take([0], axis=axis), n_z, axis=axis)

    return replace(
        sol, z=_z_nodes(p, n_z), u=rows(sol.u), y_star=rows(sol.y_star),
        c_star=rows(sol.c_star), retired=rows(sol.retired), xi_retire=rows(sol.xi_retire),
        xi_participate=rows(sol.xi_participate),
        xi_retire_by_age=(None if sol.xi_retire_by_age is None
                          else rows(sol.xi_retire_by_age, axis=1)))


def penalty_solve_retire(p: RetireParams, grid: RetireGrid = RetireGrid()) -> RetireSolution:
    """Infinite-horizon solve of the record: CRRA, or recursive utility
    (Duffie-Epstein aggregator, EIS ``eis_psi``) when ``eis_psi`` is set.
    A record with ``horizon_T`` is refused: only finite_horizon_solve reads it."""
    return _z_free_solve(_solve_stationary, p, grid)


def epstein_zin_solve(p: RetireParams, grid: RetireGrid = RetireGrid()) -> RetireSolution:
    """penalty_solve_retire of a record that must set ``eis_psi``."""
    if p.eis_psi is None:
        raise ValidationError("recursive mode requires eis_psi")
    return _z_free_solve(_solve_stationary, p, grid)


def finite_horizon_solve(p: RetireParams, grid: RetireGrid = RetireGrid(),
                         dt: float = 0.25) -> RetireSolution:
    """Mandatory-retirement variant: backward marching from u(., T) = obstacle."""
    if p.horizon_T is None:
        raise ValidationError("finite_horizon_solve requires horizon_T")
    if not (finite_number(dt) and dt > 0.0):
        raise ValidationError(f"dt={dt!r} must be a finite number > 0")
    steps = p.horizon_T / dt  # the march takes whole steps back to age 0
    if not (math.isfinite(steps) and round(steps) >= 1
            and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValidationError(f"dt={dt!r} must divide horizon_T={p.horizon_T!r} into a whole "
                              f"number >= 1 of steps, not {steps!r}")
    return _z_free_solve(_solve_finite, p, grid, dt)


def _solve_finite(p: RetireParams, grid: RetireGrid, dt: float) -> RetireSolution:
    stepper = _RetireStepper(p, grid)
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
        factorizations=stepper.factorizations,
    )


def implicit_human_capital(sol: RetireSolution, w, income: float, z: float):
    """V_I / V_w = (1/r)(1 + (1-xi) u_xi) / (1 - xi u_xi) at each wealth w
    along the z-slice, nan where w/I is at or above the threshold w*/I."""
    p = sol.params
    xi = xi_of_wealth(np.asarray(w, dtype=float) / income, p.r)
    h = sol.xi[1] - sol.xi[0]
    i = np.clip(np.searchsorted(sol.xi, xi), 1, sol.xi.size - 2)
    # central differences in xi on every z row, read at z
    u_xi = read(sol.z, ((sol.u[:, i + 1] - sol.u[:, i - 1]) / (2.0 * h)).T, z)
    out = (1.0 + (1.0 - xi) * u_xi) / (p.r * np.maximum(1.0 - xi * u_xi, 1e-12))
    out = np.where(xi <= read(sol.z, sol.xi_retire, z), np.nan, out)
    return out if out.ndim else float(out)


def mpc_curve(sol: RetireSolution, z_val: float = 0.0, w_grid=None):
    """Marginal propensity to consume out of wealth along a z-slice (I = 1):
    consumption read at z_val across the rows, then at each wealth's xi."""
    p = sol.params
    if w_grid is None:
        w_grid = np.linspace(0.5, max(sol.wealth_threshold(z_val) * 0.9, 5.0), 121)
    c_row = read(sol.z, sol.c_star.T, z_val)
    c_bar = read(sol.xi, c_row, xi_of_wealth(w_grid, p.r))
    c = c_bar * (w_grid + 1.0 / p.r)
    return w_grid[:-1], np.diff(c) / np.diff(w_grid)


def default_retire_grid(n_xi: int = 201, n_z: int = 161) -> RetireGrid:
    return RetireGrid(n_x=n_xi, n_y=n_z)
