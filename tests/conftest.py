"""Shared parameter records, expensive session-scoped solves and an array digest.

Each retire problem that more than one test reads is solved once per session
by the fixture that names it.
"""

import functools
import hashlib

import numpy as np
import pytest

from sc_control import bank_partial, retire, simulate
from sc_control.params import BankParams, RetireParams


def digest(values) -> str:
    """First 16 hex digits of the sha256 of the values as little-endian float64.

    Two arrays share a digest only if they are equal bit for bit, so a pinned
    digest fixes every entry of an output exactly.
    """
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def race_alone(p, sol, start_w_over_i, n_paths, dt, seed):
    """RetireStats of one solved policy racing alone in the world ``p``."""
    (stats,) = simulate._race(p, (sol,), start_w_over_i, n_paths, dt, seed)
    return stats


def stalling_stepper(penalties, mean_reversions=None):
    """A retire stepper that settles at once, except in the pseudo-time steps
    of the stages whose penalty is in ``penalties`` (of the problems whose
    mean_reversion is in ``mean_reversions``; None: of every problem).
    Those move u by 1e-3*dt, a residual of 1e-3 at every step, so each such
    stage stalls."""

    class Stalling(retire._RetireStepper):
        def step(self, u, dt_inv, rho_pen):
            zero = np.zeros_like(u)
            if dt_inv > 0.01 and rho_pen in penalties and (
                    mean_reversions is None or self.p.mean_reversion in mean_reversions):
                return u + 1e-3 / dt_inv, zero, zero
            return u, zero, zero

    return Stalling


def fig_bank_params() -> BankParams:
    """Fully observed figure calibration."""
    return BankParams(mu=0.1052, alpha=0.1159, sigma=0.0311, delta=0.2330,
                      omega=0.3150, kappa_min=0.048, issue_cost_K=0.002,
                      delay_Delta=0.5)


def table_bank_params(**overrides) -> BankParams:
    """Partially observed calibration (Table B row)."""
    kw = dict(mu=0.1052, alpha=0.1285, sigma=0.0521, delta=0.2570,
              omega=0.2510, kappa_min=0.048, issue_cost_K=0.002,
              delay_Delta=0.5, noise_m=0.0285, rho=-0.2671, conf_a=0.7993)
    kw.update(overrides)
    return BankParams(**kw)


def baseline_retire_params(**overrides) -> RetireParams:
    kw = dict(r=0.01, mu_stock=0.05, sigma_stock=0.18, gamma=3.0, B=2.0,
              beta=0.04, mu_income=0.005, sigma_income=0.10, recovery=0.8,
              jump_intensity=0.05, mean_reversion=0.15, z_bar=0.0)
    kw.update(overrides)
    return RetireParams(**kw)


@pytest.fixture(scope="session")
def bank_partial_solution():
    """Default-grid (401 x 81) partially observed solve, shared by tests."""
    p = table_bank_params()
    return bank_partial.penalty_solve(p, bank_partial.default_grid(p))


@pytest.fixture(scope="session")
def retire_grid():
    return retire.default_retire_grid(n_xi=151, n_z=101)


@pytest.fixture(scope="session")
def retire_baseline(retire_grid):
    return retire.penalty_solve_retire(baseline_retire_params(), retire_grid)


@pytest.fixture(scope="session")
def retire_benchmark(retire_grid):
    return retire.penalty_solve_retire(
        baseline_retire_params(mean_reversion=0.0), retire_grid)


@pytest.fixture(scope="session")
def retire_ez(retire_grid):
    """The Epstein-Zin solve on the 151 x 101 grid at EIS ``psi``: call it with
    psi; each psi is solved once."""
    return functools.cache(lambda psi: retire.epstein_zin_solve(
        baseline_retire_params(eis_psi=psi), retire_grid))


@pytest.fixture(scope="session")
def horizon_solution(retire_grid):
    """Finite horizon T = 50 at dt 0.5 on the 151 x 101 grid."""
    return retire.finite_horizon_solve(baseline_retire_params(horizon_T=50.0),
                                       retire_grid, dt=0.5)


@pytest.fixture(scope="session")
def retire_small_grid():
    return retire.default_retire_grid(n_xi=101, n_z=81)


@pytest.fixture(scope="session")
def retire_small_baseline(retire_small_grid):
    """The baseline (gamma = 3) solve on the 101 x 81 grid."""
    return retire.penalty_solve_retire(baseline_retire_params(), retire_small_grid)


@pytest.fixture(scope="session")
def retire_coarse_baseline():
    """The baseline solve on the 76 x 51 grid, half the 151 x 101 spacing."""
    return retire.penalty_solve_retire(baseline_retire_params(),
                                       retire.default_retire_grid(n_xi=76, n_z=51))


@pytest.fixture(scope="session")
def table_b_small():
    """Table-B solve on the 21 x 7 default grid."""
    p = table_bank_params()
    return bank_partial.penalty_solve(p, bank_partial.default_grid(p, n_x=21, n_s=7))
