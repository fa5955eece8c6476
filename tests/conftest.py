"""Shared parameter records, expensive session-scoped solves and an array digest."""

import hashlib

import numpy as np
import pytest

from sc_control import bank_partial, retire
from sc_control.params import BankParams, RetireParams


def digest(values) -> str:
    """First 16 hex digits of the sha256 of the values as little-endian float64.

    Two arrays share a digest only if they are equal bit for bit, so a pinned
    digest fixes every entry of an output exactly.
    """
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


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
def table_b_small():
    """Table-B solve on the 21 x 7 default grid."""
    p = table_bank_params()
    return bank_partial.penalty_solve(p, bank_partial.default_grid(p, n_x=21, n_s=7))
