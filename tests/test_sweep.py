"""Seeded calibration sweep: the retirement solves on perturbed calibrations.

Draw ``i`` scales every field of the baseline retirement record by its own
factor ``1 + 0.1 U(-1, 1)`` from ``default_rng([i, 77])``; the draws are fixed
here and never re-drawn.  On each draw the CRRA, recursive-utility
(``eis_psi`` 0.5) and finite-horizon (T = 10, dt 0.5) solves run on 21 x 15.
Each must return finite values on or above the obstacle (less the penalty's
slack: at rho = 1e5 u sits up to about 2.2e-7 below it), leave no penalty
stage stalled, and take the steps of the oracle that factorises at every
step, so refining on a kept factor never changes a solve's course.
"""

import dataclasses

import numpy as np
import pytest

from sc_control import retire as rt
from sc_control.params import RetireGrid

from conftest import baseline_retire_params

N_DRAWS = 10
SPREAD = 0.1
GRID = RetireGrid(n_x=21, n_y=15)
SOLVES = {
    "crra": lambda p: rt.penalty_solve_retire(p, GRID),
    "epstein-zin": lambda p: rt.epstein_zin_solve(dataclasses.replace(p, eis_psi=0.5), GRID),
    "finite-horizon": lambda p: rt.finite_horizon_solve(
        dataclasses.replace(p, horizon_T=10.0), GRID, dt=0.5),
}


def perturbed_retire_params(i):
    base = dataclasses.asdict(baseline_retire_params())
    fields = ("r", "mu_stock", "sigma_stock", "gamma", "B", "beta", "mu_income",
              "sigma_income", "recovery", "jump_intensity", "mean_reversion", "z_bar")
    scale = 1.0 + SPREAD * np.random.default_rng([i, 77]).uniform(-1.0, 1.0, len(fields))
    return baseline_retire_params(**{k: base[k] * float(f) for k, f in zip(fields, scale)})


@pytest.mark.parametrize("variant", SOLVES)
@pytest.mark.parametrize("i", range(N_DRAWS))
def test_perturbed_retire_solve(i, variant, monkeypatch):
    p = perturbed_retire_params(i)
    sol = SOLVES[variant](p)
    for name in ("u", "y_star", "c_star", "xi_retire"):
        assert np.all(np.isfinite(getattr(sol, name))), name
    assert np.all(sol.u >= rt.retirement_obstacle(sol.xi, p) - 1e-5)
    assert sol.stalled_stages == 0
    monkeypatch.setattr(rt, "_MAX_CORRECTIONS", 0)
    assert sol.iterations == SOLVES[variant](p).iterations
