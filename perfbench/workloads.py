"""Operations of the three workloads, generated from the benchmark seed.

Each workload runs all ten CLI subcommands, because every end-to-end metric
is reported on every workload.  The subcommands a workload is about run at
the sizes of the acceptance settings ("full"); the others run at a small
"smoke" size that takes a few percent of the workload's time, so a change to
a layer the workload bypasses shows as no change there.

Seed 0 runs the exact calibrations of the paper (the figure, Table-B and
baseline retirement rows).  Any other seed scales each parameter of the
Table-B, retirement and filter calibrations by an independent factor in
[1 - PERTURB, 1 + PERTURB], and moves the generated series and the Monte
Carlo and particle-filter seeds.  PERTURB is 0.5%: at 2% the sweep count
of the coarse smoke-size bank solve jumps between 38 and 52 from seed to
seed, a change of work that would swamp the timing bounds.  The figure
calibration is never moved: its dividend barrier u2 lies within 0.2% of u0,
and a 2% move makes ``solve_barriers`` raise NoSolution on about half of
the seeds.

Repeats: an operation's reported time is the median over its repeats in a
run; operations under about 0.3 s run five times, those under about 1 s
three times, longer ones once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from sc_control import bank_partial, filtering, retire
from sc_control.params import BankParams, RetireParams

PERTURB = 0.005

FIG_BANK = dict(mu=0.1052, alpha=0.1159, sigma=0.0311, delta=0.2330,
                omega=0.3150, kappa_min=0.048, issue_cost_K=0.002,
                delay_Delta=0.5)
TABLE_BANK = dict(mu=0.1052, alpha=0.1285, sigma=0.0521, delta=0.2570,
                  omega=0.2510, kappa_min=0.048, issue_cost_K=0.002,
                  delay_Delta=0.5, noise_m=0.0285, rho=-0.2671, conf_a=0.7993)
BASE_RETIRE = dict(r=0.01, mu_stock=0.05, sigma_stock=0.18, gamma=3.0, B=2.0,
                   beta=0.04, mu_income=0.005, sigma_income=0.10, recovery=0.8,
                   jump_intensity=0.05, mean_reversion=0.15, z_bar=0.0)
THETA = dict(alpha=0.04, sigma=0.05, m=0.03, rho=-0.30)

WORKLOADS = {
    "bank-pde": ("solve_bank_full", "solve_bank_partial", "elasticity"),
    "retire-hjb": ("solve_retire", "solve_retire_ez", "solve_retire_finite"),
    "paths": ("filter", "calibrate", "simulate_bank", "simulate_retire"),
}
OPS = ("filter", "calibrate", "solve_bank_full", "solve_bank_partial",
       "elasticity", "solve_retire", "solve_retire_ez", "solve_retire_finite",
       "simulate_bank", "simulate_retire")


@dataclass
class Op:
    """One end-to-end operation: one or more ``cli.run`` calls, timed together."""

    name: str                  # metric stem: the reported time is f"{name}_s"
    subcommand: str
    calls: list                # [(config, cli seed), ...]
    repeats: int               # the reported time is the median over repeats
    full: bool                 # acceptance-size run (else smoke size)
    hidden_solves: int = 0     # penalty solves elasticity makes out of the tracer's view


def _perturbed(base: dict, rng) -> dict:
    return {k: v * (1.0 + PERTURB * rng.uniform(-1.0, 1.0)) for k, v in base.items()}


def calibrations(seed: int) -> dict:
    """The four calibrations of one seed; seed 0 gives the paper's values."""
    if seed == 0:
        return {"fig": dict(FIG_BANK), "table": dict(TABLE_BANK),
                "retire": dict(BASE_RETIRE), "theta": dict(THETA)}
    rng = np.random.default_rng([seed, 2107_02242])
    return {"fig": dict(FIG_BANK), "table": _perturbed(TABLE_BANK, rng),
            "retire": _perturbed(BASE_RETIRE, rng), "theta": _perturbed(THETA, rng)}


def _grid(spec) -> dict:
    d = dataclasses.asdict(spec)
    d["penalty_schedule"] = list(d["penalty_schedule"])
    return d


def _series(theta: dict, n: int, seed: int) -> list:
    _, obs = filtering.simulate_signal_series(
        tuple(theta[k] for k in ("alpha", "sigma", "m", "rho")), n=n, seed=seed)
    return obs.tolist()


def build(workload: str, seed: int) -> list:
    """The workload's operations for one seed, in run order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    focus = WORKLOADS[workload]
    cal = calibrations(seed)
    cal["table_p"] = BankParams(**cal["table"])
    RetireParams(**cal["retire"])  # validates the perturbed record before any run
    return [_OP_BUILDERS[name](name in focus, seed, cal)
            for name in focus + tuple(n for n in OPS if n not in focus)]


def _filter(full, seed, cal):
    n = 19_999 if full else 1_999  # 20k (2k) observations
    cfg = {"theta": cal["theta"], "series": _series(cal["theta"], n, 7 + seed)}
    return Op("filter", "filter", [(cfg, seed)], repeats=3 if full else 5, full=full)


def _calibrate(full, seed, cal):
    # full: the five series of acceptance criterion 5 (series seeds 300..304,
    # particle-filter seeds 0..4), 401 observations, 2000 particles
    n_series, n_obs, n_particles = (5, 400, 2000) if full else (1, 100, 200)
    calls = [({"series": _series(cal["theta"], n_obs, 300 + 5 * seed + k),
               "pf": {"n_particles": n_particles}}, 5 * seed + k)
             for k in range(n_series)]
    return Op("calibrate", "calibrate", calls, repeats=1 if full else 5, full=full)


def _solve_bank_full(full, seed, cal):
    return Op("solve_bank_full", "solve-bank-full", [({"bank_params": cal["fig"]}, seed)],
              repeats=5, full=full)


def _solve_bank_partial(full, seed, cal):
    n_x, n_s = (401, 81) if full else (21, 7)
    cfg = {"bank_params": cal["table"],
           "grid": _grid(bank_partial.default_grid(cal["table_p"], n_x=n_x, n_s=n_s))}
    return Op("solve_bank_partial", "solve-bank-partial", [(cfg, seed)],
              repeats=1 if full else 3, full=full)


def _elasticity(full, seed, cal):
    n_x, n_s = (201, 41) if full else (21, 7)
    # "S" needs no re-solve; every other parameter re-solves twice
    params = ["S", "sigma", "omega"] if full else ["S"]
    cfg = {"bank_params": cal["table"], "parameters": params,
           "grid": _grid(bank_partial.default_grid(cal["table_p"], n_x=n_x, n_s=n_s))}
    return Op("elasticity", "elasticity", [(cfg, seed)], repeats=1 if full else 3,
              full=full, hidden_solves=2 * (len(params) - 1))


def _retire_grid(full):
    return _grid(retire.default_retire_grid(n_xi=101, n_z=81) if full
                 else retire.default_retire_grid(n_xi=21, n_z=15))


def _solve_retire(full, seed, cal):
    cfg = {"retire_params": cal["retire"], "grid": _retire_grid(full)}
    return Op("solve_retire", "solve-retire", [(cfg, seed)],
              repeats=1 if full else 5, full=full)


def _solve_retire_ez(full, seed, cal):
    cfg = {"retire_params": dict(cal["retire"], eis_psi=0.5), "grid": _retire_grid(full)}
    return Op("solve_retire_ez", "solve-retire-ez", [(cfg, seed)],
              repeats=1 if full else 5, full=full)


def _solve_retire_finite(full, seed, cal):
    cfg = {"retire_params": dict(cal["retire"], horizon_T=50.0 if full else 10.0),
           "grid": _retire_grid(full), "dt": 0.5}
    return Op("solve_retire_finite", "solve-retire-finite", [(cfg, seed)],
              repeats=1 if full else 5, full=full)


def _simulate_bank(full, seed, cal):
    if full:
        # Table B: a 101 x 21 penalty solve, then 10k paths at dt = Delta/8
        cfg = {"bank_params": cal["table"], "horizon": 20.0, "n_paths": 10_000,
               "grid": _grid(bank_partial.default_grid(cal["table_p"], n_x=101, n_s=21))}
    else:
        # fully observed: the semi-explicit barriers replace the PDE solve
        cfg = {"bank_params": cal["fig"], "horizon": 5.0, "n_paths": 500}
    return Op("simulate_bank", "simulate-bank", [(cfg, seed)],
              repeats=1 if full else 5, full=full)


def _simulate_retire(full, seed, cal):
    if full:
        cfg = {"retire_params": cal["retire"], "n_paths": 4000, "dt": 0.05, "start_w_over_i": 10.0,
               "grid": _grid(retire.default_retire_grid(n_xi=76, n_z=51))}
    else:
        cfg = {"retire_params": cal["retire"], "n_paths": 100, "dt": 0.5, "start_w_over_i": 10.0,
               "grid": _retire_grid(False)}
    return Op("simulate_retire", "simulate-retire", [(cfg, 11 + seed)],
              repeats=1 if full else 3, full=full)


_OP_BUILDERS = {
    "filter": _filter, "calibrate": _calibrate,
    "solve_bank_full": _solve_bank_full, "solve_bank_partial": _solve_bank_partial,
    "elasticity": _elasticity, "solve_retire": _solve_retire,
    "solve_retire_ez": _solve_retire_ez, "solve_retire_finite": _solve_retire_finite,
    "simulate_bank": _simulate_bank, "simulate_retire": _simulate_retire,
}
