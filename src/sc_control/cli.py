"""Batch command-line entry point.

Subcommands: filter, calibrate, solve-bank-full, solve-bank-partial,
solve-retire, solve-retire-finite, solve-retire-ez, simulate-bank,
simulate-retire, elasticity.  Each run reads a JSON configuration document,
writes a JSON summary plus CSV plot data under --out, and records a manifest
from which the artifacts can be re-derived.  Exit codes: 0 ok, 1 solver
failure, 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import platform
import sys

import numpy as np
import scipy

from . import (__version__, bank_full, bank_partial, calibrate, filtering, panel, parallel,
               retire, simulate)
from .errors import NoConvergence, ScControlError, ValidationError
from .interp import read
from .params import BankGrid, BankParams, RetireGrid, RetireParams, check_fields, from_dict


# thread-pool variables of the BLAS/OpenMP/numexpr back ends
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _required(cfg: dict, key: str):
    """cfg[key]; a config without the key raises ValidationError naming it."""
    if key not in cfg:
        raise ValidationError(f"missing config key {key!r}")
    return cfg[key]


def _bank_params(cfg: dict) -> BankParams:
    return from_dict(BankParams, _required(cfg, "bank_params"), "bank_params")


def _retire_params(cfg: dict) -> RetireParams:
    return from_dict(RetireParams, _required(cfg, "retire_params"), "retire_params")


def _bank_grid(cfg: dict, p: BankParams, **size) -> BankGrid:
    if "grid" in cfg:
        return from_dict(BankGrid, cfg["grid"], "grid")
    return bank_partial.default_grid(p, **size)


def _retire_grid(cfg: dict) -> RetireGrid:
    return from_dict(RetireGrid, cfg.get("grid", {}), "grid")


def _series_source(cfg, keys):
    """The one key of ``keys`` that the config sets; a config that sets none,
    or more than one, raises ValidationError naming them."""
    given = [k for k in keys if k in cfg]
    if not given:
        raise ValidationError(f"missing series source: set one of {list(keys)}")
    if len(given) > 1:
        raise ValidationError(f"conflicting series sources {given}: set only one")
    return given[0]


def _series(cfg, source):
    if source == "series_csv":
        return filtering.series_from_csv(cfg["series_csv"])
    return np.asarray(cfg["series"], dtype=float)


def _write_manifest(out_dir, subcommand, cfg, args):
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": args.seed,
        "out": str(out_dir),
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
    return path


def _write_json(out_dir, name, payload):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    return path


# rows formatted per write: a block's strings take far less memory than a
# whole large file's would
_CSV_BLOCK_ROWS = 4096


def _csv_cells(flat):
    """The cells of a 1-D block of one column: numbers as repr(float), str
    values (label columns) as they are; a numeric block is formatted in one pass."""
    if flat.dtype.kind in "biuf":
        return list(map(float.__repr__, flat.astype(float).tolist()))
    return [v if isinstance(v, str) else repr(float(v)) for v in flat.tolist()]


def _write_csv(out_dir, name, header, columns):
    """One row per entry of the equal-size columns (2-D ones read row-major)."""
    path = os.path.join(out_dir, name)
    flat = [np.ravel(c) for c in columns]
    n_rows = max((c.size for c in flat), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = (_csv_cells(c[start:start + _CSV_BLOCK_ROWS]) for c in flat)
            fh.write("".join([",".join(row) + "\n" for row in zip(*block, strict=True)]))
    return path


def _cmd_filter(cfg, args, out_dir):
    block = _required(cfg, "theta")
    check_fields("theta", block, filtering.THETA_FIELDS, filtering.THETA_FIELDS)
    theta = tuple(block[k] for k in filtering.THETA_FIELDS)
    series = _series(cfg, _series_source(cfg, ("series", "series_csv")))
    states = filtering.filter_series(series, theta)
    ll = filtering.log_likelihood(series, theta, states=states)
    _write_csv(out_dir, "filtered.csv",
               ["k", "observation", "mean_post", "var_post", "innovation"],
               [np.arange(series.size), series,
                states.a_post, states.P_post, states.v])
    return {"loglik": ll, "n_obs": int(series.size)}


def _cmd_calibrate(cfg, args, out_dir):
    source = _series_source(cfg, ("series", "series_csv", "panel_csv"))
    if "bank_id" in cfg and source != "panel_csv":
        raise ValidationError("bank_id picks a bank of panel_csv, which is not set")
    moments = None
    if source == "panel_csv":
        ingested = panel.ingest_panel(cfg["panel_csv"], strict=args.strict)
        banks, diagnostics = ingested["banks"], ingested["diagnostics"]
        if not banks:
            raise ValidationError(
                f"panel {cfg['panel_csv']!r} has no usable bank: {len(diagnostics)} rows or "
                f"banks rejected" + "".join(f"; {d}" for d in diagnostics[:3]))
        bank_id = cfg["bank_id"] if "bank_id" in cfg else sorted(banks)[0]
        if not isinstance(bank_id, str):
            raise ValidationError(f"bank_id={bank_id!r} must be a string")
        if bank_id not in banks:
            raise ValidationError(f"bank {bank_id!r} not in panel")
        series = banks[bank_id]["log_total_assets"]
        moments = {k: banks[bank_id][k]
                   for k in ("return_mean_quarterly", "return_std_quarterly",
                             "alpha_hat_annual", "sigma_hat_annual")}
        moments["bank_id"] = bank_id
        moments["diagnostics"] = diagnostics
    else:
        series = _series(cfg, source)
    block = cfg.get("pf", {})
    check_fields("pf", block, ("n_particles", "seed"), ())
    if "seed" in block:  # --seed alone seeds the draws
        raise ValidationError("pf.seed is not accepted: the particle-filter seed is --seed")
    pf_cfg = from_dict(calibrate.PfConfig, {**block, "seed": args.seed}, "pf")
    result = calibrate.estimate_theta(series, pf_cfg)
    hist = result.pop("history")
    _write_csv(out_dir, "theta_history.csv",
               ["k", "alpha", "sigma", "m", "rho"],
               [np.arange(1, hist.shape[0] + 1)] + [hist[:, j] for j in range(4)])
    if moments is not None:
        result["panel_moments"] = moments
    return result


def _cmd_solve_bank_full(cfg, args, out_dir):
    p = _bank_params(cfg)
    n_plot = cfg.get("n_plot", 301)
    if not isinstance(n_plot, numbers.Integral) or isinstance(n_plot, bool) or n_plot < 2:
        raise ValidationError(f"n_plot={n_plot!r} must be an integer >= 2")
    sol = bank_full.solve_barriers(p)
    xs = np.linspace(sol.kappa, 3.0 * sol.u2, n_plot)
    _write_csv(out_dir, "value_function.csv", ["X", "V", "action"],
               [xs, sol.value(xs), sol.actions(xs)])
    return {
        "lambda_minus": sol.lambda_minus, "lambda_plus": sol.lambda_plus,
        "u0": sol.u0, "u1": sol.u1, "u2": sol.u2,
        "conditions": {k: bool(v) for k, v in sol.conditions_report.items()},
    }


def _cmd_solve_bank_partial(cfg, args, out_dir):
    p = _bank_params(cfg)
    sol = bank_partial.penalty_solve(p, _bank_grid(cfg, p))
    region_names = np.array(["dead", "RR", "CR", "DR"])
    _write_csv(out_dir, "surface.csv", ["X_hat", "S", "V", "region"],
               [*np.meshgrid(sol.xs, sol.ss), sol.V, region_names[sol.regions]])
    _write_csv(out_dir, "boundaries.csv", ["S", "I", "u1", "u2"],
               [sol.ss, sol.barrier_I, sol.barrier_u1, sol.barrier_u2])
    return {
        "kappa1": sol.full_line.kappa, "omega1": sol.full_line.omega,
        # "residuals" has always published line_sup_error, and the benchmark's
        # reference summary pins that value; sol.residual is the refinement
        # sweeps' final change
        "iterations": sol.iterations, "residuals": sol.line_sup_error,
        "line_sup_error": sol.line_sup_error,
        "u1_line": sol.full_line.u1, "u2_line": sol.full_line.u2,
    }


def _retire_csvs(sol, out_dir):
    _write_csv(out_dir, "surface.csv", ["xi", "z", "u", "y_star", "c_star", "region"],
               [*np.meshgrid(sol.xi, sol.z), sol.u, sol.y_star, sol.c_star,
                np.where(sol.retired, "retired", "work")])
    _write_csv(out_dir, "boundaries.csv",
               ["z", "w_retire_over_I", "w_target_over_I"],
               [sol.z,
                retire.wealth_to_income(sol.xi_retire, sol.params.r),
                retire.wealth_to_income(np.where(np.isfinite(sol.xi_participate),
                                                 sol.xi_participate, np.nan),
                                        sol.params.r)])


def _check_stalls(sol, args, name):
    """Under --strict, raise NoConvergence for a stationary retire solve with
    stalled penalty stages: those ended on a limit cycle, not on the stage
    tolerance."""
    if args.strict and sol.stalled_stages:
        raise NoConvergence(f"{name}: {sol.stalled_stages} penalty stage(s) of the "
                            f"{sol.mode} solve stalled for 25 steps", residual=sol.residual)


def _cmd_solve_retire(cfg, args, out_dir):
    sol = retire.penalty_solve_retire(_retire_params(cfg), _retire_grid(cfg))
    return _retire_outputs(sol, args, out_dir)


def _cmd_solve_retire_ez(cfg, args, out_dir):
    sol = retire.epstein_zin_solve(_retire_params(cfg), _retire_grid(cfg))
    return _retire_outputs(sol, args, out_dir)


def _retire_outputs(sol, args, out_dir):
    """The files and summary of solve-retire and solve-retire-ez."""
    _check_stalls(sol, args, "solve")
    _retire_csvs(sol, out_dir)
    w, mpc = retire.mpc_curve(sol)
    _write_csv(out_dir, "mpc.csv", ["w_over_I", "mpc", "human_capital_per_income"],
               [w, mpc, retire.implicit_human_capital(sol, w, 1.0, 0.0)])
    return {"threshold_w_over_I": sol.wealth_threshold(),
            "participation_target": sol.participation_target(),
            "iterations": sol.iterations, "residual": sol.residual}


def _cmd_solve_retire_finite(cfg, args, out_dir):
    p = _retire_params(cfg)
    sol = retire.finite_horizon_solve(p, _retire_grid(cfg), dt=cfg.get("dt", 0.25))
    _retire_csvs(sol, out_dir)
    # each age's boundary read at z = 0, as wealth_threshold reads it
    thresholds = retire.wealth_to_income(read(sol.z, sol.xi_retire_by_age, 0.0), p.r)
    _write_csv(out_dir, "threshold_by_age.csv", ["age", "w_retire_over_I"],
               [sol.ages, thresholds])
    return {"threshold_t0": float(thresholds[0]), "iterations": sol.iterations}


def _cmd_simulate_bank(cfg, args, out_dir):
    p = _bank_params(cfg)
    run = {"horizon": cfg.get("horizon", 20.0), "n_paths": cfg.get("n_paths", 200),
           "dt": cfg.get("dt", p.delay_Delta / 8.0)}
    simulate.check_bank_run(p, **run)  # before the solve, not after it
    if "grid" in cfg:  # checked, but nothing is solved on it
        from_dict(BankGrid, cfg["grid"], "grid")
    # the paths stay on the invariant line, so they run the line's closed-form policy
    policy = bank_partial.line_policy(p)
    bundle = simulate.simulate_bank(p, policy, **run, seed=args.seed)
    liq = bundle.liquidation_time
    return {
        "tracking_error": bundle.tracking_error(),
        "long_run_tracking_sd": float(np.sqrt(p.s_infinity)),
        "liquidated_fraction": float(np.mean(~np.isnan(liq))),
        "mean_dividends": float(np.mean(bundle.dividends_paid)),
        "mean_issuances": float(np.mean(bundle.issuances)),
        "dividend_in_delay": bundle.dividend_in_delay,
        "seed": bundle.seed, "dt": bundle.dt,
    }


def _benchmark_race(p, grid, run, seed):
    """The mean_reversion = 0 solve and its race alone in the world ``p``,
    the stats labelled "benchmark"."""
    bench = retire.penalty_solve_retire(dataclasses.replace(p, mean_reversion=0.0), grid)
    (stats,) = simulate.simulate_retirement(p, (bench,), **run, seed=seed)
    return bench, dataclasses.replace(stats, policy="benchmark")


def _cmd_simulate_retire(cfg, args, out_dir):
    p = _retire_params(cfg)
    grid = _retire_grid(cfg)
    run = {"start_w_over_i": cfg.get("start_w_over_i", 10.0),
           "n_paths": cfg.get("n_paths", 10000), "dt": cfg.get("dt", 0.05)}
    simulate.check_run_settings(**run)  # before the two solves, not after them
    # the race's draws do not depend on the policy, so each side races alone:
    # the benchmark in a child beside the policy; a policy error comes first
    with parallel.fork(_benchmark_race, p, grid, run, args.seed) as join:
        policy = retire.penalty_solve_retire(p, grid)
        _check_stalls(policy, args, "policy")
        (ours,) = simulate.simulate_retirement(p, (policy,), **run, seed=args.seed)
        bench, dl = join()
    _check_stalls(bench, args, "benchmark")
    return {
        "policy": vars(ours),
        "benchmark": vars(dl),
        "threshold_policy": policy.wealth_threshold(),
        "threshold_benchmark": bench.wealth_threshold(),
    }


def _cmd_elasticity(cfg, args, out_dir):
    p = _bank_params(cfg)
    grid = _bank_grid(cfg, p, n_x=201, n_s=41)
    names = cfg.get("parameters", ["S", "sigma", "noise_m", "omega", "rho",
                                   "delay_Delta", "issue_cost_K"])
    return {"elasticities": bank_partial.elasticity(p, names, rel_step=cfg.get("rel_step", 0.01),
                                                    grid=grid)}


# each subcommand's handler and the top-level config keys it reads
SUBCOMMANDS = {
    "filter": (_cmd_filter, ("theta", "series", "series_csv")),
    "calibrate": (_cmd_calibrate, ("series", "series_csv", "panel_csv", "bank_id", "pf")),
    "solve-bank-full": (_cmd_solve_bank_full, ("bank_params", "n_plot")),
    "solve-bank-partial": (_cmd_solve_bank_partial, ("bank_params", "grid")),
    "solve-retire": (_cmd_solve_retire, ("retire_params", "grid")),
    "solve-retire-finite": (_cmd_solve_retire_finite, ("retire_params", "grid", "dt")),
    "solve-retire-ez": (_cmd_solve_retire_ez, ("retire_params", "grid")),
    "simulate-bank": (_cmd_simulate_bank,
                      ("bank_params", "grid", "horizon", "n_paths", "dt")),
    "simulate-retire": (_cmd_simulate_retire,
                        ("retire_params", "grid", "start_w_over_i", "n_paths", "dt")),
    "elasticity": (_cmd_elasticity, ("bank_params", "grid", "parameters", "rel_step")),
}


def run(subcommand: str, config: dict, out_dir: str, seed: int = 0,
        strict: bool = False) -> dict:
    """Programmatic entry point used by the CLI and tests.

    A config key the subcommand does not read raises ValidationError naming it.
    """
    handler, keys = SUBCOMMANDS[subcommand]
    check_fields(subcommand, config, keys, ())
    ns = argparse.Namespace(seed=seed, strict=strict)
    os.makedirs(out_dir, exist_ok=True)
    summary = handler(config, ns, out_dir)
    _write_json(out_dir, "summary.json", summary)
    _write_manifest(out_dir, subcommand, config, ns)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sc-control",
        description="Solvers for bank capital control under noisy accounting "
                    "and retirement portfolio choice.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--strict", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        run(args.subcommand, cfg, args.out, seed=args.seed, strict=args.strict)
    except (ScControlError, OSError, KeyError, ValueError) as exc:
        os.makedirs(args.out, exist_ok=True)
        _write_json(args.out, "error.json",
                    {"error": type(exc).__name__, "message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
