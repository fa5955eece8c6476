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
import os
import sys

import numpy as np

from . import __version__, bank_full, bank_partial, calibrate, filtering, panel, retire, simulate
from .errors import ScControlError
from .params import BankGrid, BankParams, RetireGrid, RetireParams, from_dict


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bank_params(cfg: dict) -> BankParams:
    return from_dict(BankParams, cfg["bank_params"])


def _retire_params(cfg: dict) -> RetireParams:
    return from_dict(RetireParams, cfg["retire_params"])


def _bank_grid(cfg: dict, p: BankParams, **size) -> BankGrid:
    if "grid" in cfg:
        return from_dict(BankGrid, cfg["grid"])
    return bank_partial.default_grid(p, **size)


def _retire_grid(cfg: dict) -> RetireGrid:
    return from_dict(RetireGrid, cfg.get("grid", {}))


def _write_manifest(out_dir, subcommand, cfg, args, extra=None):
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": args.seed,
        "out": str(out_dir),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
    return path


def _write_json(out_dir, name, payload):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    return path


def _write_csv(out_dir, name, header, columns):
    path = os.path.join(out_dir, name)
    arr = np.column_stack(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _cmd_filter(cfg, args, out_dir):
    theta = tuple(cfg["theta"][k] for k in ("alpha", "sigma", "m", "rho"))
    if "series_csv" in cfg:
        series = filtering.series_from_csv(cfg["series_csv"])
    else:
        series = np.asarray(cfg["series"], dtype=float)
    states = filtering.filter_series(series, theta)
    ll = filtering.log_likelihood(series, theta)
    _write_csv(out_dir, "filtered.csv",
               ["k", "observation", "mean_post", "var_post", "innovation"],
               [np.arange(series.size), series,
                np.array([s.a_post for s in states]),
                np.array([s.P_post for s in states]),
                np.array([s.v for s in states])])
    return {"loglik": ll, "n_obs": int(series.size)}


def _cmd_calibrate(cfg, args, out_dir):
    moments = None
    if "panel_csv" in cfg:
        ingested = panel.ingest_panel(cfg["panel_csv"], strict=args.strict)
        banks = ingested["banks"]
        bank_id = cfg.get("bank_id") or sorted(banks)[0]
        if bank_id not in banks:
            raise KeyError(f"bank {bank_id!r} not in panel")
        series = banks[bank_id]["log_total_assets"]
        moments = {k: banks[bank_id][k]
                   for k in ("return_mean_quarterly", "return_std_quarterly",
                             "alpha_hat_annual", "sigma_hat_annual")}
        moments["bank_id"] = bank_id
        moments["diagnostics"] = ingested["diagnostics"]
    elif "series_csv" in cfg:
        series = filtering.series_from_csv(cfg["series_csv"])
    else:
        series = np.asarray(cfg["series"], dtype=float)
    pf_cfg = from_dict(calibrate.PfConfig, {**cfg.get("pf", {}), "seed": args.seed})
    result = calibrate.estimate_theta(series, pf_cfg)
    hist = result.pop("history")
    _write_csv(out_dir, "theta_history.csv",
               ["k", "alpha", "sigma", "m", "rho"],
               [np.arange(1, hist.shape[0] + 1)] + [hist[:, j] for j in range(4)])
    result["n_particles"] = pf_cfg.n_particles
    result["seed"] = pf_cfg.seed
    if moments is not None:
        result["panel_moments"] = moments
    return result


def _cmd_solve_bank_full(cfg, args, out_dir):
    p = _bank_params(cfg)
    sol = bank_full.solve_barriers(p)
    xs = np.linspace(sol.kappa, 3.0 * sol.u2, int(cfg.get("n_plot", 301)))
    vals = sol.value(xs)
    actions = [sol.action(float(x)).kind for x in xs]
    path = os.path.join(out_dir, "value_function.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("X,V,action\n")
        for x, v, a in zip(xs, vals, actions):
            fh.write(f"{float(x)!r},{float(v)!r},{a}\n")
    return {
        "lambda_minus": sol.lambda_minus, "lambda_plus": sol.lambda_plus,
        "u0": sol.u0, "u1": sol.u1, "u2": sol.u2,
        "conditions": {k: bool(v) for k, v in sol.conditions_report.items()},
    }


def _cmd_solve_bank_partial(cfg, args, out_dir):
    p = _bank_params(cfg)
    sol = bank_partial.penalty_solve(p, _bank_grid(cfg, p))
    region_names = np.array(["dead", "RR", "CR", "DR"])
    path = os.path.join(out_dir, "surface.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("X_hat,S,V,region\n")
        for j, s in enumerate(sol.ss):
            for i, x in enumerate(sol.xs):
                fh.write(f"{float(x)!r},{float(s)!r},{float(sol.V[j, i])!r},{region_names[sol.regions[j, i]]}\n")
    curves = bank_partial.extract_regions(sol)
    _write_csv(out_dir, "boundaries.csv", ["S", "I", "u1", "u2"],
               [curves["S"], curves["I"], curves["u1"], curves["u2"]])
    return {
        "kappa1": sol.kappa1, "omega1": sol.omega1,
        "iterations": sol.iterations, "residuals": sol.residual,
        "line_sup_error": sol.line_sup_error,
        "u1_line": sol.full_line.u1, "u2_line": sol.full_line.u2,
    }


def _retire_csvs(sol, out_dir):
    path = os.path.join(out_dir, "surface.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("xi,z,u,y_star,c_star,region\n")
        for j, zv in enumerate(sol.z):
            for i, xv in enumerate(sol.xi):
                reg = "retired" if sol.retired[j, i] else "work"
                fh.write(f"{float(xv)!r},{float(zv)!r},{float(sol.u[j, i])!r},"
                         f"{float(sol.y_star[j, i])!r},{float(sol.c_star[j, i])!r},{reg}\n")
    _write_csv(out_dir, "boundaries.csv",
               ["z", "w_retire_over_I", "w_target_over_I"],
               [sol.z,
                retire.wealth_to_income(sol.xi_retire, sol.params.r),
                retire.wealth_to_income(np.where(np.isfinite(sol.xi_participate),
                                                 sol.xi_participate, np.nan),
                                        sol.params.r)])


def _cmd_solve_retire(cfg, args, out_dir):
    p = _retire_params(cfg)
    sol = retire.penalty_solve_retire(p, _retire_grid(cfg))
    _retire_csvs(sol, out_dir)
    return {"threshold_w_over_I": sol.wealth_threshold(),
            "participation_target": sol.participation_target(),
            "iterations": sol.iterations, "residual": sol.residual}


def _cmd_solve_retire_finite(cfg, args, out_dir):
    p = _retire_params(cfg)
    sol = retire.finite_horizon_solve(p, _retire_grid(cfg), dt=cfg.get("dt", 0.25))
    _retire_csvs(sol, out_dir)
    idx0 = int(np.argmin(np.abs(sol.z)))
    thresholds = retire.wealth_to_income(sol.xi_retire_by_age[:, idx0], p.r)
    _write_csv(out_dir, "threshold_by_age.csv", ["age", "w_retire_over_I"],
               [sol.ages, thresholds])
    return {"threshold_t0": float(thresholds[0]), "iterations": sol.iterations}


def _cmd_solve_retire_ez(cfg, args, out_dir):
    p = _retire_params(cfg)
    sol = retire.epstein_zin_solve(p, _retire_grid(cfg))
    _retire_csvs(sol, out_dir)
    return {"threshold_w_over_I": sol.wealth_threshold(),
            "participation_target": sol.participation_target(),
            "iterations": sol.iterations, "residual": sol.residual}


def _cmd_simulate_bank(cfg, args, out_dir):
    p = _bank_params(cfg)
    if p.noise_m > 0.0:
        policy = bank_partial.penalty_solve(p, _bank_grid(cfg, p))
    else:
        policy = bank_full.solve_barriers(p)
    bundle = simulate.simulate_bank(
        p, policy, horizon=cfg.get("horizon", 20.0),
        n_paths=cfg.get("n_paths", 200), dt=cfg.get("dt", p.delay_Delta / 8.0),
        seed=args.seed)
    if cfg.get("dump_paths", False):  # large output; off by default
        k = np.arange(bundle.times.size)
        for name, arr in (("true_equity", bundle.true_equity),
                          ("expected_equity", bundle.expected_equity)):
            _write_csv(out_dir, f"paths_{name}.csv",
                       ["t"] + [f"path{i}" for i in range(arr.shape[0])],
                       [bundle.times] + [arr[i] for i in range(arr.shape[0])])
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


def _cmd_simulate_retire(cfg, args, out_dir):
    p = _retire_params(cfg)
    grid = _retire_grid(cfg)
    policy = retire.penalty_solve_retire(p, grid)
    bench_params = dataclasses.replace(p, mean_reversion=0.0)
    bench = retire.penalty_solve_retire(bench_params, grid)
    ours, dl = simulate.simulate_retirement(
        p, policy, bench, start_w_over_i=cfg.get("start_w_over_i", 10.0),
        n_paths=cfg.get("n_paths", 10000), dt=cfg.get("dt", 0.05),
        seed=args.seed)
    return {
        "policy": vars(ours),
        "benchmark": vars(dl),
        "threshold_policy": policy.wealth_threshold(),
        "threshold_benchmark": bench.wealth_threshold(),
    }


def _cmd_elasticity(cfg, args, out_dir):
    p = _bank_params(cfg)
    grid = _bank_grid(cfg, p, n_x=201, n_s=41)
    baseline = bank_partial.penalty_solve(p, grid)
    rows = {}
    for name in cfg.get("parameters", ["S", "sigma", "noise_m", "omega", "rho",
                                       "delay_Delta", "issue_cost_K"]):
        rows[name] = bank_partial.elasticity(
            p, name, rel_step=cfg.get("rel_step", 0.01), grid=grid,
            baseline=baseline)
    return {"elasticities": rows}


_HANDLERS = {
    "filter": _cmd_filter,
    "calibrate": _cmd_calibrate,
    "solve-bank-full": _cmd_solve_bank_full,
    "solve-bank-partial": _cmd_solve_bank_partial,
    "solve-retire": _cmd_solve_retire,
    "solve-retire-finite": _cmd_solve_retire_finite,
    "solve-retire-ez": _cmd_solve_retire_ez,
    "simulate-bank": _cmd_simulate_bank,
    "simulate-retire": _cmd_simulate_retire,
    "elasticity": _cmd_elasticity,
}
SUBCOMMANDS = tuple(_HANDLERS)


def run(subcommand: str, config: dict, out_dir: str, seed: int = 0,
        strict: bool = False) -> dict:
    """Programmatic entry point used by the CLI and tests."""
    ns = argparse.Namespace(seed=seed, strict=strict)
    os.makedirs(out_dir, exist_ok=True)
    summary = _HANDLERS[subcommand](config, ns, out_dir)
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
