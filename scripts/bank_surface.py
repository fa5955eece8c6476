"""Partially observed bank model: surface, region boundaries, elasticities.

Runs the ``solve-bank-partial`` subcommand at the calibrated parameters,
which writes surface.csv, boundaries.csv, summary.json and manifest.json
under --out.  With --elasticities it also runs the ``elasticity``
subcommand on the same grid (the dividend, recapitalization and liquidation
barriers and the market value, with respect to the uncertainty and friction
parameters) into --out/elasticity and prints the table.

Run:
  python scripts/bank_surface.py --out out/bank_partial [--fast] [--elasticities]
"""

import argparse
import dataclasses
import os

from sc_control import bank_partial as bp, cli
from sc_control.params import BankParams

PARAMS = dict(mu=0.1052, alpha=0.1285, sigma=0.0521, delta=0.2570,
              omega=0.2510, kappa_min=0.048, issue_cost_K=0.002,
              delay_Delta=0.5, noise_m=0.0285, rho=-0.2671, conf_a=0.7993)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/bank_partial")
    ap.add_argument("--fast", action="store_true",
                    help="201 x 41 grid instead of 401 x 81")
    ap.add_argument("--elasticities", action="store_true")
    args = ap.parse_args()
    size = dict(n_x=201, n_s=41) if args.fast else {}
    grid = dataclasses.asdict(bp.default_grid(BankParams(**PARAMS), **size))
    cfg = {"bank_params": PARAMS, "grid": grid}
    s = cli.run("solve-bank-partial", cfg, args.out)
    print(f"kappa1 = {s['kappa1']:.4%}  omega1 = {s['omega1']:.4%}")
    print(f"line barriers: u1 = {s['u1_line']:.4%}  u2 = {s['u2_line']:.4%}")
    print(f"invariant-line sup error vs semi-explicit: {s['line_sup_error']:.2e}")
    if args.elasticities:
        e = cli.run("elasticity", cfg, os.path.join(args.out, "elasticity"))
        for name, row in e["elasticities"].items():
            print(f"{name:>13}: " + "  ".join(f"{k}={v:+.4f}" for k, v in row.items()))


if __name__ == "__main__":
    main()
