"""Fully observed bank model: solve the barriers and dump the value function.

Runs the ``solve-bank-full`` subcommand at 601 plot points, for the
calibrated parameter set or any overrides given on the command line.
Writes value_function.csv (X, V, action), summary.json and manifest.json
under --out.

Run:
  python scripts/bank_barriers.py --out out/bank_full
  python scripts/bank_barriers.py --sigma 0.0345 --out out/bank_full_alt
"""

import argparse

from sc_control import cli

DEFAULTS = dict(mu=0.1052, alpha=0.1159, sigma=0.0311, delta=0.2330,
                omega=0.3150, kappa_min=0.048, issue_cost_K=0.002,
                delay_Delta=0.5)


def main():
    ap = argparse.ArgumentParser()
    for name, val in DEFAULTS.items():
        ap.add_argument(f"--{name}", type=float, default=val)
    ap.add_argument("--out", default="out/bank_full")
    args = ap.parse_args()
    cfg = {"bank_params": {k: getattr(args, k) for k in DEFAULTS}, "n_plot": 601}
    s = cli.run("solve-bank-full", cfg, args.out)
    print(f"u1 = {s['u1']:.4%}  u2 = {s['u2']:.4%}  u0 = {s['u0']:.4%}")
    print(f"wrote {args.out}/value_function.csv")


if __name__ == "__main__":
    main()
