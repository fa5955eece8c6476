"""Particle-filter parameter recovery on a simulated reporting series.

Simulates a quarterly noisy-report series at known parameters and passes it
to the ``calibrate`` subcommand (SIR particle filter with jittering), which
writes the posterior-mean history per step (the convergence-figure data) to
theta_history.csv, plus summary.json and manifest.json, under --out.

Run:
  python scripts/pf_recovery.py --n 400 --particles 2000 --seed 0 --out out/pf
"""

import argparse

from sc_control import cli
from sc_control import filtering as fl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.04)
    ap.add_argument("--sigma", type=float, default=0.05)
    ap.add_argument("--m", type=float, default=0.03)
    ap.add_argument("--rho", type=float, default=-0.30)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--particles", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/pf")
    args = ap.parse_args()
    truth = (args.alpha, args.sigma, args.m, args.rho)
    _, obs = fl.simulate_signal_series(truth, n=args.n, seed=args.seed)
    cfg = {"series": obs.tolist(), "pf": {"n_particles": args.particles}}
    th = cli.run("calibrate", cfg, args.out, seed=args.seed)["theta_hat"]
    print("truth    :", dict(zip(("alpha", "sigma", "m", "rho"), truth)))
    print("estimate :", {k: round(v, 4) for k, v in th.items()})
    print("composite m^2+m*sigma*rho: truth %.5f est %.5f"
          % (args.m**2 + args.m * args.sigma * args.rho,
             th["m"]**2 + th["m"] * th["sigma"] * th["rho"]))


if __name__ == "__main__":
    main()
