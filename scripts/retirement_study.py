"""Retirement model study: boundaries, sensitivities, and the timing table.

Solves the baseline cointegrated problem and the mean-reversion-free
benchmark, writes boundary curves, then simulates both policies in the
cointegrated world across mean-reversion strengths and prints the expected
time-to-retirement / portfolio-share table.

Unlike the other scripts this one does not go through ``cli.run``: the
table simulates both solved policies in worlds other than the one they were
solved for, which no subcommand covers (``simulate-retire`` solves and
simulates one world), and a subcommand for it would only add a knob.

Run:
  python scripts/retirement_study.py --out out/retire [--fast] [--skip-sim]
"""

import argparse
import json
import os

import numpy as np

from sc_control import retire as rt, simulate as sim
from sc_control.params import RetireParams

BASE = dict(r=0.01, mu_stock=0.05, sigma_stock=0.18, gamma=3.0, B=2.0,
            beta=0.04, mu_income=0.005, sigma_income=0.10, recovery=0.8,
            jump_intensity=0.05, z_bar=0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/retire")
    ap.add_argument("--fast", action="store_true", help="101 x 81 grid")
    ap.add_argument("--skip-sim", action="store_true")
    ap.add_argument("--paths", type=int, default=10000)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    grid = rt.default_retire_grid(n_xi=101, n_z=81) if args.fast \
        else rt.default_retire_grid()
    os.makedirs(args.out, exist_ok=True)

    pol = rt.penalty_solve_retire(RetireParams(**BASE, mean_reversion=0.15), grid)
    ben = rt.penalty_solve_retire(RetireParams(**BASE, mean_reversion=0.0), grid)
    print(f"threshold (cointegrated) w*/I = {pol.wealth_threshold():.1f}, "
          f"participation target = {pol.participation_target():.1f}")
    print(f"threshold (benchmark)   w*/I = {ben.wealth_threshold():.1f}")
    with open(os.path.join(args.out, "boundaries.csv"), "w") as fh:
        fh.write("z,w_retire_over_I,w_target_over_I\n")
        r = pol.params.r
        for j, z in enumerate(pol.z):
            wt = rt.wealth_to_income(pol.xi_retire[j], r)
            tp = pol.xi_participate[j]
            tv = rt.wealth_to_income(tp, r) if np.isfinite(tp) else float("nan")
            fh.write(f"{float(z)!r},{wt!r},{tv!r}\n")

    if args.skip_sim:
        return
    table = {}
    for alpha in (0.05, 0.15, 0.25):
        world = RetireParams(**BASE, mean_reversion=alpha)
        rows = {}
        for w_over_i in (10.0, 30.0, 50.0):
            ours, dl = sim.simulate_retirement(world, (pol, ben), w_over_i,
                                               args.paths, args.dt, args.seed)
            rows[w_over_i] = {"ours_time": ours.expected_time,
                              "ours_share": ours.expected_share,
                              "dl_time": dl.expected_time,
                              "dl_share": dl.expected_share}
            print(f"alpha={alpha:.2f} w/I={w_over_i:>4.0f}: "
                  f"ours {ours.expected_time:6.1f}y share {ours.expected_share:.2f} | "
                  f"benchmark {dl.expected_time:6.1f}y share {dl.expected_share:.2f}")
        table[alpha] = rows
    with open(os.path.join(args.out, "simulation_table.json"), "w") as fh:
        json.dump(table, fh, indent=2)


if __name__ == "__main__":
    main()
