"""Benchmark of sc-control: time to solution of each CLI subcommand.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload bank-pde --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``bank-pde`` (penalty PDE on (X_hat, S)),
``retire-hjb`` (retirement HJB solves) and ``paths`` (filters, particle
filter, Monte Carlo).  Every operation calls ``sc_control.cli.run`` in this
one process, a closed loop with one client, and every output is checked
(``check.py``).  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics: per subcommand the median time of ``cli.run``,
scaled to a reference host speed (see ``hostspeed.py``), their sum
``wall_s``, the set-up time ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` the run makes one untraced pass and one traced pass and
reports the per-layer metrics of ``tracing.py``.  The line before the
result is a record of the run: environment, raw and scaled times of every
repeat, errors and flagged counts.

``--write-reference`` re-records ``reference.json`` from seed 0 of every
workload; do that only at a commit whose outputs are the accepted ones.

This file imports nothing numeric: the BLAS/OpenMP thread variables must be
set before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    """Cap the BLAS/OpenMP pools at the usable CPU count.

    ``sc-control --threads`` is recorded by the CLI but never applied, so the
    benchmark sets the pools itself and does not pass the flag.
    """
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="bank-pde")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring budget: passes over the workload repeat while "
                         "another one fits (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build the inputs, print three host-speed probes and "
                         "exit (timed by the parent run)")
    ap.add_argument("--write-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sc_control", "cli.py")):
        print("error: src/sc_control not found; run from the root of an sc-control "
              "checkout", file=sys.stderr)
        return 2
    load = os.getloadavg()
    threads = pin_threads()
    sys.path[:0] = [os.path.join(root, "src"), HERE]

    if args.setup_only:
        import json

        from sc_control import cli  # noqa: F401  (import cost belongs to set-up)

        import hostspeed
        import workloads
        workloads.build(args.workload, args.seed)
        print(json.dumps([hostspeed.probe() for _ in range(3)]))
        return 0

    import harness
    if args.write_reference:
        return harness.write_reference(root)
    return harness.run(args, root, threads, load)


if __name__ == "__main__":
    sys.exit(main())
