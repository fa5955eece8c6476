"""sha256 of every file the benchmark operations write, to check byte identity.

Builds the operations of ``perfbench/workloads.build(workload, seed)`` and
runs each of their calls through ``sc_control.cli.run`` into a temporary
directory.  Prints one JSON object: per operation, the sha256 of each file
written, keyed ``<call index>/<file name>``.  ``manifest.json`` is left out,
because it records the output path and the library versions.

``sc_control`` is imported from ``PYTHONPATH``, so the digests of another
checkout come from the same workloads with that checkout's ``src``:

    PYTHONPATH=src python scripts/output_digests.py --workload bank-pde --seed 0
    PYTHONPATH=../other/src python scripts/output_digests.py --workload bank-pde --seed 0

Two checkouts that print the same object write the same bytes.  ``--op``
(repeatable) digests only the named operations, so a check of one engine
skips the others' runs:

    PYTHONPATH=src python scripts/output_digests.py --workload paths --op simulate_bank

``--against FILE`` compares the run with a digest object saved from
another run.  Over the operations this run digests, it lists on stderr
each ``<workload>/<op>/<call>/<file>`` whose digest differs or that only
one side wrote, and exits 1 when there is any:

    PYTHONPATH=../other/src python scripts/output_digests.py --workload bank-pde > before.json
    PYTHONPATH=src python scripts/output_digests.py --workload bank-pde --against before.json
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402
from sc_control import cli  # noqa: E402


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(workload: str, seed: int, ops=None) -> dict:
    """{op name: {"<call>/<file>": sha256}} for every operation of the workload,
    or for those whose names are in ``ops``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(workload, seed):
            if ops is not None and op.name not in ops:
                continue
            files = {}
            for k, (cfg, cli_seed) in enumerate(op.calls):
                call_dir = os.path.join(tmp, op.name, str(k))
                cli.run(op.subcommand, cfg, call_dir, seed=cli_seed)
                for name in sorted(os.listdir(call_dir)):
                    if name != "manifest.json":
                        files[f"{k}/{name}"] = _sha256(os.path.join(call_dir, name))
            out[op.name] = files
    return out


def differences(got: dict, saved: dict) -> list:
    """``<workload>/<op>/<call>/<file>`` of every file of the operations in
    ``got`` whose digest differs from the one in ``saved``, or that only one
    of the two holds."""
    out = []
    for workload, ops in got.items():
        for op, files in ops.items():
            want = saved.get(workload, {}).get(op, {})
            out += [f"{workload}/{op}/{key}" for key in sorted(files.keys() | want.keys())
                    if files.get(key) != want.get(key)]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="workload to run (repeatable; default: all three)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--op", action="append", choices=workloads.OPS,
                    help="operation to digest (repeatable; default: every one)")
    ap.add_argument("--against", metavar="FILE",
                    help="digest JSON to compare with; exit 1 if any file differs")
    args = ap.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    got = {w: digests(w, args.seed, args.op) for w in names}
    print(json.dumps(got, indent=2, sort_keys=True))
    if args.against is None:
        return 0
    with open(args.against) as fh:
        diff = differences(got, json.load(fh))
    for name in diff:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
