"""Executes a workload's operations, checks each one, and reports the metrics.

End-to-end times are host-scaled (see ``hostspeed.py``): each execution is
timed by a ``HostMeter`` that samples the host's speed around and during
it, and each set-up process probes the host before it exits.  The raw
times stay in the record line printed before the result.  ``peak_rss_mb``
and the per-layer span times are not scaled.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy
from sc_control import cli

import check
import workloads
from hostspeed import HostMeter, scaled
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3


class Runner:
    """Executes operations and checks each execution.

    ``reference`` maps "<workload>/<op>" to the seed-0 observation; ``None``
    skips the comparison (used while recording it).
    """

    def __init__(self, workload: str, seed: int, out_root: str, reference: dict | None):
        self.workload, self.seed, self.out_root = workload, seed, out_root
        self.reference = reference
        self.attempted = self.failed = 0
        self.errors: dict[str, list] = {}
        self.counts: dict[str, dict] = {}
        self.sample_inside = True  # probe the host during executions (off for traced passes)

    def execute(self, op, tracer=None) -> tuple[float, float, int, dict | None]:
        """One execution of ``op``: (seconds, host-scaled seconds, bytes written,
        observation or None)."""
        out_dirs = [os.path.join(self.out_root, op.name, str(k)) for k in range(len(op.calls))]
        summaries, errors = [], []
        gc.collect()  # garbage left by the previous operation is not this one's cost
        if tracer is not None:
            tracer.op = op.name
        with HostMeter(self.sample_inside) as meter:
            try:
                for (cfg, seed), out_dir in zip(op.calls, out_dirs):
                    summaries.append(cli.run(op.subcommand, cfg, out_dir, seed=seed))
            except Exception:  # an operation that raises counts as failed; the run goes on
                errors.append(traceback.format_exc(limit=3))
        if tracer is not None:
            tracer.op = None
        written = sum(os.path.getsize(os.path.join(d, f))
                      for d in out_dirs if os.path.isdir(d) for f in os.listdir(d))
        obs = None
        if not errors:
            obs = check.observe(op.subcommand, summaries, out_dirs)
            errors += check.invariants(op, obs)
            if self.seed == 0:
                self.counts[op.name] = dict(obs["calls"][0]["summary"])
                if self.reference is not None:
                    ref = self.reference.get(f"{self.workload}/{op.name}")
                    errors += (["no reference"] if ref is None
                               else check.compare(op.name, obs, ref))
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.setdefault(op.name, []).extend(errors[:5])
        return meter.seconds, meter.scaled, written, obs

    def run_pass(self, ops, repeats: bool, tracer=None) -> tuple[dict, dict, int]:
        """One pass over the workload: ({op: [seconds, ...]}, the same host-scaled,
        bytes written)."""
        raw, scaled, written = {op.name: [] for op in ops}, {op.name: [] for op in ops}, 0
        for op in (schedule(ops) if repeats else ops):
            t, s, w, _ = self.execute(op, tracer)
            raw[op.name].append(t)
            scaled[op.name].append(s)
            written += w
        return raw, scaled, written


def schedule(ops) -> list:
    """The executions of one pass, each operation's repeats spread over the pass.

    Back-to-back repeats of a short operation would sample one moment of the
    host's drifting speed.  Each operation with n repeats runs at the
    fractions (k + 1/2)/n of the pass; the operations that run once are
    spread the same way.
    """
    singles = [op for op in ops if op.repeats == 1]
    slots = []
    for op in ops:
        if op.repeats == 1:
            slots.append(((singles.index(op) + 0.5) / len(singles), op))
        else:
            slots += [((k + 0.5) / op.repeats, op) for k in range(op.repeats)]
    return [op for _, op in sorted(slots, key=lambda slot: slot[0])]


def setup_seconds(workload: str, seed: int) -> tuple[list, list]:
    """Wall times, raw and host-scaled, of fresh processes that import the
    package and build the inputs.

    Each process probes the host's speed before it exits, on its own CPU."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    raw, host_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        host_scaled.append(scaled(raw[-1], json.loads(out.stdout.splitlines()[-1])))
    return raw, host_scaled


def environment(threads: dict, load: tuple) -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "threads": threads,
            "loadavg_at_start": list(load)}


def measure(runner: Runner, ops, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: passes repeat while another one fits in ``seconds``."""
    raw = {op.name: [] for op in ops}
    scaled = {op.name: [] for op in ops}
    t0, passes = time.perf_counter(), 0
    while True:
        r, s, _ = runner.run_pass(ops, repeats=True)
        for name in raw:
            raw[name] += r[name]
            scaled[name] += s[name]
        passes += 1
        if (time.perf_counter() - t0) * (passes + 1) / passes > seconds:
            break
    medians = {name: statistics.median(ts) for name, ts in scaled.items()}
    metrics = {f"{name}_s": (t, "s") for name, t in medians.items()}
    # the time to run each subcommand of the workload once
    metrics["wall_s"] = (sum(medians.values()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, {"passes": passes, "raw_s": raw, "scaled_s": scaled}


def measure_traced(runner: Runner, ops, out_root: str) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced pass, then one traced pass.

    Neither samples the host during executions, so no probe lands inside a span."""
    runner.sample_inside = False
    _, plain, _ = runner.run_pass(ops, repeats=False)
    with Tracer() as tracer:
        raw, traced, written = runner.run_pass(ops, repeats=False, tracer=tracer)
    tracer.dump(os.path.join(out_root, "trace.json"))
    hidden = sum(op.hidden_solves for op in ops)
    metrics = layer_metrics(tracer, hidden, written)
    metrics["trace_overhead_s"] = (sum(map(sum, traced.values()))
                                   - sum(map(sum, plain.values())), "s")
    if runner.seed == 0:
        runner.counts.setdefault("elasticity", {})["traced penalty_solve iterations"] = sum(
            s.counts["iterations"] for s in tracer.spans
            if s.name == "bank_partial.penalty_solve" and s.op == "elasticity")
    return metrics, {"passes": 2, "raw_s": raw,
                     "scaled_s": {"untraced": plain, "traced": traced},
                     "spans": len(tracer.spans)}


def run(args, root: str, threads: dict, load: tuple) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    out_root = os.path.join(root, ".perfbench_out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    with open(REFERENCE, encoding="utf-8") as fh:
        runner = Runner(args.workload, args.seed, out_root, json.load(fh))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(threads, load)}
    if args.trace:
        metrics, detail = measure_traced(runner, ops, out_root)
    else:
        setup_raw, setup_scaled = setup_seconds(args.workload, args.seed)
        metrics, detail = measure(runner, ops, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        detail |= {"setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled}
    mismatches = [m for op in ops
                  for m in check.count_mismatches(op, runner.counts.get(op.name, {}))]
    for m in mismatches:
        print(f"warning: count differs: {m}", file=sys.stderr)
    record |= detail | {"errors": runner.errors, "count_mismatches": mismatches}
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def write_reference(root: str) -> int:
    """Record the seed-0 observation of every operation of every workload."""
    ref = {}
    out_root = os.path.join(root, ".perfbench_out", "reference")
    for name in workloads.WORKLOADS:
        runner = Runner(name, 0, out_root, None)
        for op in workloads.build(name, 0):
            *_, obs = runner.execute(op)
            if runner.failed:
                print(f"{name}/{op.name} failed: {runner.errors}", file=sys.stderr)
                return 1
            ref[f"{name}/{op.name}"] = obs
            print(f"recorded {name}/{op.name}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0
