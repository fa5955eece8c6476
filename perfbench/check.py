"""Correctness of one operation: reference comparison on seed 0, invariants on every seed.

An observation is what one execution of an operation leaves behind: the
flattened summary of each ``cli.run`` call plus a fingerprint of each solved
surface, read back from the CSV the CLI wrote.  A fingerprint keeps the
node count, the sum, the extremes, the largest magnitude and 64 nodes at a
fixed stride, so a change at any one node shows in the sum and a change of
the shape shows in the samples.

Tolerances (``TOL``) follow the gates of the ROADMAP: 1e-12 relative to the
surface's sup-norm for the bank penalty PDE, 1e-10 sup-norm for the
retirement ``u``.  The retirement controls ``y*`` and ``c*`` are difference
quotients of ``u`` over a grid step of about 1e-2, so they get 1e-8.
Elasticities are central differences with a 1% step, which multiply a
1e-12 change of the surfaces by about 50, so they get 1e-10.  The particle
filter and the Monte Carlo summaries get 1e-3 relative: a last-digit change
of a solved surface may move a path across a boundary by one step, which
moves a mean by about dt/n_paths (1.25e-5 of 127 y for simulate-retire),
while 1e-3 stays well under the Monte Carlo standard error.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# (rtol, atol): a value passes when |got - ref| <= atol + rtol * scale, where
# scale is |ref| for a summary scalar and the reference sup-norm of the
# column for a surface node
TOL = {
    "filtering": (1e-10, 1e-12),
    "bank_full": (1e-10, 1e-12),
    "bank_partial": (1e-12, 1e-12),
    "elasticity": (1e-10, 1e-12),
    "retire": (1e-10, 1e-10),
    "retire_controls": (0.0, 1e-8),
    "monte_carlo": (1e-3, 1e-9),
}
OP_TOL = {
    "filter": "filtering", "calibrate": "monte_carlo",
    "solve_bank_full": "bank_full", "solve_bank_partial": "bank_partial",
    "elasticity": "elasticity", "solve_retire": "retire",
    "solve_retire_ez": "retire", "solve_retire_finite": "retire",
    "simulate_bank": "monte_carlo", "simulate_retire": "monte_carlo",
}
# the surfaces each subcommand writes: (file, value columns, label column)
_RETIRE_SURFACE = ("surface.csv", ("u", "y_star", "c_star"), "region")
SURFACES = {
    "filter": ("filtered.csv", ("mean_post", "var_post", "innovation"), None),
    "calibrate": ("theta_history.csv", ("alpha", "sigma", "m", "rho"), None),
    "solve-bank-full": ("value_function.csv", ("V",), "action"),
    "solve-bank-partial": ("surface.csv", ("V",), "region"),
    "solve-retire": _RETIRE_SURFACE,
    "solve-retire-ez": _RETIRE_SURFACE,
    "solve-retire-finite": _RETIRE_SURFACE,
}
# exact counts of the full-size operations on seed 0; a run that differs is flagged
SEED0_COUNTS = {
    "solve_bank_partial": {"iterations": 269},
    "elasticity": {"traced penalty_solve iterations": 149},
    "solve_retire": {"iterations": 66},
    "solve_retire_ez": {"iterations": 70},
    "solve_retire_finite": {"iterations": 100},
    "simulate_retire": {"policy.expected_time": 127.2494375},
}
N_SAMPLES = 64


def flatten(tree, prefix="") -> dict:
    """Nested summary -> {"a.b": leaf}; numbers become floats, other leaves stay."""
    out = {}
    for key, val in tree.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(flatten(val, name + "."))
        elif isinstance(val, (bool, str)) or val is None:
            out[name] = val
        else:
            out[name] = float(val)
    return out


def fingerprint(values) -> dict:
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    idx = np.unique(np.linspace(0, v.size - 1, N_SAMPLES).round().astype(int))
    return {
        "n": int(v.size), "n_finite": int(finite.size),
        "sum": float(finite.sum()),
        "min": float(finite.min()) if finite.size else math.nan,
        "max": float(finite.max()) if finite.size else math.nan,
        "sup": float(np.abs(finite).max()) if finite.size else 0.0,
        "sample": [float(x) for x in v[idx]],
    }


def read_surfaces(subcommand: str, out_dir: str) -> dict:
    """Fingerprints of the surfaces a subcommand wrote to ``out_dir``."""
    if subcommand not in SURFACES:
        return {}
    fname, columns, label = SURFACES[subcommand]
    with open(os.path.join(out_dir, fname), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {f"{fname}:{c}": fingerprint([float(r[c]) for r in rows]) for c in columns}
    if label:
        counts = {}
        for r in rows:
            counts[r[label]] = counts.get(r[label], 0) + 1
        out[f"{fname}:{label}"] = counts
    return out


def observe(subcommand: str, summaries: list, out_dirs: list) -> dict:
    """The observation of one execution: one entry per ``cli.run`` call."""
    return {"calls": [{"summary": flatten(s), "surfaces": read_surfaces(subcommand, d)}
                      for s, d in zip(summaries, out_dirs)]}


def _close(got, ref, rtol, atol) -> bool:
    if isinstance(ref, (bool, str)) or ref is None or isinstance(got, (bool, str)) or got is None:
        return got == ref
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= atol + rtol * abs(ref)


def _column_tol(op_name: str, column: str):
    if OP_TOL[op_name] == "retire" and not column.endswith(":u"):
        return TOL["retire_controls"]
    return TOL[OP_TOL[op_name]]


def compare(op_name: str, got: dict, ref: dict) -> list:
    """Differences between an observation and its reference; empty when they agree."""
    errors = []
    if len(got["calls"]) != len(ref["calls"]):
        return [f"{len(got['calls'])} calls, reference has {len(ref['calls'])}"]
    rtol, atol = TOL[OP_TOL[op_name]]
    for k, (g, r) in enumerate(zip(got["calls"], ref["calls"])):
        if set(g["summary"]) != set(r["summary"]):
            errors.append(f"call {k}: summary keys differ")
            continue
        for key, ref_val in r["summary"].items():
            if not _close(g["summary"][key], ref_val, rtol, atol):
                errors.append(f"call {k}: {key} = {g['summary'][key]!r}, reference {ref_val!r}")
        for col, ref_fp in r["surfaces"].items():
            got_fp = g["surfaces"].get(col)
            if got_fp is None:
                errors.append(f"call {k}: {col} missing")
            elif "sample" not in ref_fp:  # label counts
                if got_fp != ref_fp:
                    errors.append(f"call {k}: {col} counts {got_fp}, reference {ref_fp}")
            else:
                errors += [f"call {k}: {col} {e}"
                           for e in _compare_fp(got_fp, ref_fp, *_column_tol(op_name, col))]
    return errors


def _compare_fp(got: dict, ref: dict, rtol: float, atol: float) -> list:
    if (got["n"], got["n_finite"]) != (ref["n"], ref["n_finite"]):
        return [f"has {got['n']}/{got['n_finite']} (finite) nodes, reference "
                f"{ref['n']}/{ref['n_finite']}"]
    node = atol + rtol * ref["sup"]  # per-node bound
    errors = [f"{k} = {got[k]!r}, reference {ref[k]!r}" for k in ("min", "max", "sup")
              if not _close(got[k], ref[k], 0.0, node)]
    if not _close(got["sum"], ref["sum"], 0.0, ref["n_finite"] * node):
        errors.append(f"sum = {got['sum']!r}, reference {ref['sum']!r}")
    bad = [i for i, (g, r) in enumerate(zip(got["sample"], ref["sample"]))
           if not _close(g, r, 0.0, node)]
    if bad:
        i = bad[0]
        errors.append(f"{len(bad)} sampled nodes off, e.g. #{i}: "
                      f"{got['sample'][i]!r} vs {ref['sample'][i]!r}")
    return errors


def _in_unit(x) -> bool:
    return 0.0 <= x <= 1.0


def invariants(op, obs: dict) -> list:
    """Checks that hold on every seed; empty when all hold."""
    errors = []
    for k, call in enumerate(obs["calls"]):
        s = call["summary"]

        def need(ok, what):
            if not ok:
                errors.append(f"call {k}: {what}")

        if op.subcommand == "filter":
            need(math.isfinite(s["loglik"]), "loglik not finite")
        elif op.subcommand == "calibrate":
            need(all(math.isfinite(s[f"theta_hat.{n}"]) for n in ("alpha", "sigma", "m", "rho")),
                 "theta_hat not finite")
            need(0.0 < s["effective_size"] <= s["n_particles"], "effective size outside (0, N]")
        elif op.subcommand == "solve-bank-full":
            need(s["u1"] < s["u2"], "recapitalization barrier u1 >= dividend barrier u2")
        elif op.subcommand == "solve-bank-partial":
            need(s["u1_line"] < s["u2_line"], "u1 >= u2 on the invariant line")
            # acceptance criterion 6 holds at the default 401 x 81 grid only
            need(not op.full or s["line_sup_error"] <= 1e-3, "line_sup_error > 1e-3")
        elif op.subcommand == "elasticity":
            need(all(math.isfinite(v) for key, v in s.items() if key.endswith((".I", ".u2"))),
                 "elasticity of I or u2 not finite")
        elif op.subcommand in ("solve-retire", "solve-retire-ez"):
            need(s["residual"] < 1e-6, f"stationary residual {s['residual']:.3g} >= 1e-6")
            need(math.isfinite(s["threshold_w_over_I"]), "retirement threshold not finite")
        elif op.subcommand == "solve-retire-finite":
            need(math.isfinite(s["threshold_t0"]), "retirement threshold at t0 not finite")
        elif op.subcommand == "simulate-bank":
            need(s["dividend_in_delay"] == 0, "dividend paid while an issuance is pending")
            need(_in_unit(s["liquidated_fraction"]), "liquidated fraction outside [0, 1]")
            need(math.isfinite(s["tracking_error"]), "tracking error not finite")
        elif op.subcommand == "simulate-retire":
            for side in ("policy", "benchmark"):
                need(_in_unit(s[f"{side}.retired_fraction"]),
                     f"{side} retired fraction outside [0, 1]")
                need(_in_unit(s[f"{side}.expected_share"]), f"{side} stock share outside [0, 1]")
                need(0.0 < s[f"{side}.expected_time"] <= 250.0, f"{side} time outside (0, 250]")
                need(math.isfinite(s[f"threshold_{side}"]), f"{side} threshold not finite")
    return errors


def count_mismatches(op, counts: dict) -> list:
    """Seed-0 counts of a full-size operation that differ from ``SEED0_COUNTS``."""
    if not op.full:
        return []
    return [f"{op.name}: {key} = {counts[key]!r}, expected {want!r}"
            for key, want in SEED0_COUNTS.get(op.name, {}).items()
            if key in counts and counts[key] != want]
