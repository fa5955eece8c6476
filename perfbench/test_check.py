"""Tests of the benchmark's correctness check.

Run from the root of the repository:

    python3 -m pytest perfbench/test_check.py -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import check  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def _op(workload, name, seed=0):
    return next(op for op in workloads.build(workload, seed) if op.name == name)


def _reference():
    with open(harness.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _failures(op, reference, tmp_path):
    runner = harness.Runner("bank-pde", 0, str(tmp_path), reference)
    runner.execute(op)
    return runner.failed, runner.errors.get(op.name, [])


def test_recorded_reference_passes(tmp_path):
    failed, errors = _failures(_op("bank-pde", "solve_retire_finite"), _reference(), tmp_path)
    assert failed == 0, errors


def test_perturbed_surface_reference_fails(tmp_path):
    ref = _reference()
    fp = ref["bank-pde/solve_retire_finite"]["calls"][0]["surfaces"]["surface.csv:u"]
    fp["sample"][5] += 1e-9  # ten times the 1e-10 sup-norm gate of the retirement u
    failed, errors = _failures(_op("bank-pde", "solve_retire_finite"), ref, tmp_path)
    assert failed == 1
    assert any("surface.csv:u" in e and "sampled nodes" in e for e in errors), errors


def test_perturbed_summary_reference_fails(tmp_path):
    ref = _reference()
    summary = ref["bank-pde/solve_retire_finite"]["calls"][0]["summary"]
    summary["iterations"] += 1
    failed, errors = _failures(_op("bank-pde", "solve_retire_finite"), ref, tmp_path)
    assert failed == 1
    assert any("iterations" in e for e in errors), errors


def test_fingerprint_sum_catches_a_node_between_samples():
    values = [float(i) for i in range(1000)]
    ref = check.fingerprint(values)
    values[1] += 1e-6  # node 1 is not among the 64 sampled nodes
    errors = check._compare_fp(check.fingerprint(values), ref, 1e-12, 0.0)
    assert errors and errors[0].startswith("sum")


def test_invariants_fire():
    op = _op("paths", "simulate_bank", seed=3)
    obs = {"calls": [{"summary": {"dividend_in_delay": 1.0, "liquidated_fraction": 1.5,
                                  "tracking_error": 0.01}, "surfaces": {}}]}
    errors = check.invariants(op, obs)
    assert len(errors) == 2
    assert "dividend" in errors[0] and "liquidated" in errors[1]


def test_count_mismatch_is_flagged():
    op = _op("retire-hjb", "solve_retire")
    assert check.count_mismatches(op, {"iterations": 66.0}) == []
    assert check.count_mismatches(op, {"iterations": 67.0})


def test_seed_zero_is_the_paper_and_other_seeds_stay_within_two_percent():
    base = workloads.calibrations(0)
    assert base["table"] == workloads.TABLE_BANK and base["retire"] == workloads.BASE_RETIRE
    moved = workloads.calibrations(5)
    assert moved == workloads.calibrations(5)
    for key in ("fig", "table", "retire", "theta"):
        for name, v in base[key].items():
            assert abs(moved[key][name] - v) <= workloads.PERTURB * abs(v)
