"""Smoke tests: each experiment script runs at a small size and writes the
files the README names."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sc_control
from sc_control import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sc_control.__file__).resolve().parents[1])


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == returncode, proc.stderr
    return proc


@pytest.mark.parametrize("script, args, csv, header, key", [
    ("bank_barriers.py", (), "value_function.csv", "X,V,action", "u2"),
    ("pf_recovery.py", ("--n", "60", "--particles", "200"), "theta_history.csv",
     "k,alpha,sigma,m,rho", "theta_hat"),
    ("bank_surface.py", ("--fast",), "surface.csv", "X_hat,S,V,region", "kappa1"),
])
def test_script_writes_csv_and_summary(tmp_path, script, args, csv, header, key):
    out = tmp_path / "out"
    run_script(script, *args, "--out", str(out))
    lines = (out / csv).read_text().splitlines()
    assert lines[0] == header and len(lines) > 2
    summary = json.loads((out / "summary.json").read_text())
    assert key in summary
    assert (out / "manifest.json").exists()


def test_retirement_study_boundaries_are_those_of_solve_retire(tmp_path, monkeypatch):
    # the study's boundaries.csv is the file solve-retire writes for the
    # same record; the record's r moves off the study's 0.01 so that the
    # wealth-to-income conversion must read it
    spec = importlib.util.spec_from_file_location(
        "retirement_study", ROOT / "scripts" / "retirement_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    monkeypatch.setitem(study.BASE, "r", 0.02)
    out = tmp_path / "study"
    monkeypatch.setattr(sys, "argv", ["retirement_study.py", "--fast", "--skip-sim",
                                      "--out", str(out)])
    study.main()
    cfg = {"retire_params": {**study.BASE, "mean_reversion": 0.15},
           "grid": {"n_x": 101, "n_y": 81}}
    cli.run("solve-retire", cfg, str(tmp_path / "cli"))
    assert (out / "boundaries.csv").read_bytes() == \
        (tmp_path / "cli" / "boundaries.csv").read_bytes()


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def test_output_digests_cover_every_op_of_the_workload():
    workloads = _workloads()
    proc = run_script("output_digests.py", "--workload", "bank-pde", "--seed", "1")
    digests = json.loads(proc.stdout)["bank-pde"]
    assert set(digests) == {op.name for op in workloads.build("bank-pde", 1)}
    for files in digests.values():
        assert files and not any(name.endswith("manifest.json") for name in files)
        assert all(len(sha) == 64 for sha in files.values())


def test_output_digests_of_named_ops_only():
    # a focus op of one workload and a smoke op of the other: each named op
    # is digested, every other one skipped
    proc = run_script("output_digests.py", "--workload", "paths", "--workload", "bank-pde",
                      "--op", "solve_bank_full", "--op", "simulate_bank")
    digests = json.loads(proc.stdout)
    assert set(digests) == {"paths", "bank-pde"}
    for ops in digests.values():
        assert set(ops) == {"solve_bank_full", "simulate_bank"}
        assert all(ops.values())
    # the same op digests the same bytes whichever others run beside it
    alone = json.loads(run_script("output_digests.py", "--workload", "bank-pde",
                                  "--op", "simulate_bank").stdout)
    assert alone["bank-pde"] == {"simulate_bank": digests["bank-pde"]["simulate_bank"]}


def test_output_digests_reject_an_unknown_op():
    proc = run_script("output_digests.py", "--op", "simulate-bank", returncode=2)
    assert "invalid choice: 'simulate-bank'" in proc.stderr
