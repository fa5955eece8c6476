"""Panel ingestion and CLI plumbing."""

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from sc_control import bank_full, bank_partial, cli, filtering, panel, parallel, retire, simulate
from sc_control.errors import NoConvergence, ValidationError
from sc_control.params import BankGrid, BankParams, RetireGrid, RetireParams, from_dict

from conftest import no_child_left, stalling_stepper

TOY_CSV = """bank_id,quarter,total_assets,tier1_equity,dividends,equity_issuance,market_equity
b1,1999-Q3,100.0,10.0,0.5,0.0,12.0
b1,1999-Q4,110.0,11.0,0.5,0.0,13.0
b1,2000-Q1,104.5,10.4,0.6,0.2,12.5
"""


class TestIngestPanel:
    def test_toy_moments_match_hand_computation(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(TOY_CSV)
        out = panel.ingest_panel(path)
        b1 = out["banks"]["b1"]
        r1 = 110.0 / 100.0 - 1.0
        r2 = 104.5 / 110.0 - 1.0
        mean = (r1 + r2) / 2.0
        std = math.sqrt((r1 - mean) ** 2 + (r2 - mean) ** 2)  # ddof=1, n=2
        assert b1["return_mean_quarterly"] == pytest.approx(mean, abs=1e-15)
        assert b1["return_std_quarterly"] == pytest.approx(std, abs=1e-15)
        assert b1["alpha_hat_annual"] == pytest.approx(4 * mean)
        assert b1["sigma_hat_annual"] == pytest.approx(2 * std)
        assert np.allclose(b1["debt"], [90.0, 99.0, 94.1])
        assert out["diagnostics"] == []

    def test_nonpositive_assets_rejected_with_row_number(self, tmp_path):
        bad = TOY_CSV + "b1,2000-Q2,-5.0,1.0,0,0,1.0\n"
        path = tmp_path / "panel.csv"
        path.write_text(bad)
        out = panel.ingest_panel(path)
        assert any("row 5" in d for d in out["diagnostics"])
        with pytest.raises(ValidationError):
            panel.ingest_panel(path, strict=True)

    def test_non_monotone_quarters_flagged(self, tmp_path):
        rows = TOY_CSV + "b1,1999-Q4,105.0,10.0,0,0,12.0\n"
        path = tmp_path / "panel.csv"
        path.write_text(rows)
        out = panel.ingest_panel(path)
        assert any("strictly increasing" in d for d in out["diagnostics"])

    def test_constant_series_flagged_degenerate(self, tmp_path):
        rows = ("bank_id,quarter,total_assets,tier1_equity,dividends,"
                "equity_issuance,market_equity\n"
                "b2,2001-Q1,50,5,0,0,6\nb2,2001-Q2,50,5,0,0,6\n"
                "b2,2001-Q3,50,5,0,0,6\n")
        path = tmp_path / "panel.csv"
        path.write_text(rows)
        out = panel.ingest_panel(path)
        b2 = out["banks"]["b2"]
        assert b2["degenerate_volatility"]
        assert b2["return_std_quarterly"] == 0.0

    @pytest.mark.parametrize("column, value", [
        ("total_assets", "nan"), ("total_assets", "inf"), ("market_equity", "-inf")])
    def test_non_finite_number_rejected_with_row_number(self, tmp_path, column, value):
        lines = TOY_CSV.splitlines()
        row = dict(zip(lines[0].split(","), lines[2].split(",")), **{column: value})
        lines[2] = ",".join(row.values())
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        message = f"row 3: {column}={value} is not finite"
        out = panel.ingest_panel(path)
        assert out["diagnostics"] == [message]
        b1 = out["banks"]["b1"]
        assert b1["n_quarters"] == 2
        assert math.isfinite(b1["return_mean_quarterly"])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            panel.ingest_panel(path, strict=True)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            panel.ingest_panel(path)


class TestCli:
    def test_unknown_subcommand_exits_2(self):
        # the child finds the package where this process found it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "sc_control", "no-such-command",
             "--config", "x.json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2

    def test_solve_bank_full_writes_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = {"bank_params": {"mu": 0.1052, "alpha": 0.1159, "sigma": 0.0311,
                               "delta": 0.2330, "omega": 0.3150,
                               "kappa_min": 0.048, "issue_cost_K": 0.002,
                               "delay_Delta": 0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = cli.main(["solve-bank-full", "--config", str(cfg_path),
                       "--out", str(out_dir)])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["u1"] == pytest.approx(0.0622, abs=2e-3)
        assert summary["u2"] == pytest.approx(0.1120, abs=2e-3)
        assert (out_dir / "value_function.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "solve-bank-full"
        assert manifest["config"] == cfg
        env = manifest["environment"]
        assert (env["python"], env["numpy"], env["scipy"]) == \
            (platform.python_version(), np.__version__, scipy.__version__)
        assert env["threads"] == {var: os.environ[var] for var in cli.THREAD_VARS
                                  if var in os.environ}
        assert env["threads"]["OMP_NUM_THREADS"] == "1"
        assert "MKL_NUM_THREADS" not in env["threads"]
        assert "environment" not in summary

    def test_rerun_from_manifest_reproduces_summary(self, tmp_path):
        cfg = {"theta": {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.3},
               "series": list(np.linspace(0.0, 0.4, 30))}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["filter", "--config", str(cfg_path), "--out",
                         str(out1), "--seed", "5"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cli.run(manifest["subcommand"], manifest["config"], str(out2),
                seed=manifest["seed"])
        assert (out1 / "summary.json").read_text() == \
            (out2 / "summary.json").read_text()
        assert (out1 / "filtered.csv").read_text() == \
            (out2 / "filtered.csv").read_text()

    def test_filter_runs_the_recursion_once(self, tmp_path, monkeypatch):
        theta = {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.3}
        series = list(np.linspace(0.0, 0.4, 30))
        calls = []
        filter_series = filtering.filter_series
        monkeypatch.setattr(filtering, "filter_series",
                            lambda *a, **kw: calls.append(a) or filter_series(*a, **kw))
        summary = cli.run("filter", {"theta": theta, "series": series}, str(tmp_path))
        assert len(calls) == 1
        # the summed states are those of a fresh recursion
        assert summary["loglik"] == filtering.log_likelihood(series, tuple(theta.values()))

    def test_solver_failure_exits_1_with_error_json(self, tmp_path):
        cfg = {"bank_params": {"mu": 0.1052, "alpha": 0.1159, "sigma": 0.0311,
                               "delta": 0.2330, "omega": 0.3150,
                               "kappa_min": 0.048, "issue_cost_K": 9.0,
                               "delay_Delta": 0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = cli.main(["solve-bank-full", "--config", str(cfg_path),
                       "--out", str(out_dir)])
        assert rc == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "NoSolution"

    @pytest.mark.parametrize("subcommand, block", [
        ("filter", {"theta": {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.3}}),
        ("calibrate", {"pf": {"n_particles": 100}})])
    def test_empty_csv_cell_exits_1_naming_its_index(self, tmp_path, subcommand, block):
        # an empty cell reads as NaN; it must not reach the likelihood
        csv = tmp_path / "series.csv"
        csv.write_text("k,value\n0,0.0\n1,0.01\n2,\n3,0.03\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**block, "series_csv": str(csv)}))
        out_dir = tmp_path / "out"
        rc = cli.main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "series[2]" in err["message"]
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("block, typo", [
        ("bank_params", "sigmaa"), ("grid", "n_xx"), ("pf", "n_particle")])
    def test_misspelled_config_key_exits_1_naming_it(self, tmp_path, block, typo):
        bank = {"mu": 0.1052, "alpha": 0.1159, "sigma": 0.0311, "delta": 0.2330,
                "omega": 0.3150, "kappa_min": 0.048}
        sub, cfg = {
            "bank_params": ("solve-bank-full", {"bank_params": bank}),
            "grid": ("solve-bank-partial", {"bank_params": bank, "grid": {}}),
            "pf": ("calibrate", {"series": [0.0, 0.1, 0.2], "pf": {}}),
        }[block]
        cfg[block][typo] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert typo in err["message"]

    @pytest.mark.parametrize("sub, key", [
        ("filter", "serie"), ("calibrate", "seed"), ("solve-bank-full", "n_plots"),
        ("solve-bank-partial", "grids"), ("solve-retire", "retire_param"),
        ("solve-retire-finite", "horizon_T"), ("solve-retire-ez", "eis_psi"),
        ("simulate-bank", "n_path"), ("simulate-bank", "dump_paths"),
        ("simulate-retire", "start_w"), ("elasticity", "parameter")])
    def test_unknown_top_level_key_exits_1_naming_it(self, tmp_path, monkeypatch, sub, key):
        # the check comes before the handler, which must not run
        monkeypatch.setitem(cli.SUBCOMMANDS, sub, (None, cli.SUBCOMMANDS[sub][1]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: 7}))
        out_dir = tmp_path / "out"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValidationError", f"unknown fields for {sub}: ['{key}']")
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("sub, extra, keys", [
        ("filter", {"theta": {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.3}},
         ["series", "series_csv"]),
        ("calibrate", {}, ["series", "series_csv"]),
        ("calibrate", {"panel_csv": "panel.csv"}, ["series", "series_csv", "panel_csv"])])
    def test_two_series_sources_exit_1_naming_them(self, tmp_path, sub, extra, keys):
        # neither source silently wins over the other
        csv = tmp_path / "series.csv"
        csv.write_text("k,value\n0,0.0\n1,0.01\n2,0.02\n")
        cfg = {"series": [0.01 * k for k in range(10)], "series_csv": str(csv), **extra}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValidationError", f"conflicting series sources {keys}: set only one")
        assert not (out_dir / "summary.json").exists()

    def test_calibrate_bank_id_without_a_panel_exits_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"series": [0.0, 0.01, 0.02, 0.03], "bank_id": "b1"}))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err == {"error": "ValidationError",
                       "message": "bank_id picks a bank of panel_csv, which is not set"}
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("sub, cfg, message", [
        ("filter", {"series": [0.0, 0.01, 0.02]}, "missing config key 'theta'"),
        ("filter", {"theta": {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.3}},
         "missing series source: set one of ['series', 'series_csv']"),
        *(("calibrate", cfg,
           "missing series source: set one of ['series', 'series_csv', 'panel_csv']")
          for cfg in ({}, {"pf": {"n_particles": 500}})),
        *((sub, {}, "missing config key 'bank_params'")
          for sub in ("solve-bank-full", "solve-bank-partial", "simulate-bank", "elasticity")),
        *((sub, {}, "missing config key 'retire_params'")
          for sub in ("solve-retire", "solve-retire-ez", "solve-retire-finite",
                      "simulate-retire"))])
    def test_missing_config_key_exits_1_naming_it(self, tmp_path, sub, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err == {"error": "ValidationError", "message": message}
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("workload", ["bank-pde", "retire-hjb", "paths"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_benchmark_config_passes_the_key_check(self, tmp_path, monkeypatch,
                                                         workload, seed):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import workloads

        ran = []
        for sub, (_, keys) in list(cli.SUBCOMMANDS.items()):  # record each call, no solve
            monkeypatch.setitem(cli.SUBCOMMANDS, sub,
                                (lambda cfg, args, out, sub=sub: ran.append(sub) or {}, keys))
        for op in workloads.build(workload, seed):
            for k, (cfg, s) in enumerate(op.calls):
                cli.run(op.subcommand, cfg, str(tmp_path / op.name / str(k)), seed=s)
        assert sorted(set(ran)) == sorted(cli.SUBCOMMANDS)

    def test_seed_in_the_pf_block_exits_1_naming_the_seed_option(self, tmp_path):
        cfg = {"series": [0.0, 0.01, 0.02, 0.03], "pf": {"n_particles": 200, "seed": 5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "pf.seed" in err["message"] and "--seed" in err["message"]
        assert not (out_dir / "summary.json").exists()

    # json writes NaN and Infinity, which json.load reads back as floats
    @pytest.mark.parametrize("field, theta", [
        ("rho", {"rho": 1.5}), ("rho", {"rho": -1.5}), ("sigma", {"sigma": -0.05}),
        ("m", {"m": math.nan}), ("alpha", {"alpha": math.inf})])
    def test_unusable_theta_exits_1_naming_it(self, tmp_path, field, theta):
        cfg = {"theta": {"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.30, **theta},
               "series": [0.0, 0.01, 0.02, 0.03]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main(["filter", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{field}=")
        assert not (out_dir / "filtered.csv").exists()

    @pytest.mark.parametrize("block, message", [
        ({"alpha": 0.04, "sigma": 0.05, "m": 0.03, "rho": -0.30, "extra": 1},
         "unknown fields for theta: ['extra']"),
        ({"alpha": 0.04, "sigma": 0.05, "rho": -0.30}, "missing fields for theta: ['m']")])
    def test_unknown_or_missing_theta_key_exits_1_naming_it(self, tmp_path, block, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"theta": block, "series": [0.1, 0.2, 0.15]}))
        out_dir = tmp_path / "out"
        assert cli.main(["filter", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert (err["error"], err["message"]) == ("ValidationError", message)
        assert not (out_dir / "filtered.csv").exists()

    @pytest.mark.parametrize("n_particles", [200.5, 150.0, "200", 99])
    def test_unusable_particle_count_exits_1_naming_it(self, tmp_path, n_particles):
        cfg = {"series": [0.0, 0.01, 0.02, 0.03], "pf": {"n_particles": n_particles}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "n_particles" in err["message"]
        assert not (out_dir / "summary.json").exists()

    def test_calibrate_subcommand_smoke(self, tmp_path):
        from sc_control import filtering as fl

        _, obs = fl.simulate_signal_series((0.04, 0.05, 0.03, -0.3), n=60, seed=1)
        cfg = {"series": obs.tolist(), "pf": {"n_particles": 300}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = cli.main(["calibrate", "--config", str(cfg_path), "--out",
                       str(out_dir), "--seed", "3"])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["theta_hat"]) == {"alpha", "sigma", "m", "rho"}
        assert (out_dir / "theta_history.csv").exists()

    def test_calibrate_from_panel_csv(self, tmp_path):
        # build a panel long enough for the particle filter from a simulated
        # reporting series
        from sc_control import filtering as fl
        from test_cli import TOY_CSV  # noqa: F401  (header reference)

        _, obs = fl.simulate_signal_series((0.04, 0.05, 0.03, -0.3), n=80,
                                           seed=2, m0=math.log(100.0))
        rows = ["bank_id,quarter,total_assets,tier1_equity,dividends,"
                "equity_issuance,market_equity"]
        for k, v in enumerate(obs):
            year, q = 1990 + k // 4, k % 4 + 1
            ta = math.exp(v)
            rows.append(f"bx,{year}-Q{q},{ta},{0.1 * ta},0,0,{0.12 * ta}")
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = {"panel_csv": str(path), "bank_id": "bx",
               "pf": {"n_particles": 300}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = cli.main(["calibrate", "--config", str(cfg_path), "--out",
                       str(out_dir), "--seed", "1"])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["panel_moments"]["bank_id"] == "bx"
        assert "alpha_hat_annual" in summary["panel_moments"]

    def test_calibrate_unknown_bank_id_exits_1(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(TOY_CSV)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"panel_csv": str(path), "bank_id": "bx"}))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err == {"error": "ValidationError", "message": "bank 'bx' not in panel"}

    @pytest.mark.parametrize("bank_id, message", [
        ("", "bank '' not in panel"), (0, "bank_id=0 must be a string"),
        (False, "bank_id=False must be a string")])
    def test_calibrate_falsy_bank_id_is_not_the_first_bank(self, tmp_path, bank_id, message):
        # a given id is used as given: only an absent one defaults to the first bank
        path = tmp_path / "panel.csv"
        path.write_text(TOY_CSV)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"panel_csv": str(path), "bank_id": bank_id}))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err == {"error": "ValidationError", "message": message}
        assert not (out_dir / "summary.json").exists()


    @pytest.mark.parametrize("rows, cause", [
        ([], "0 rows or banks rejected"),
        (["b1,1999-Q3,-1.0,1.0,0,0,1.0", "b1,1999-Q4,nan,1.0,0,0,1.0"],
         "2 rows or banks rejected; row 2: total_assets must be > 0; "
         "row 3: total_assets=nan is not finite")])
    def test_calibrate_panel_without_a_usable_bank_exits_1(self, tmp_path, rows, cause):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([TOY_CSV.splitlines()[0], *rows]) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"panel_csv": str(path)}))
        out_dir = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"] == f"panel {str(path)!r} has no usable bank: {cause}"


class TestCliSolverHandlers:
    """Tiny-grid end-to-end runs of the remaining subcommands."""

    BANK = {"mu": 0.1052, "alpha": 0.1285, "sigma": 0.0521, "delta": 0.2570,
            "omega": 0.2510, "kappa_min": 0.048, "issue_cost_K": 0.002,
            "delay_Delta": 0.5, "noise_m": 0.0285, "rho": -0.2671,
            "conf_a": 0.7993}
    RET = {"r": 0.01, "mu_stock": 0.05, "sigma_stock": 0.18, "gamma": 3.0,
           "B": 2.0, "beta": 0.04, "mu_income": 0.005, "sigma_income": 0.10,
           "recovery": 0.8, "jump_intensity": 0.05, "mean_reversion": 0.15,
           "z_bar": 0.0}
    RGRID = {"n_x": 61, "n_y": 41, "penalty_schedule": [1e3, 1e4, 1e5]}

    def bank_grid(self):
        s_inf = self.BANK["noise_m"] * self.BANK["sigma"] * (1 - self.BANK["rho"])
        return {"x_lo": -0.03, "x_hi": 0.65, "n_x": 151, "y_lo": s_inf / 20,
                "y_hi": 4 * s_inf, "n_y": 21, "stretching": "geometric"}

    @pytest.mark.parametrize("sub, cfg, message", [
        ("filter", {"theta": 5, "series": [0.1, 0.2]}, "theta must be a JSON object, not int"),
        ("filter", {"theta": None, "series": [0.1, 0.2]},
         "theta must be a JSON object, not NoneType"),
        ("calibrate", {"series": [0.1, 0.2], "pf": 5}, "pf must be a JSON object, not int"),
        ("solve-retire", {"retire_params": RET, "grid": 3},
         "grid must be a JSON object, not int"),
        ("solve-bank-partial", {"bank_params": BANK, "grid": None},
         "grid must be a JSON object, not NoneType"),
        ("solve-bank-full", 7, "solve-bank-full must be a JSON object, not int"),
        ("solve-bank-full", {"bank_params": [1, 2]},
         "bank_params must be a JSON object, not list")])
    def test_config_block_that_is_not_an_object_exits_1_naming_it(self, tmp_path, sub, cfg,
                                                                    message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert (err["error"], err["message"]) == ("ValidationError", message)
        assert not (out_dir / "summary.json").exists()

    def test_default_grids_round_trip_through_run(self, tmp_path):
        p = BankParams(**self.BANK)
        records = (bank_partial.default_grid(p, n_x=21, n_s=7),
                   retire.default_retire_grid(n_xi=21, n_z=15))
        bank, ret = (dict(dataclasses.asdict(g),
                          penalty_schedule=list(g.penalty_schedule)) for g in records)
        assert [from_dict(type(g), d, "grid")
                for g, d in zip(records, (bank, ret))] == list(records)
        out = cli.run("solve-bank-partial", {"bank_params": self.BANK, "grid": bank},
                      str(tmp_path / "a"))
        assert out["iterations"] == 39
        # the published "residuals" value is the line diagnostic, unchanged
        assert out["residuals"] == out["line_sup_error"]
        cli.run("solve-retire-finite",
                {"retire_params": {**self.RET, "horizon_T": 2.0}, "grid": ret, "dt": 1.0},
                str(tmp_path / "b"))
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["grid"] == ret

    def test_solve_bank_partial(self, tmp_path):
        out = cli.run("solve-bank-partial",
                      {"bank_params": self.BANK, "grid": self.bank_grid()},
                      str(tmp_path))
        assert out["line_sup_error"] < 5e-3
        assert (tmp_path / "boundaries.csv").exists()

    def test_solve_retire_variants(self, tmp_path):
        out = cli.run("solve-retire", {"retire_params": self.RET,
                                       "grid": self.RGRID}, str(tmp_path / "a"))
        assert 30 < out["threshold_w_over_I"] < 90
        out_ez = cli.run("solve-retire-ez",
                         {"retire_params": {**self.RET, "eis_psi": 0.5},
                          "grid": self.RGRID}, str(tmp_path / "b"))
        assert out_ez["threshold_w_over_I"] < out["threshold_w_over_I"]
        out_fh = cli.run("solve-retire-finite",
                         {"retire_params": {**self.RET, "horizon_T": 20.0},
                          "grid": self.RGRID, "dt": 1.0}, str(tmp_path / "c"))
        assert (tmp_path / "c" / "threshold_by_age.csv").exists()
        assert out_fh["threshold_t0"] > 0

    @pytest.mark.parametrize("subcommand, extra", [
        ("solve-retire", {}), ("solve-retire-ez", {"eis_psi": 0.5})])
    def test_mpc_csv_is_the_mpc_and_human_capital_curves(self, tmp_path, subcommand, extra):
        ret, grid = {**self.RET, **extra}, {"n_x": 21, "n_y": 15}
        summary = cli.run(subcommand, {"retire_params": ret, "grid": grid}, str(tmp_path))
        assert set(summary) == {"threshold_w_over_I", "participation_target", "iterations",
                                "residual"}
        assert sorted(os.listdir(tmp_path)) == ["boundaries.csv", "manifest.json", "mpc.csv",
                                                "summary.json", "surface.csv"]
        lines = (tmp_path / "mpc.csv").read_text().splitlines()
        assert lines[0] == "w_over_I,mpc,human_capital_per_income"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        solve = retire.epstein_zin_solve if extra else retire.penalty_solve_retire
        sol = solve(from_dict(RetireParams, ret, "retire_params"),
                    from_dict(RetireGrid, grid, "grid"))
        w, mpc = retire.mpc_curve(sol)
        expected = np.stack([w, mpc, retire.implicit_human_capital(sol, w, 1.0, 0.0)])
        assert got.tobytes() == expected.tobytes()
        # the default w grid stops short of the threshold; past it the curve is nan
        w_star = sol.wealth_threshold()
        assert w[-1] < w_star
        retired = retire.implicit_human_capital(sol, [1.01 * w_star, 1.5 * w_star], 1.0, 0.0)
        assert np.isnan(retired).all()

    @pytest.mark.parametrize("n_y", [21, 20])
    def test_threshold_by_age_reads_the_cell_of_z_0(self, tmp_path, n_y):
        ret = {**self.RET, "horizon_T": 10.0}
        grid = {"n_x": 31, "n_y": n_y}
        cli.run("solve-retire-finite", {"retire_params": ret, "grid": grid, "dt": 1.0},
                str(tmp_path))
        got = np.loadtxt(tmp_path / "threshold_by_age.csv", delimiter=",", skiprows=1)[:, 1]
        p = from_dict(RetireParams, ret, "retire_params")
        sol = retire.finite_horizon_solve(p, from_dict(RetireGrid, grid, "grid"), dt=1.0)
        rows = retire.wealth_to_income(sol.xi_retire_by_age, p.r)
        j = n_y // 2
        if n_y % 2:  # a node on z = 0: its own row, bit for bit
            assert sol.z[j] == 0.0
            assert got.tobytes() == rows[:, j].tobytes()
        else:  # z = 0 midway between two rows: between their thresholds
            lo, hi = np.minimum(rows[:, j - 1], rows[:, j]), np.maximum(rows[:, j - 1], rows[:, j])
            assert np.all((lo <= got) & (got <= hi))
            assert np.any((lo < got) & (got < hi))

    def test_simulate_subcommands(self, tmp_path):
        out = cli.run("simulate-bank",
                      {"bank_params": self.BANK, "horizon": 5.0, "n_paths": 50,
                       "dt": 0.0625, "grid": self.bank_grid()},
                      str(tmp_path / "a"), seed=4)
        assert out["dividend_in_delay"] == 0
        assert out["tracking_error"] == pytest.approx(
            out["long_run_tracking_sd"], rel=0.35)
        out_r = cli.run("simulate-retire",
                        {"retire_params": self.RET, "grid": self.RGRID,
                         "n_paths": 500, "dt": 0.1}, str(tmp_path / "b"), seed=4)
        assert out_r["policy"]["expected_time"] > 0

    @pytest.mark.parametrize("subcommand, field, run", [
        ("simulate-retire", "n_paths", {"n_paths": 0}),
        ("simulate-retire", "dt", {"dt": 0}),
        ("simulate-retire", "dt", {"dt": -0.5}),
        ("simulate-retire", "dt", {"dt": "0.1"}),
        ("simulate-retire", "start_w_over_i", {"start_w_over_i": -5}),
        ("simulate-retire", "n_paths", {"n_paths": True}),
        ("simulate-retire", "dt", {"dt": True}),
        ("simulate-retire", "start_w_over_i", {"start_w_over_i": True}),
        ("simulate-bank", "n_paths", {"n_paths": 0}),
        ("simulate-bank", "dt", {"dt": 0}),
        ("simulate-bank", "horizon", {"horizon": 0}),
        ("simulate-bank", "n_paths", {"n_paths": True}),
        ("simulate-bank", "dt", {"dt": True}),
        ("simulate-bank", "horizon", {"horizon": True})])
    def test_unusable_run_settings_exit_1_naming_them(self, tmp_path, subcommand, field, run):
        params = ({"retire_params": self.RET} if subcommand == "simulate-retire"
                  else {"bank_params": self.BANK})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**params, **run}))
        out_dir = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{field}=")
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("subcommand, run, named", [
        ("simulate-bank", {"horizon": 0.01}, "dt=0.0625 is longer than horizon=0.01"),
        ("simulate-retire", {"dt": 300.0}, "dt=300.0 is longer than horizon=250.0")])
    def test_horizon_shorter_than_one_step_exits_1_naming_both(self, tmp_path, subcommand,
                                                                run, named):
        params = ({"retire_params": self.RET} if subcommand == "simulate-retire"
                  else {"bank_params": self.BANK})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**params, **run}))
        out_dir = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(named)
        assert not (out_dir / "summary.json").exists()

    def test_bank_dt_above_delta_over_8_exits_1_before_solving(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bank_full, "solve_barriers", lambda *a, **k: pytest.fail("solved"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank_params": self.BANK, "grid": self.bank_grid(),
                                        "dt": 0.2}))
        out_dir = tmp_path / "out"
        assert cli.main(["simulate-bank", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith("dt=0.2 must be <= Delta/8 = 0.0625")

    def test_noisy_bank_run_matches_the_pde_line_policy(self, tmp_path, monkeypatch):
        # the penalty solve's full_line is the closed-form line policy the run solves
        cfg = {"bank_params": self.BANK, "horizon": 5.0, "n_paths": 200,
               "grid": self.bank_grid()}
        p = from_dict(BankParams, self.BANK, "bank_params")
        grid = from_dict(BankGrid, self.bank_grid(), "grid")
        line = bank_partial.penalty_solve(p, grid).full_line
        ours = cli.run("simulate-bank", cfg, str(tmp_path / "ours"), seed=3)
        simulate_bank = simulate.simulate_bank
        monkeypatch.setattr(simulate, "simulate_bank",
                            lambda p, policy, **run: simulate_bank(p, line, **run))
        pde = cli.run("simulate-bank", cfg, str(tmp_path / "pde"), seed=3)
        assert ours == pde
        files = sorted(os.listdir(tmp_path / "ours"))
        assert files == sorted(os.listdir(tmp_path / "pde"))
        for name in set(files) - {"manifest.json"}:  # the manifest holds the out path
            assert (tmp_path / "ours" / name).read_bytes() == \
                (tmp_path / "pde" / name).read_bytes(), name

    def test_noisy_bank_run_solves_nothing_on_its_grid(self, tmp_path, monkeypatch):
        p = from_dict(BankParams, self.BANK, "bank_params")
        off_line = {**self.bank_grid(), "y_lo": 2 * p.s_infinity}  # S range misses the line
        with pytest.raises(ValidationError, match="straddle"):
            bank_partial.penalty_solve(p, from_dict(BankGrid, off_line, "grid"))
        monkeypatch.setattr(bank_partial, "penalty_solve", lambda *a, **k: pytest.fail("solved"))
        run = {"bank_params": self.BANK, "horizon": 2.0, "n_paths": 40}
        summaries = [cli.run("simulate-bank", {**run, **grid}, str(tmp_path / str(i)), seed=1)
                     for i, grid in enumerate([{}, {"grid": self.bank_grid()},
                                               {"grid": off_line}])]
        assert summaries[0] == summaries[1] == summaries[2]

    @pytest.mark.parametrize("noise_m", [0.0285, 0.0])
    def test_unknown_bank_grid_field_exits_1_naming_it(self, tmp_path, monkeypatch, noise_m):
        monkeypatch.setattr(bank_full, "solve_barriers", lambda *a, **k: pytest.fail("solved"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank_params": {**self.BANK, "noise_m": noise_m},
                                        "grid": {**self.bank_grid(), "n_xx": 5}}))
        out_dir = tmp_path / "out"
        assert cli.main(["simulate-bank", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValidationError", "unknown fields for grid: ['n_xx']")
        assert not (out_dir / "summary.json").exists()

    def test_traced_bank_run_counts_every_path_step(self, tmp_path, monkeypatch):
        # the benchmark's trace reads the path count from the horizon states
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import tracing

        n_paths, dt, horizon = 7, 0.0625, 1.5
        with tracing.Tracer() as tracer:
            cli.run("simulate-bank", {"bank_params": {**self.BANK, "noise_m": 0.0},
                                      "horizon": horizon, "n_paths": n_paths, "dt": dt},
                    str(tmp_path))
        (span,) = [s for s in tracer.spans if s.name == "simulate.simulate_bank"]
        assert span.counts["path_steps"] == round(horizon / dt) * n_paths

    def test_traced_retire_run_races_the_policy_once_in_this_process(self, tmp_path,
                                                                      monkeypatch):
        # the benchmark's trace divides by the time of this process's
        # simulate_retirement spans; the benchmark side races in a child
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import tracing

        n_paths, dt = 40, 0.5
        with tracing.Tracer() as tracer:
            summary = cli.run("simulate-retire",
                              {"retire_params": self.RET, "grid": {"n_x": 21, "n_y": 15},
                               "n_paths": n_paths, "dt": dt}, str(tmp_path))
        (span,) = [s for s in tracer.spans if s.name == "simulate.simulate_retirement"]
        assert span.counts["path_steps"] == summary["policy"]["expected_time"] * n_paths / dt
        assert no_child_left()

    @pytest.mark.parametrize("dt", [0, -0.5, 20, True])
    def test_unusable_finite_horizon_dt_exits_1_naming_it(self, tmp_path, dt):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"retire_params": {**self.RET, "horizon_T": 5.0},
                                        "grid": self.RGRID, "dt": dt}))
        out_dir = tmp_path / "out"
        assert cli.main(["solve-retire-finite", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"dt={dt!r}")
        assert not (out_dir / "summary.json").exists()

    def test_non_finite_config_number_exits_1_naming_it(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank_params": {**self.BANK, "sigma": math.inf}}))
        assert "Infinity" in cfg_path.read_text()
        out_dir = tmp_path / "out"
        assert cli.main(["solve-bank-full", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "field sigma is not finite" in err["message"]

    @pytest.mark.parametrize("block, field, value", [
        ("retire_params", "gamma", "3"), ("retire_params", "gamma", True),
        ("retire_params", "gamma", None), ("grid", "n_x", 11.5), ("grid", "n_x", 11.0),
        ("grid", "n_x", True), ("grid", "penalty_schedule", 100000.0),
        ("grid", "penalty_schedule", [1e3, "1e5"]), ("grid", "penalty_schedule", [False])])
    def test_mistyped_config_value_exits_1_naming_it(self, tmp_path, block, field, value):
        cfg = {"retire_params": self.RET, "grid": self.RGRID}
        cfg[block] = {**cfg[block], field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main(["solve-retire", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"field {field} ")
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("subcommand, extra, stalls_in, name", [
        ("solve-retire", {}, None, "solve"),
        ("solve-retire-ez", {"eis_psi": 0.5}, None, "solve"),
        ("simulate-retire", {}, (0.15,), "policy"),
        ("simulate-retire", {}, (0.0,), "benchmark")])
    def test_stalled_stage_raises_under_strict_only(self, tmp_path, monkeypatch, subcommand,
                                                    extra, stalls_in, name):
        cfg = {"retire_params": {**self.RET, **extra}, "grid": {"n_x": 11, "n_y": 5}}
        if subcommand == "simulate-retire":
            cfg.update(n_paths=20, dt=0.5)
        monkeypatch.setattr(retire, "_RetireStepper", stalling_stepper((1e4,), stalls_in))
        with pytest.raises(NoConvergence, match=f"^{name}: 1 penalty stage"):
            cli.run(subcommand, cfg, str(tmp_path / "strict"), strict=True)
        assert not (tmp_path / "strict" / "summary.json").exists()
        keys = {"simulate-retire": {"policy", "benchmark", "threshold_policy",
                                    "threshold_benchmark"}}.get(
            subcommand, {"threshold_w_over_I", "participation_target", "iterations", "residual"})
        assert set(cli.run(subcommand, cfg, str(tmp_path / "lax"))) == keys
        # nothing stalled: --strict passes
        monkeypatch.setattr(retire, "_RetireStepper", stalling_stepper(()))
        assert set(cli.run(subcommand, cfg, str(tmp_path / "ok"), strict=True)) == keys

    @pytest.mark.parametrize("sigma_z", [0.0, math.nan, -0.18])
    def test_unusable_sigma_z_exits_1_naming_it(self, tmp_path, sigma_z):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"retire_params": {**self.RET, "sigma_z": sigma_z},
                                        "grid": {"n_x": 21, "n_y": 15}}))
        out_dir = tmp_path / "out"
        assert cli.main(["solve-retire", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError" and "sigma_z" in err["message"]
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("subcommand", ["solve-bank-full", "solve-bank-partial"])
    def test_zero_delay_exits_1_naming_it(self, tmp_path, subcommand):
        cfg = {"bank_params": {**self.BANK, "delay_Delta": 0.0}}
        if subcommand == "solve-bank-partial":
            cfg["grid"] = self.bank_grid()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith("delay_Delta=0.0")

    @pytest.mark.parametrize("n_plot", [0, 1, 2.5, True, "301", None])
    def test_unusable_n_plot_exits_1_before_solving(self, tmp_path, monkeypatch, n_plot):
        monkeypatch.setattr(bank_full, "solve_barriers", lambda *a, **k: pytest.fail("solved"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank_params": self.BANK, "n_plot": n_plot}))
        out_dir = tmp_path / "out"
        assert cli.main(["solve-bank-full", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"n_plot={n_plot!r}")
        assert not (out_dir / "value_function.csv").exists()

    def test_bank_surface_csv_reads_back_to_the_solution(self, tmp_path, table_b_small):
        sol = table_b_small
        grid = bank_partial.default_grid(sol.params, n_x=21, n_s=7)
        cli.run("solve-bank-partial",
                {"bank_params": dataclasses.asdict(sol.params),
                 "grid": dict(dataclasses.asdict(grid),
                              penalty_schedule=list(grid.penalty_schedule))},
                str(tmp_path))
        with open(tmp_path / "surface.csv", encoding="utf-8") as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh]
        assert header == ["X_hat", "S", "V", "region"]
        n_s, n_x = sol.V.shape
        assert len(rows) == n_s * n_x
        # S-major: row j*n_x + i holds node (xs[i], ss[j])
        cols = list(zip(*rows))
        num = [np.array([float(v) for v in c]).reshape(n_s, n_x) for c in cols[:3]]
        np.testing.assert_array_equal(num[0], np.broadcast_to(sol.xs, (n_s, n_x)))
        np.testing.assert_array_equal(num[1], np.broadcast_to(sol.ss[:, None], (n_s, n_x)))
        np.testing.assert_array_equal(num[2], sol.V)
        labels = np.array(cols[3]).reshape(n_s, n_x)
        np.testing.assert_array_equal(labels, np.array(["dead", "RR", "CR", "DR"])[sol.regions])
        assert {"dead", "RR", "CR", "DR"} <= set(cols[3])

    def test_elasticity_subcommand(self, tmp_path):
        out = cli.run("elasticity",
                      {"bank_params": self.BANK, "parameters": ["S", "omega"],
                       "grid": self.bank_grid()}, str(tmp_path))
        assert out["elasticities"]["omega"]["I"] == 0.0
        assert out["elasticities"]["S"]["I"] == pytest.approx(-3.756, rel=0.2)

    def test_elasticity_computes_the_base_line_once(self, tmp_path, monkeypatch):
        calls = []
        solve = bank_full.solve_barriers
        monkeypatch.setattr(bank_full, "solve_barriers",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        names = ["sigma", "omega"]
        out = cli.run("elasticity", {"bank_params": self.BANK, "parameters": names},
                      str(tmp_path))
        # one base line and two perturbed lines per parameter
        assert len(calls) == 5
        # the rows equal standalone calls, which compute their own base
        p = from_dict(BankParams, self.BANK, "bank_params")
        grid = bank_partial.default_grid(p, n_x=201, n_s=41)
        for name in names:
            alone = bank_partial.elasticity(p, [name], rel_step=0.01, grid=grid)[name]
            assert {k: v.hex() for k, v in out["elasticities"][name].items()} == \
                {k: v.hex() for k, v in alone.items()}
        # and the figures recorded when each call still recomputed its base
        assert out["elasticities"]["sigma"]["V"].hex() == "-0x1.3828b3339c566p-2"
        assert out["elasticities"]["omega"]["u1"].hex() == "-0x1.f50950c103ed5p-6"

    @pytest.mark.parametrize("run, message", [
        ({"parameters": ["S", "sigmaa"]}, "param_name='sigmaa' has no elasticity"),
        ({"parameters": ["S_bar"]}, "param_name='S_bar' has no elasticity"),
        ({"parameters": "sigma"}, "names must be a list or tuple of parameter names, not str"),
        ({"parameters": ["S", "sigma"], "rel_step": 0}, "rel_step=0 must be")])
    def test_unusable_elasticity_settings_exit_1_before_solving(self, tmp_path, monkeypatch,
                                                                run, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(bank_partial, "penalty_solve", no_solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank_params": self.BANK, "grid": self.bank_grid(), **run}))
        out_dir = tmp_path / "out"
        assert cli.main(["elasticity", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = json.loads((out_dir / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(message)
        assert not (out_dir / "summary.json").exists()


class TestSimulateRetireFork:
    """simulate-retire races the benchmark side in a forked child: the same
    bytes and the same error precedence as the inline run, and no child left."""

    RET = TestCliSolverHandlers.RET
    RUN = {"grid": {"n_x": 21, "n_y": 15}, "n_paths": 300, "dt": 0.25}

    HOW = ("fork", "inline")

    def run_both(self, tmp_path, monkeypatch, cfg, seed=0):
        """The exit codes of cli.main forked and inline, writing under
        tmp_path/fork and tmp_path/inline; neither run leaves a child."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        codes = []
        for how in self.HOW:
            with monkeypatch.context() as m:
                if how == "inline":
                    m.setattr(parallel, "fork", parallel.inline)
                codes.append(cli.main(["simulate-retire", "--config", str(cfg_path),
                                       "--seed", str(seed), "--out", str(tmp_path / how)]))
            assert no_child_left()
        return codes

    @pytest.mark.parametrize("world, seed", [({}, 0), ({}, 1), ({"power_nu": 3.0}, 0)],
                             ids=["seed0", "seed1", "power_nu"])
    def test_summary_bytes_equal_the_inline_run(self, tmp_path, monkeypatch, world, seed):
        codes = self.run_both(tmp_path, monkeypatch,
                              {"retire_params": {**self.RET, **world}, **self.RUN}, seed)
        assert codes == [0, 0]
        summary = (tmp_path / "fork" / "summary.json").read_bytes()
        assert summary == (tmp_path / "inline" / "summary.json").read_bytes()
        assert json.loads(summary)["benchmark"]["policy"] == "benchmark"

    def test_benchmark_solve_error_in_the_child_equals_the_inline_one(self, tmp_path,
                                                                      monkeypatch):
        class Stepper(retire._RetireStepper):
            def step(self, u, dt_inv, rho_pen):
                if self.p.mean_reversion == 0.0:
                    raise NoConvergence("benchmark solve failed", residual=0.5)
                return super().step(u, dt_inv, rho_pen)

        monkeypatch.setattr(retire, "_RetireStepper", Stepper)
        assert self.run_both(tmp_path, monkeypatch,
                             {"retire_params": self.RET, **self.RUN}) == [1, 1]
        assert not any((tmp_path / how / "summary.json").exists() for how in self.HOW)
        errors = [json.loads((tmp_path / how / "error.json").read_text()) for how in self.HOW]
        assert errors[0] == errors[1] == {"error": "NoConvergence",
                                          "message": "benchmark solve failed"}

    def test_policy_solve_error_kills_the_running_child(self, tmp_path, monkeypatch):
        r, w = os.pipe()

        class Stepper(retire._RetireStepper):
            def step(self, u, dt_inv, rho_pen):
                if self.p.mean_reversion == 0.0:
                    os.read(r, 1)  # the child's solve blocks on a pipe nobody writes to
                raise NoConvergence("policy solve failed", residual=0.5)

        monkeypatch.setattr(retire, "_RetireStepper", Stepper)
        try:
            with pytest.raises(NoConvergence, match="^policy solve failed$"):
                cli.run("simulate-retire", {"retire_params": self.RET, **self.RUN},
                        str(tmp_path))
        finally:
            os.close(r)
            os.close(w)
        assert no_child_left()
