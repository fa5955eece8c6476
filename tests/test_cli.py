"""Panel ingestion and CLI plumbing."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sc_control import bank_partial, cli, panel, retire
from sc_control.errors import ValidationError
from sc_control.params import BankParams, from_dict

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

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            panel.ingest_panel(path)


class TestCli:
    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sc_control", "no-such-command",
             "--config", "x.json"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_solve_bank_full_writes_artifacts(self, tmp_path):
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
    RGRID = {"n_x": 61, "n_y": 41, "penalty_schedule": [1e3, 1e4, 1e5], "max_iter": 600}

    def bank_grid(self):
        s_inf = self.BANK["noise_m"] * self.BANK["sigma"] * (1 - self.BANK["rho"])
        return {"x_lo": -0.03, "x_hi": 0.65, "n_x": 151, "y_lo": s_inf / 20,
                "y_hi": 4 * s_inf, "n_y": 21, "stretching": "geometric"}

    def test_default_grids_round_trip_through_run(self, tmp_path):
        p = BankParams(**self.BANK)
        records = (bank_partial.default_grid(p, n_x=21, n_s=7),
                   retire.default_retire_grid(n_xi=21, n_z=15))
        bank, ret = (dict(dataclasses.asdict(g),
                          penalty_schedule=list(g.penalty_schedule)) for g in records)
        assert [from_dict(type(g), d) for g, d in zip(records, (bank, ret))] == list(records)
        out = cli.run("solve-bank-partial", {"bank_params": self.BANK, "grid": bank},
                      str(tmp_path / "a"))
        assert out["iterations"] == 39
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

    def test_elasticity_subcommand(self, tmp_path):
        out = cli.run("elasticity",
                      {"bank_params": self.BANK, "parameters": ["S", "omega"],
                       "grid": self.bank_grid()}, str(tmp_path))
        assert out["elasticities"]["omega"]["I"] == 0.0
        assert out["elasticities"]["S"]["I"] == pytest.approx(-3.756, rel=0.2)
