import json
import math
import subprocess
import sys

import numpy as np
import pytest

from contagion_lab.ingest import BankPanel, load_panel
from contagion_lab.pipeline import (
    RunConfig,
    analyze_panel,
    did_from_panel,
    dump_json,
    run_config_from_json,
    sweep_ratios,
    synth_panel,
    synth_panel_csv,
)
from contagion_lab.reconstruct import FixedRatio, ReconstructionConfig


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "contagion_lab.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


ZERO_EPS = ReconstructionConfig(method="max_entropy", ratio_rule=FixedRatio(0.05),
                                min_edge_threshold=0.0)


class TestSynth:
    def test_byte_identical_given_seed(self):
        a = synth_panel_csv(12, [2018, 2021], seed=99)
        b = synth_panel_csv(12, [2018, 2021], seed=99)
        assert a == b
        assert a != synth_panel_csv(12, [2018, 2021], seed=100)

    def test_minimal_panel_roundtrips_through_ingest(self):
        text = synth_panel_csv(3, [2018], seed=0)
        panel = load_panel(text.encode("utf-8"))
        assert len(panel) == 3
        assert panel.years == (2018,)

    def test_shrinkage_recovered_by_did(self):
        recs = synth_panel(40, [2018, 2021, 2023], seed=5, treated_shrink=0.15,
                           noise_sigma=0.02)
        panel = BankPanel(records=tuple(recs))
        res, _ = did_from_panel(panel, base_year=2018, quantile=0.75)
        d1 = res.coefficients["treated_post2021"]
        se1 = res.clustered_se["treated_post2021"]
        assert abs(d1 - math.log(0.85)) <= 3 * se1
        # treatment is a level shift maintained in 2023, so the incremental
        # post-2023 coefficient is near zero
        assert abs(res.coefficients["treated_post2023"]) <= \
            3 * res.clustered_se["treated_post2023"] + 0.05


class TestAnalyze:
    def panel(self, n=20, years=(2018, 2021, 2023), **kw):
        kw.setdefault("log_sigma", 0.6)
        return BankPanel(records=tuple(synth_panel(n, list(years), seed=3, **kw)))

    def test_three_year_report_structure(self):
        cfg = RunConfig(method=ZERO_EPS)
        out = analyze_panel(self.panel(), cfg)
        assert [y["year"] for y in out["years"]] == [2018, 2021, 2023]
        assert len(out["summary"]["adjacent"]) == 2
        overall = out["summary"]["overall"]
        assert set(overall) >= {"delta_lambda2", "pct_lambda2", "kappa_ratio",
                                "pct_kappa_eff"}
        yr = out["years"][0]
        assert yr["kappa_eff"] == pytest.approx(math.sqrt(yr["lambda2"]), rel=1e-12)
        assert yr["d_star"] == pytest.approx(-math.log(0.1) / yr["kappa_eff"], rel=1e-12)

    def test_single_year_no_change_columns(self):
        cfg = RunConfig(method=ZERO_EPS)
        out = analyze_panel(self.panel(years=(2018,)), cfg)
        assert len(out["years"]) == 1
        assert out["summary"]["adjacent"] == []
        assert "overall" not in out["summary"]

    def test_identical_years_give_zero_change(self):
        records = []
        base = synth_panel(10, [2018], seed=8)
        for rec in base:
            records.append(rec)
        for rec in base:
            records.append(type(rec)(rec.bank_id, 2021, rec.total_assets))
        panel = BankPanel(records=tuple(records))
        out = analyze_panel(panel, RunConfig(method=ZERO_EPS))
        pair = out["summary"]["adjacent"][0]
        assert pair["pct_lambda2"] == pytest.approx(0.0, abs=1e-9)
        assert pair["kappa_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_year_filter_and_missing_year(self):
        cfg = RunConfig(method=ZERO_EPS, years=(2018, 2023))
        out = analyze_panel(self.panel(), cfg)
        assert [y["year"] for y in out["years"]] == [2018, 2023]
        from contagion_lab.errors import ContagionLabError
        with pytest.raises(ContagionLabError):
            analyze_panel(self.panel(), RunConfig(method=ZERO_EPS, years=(1999,)))

    def test_worker_pool_matches_serial(self):
        panel = self.panel(n=20)
        serial = analyze_panel(panel, RunConfig(method=ZERO_EPS, workers=1))
        parallel = analyze_panel(panel, RunConfig(method=ZERO_EPS, workers=3))
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


class TestSweep:
    def panel(self):
        return BankPanel(records=tuple(synth_panel(
            15, [2018, 2021, 2023], seed=6, treated_shrink=0.2, log_sigma=0.6)))

    def test_scaling_exponent_is_one_without_threshold(self):
        cfg = RunConfig(method=ZERO_EPS, ratio_sweep=(0.01, 0.10, 10))
        out = sweep_ratios(self.panel(), cfg)
        for year, slope in out["scaling_exponent"].items():
            assert slope == pytest.approx(1.0, abs=1e-6), year

    def test_pct_change_identical_across_rhos(self):
        cfg = RunConfig(method=ZERO_EPS, ratio_sweep=(0.01, 0.10, 10))
        out = sweep_ratios(self.panel(), cfg)
        changes = list(out["pct_change_first_to_last"].values())
        assert max(changes) - min(changes) <= 0.1  # percentage points

    def test_degenerate_sweep_single_row(self):
        cfg = RunConfig(method=ZERO_EPS, ratio_sweep=(0.05, 0.05, 7))
        out = sweep_ratios(self.panel(), cfg)
        assert out["rhos"] == [0.05]

    def test_worker_pool_matches_serial(self):
        panel = self.panel()
        a = sweep_ratios(panel, RunConfig(method=ZERO_EPS, ratio_sweep=(0.02, 0.08, 4)))
        b = sweep_ratios(panel, RunConfig(
            method=ZERO_EPS, ratio_sweep=(0.02, 0.08, 4), workers=4))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestRunConfig:
    def test_json_roundtrip(self):
        cfg = RunConfig(input_path="x.csv", years=(2018, 2023),
                        method=ZERO_EPS, ratio_sweep=(0.01, 0.1, 5),
                        seed=7, workers=2)
        again = run_config_from_json(json.loads(json.dumps(cfg.to_json_dict())))
        assert again == cfg

    def test_sweep_bounds_validated(self):
        with pytest.raises(ValueError):
            RunConfig(ratio_sweep=(0.5, 0.2, 3))
        with pytest.raises(ValueError):
            RunConfig(ratio_sweep=(0.0, 0.2, 3))


class TestCliCommands:
    def test_synth_then_analyze_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            out.mkdir()
            r = run_cli("synth", "--n", "10", "--years", "2018,2021", "--seed", "4",
                        "--out", str(out / "panel.csv"), "--output-dir", str(out))
            assert r.returncode == 0, r.stderr
            r = run_cli("analyze", "--input", str(out / "panel.csv"),
                        "--output-dir", str(out), "--epsilon", "0")
            assert r.returncode == 0, r.stderr
        assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
        a = json.loads((out1 / "analyze.json").read_text())
        b = json.loads((out2 / "analyze.json").read_text())
        assert a["results"] == b["results"]
        assert a["schema_version"] == 1

    def test_fit_reports_lognormal_best(self, tmp_path):
        rng = np.random.default_rng(42)
        values = rng.lognormal(2.0, 0.7, 3000)
        path = tmp_path / "degrees.csv"
        path.write_text("value\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        r = run_cli("fit", "--input", str(path), "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert "Best Fit: Lognormal" in r.stdout
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["results"]["best_fit"] == "lognormal"
        assert payload["results"]["p_value"] < 0.01

    def test_did_two_by_two_through_cli(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "bank_id,year,total_assets\n"
            "ctl,2018,1\nctl,2021,2\ntrt,2018,3\ntrt,2021,5\n"
        )
        r = run_cli("did", "--input", str(path), "--base-year", "2018",
                    "--quantile", "0.75", "--no-log", "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "did.json").read_text())
        assert payload["results"]["coefficients"]["treated_post2021"] == \
            pytest.approx(1.0, abs=1e-12)

    def test_did_honors_years_flag_and_config(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(70, [2018, 2021, 2023], seed=11))
        base = ("did", "--input", str(panel), "--base-year", "2018",
                "--output-dir", str(tmp_path))
        r = run_cli(*base)
        assert r.returncode == 0, r.stderr
        assert json.loads((tmp_path / "did.json").read_text())["results"]["n_obs"] == 210
        r = run_cli(*base, "--years", "2018,2021")
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "did.json").read_text())
        assert payload["results"]["n_obs"] == 140
        assert "treated_post2023" not in payload["results"]["coefficients"]

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input_path": str(panel), "years": [2018, 2023],
                                        "output_dir": str(tmp_path)}))
        r = run_cli("did", "--config", str(cfg_path), "--base-year", "2018")
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "did.json").read_text())
        assert payload["results"]["n_obs"] == 140
        assert "treated_post2021" not in payload["results"]["coefficients"]

        r = run_cli(*base, "--years", "2018,2019")
        assert r.returncode == 4
        assert r.stderr == "error: requested year 2019 not in panel\n"

    def test_missing_input_exit_code_and_message(self, tmp_path):
        r = run_cli("analyze", "--input", str(tmp_path / "nope.csv"),
                    "--output-dir", str(tmp_path))
        assert r.returncode == 3
        assert "nope.csv" in r.stderr

    def test_usage_error_exit_code(self):
        r = run_cli("did")  # --base-year is required
        assert r.returncode == 2

    def test_model_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bank_id,year,total_assets\nA,2018,-5\n")
        r = run_cli("analyze", "--input", str(path), "--output-dir", str(tmp_path))
        assert r.returncode == 4

    def test_permute_command(self, tmp_path):
        path = tmp_path / "groups.csv"
        rows = ["group,value"]
        rows += [f"x,{v}" for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        rows += [f"y,{v}" for v in (11.0, 12.0, 13.0, 14.0, 15.0)]
        path.write_text("\n".join(rows) + "\n")
        r = run_cli("permute", "--input", str(path), "--n-perm", "500",
                    "--seed", "3", "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "permute.json").read_text())
        assert payload["results"]["p_value"] < 0.05

    def test_placebo_command(self, tmp_path):
        from contagion_lab.reconstruct import max_entropy
        em = max_entropy([2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0])
        path = tmp_path / "exposures.csv"
        path.write_text(em.to_csv_text())
        r = run_cli("placebo", "--input", str(path), "--epsilon", "0",
                    "--n-draws", "50", "--seed", "2", "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "placebo.json").read_text())
        assert len(payload["results"]["null_lambda2"]) == 50

    def test_bootstrap_command_table(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(12, [2018], seed=1, log_sigma=0.5))
        r = run_cli("bootstrap", "--input", str(panel), "-B", "20",
                    "--seed", "9", "--output-dir", str(tmp_path), "--table")
        assert r.returncode == 0, r.stderr
        assert "ci_low" in r.stdout

    def test_sweep_command_with_config_file(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(10, [2018, 2021], seed=2, log_sigma=0.5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "input_path": str(panel),
            "output_dir": str(tmp_path),
            "ratio_sweep": [0.02, 0.06, 3],
            "method": {"method": "max_entropy",
                       "ratio_rule": {"kind": "fixed", "rho": 0.05},
                       "min_edge_threshold": 0.0},
        }))
        r = run_cli("sweep", "--config", str(cfg_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["results"]["rhos"] == pytest.approx([0.02, 0.04, 0.06])

    def test_sweep_default_grid_without_flags_or_config(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(10, [2018, 2021], seed=2, log_sigma=0.5))
        r = run_cli("sweep", "--input", str(panel), "--epsilon", "0",
                    "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["results"]["rhos"] == pytest.approx(np.linspace(0.01, 0.10, 10))
        assert payload["config"]["ratio_sweep"] == pytest.approx([0.01, 0.10, 10])

    def test_eigenvalue_csv_is_complete_spectrum_at_150_banks(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(150, [2018], seed=11))
        r = run_cli("analyze", "--input", str(panel), "--eigenvalues-csv",
                    "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        years = json.loads((tmp_path / "analyze.json").read_text())["results"]["years"]
        for rep in years:
            lines = (tmp_path / f"eigenvalues_{rep['year']}.csv").read_text().splitlines()
            assert len(lines) == 151
            values = [float(line.split(",")[1]) for line in lines[1:]]
            assert values == sorted(values)
            assert values[-1] == rep["lambda_n"]

    def test_bootstrap_reruns_byte_identical_at_300_banks(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(300, [2023], seed=5))
        texts = []
        for run in ("a", "b"):
            r = run_cli("bootstrap", "--input", str(panel), "-B", "20", "--seed", "7",
                        "--epsilon", "0", "--output-dir", str(tmp_path / run))
            assert r.returncode == 0, r.stderr
            payload = json.loads((tmp_path / run / "bootstrap.json").read_text())
            texts.append(dump_json(payload["results"]))
        assert texts[0] == texts[1]

    def test_env_var_output_dir(self, tmp_path):
        import os
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(10, [2018], seed=2, log_sigma=0.5))
        env = dict(os.environ, CONTAGION_LAB_OUTPUT_DIR=str(tmp_path / "envout"))
        r = subprocess.run(
            [sys.executable, "-m", "contagion_lab.cli", "analyze",
             "--input", str(panel)],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "envout" / "analyze.json").exists()

    def test_emitted_json_reparses_and_roundtrips(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(8, [2018, 2021], seed=13, log_sigma=0.5))
        r = run_cli("analyze", "--input", str(panel), "--output-dir", str(tmp_path))
        assert r.returncode == 0
        text = (tmp_path / "analyze.json").read_text()
        payload = json.loads(text)
        assert dump_json(payload) == text  # canonical form is stable


def test_cli_import_loads_neither_scipy_stats_nor_networkx():
    code = ("import sys, contagion_lab.cli; "
            "print([m for m in ('scipy.stats', 'networkx') if m in sys.modules])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
