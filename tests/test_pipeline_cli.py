import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contagion_lab import cli
from contagion_lab.errors import ConfigError
from contagion_lab.ingest import BankPanel, load_panel
from contagion_lab.pipeline import (
    BootstrapSection,
    DidSection,
    RunConfig,
    analyze_panel,
    did_from_panel,
    dump_json,
    from_json,
    overlay,
    sweep_ratios,
    synth_panel,
    synth_panel_csv,
    to_json,
)
from contagion_lab.reconstruct import (
    FixedRatio,
    LinearLogRatio,
    ReconstructionConfig,
    SizeThresholdRatio,
    TieredRatio,
)


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


_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_RATIO_RULES = st.one_of(
    st.builds(FixedRatio, rho=_UNIT),
    st.builds(SizeThresholdRatio, rho_large=_UNIT, rho_small=_UNIT, size_quantile=_UNIT),
    st.builds(LinearLogRatio, intercept=_FINITE, slope=_FINITE),
    st.builds(TieredRatio, tiers=st.lists(st.tuples(_UNIT, _UNIT), min_size=1,
                                          max_size=4).map(tuple)),
)
RUN_CONFIGS = st.builds(
    RunConfig,
    input_path=st.text(max_size=12),
    years=st.lists(st.integers(1900, 2100), max_size=4).map(tuple),
    method=st.builds(ReconstructionConfig,
                     method=st.sampled_from(["max_entropy", "kde", "fitness", "min_density"]),
                     ratio_rule=_RATIO_RULES,
                     fitness_alpha=st.floats(min_value=1e-6, max_value=1e6),
                     min_edge_threshold=st.floats(min_value=0.0, max_value=1e9)),
    ratio_sweep=st.none() | st.tuples(_UNIT, _UNIT, st.integers(1, 100)).map(
        lambda t: (min(t[:2]), max(t[:2]), t[2])),
    bootstrap=st.builds(BootstrapSection, B=st.integers(10, 10_000), level=_UNIT,
                        seed=st.none() | st.integers(0, 2**63)),
    did=st.builds(DidSection, base_year=st.none() | st.integers(1900, 2100), quantile=_UNIT),
    output_dir=st.text(max_size=12),
    seed=st.integers(0, 2**63),
    diffusion_D=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    diffusion_kappa=st.floats(min_value=0.0, allow_infinity=False),
    d_star_epsilon=_UNIT,
    balanced=st.booleans(),
    delimiter=st.sampled_from([",", ";", "\t", "|"]),
    workers=st.integers(1, 64),
)


class TestRunConfig:
    def test_json_roundtrip(self):
        cfg = RunConfig(input_path="x.csv", years=(2018, 2023),
                        method=ZERO_EPS, ratio_sweep=(0.01, 0.1, 5),
                        seed=7, workers=2)
        again = from_json(RunConfig, json.loads(json.dumps(to_json(cfg))))
        assert again == cfg

    def test_sweep_bounds_validated(self):
        with pytest.raises(ValueError):
            RunConfig(ratio_sweep=(0.5, 0.2, 3))
        with pytest.raises(ValueError):
            RunConfig(ratio_sweep=(0.0, 0.2, 3))

    def test_workers_validated(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                RunConfig(workers=workers)

    @pytest.mark.parametrize("name, value", [
        ("diffusion_D", 0.0), ("diffusion_D", -1.0), ("diffusion_D", math.nan),
        ("diffusion_D", math.inf), ("diffusion_kappa", -0.5),
        ("diffusion_kappa", math.nan), ("diffusion_kappa", math.inf),
        ("d_star_epsilon", 0.0), ("d_star_epsilon", 1.0), ("d_star_epsilon", math.nan),
        ("d_star_epsilon", math.inf),
    ])
    def test_diffusion_settings_validated(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: value})

    @given(RUN_CONFIGS)
    @settings(max_examples=60, deadline=None)
    def test_dump_json_roundtrip_property(self, cfg):
        again = from_json(RunConfig, json.loads(dump_json(to_json(cfg))))
        assert again == cfg
        assert to_json(again) == to_json(cfg)

    def test_envelope_format_loads_unchanged(self):
        # an envelope ``config`` as written before the sections were typed
        doc = {
            "input_path": "p.csv", "years": [2018, 2023], "ratio_sweep": None,
            "bootstrap": None, "did": None, "output_dir": "out", "seed": 3,
            "diffusion_D": 1.0, "diffusion_kappa": 0.0, "d_star_epsilon": 0.1,
            "balanced": False, "delimiter": ",", "workers": 1,
            "method": {"method": "max_entropy", "fitness_alpha": 1.0,
                       "min_edge_threshold": 0, "ratio_rule": {
                           "kind": "tiered", "tiers": [[0.9, 0.02], [0.0, 0.08]]}},
        }
        cfg = from_json(RunConfig, doc)
        assert cfg.years == (2018, 2023)
        assert cfg.bootstrap == BootstrapSection() and cfg.did == DidSection()
        assert cfg.method.ratio_rule == TieredRatio(((0.9, 0.02), (0.0, 0.08)))
        assert type(cfg.method.min_edge_threshold) is float
        sections = from_json(RunConfig, {"bootstrap": {"B": 20, "level": 0.9, "seed": 4},
                                         "did": {"base_year": 2018, "quantile": 0.5}})
        assert sections.bootstrap == BootstrapSection(B=20, level=0.9, seed=4)
        assert sections.did == DidSection(base_year=2018, quantile=0.5)

    @pytest.mark.parametrize("doc, key", [
        ({"sed": 5}, "'sed'"),
        ({"method": {"fitnes_alpha": 2.0}}, "'method.fitnes_alpha'"),
        ({"bootstrap": {"B": 10, "replicates": 10}}, "'bootstrap.replicates'"),
        ({"years": 2018}, "'years'"),
        ({"years": [2018, "2021"]}, "'years[1]'"),
        ({"seed": True}, "'seed'"),
        ({"workers": 2.0}, "'workers'"),
        ({"balanced": 1}, "'balanced'"),
        ({"diffusion_D": "1"}, "'diffusion_D'"),
        ({"ratio_sweep": [0.01, 0.1]}, "'ratio_sweep'"),
        ({"ratio_sweep": [0.01, 0.1, 2.5]}, "'ratio_sweep[2]'"),
        ({"bootstrap": 100}, "'bootstrap'"),
        ({"method": {"ratio_rule": {"rho": 0.05}}}, "'method.ratio_rule.kind'"),
        ({"method": {"ratio_rule": {"kind": "fixed", "rho_large": 0.05}}},
         "'method.ratio_rule.rho_large'"),
        ({"method": {"method": "nope"}}, "unknown reconstruction method 'nope'"),
        ({"ratio_sweep": [0.5, 0.2, 3]}, "ratio sweep min must be <= max"),
        ({"bootstrap": {"B": 9}}, "bootstrap B must be >= 10, got 9"),
        ({"bootstrap": {"level": 1.0}}, "bootstrap level must be in (0, 1), got 1.0"),
        ({"bootstrap": {"level": math.nan}}, "bootstrap level must be in (0, 1), got nan"),
    ])
    def test_malformed_config_names_the_key(self, doc, key):
        with pytest.raises(ConfigError, match=re.escape(key)) as exc:
            from_json(RunConfig, doc)
        assert "\n" not in str(exc.value)

    def test_overlay_sets_fields_by_name(self):
        cfg = RunConfig(method=ReconstructionConfig(ratio_rule=SizeThresholdRatio()),
                        bootstrap=BootstrapSection(seed=4), workers=2)
        out = overlay(cfg, {"method": "kde", "seed": 9, "min_edge_threshold": 0.0,
                            "B": 30, "workers": None, "table": True,
                            "ratio_rule": FixedRatio(0.03)})
        assert out.method == ReconstructionConfig(method="kde", ratio_rule=FixedRatio(0.03),
                                                  min_edge_threshold=0.0)
        assert out.seed == 9 and out.bootstrap == BootstrapSection(B=30, seed=9)
        assert out.workers == 2
        assert overlay(cfg, {"workers": None}) == cfg
        with pytest.raises(ConfigError, match="fitness_alpha must be > 0"):
            overlay(cfg, {"method": "fitness", "fitness_alpha": 0.0})


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

    def test_zero_assets_rejected_at_ingest(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("bank_id,year,total_assets\n"
                        "A,2018,120.5\nB,2018,0\nC,2018,80\nD,2018,45.25\n")
        r = run_cli("analyze", "--input", str(path), "--output-dir", str(tmp_path))
        assert r.returncode == 4
        assert r.stderr == "error: row 3: total_assets '0' must be finite and > 0\n"
        assert not (tmp_path / "analyze.json").exists()

    def test_unexpected_exception_exit_4_one_line(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise KeyError("bank_id")

        monkeypatch.setattr(cli, "cmd_permute", broken)
        code = cli.main(["permute", "--input", "x.csv", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "error: KeyError: 'bank_id'\n"  # one line, no traceback

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

    @pytest.mark.parametrize("text, message", [
        ("bank_id,A,B,C,D\nW,0,1,1,1\nX,1,0,1,1\nY,1,1,0,1\nZ,1,1,1,0\n",
         "row 2: label 'W' is not the header's bank id 'A' at that position"),
        ("bank_id,A,B,C,A\nA,0,1,1,1\nB,1,0,1,1\nC,1,1,0,1\nA,1,1,1,0\n",
         "header: bank id 'A' appears more than once"),
        ("", "empty exposure CSV: no header row"),
        ("bank_id,A,B,C\nA,0,1,1\nB,1,0\nC,1,1,0\n",
         "row 3: 3 cells, the header has 4"),
        ("bank_id,A,B,C\nA,0,1,1\nB,1,0,x\nC,1,1,0\n",
         "row 3: cell 'x' is not a number"),
        ("bank_id,A,B,C\nA,0,1,1\nB,1,0,1\nC,1,1,0\nD,1,1,1\n",
         "row 5: extra row, the header names 3 banks"),
        ("bank_id,A,B,C\nA,0,1,1\nB,1,0,1\n",
         "row 4: missing, no row for bank id 'C'"),
    ], ids=["rows-not-in-header-order", "repeated-bank-id", "empty-file", "ragged-row",
            "non-numeric-cell", "extra-row", "missing-row"])
    def test_placebo_rejects_malformed_exposure_csv(self, tmp_path, text, message):
        path = tmp_path / "exposures.csv"
        path.write_text(text)
        r = run_cli("placebo", "--input", str(path), "--n-draws", "5",
                    "--output-dir", str(tmp_path / "out"))
        assert r.returncode == 4
        assert r.stderr == f"error: {message}\n"

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

    def test_each_sweep_flag_sets_its_own_slot(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(10, [2018, 2021], seed=2, log_sigma=0.5))
        base = ("sweep", "--input", str(panel), "--epsilon", "0")
        r = run_cli(*base, "--sweep-min", "0.02", "--output-dir", str(tmp_path / "a"))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "a" / "sweep.json").read_text())
        assert payload["config"]["ratio_sweep"] == [0.02, 0.1, 10]
        assert payload["results"]["rhos"] == pytest.approx(np.linspace(0.02, 0.10, 10))

        r = run_cli(*base, "--sweep-max", "0.05", "--sweep-steps", "3",
                    "--output-dir", str(tmp_path / "b"))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "b" / "sweep.json").read_text())
        assert payload["config"]["ratio_sweep"] == [0.01, 0.05, 3]
        assert payload["results"]["rhos"] == pytest.approx([0.01, 0.03, 0.05])

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ratio_sweep": [0.02, 0.06, 3]}))
        r = run_cli(*base, "--config", str(cfg_path), "--sweep-min", "0.04",
                    "--output-dir", str(tmp_path / "c"))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "c" / "sweep.json").read_text())
        assert payload["config"]["ratio_sweep"] == [0.04, 0.06, 3]
        assert payload["results"]["rhos"] == pytest.approx([0.04, 0.05, 0.06])

    def test_placebo_thresholds_at_the_configured_epsilon(self, tmp_path):
        from contagion_lab.reconstruct import reconstruct_exposures
        assets = [r.total_assets for r in synth_panel(20, [2018], seed=3, log_sigma=0.5)]
        path = tmp_path / "exposures.csv"
        path.write_text(reconstruct_exposures(assets, ReconstructionConfig()).to_csv_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": {"min_edge_threshold": 200.0}}))
        observed = {}
        for run, flags in {"config": ("--config", str(cfg_path)),
                           "flag": ("--epsilon", "200"), "default": ()}.items():
            r = run_cli("placebo", "--input", str(path), "--n-draws", "5",
                        "--output-dir", str(tmp_path / run), *flags)
            assert r.returncode == 0, r.stderr
            payload = json.loads((tmp_path / run / "placebo.json").read_text())
            observed[run] = payload["results"]["observed"]
            assert payload["config"]["method"]["min_edge_threshold"] == \
                (1.0 if run == "default" else 200.0)
        assert observed["config"] == observed["flag"] != observed["default"]

    @pytest.mark.parametrize("flags, message", [
        (("--method", "fitness", "--fitness-alpha", "0"), "fitness_alpha must be > 0"),
        (("--workers", "0"), "workers must be >= 1"),
        (("--workers", "-3"), "workers must be >= 1"),
        (("--rho", "0.03", "--size-dependent"), "not allowed with argument"),
        (("--linear-log", "--rho", "0.03"), "not allowed with argument"),
        (("--years", "2018,x"), "comma-separated years"),
        (("--d-coeff", "nan"), "diffusion_D must be finite and > 0, got nan"),
        (("--d-coeff", "0"), "diffusion_D must be finite and > 0, got 0.0"),
        (("--kappa", "-1"), "diffusion_kappa must be finite and >= 0, got -1.0"),
    ])
    def test_invalid_flags_exit_2(self, tmp_path, flags, message):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(8, [2018], seed=2, log_sigma=0.5))
        r = run_cli("analyze", "--input", str(panel), "--output-dir", str(tmp_path), *flags)
        assert r.returncode == 2
        assert message in r.stderr.splitlines()[-1]
        assert not (tmp_path / "analyze.json").exists()

    def test_synth_repeated_year_rejected_before_writing(self, tmp_path):
        # a panel with a repeated year would be written, and ingest would then
        # reject it as a duplicate bank-year pair
        with pytest.raises(ConfigError, match="years must be distinct, got 2018"):
            synth_panel(5, [2018, 2018])
        r = run_cli("synth", "--n", "5", "--years", "2018,2018",
                    "--out", str(tmp_path / "panel.csv"))
        assert r.returncode == 2
        assert r.stderr == "error: years must be distinct, got 2018 more than once\n"
        assert not (tmp_path / "panel.csv").exists()

    @pytest.mark.parametrize("log_mean", ["800", "-800", "-735"])
    def test_synth_assets_outside_float_range_rejected_before_writing(self, tmp_path, log_mean):
        # exp(800) overflows (numpy warned, then math.exp raised OverflowError,
        # exit 4) and exp(-800) is 0.0, which was written and which ingest rejects;
        # at -735 only the treated banks' 0.999999-fold shrink underflows to 0.0
        kwargs = {"treated_shrink": 0.999999, "treat_quantile": 0.0} if log_mean == "-735" else {}
        flags = ("--shrink", "0.999999", "--quantile", "0") if kwargs else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="not a finite float > 0"):
                synth_panel(5, [2018, 2021], log_mean=float(log_mean), **kwargs)
        r = run_cli("synth", "--n", "5", "--log-mean", log_mean, *flags,
                    "--out", str(tmp_path / "panel.csv"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "not a finite float > 0" in r.stderr and "Warning" not in r.stderr
        assert not (tmp_path / "panel.csv").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("permute", ("--n-perm", "0"), "expected a positive integer, got '0'"),
        ("permute", ("--n-perm", "-5"), "expected a positive integer, got '-5'"),
        ("permute", ("--n-perm", "x"), "expected a positive integer, got 'x'"),
        ("placebo", ("--n-draws", "0"), "expected a positive integer, got '0'"),
        ("placebo", ("--n-draws", "-2"), "expected a positive integer, got '-2'"),
        ("bootstrap", ("--level", "1.5"), "bootstrap level must be in (0, 1), got 1.5"),
        ("bootstrap", ("--level", "nan"), "bootstrap level must be in (0, 1), got nan"),
        ("bootstrap", ("-B", "5"), "bootstrap B must be >= 10, got 5"),
        ("synth", ("--n", "6", "--shrink", "1"), "treated_shrink must be in [0, 1), got 1.0"),
        ("synth", ("--n", "6", "--shrink", "-0.2"),
         "treated_shrink must be in [0, 1), got -0.2"),
        ("synth", ("--n", "2"), "need at least 3 banks, got 2"),
        ("synth", ("--n", "6", "--quantile", "1.5"), "treat_quantile must be in [0, 1], got 1.5"),
        ("synth", ("--n", "6", "--quantile", "-0.1"),
         "treat_quantile must be in [0, 1], got -0.1"),
        ("synth", ("--n", "6", "--quantile", "nan"), "treat_quantile must be in [0, 1], got nan"),
        ("synth", ("--n", "6", "--log-sigma", "-1"),
         "log_sigma must be finite and >= 0, got -1.0"),
        ("synth", ("--n", "6", "--log-sigma", "inf"),
         "log_sigma must be finite and >= 0, got inf"),
        ("synth", ("--n", "6", "--noise", "-1"), "noise_sigma must be finite and >= 0, got -1.0"),
        ("synth", ("--n", "6", "--log-mean", "nan"), "log_mean must be finite, got nan"),
        ("synth", ("--n", "5", "--years", "2018,2021,2018"),
         "years must be distinct, got 2018 more than once"),
    ])
    def test_command_flags_exit_2(self, tmp_path, command, flags, message):
        from contagion_lab.reconstruct import max_entropy

        inputs = {
            "permute": "group,value\nx,1.0\nx,2.0\ny,11.0\ny,12.0\n",
            "placebo": max_entropy([2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0]).to_csv_text(),
            "bootstrap": synth_panel_csv(6, [2018], seed=2, log_sigma=0.5),
        }
        args = [command, "--output-dir", str(tmp_path / "out"), *flags]
        if command in inputs:
            (tmp_path / "in.csv").write_text(inputs[command])
            args += ["--input", str(tmp_path / "in.csv")]
        r = run_cli(*args)
        assert r.returncode == 2
        assert message in r.stderr.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"sed": 5}', "error: config key 'sed': unknown key\n"),
        ('{"years": 2018}', "error: config key 'years': expected list, got int\n"),
        ('{"years": [2018,', "is not valid JSON"),
        ('{"diffusion_D": NaN}', "error: diffusion_D must be finite and > 0, got nan\n"),
        ('{"d_star_epsilon": 1e400}', "error: d_star_epsilon must be in (0, 1), got inf\n"),
        ('{"diffusion_kappa": -0.1}',
         "error: diffusion_kappa must be finite and >= 0, got -0.1\n"),
    ])
    def test_malformed_config_file_exit_2_one_line(self, tmp_path, text, message):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(8, [2018], seed=2, log_sigma=0.5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        r = run_cli("analyze", "--input", str(panel), "--config", str(cfg_path),
                    "--output-dir", str(tmp_path))
        assert r.returncode == 2
        assert message in r.stderr and r.stderr.count("\n") == 1

    def test_envelope_config_reruns_byte_identical(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(12, [2018, 2021], seed=1, log_sigma=0.5))
        runs = {"analyze": ("--epsilon", "0", "--rho", "0.04"),
                "sweep": ("--sweep-max", "0.05", "--sweep-steps", "3", "--size-dependent"),
                "bootstrap": ("-B", "12", "--level", "0.8", "--seed", "5", "--year", "2018"),
                "did": ("--base-year", "2018", "--quantile", "0.5", "--years", "2018,2021")}
        for command, flags in runs.items():
            out = tmp_path / command
            r = run_cli(command, "--input", str(panel), "--output-dir", str(out), *flags)
            assert r.returncode == 0, r.stderr
            first = json.loads((out / f"{command}.json").read_text())
            cfg_path = tmp_path / f"{command}_config.json"
            cfg_path.write_text(json.dumps(first["config"]))
            r = run_cli(command, "--config", str(cfg_path))
            assert r.returncode == 0, r.stderr
            again = json.loads((out / f"{command}.json").read_text())
            assert dump_json(again["results"]) == dump_json(first["results"]), command
            assert again["config"] == first["config"], command
            if command == "bootstrap":
                # not the last panel year: a rerun that lost --year would resample 2021
                assert again["results"]["year"] == again["config"]["bootstrap"]["year"] == 2018

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


SCIPY_OR_NETWORKX = "[m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')]"


def test_cli_import_loads_neither_scipy_stats_nor_networkx():
    code = f"import sys, contagion_lab.cli; print({SCIPY_OR_NETWORKX})"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_fit_runs_without_scipy(tmp_path):
    # the normal CDF of the lognormal fit comes from math.erfc
    values = tmp_path / "values.csv"
    sample = np.random.default_rng(7).lognormal(2.0, 0.7, 200)
    values.write_text("value\n" + "\n".join(repr(float(v)) for v in sample) + "\n")
    code = ("import sys\nfrom contagion_lab import cli\n"
            f"assert cli.main(['fit', '--input', {str(values)!r}, "
            f"'--output-dir', {str(tmp_path)!r}, '--scan-xmin']) == 0\n"
            f"print({SCIPY_OR_NETWORKX})")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "fit.json").read_text())["results"]["n_tail"] >= 10


def test_bootstrap_and_sweep_run_without_scipy(tmp_path):
    # at --epsilon 0 the networks are complete and at --epsilon 30 the threshold
    # removes edges; both run on the structured paths, with no eigvalsh call
    panel = tmp_path / "panel.csv"
    panel.write_text(synth_panel_csv(12, [2018, 2021], seed=4, log_sigma=0.8))
    common = f"'--input', {str(panel)!r}, '--output-dir', {str(tmp_path)!r}"
    code = ("import sys\nimport numpy as np\nfrom contagion_lab import cli\n"
            "calls, real = [], np.linalg.eigvalsh\n"
            "np.linalg.eigvalsh = lambda a: calls.append(1) or real(a)\n"
            f"assert cli.main(['bootstrap', {common}, '-B', '12', '--epsilon', '0']) == 0\n"
            f"assert cli.main(['sweep', {common}, '--epsilon', '0', '--sweep-steps', '3']) == 0\n"
            "assert calls == [], len(calls)\n"
            f"assert cli.main(['bootstrap', {common}, '-B', '12', '--epsilon', '30']) == 0\n"
            f"assert cli.main(['sweep', {common}, '--epsilon', '30', '--sweep-steps', '3']) == 0\n"
            "assert calls == [], len(calls)\n"
            f"print({SCIPY_OR_NETWORKX})")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
    sweep = json.loads((tmp_path / "sweep.json").read_text())["results"]
    assert len(sweep["rhos"]) == 3
    assert json.loads((tmp_path / "bootstrap.json").read_text())["results"]["B_effective"] == 12
