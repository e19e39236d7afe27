import argparse
import inspect
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass

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
    analyze_results,
    did_from_panel,
    dump_json,
    from_json,
    overlay,
    sweep_ratios,
    synth_panel,
    synth_panel_csv,
    to_json,
    year_reports,
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
        out = analyze_results(year_reports(self.panel(), cfg))
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
        out = analyze_results(year_reports(self.panel(years=(2018,)), cfg))
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
        out = analyze_results(year_reports(panel, RunConfig(method=ZERO_EPS)))
        pair = out["summary"]["adjacent"][0]
        assert pair["pct_lambda2"] == pytest.approx(0.0, abs=1e-9)
        assert pair["kappa_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_year_filter_and_missing_year(self):
        cfg = RunConfig(method=ZERO_EPS, years=(2018, 2023))
        out = analyze_results(year_reports(self.panel(), cfg))
        assert [y["year"] for y in out["years"]] == [2018, 2023]
        from contagion_lab.errors import ContagionLabError
        with pytest.raises(ContagionLabError):
            year_reports(self.panel(), RunConfig(method=ZERO_EPS, years=(1999,)))

    def test_worker_pool_matches_serial(self):
        panel = self.panel(n=20)
        serial = analyze_results(year_reports(panel, RunConfig(method=ZERO_EPS, workers=1)))
        parallel = analyze_results(year_reports(panel, RunConfig(method=ZERO_EPS, workers=3)))
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
X_MIN_CONFLICT = "x_min and scan_xmin exclude each other: the scan chooses x_min"

RUN_CONFIGS = st.builds(
    lambda fit_x_min, **kwargs: RunConfig(x_min=fit_x_min[0], scan_xmin=fit_x_min[1], **kwargs),
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
    did=st.builds(DidSection, base_year=st.none() | st.integers(1900, 2100), quantile=_UNIT,
                  outcome_column=st.text(max_size=12), log=st.booleans()),
    output_dir=st.text(max_size=12),
    seed=st.integers(0, 2**63),
    diffusion_D=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    diffusion_kappa=st.floats(min_value=0.0, allow_infinity=False),
    d_star_epsilon=_UNIT,
    balanced=st.booleans(),
    delimiter=st.sampled_from([",", ";", "\t", "|"]),
    workers=st.integers(1, 64),
    n_draws=st.integers(1, 10**6),
    n_perm=st.integers(1, 10**6),
    group_column=st.text(max_size=12),
    value_column=st.text(max_size=12),
    column=st.text(max_size=12),
    # (x_min, scan_xmin), drawn together: a scan takes no x_min
    fit_x_min=st.tuples(st.none() | st.floats(min_value=0.0, exclude_min=True,
                                              allow_infinity=False), st.just(False))
    | st.tuples(st.none(), st.just(True)),
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

    @pytest.mark.parametrize("header", ["value", "bank_id,value"])
    def test_fit_column_missing_from_the_header_is_an_error(self, tmp_path, header):
        rng = np.random.default_rng(42)
        rows = [",".join(["b"] * header.count(",") + [repr(float(v))])
                for v in rng.lognormal(2.0, 0.7, 300)]
        path = tmp_path / "values.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        r = run_cli("fit", "--input", str(path), "--column", "absent",
                    "--output-dir", str(tmp_path))
        assert r.returncode == 4
        assert r.stderr == "error: column 'absent' not found in the header\n"
        assert not (tmp_path / "fit.json").exists()
        r = run_cli("fit", "--input", str(path), "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr

    def test_fit_reads_a_file_without_header(self, tmp_path):
        values = np.random.default_rng(42).lognormal(2.0, 0.7, 300)
        body = "\n".join(repr(float(v)) for v in values) + "\n"
        results = []
        for name, text, column in (("headerless", body, "absent"),
                                   ("headed", "value\n" + body, "value")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            out = tmp_path / name
            r = run_cli("fit", "--input", str(path), "--column", column,
                        "--output-dir", str(out))
            assert r.returncode == 0, r.stderr
            results.append(json.loads((out / "fit.json").read_text())["results"])
        assert results[0] == results[1]

    def test_fit_rejects_a_stray_line_in_a_file_without_header(self, tmp_path):
        values = np.random.default_rng(42).lognormal(2.0, 0.7, 200)
        lines = [repr(float(v)) for v in values]
        lines.insert(150, "12,5")  # a typo for 12.5, on line 151
        path = tmp_path / "values.csv"
        path.write_text("\n".join(lines) + "\n")
        r = run_cli("fit", "--input", str(path), "--column", "absent",
                    "--output-dir", str(tmp_path))
        assert r.returncode == 4
        assert r.stderr.splitlines() == ["error: line 151: '12,5' is not a number"]
        assert not (tmp_path / "fit.json").exists()

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

    @pytest.mark.parametrize("command", ["permute", "fit", "placebo"])
    def test_delimiter_flag(self, tmp_path, command):
        rng = np.random.default_rng(8)
        if command == "permute":
            text = "group,value\n" + "".join(f"{g},{float(v)!r}\n" for g in "xy"
                                             for v in rng.normal(0.0, 1.0, 6))
        elif command == "fit":
            text = "value,bank\n" + "".join(f"{float(v)!r},b{i}\n" for i, v in
                                            enumerate(rng.lognormal(2.0, 0.7, 300)))
        else:
            from contagion_lab.reconstruct import max_entropy
            text = max_entropy([2.0, 3.0, 4.0, 5.0]).to_csv_text()
        results = []
        for name, delimiter in (("comma", ","), ("semicolon", ";")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text.replace(",", delimiter))
            out = tmp_path / name
            assert cli.main([command, "--input", str(path), "--delimiter", delimiter,
                             "--output-dir", str(out)]) == 0
            results.append(json.loads((out / f"{command}.json").read_text())["results"])
        assert results[0] == results[1]

    @pytest.mark.parametrize("command, text, message", [
        ("permute", "group,value\nx,1\nx,2\n\nx,\ny,4\ny,5\n",
         "row 4: '' is not a finite number in column 'value'"),
        ("permute", "group,value\nx,1\nx,2\nx,3\ny,4\ny\n",
         "row 6: no cell in column 'value'"),
        ("fit", "bank,value\na,1.5\nb,2.5\nc,n/a\n",
         "row 4: 'n/a' is not a finite number in column 'value'"),
        ("fit", "bank,value\na,1.5\nb\nc,2.5\n", "row 3: no cell in column 'value'"),
        ("permute", "group,value\nx,1\nx,nan\nx,3\ny,4\ny,5\n",
         "row 3: 'nan' is not a finite number in column 'value'"),
        ("fit", "value\n1.5\n2.5\ninf\n",
         "row 4: 'inf' is not a finite number in column 'value'"),
    ], ids=["permute-not-a-number", "permute-missing", "fit-not-a-number", "fit-missing",
            "permute-nan", "fit-inf"])
    def test_headered_value_errors_name_the_row(self, tmp_path, capsys, command, text,
                                                message):
        path = tmp_path / "values.csv"
        path.write_text(text)
        assert cli.main([command, "--input", str(path), "--output-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / f"{command}.json").exists()

    def test_did_outcome_errors_name_the_row(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("bank_id,year,total_assets,profit\n"
                        "ctl,2018,1,3\nctl,2021,2\ntrt,2018,3,4\ntrt,2021,5,6\n")
        assert cli.main(["did", "--input", str(path), "--base-year", "2018",
                         "--outcome-column", "profit", "--output-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "error: row 3: no cell in column 'profit'\n"

    @pytest.mark.parametrize("cell", ["0", "-2.5"])
    def test_did_log_outcome_names_the_row_of_a_cell_not_above_0(self, tmp_path, capsys,
                                                                 cell):
        path = tmp_path / "panel.csv"
        path.write_text("bank_id,year,total_assets,profit\n"
                        f"ctl,2018,1,3\nctl,2021,2,1\ntrt,2018,3,{cell}\ntrt,2021,5,6\n")
        args = ["did", "--input", str(path), "--base-year", "2018",
                "--outcome-column", "profit", "--output-dir", str(tmp_path)]
        assert cli.main(args) == 4
        assert capsys.readouterr().err == (f"error: row 4: {cell!r} in column 'profit' "
                                           "is not > 0, which --log needs\n")
        assert cli.main([*args, "--no-log"]) == 0  # the level itself is fine

    def test_fitness_alpha_past_the_float_range_is_one_line(self, tmp_path, capsys):
        # the scores of every bank but the largest underflow to zero
        path = tmp_path / "panel.csv"
        path.write_text(synth_panel_csv(20, [2018], seed=3))
        assert cli.main(["analyze", "--input", str(path), "--method", "fitness",
                         "--fitness-alpha", "2000", "--output-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: year 2018: fitness_alpha=2000\.0: [^\n]+\n", err), err
        assert not (tmp_path / "analyze.json").exists()

    def test_placebo_command(self, tmp_path):
        from contagion_lab.reconstruct import max_entropy
        em = max_entropy([2.0, 3.0, 4.0, 5.0])
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
        ("bank_id\n", "header: no bank id after the first cell"),
        ("\nbank_id\n\n", "header: no bank id after the first cell"),
    ], ids=["rows-not-in-header-order", "repeated-bank-id", "empty-file", "ragged-row",
            "non-numeric-cell", "extra-row", "missing-row", "header-without-banks",
            "header-without-banks-between-blank-lines"])
    def test_placebo_rejects_malformed_exposure_csv(self, tmp_path, text, message):
        path = tmp_path / "exposures.csv"
        path.write_text(text)
        r = run_cli("placebo", "--input", str(path), "--n-draws", "5",
                    "--output-dir", str(tmp_path / "out"))
        assert r.returncode == 4
        assert r.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["trailing", "inner", "leading"])
    def test_placebo_skips_blank_lines_in_exposure_csv(self, tmp_path, where):
        # blank lines are no rows, as in the panel reader
        text = "bank_id,A,B,C\nA,0,1,2\nB,1,0,3\nC,2,3,0\n"
        lines = text.splitlines(keepends=True)
        blank = {"trailing": lines + ["\n", "\n"], "inner": lines[:2] + ["\n"] + lines[2:],
                 "leading": ["\n"] + lines}[where]
        results = []
        for name, body in (("plain", text), (where, "".join(blank))):
            path = tmp_path / f"{name}.csv"
            path.write_text(body)
            out = tmp_path / name
            r = run_cli("placebo", "--input", str(path), "--n-draws", "5", "--epsilon", "0",
                        "--output-dir", str(out))
            assert r.returncode == 0, r.stderr
            results.append(json.loads((out / "placebo.json").read_text())["results"])
        assert results[0] == results[1]

    @staticmethod
    def near_half_panel(tmp_path):
        """70 banks, one holding 49.99% of the assets, so of the interbank
        total: feasible, and past where RAS converges in reasonable time."""
        others = np.random.default_rng(7).lognormal(11.0, 1.0, 69)
        assets = np.array([others.sum() * 0.4999 / 0.5001, *others])
        path = tmp_path / "panel.csv"
        path.write_text("bank_id,year,total_assets\n" + "".join(
            f"B{i:02d},2018,{float(v)!r}\n" for i, v in enumerate(assets)))
        return path, assets

    def test_analyze_with_a_bank_near_half_the_total(self, tmp_path):
        path, _ = self.near_half_panel(tmp_path)
        r = run_cli("analyze", "--input", str(path), "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "analyze.json").read_text())
        assert payload["results"]["years"][0]["lambda2"] > 0

    def test_bootstrap_with_a_bank_near_half_the_total(self, tmp_path):
        # a resample that draws the large bank once and smaller banks than the
        # sample's is infeasible: that replicate is skipped, not the run
        path, assets = self.near_half_panel(tmp_path)
        from contagion_lab.pipeline import network_lambda2
        assert network_lambda2(assets, ReconstructionConfig()) > 0  # the point estimate
        r = run_cli("bootstrap", "-B", "10", "--input", str(path),
                    "--output-dir", str(tmp_path))
        assert r.returncode == 0, r.stderr
        results = json.loads((tmp_path / "bootstrap.json").read_text())["results"]
        assert results["n_degenerate"] > 0
        assert results["B_effective"] == 10 - results["n_degenerate"]
        assert len(results["replicates"]) == results["B_effective"]

    def test_bootstrap_with_no_edge_left_fails_on_the_dense_path(self, tmp_path):
        # equal factors and an epsilon above every weight: lambda2 falls back
        # to the dense path, whose SingletonGraph is the one-line exit 4
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(20, [2018], seed=1))
        r = run_cli("bootstrap", "--input", str(panel), "-B", "10", "--epsilon", "1e12",
                    "--output-dir", str(tmp_path))
        assert r.returncode == 4
        assert r.stderr == "error: largest component has fewer than 2 nodes\n"

    @pytest.mark.parametrize("flags, message", [
        (("--epsilon", "1e9"), r"largest component has fewer than 2 nodes"),
        (("--method", "fitness", "--fitness-alpha", "20", "--epsilon", "0"),
         r"lambda2 \S+ is lost in the rounding of lambda_n \S+ \(dense eigvalsh\)"),
    ])
    def test_sweep_errors_name_the_year_and_ratio(self, tmp_path, capsys, flags, message):
        # as analyze names the year of a failing network
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(20, [2018, 2021], seed=2))
        assert cli.main(["sweep", "--input", str(panel), "--sweep-steps", "3", *flags,
                         "--output-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: year 2018, rho 0\.01: {message}\n", err), err
        assert not (tmp_path / "sweep.json").exists()

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
        (("--epsilon", "nan"), "min_edge_threshold must be >= 0, got nan"),
        (("--rho", "nan"), "rho must be in (0, 1), got nan"),
        (("--method", "fitness", "--fitness-alpha", "inf"),
         "fitness_alpha must be > 0 and finite, got inf"),
        (("--rho", "abc"), "argument --rho: expected a number in (0, 1), got 'abc'"),
        (("--delimiter", ";;"), "delimiter must be one character, got ';;'"),
    ])
    def test_invalid_flags_exit_2(self, tmp_path, flags, message):
        panel = tmp_path / "panel.csv"
        panel.write_text(synth_panel_csv(8, [2018], seed=2, log_sigma=0.5))
        r = run_cli("analyze", "--input", str(panel), "--output-dir", str(tmp_path), *flags)
        assert r.returncode == 2
        assert message in r.stderr.splitlines()[-1]
        assert "_fixed_ratio" not in r.stderr  # argparse names the type function otherwise
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
        # the power-law fit needs x_min > 0: 0 ended in "math domain error"
        ("fit", ("--x-min", "0"), "x_min must be finite and > 0, got 0.0"),
        ("fit", ("--x-min", "-1.5"), "x_min must be finite and > 0, got -1.5"),
        ("fit", ("--x-min", "nan"), "x_min must be finite and > 0, got nan"),
        # the scan chooses x_min: a given one would be ignored
        ("fit", ("--x-min", "5", "--scan-xmin"), X_MIN_CONFLICT),
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
            "placebo": max_entropy([2.0, 3.0, 4.0, 5.0]).to_csv_text(),
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
        ('{"n_draws": 0}', "error: n_draws must be >= 1, got 0\n"),
        ('{"n_perm": -3}', "error: n_perm must be >= 1, got -3\n"),
        ('{"x_min": 0}', "error: x_min must be finite and > 0, got 0.0\n"),
        ('{"x_min": 5, "scan_xmin": true}', f"error: {X_MIN_CONFLICT}\n"),
        ('{"method": {"ratio_rule": {"kind": "size_threshold", "rho_large": 1.5}}}',
         "error: rho_large must be in (0, 1), got 1.5\n"),
        ('{"method": {"ratio_rule": {"kind": "size_threshold", "rho_small": 0}}}',
         "error: rho_small must be in (0, 1), got 0.0\n"),
        ('{"method": {"ratio_rule": {"kind": "size_threshold", "size_quantile": 1.5}}}',
         "error: size_quantile must be in [0, 1], got 1.5\n"),
        ('{"method": {"ratio_rule": {"kind": "tiered", "tiers": [[0.9, 0.02], [0.0, 1.2]]}}}',
         "error: tiers[1] rho must be in (0, 1), got 1.2\n"),
        ('{"method": {"ratio_rule": {"kind": "tiered", "tiers": [[-0.1, 0.05]]}}}',
         "error: tiers[0] quantile must be in [0, 1], got -0.1\n"),
        ('{"method": {"ratio_rule": {"kind": "tiered", "tiers": []}}}',
         "error: tiers must hold at least one (quantile, rho) pair\n"),
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

    def test_envelope_config_reruns_byte_identical(self, tmp_path, capsys):
        from contagion_lab.reconstruct import max_entropy

        text = synth_panel_csv(12, [2018, 2021], seed=1, log_sigma=0.5)
        panel, equity = tmp_path / "panel.csv", tmp_path / "equity.csv"
        panel.write_text(text)
        head, *rows = text.splitlines()
        equity.write_text("".join(f"{line},{v}\n" for line, v in
                                  zip([head, *rows], ["equity", *range(3, 3 + len(rows))])))
        # files whose columns the default names do not read
        groups, sizes = tmp_path / "groups.csv", tmp_path / "sizes.csv"
        groups.write_text("arm,score,value\n" + "".join(
            f"{g},{v},0\n" for g, v in zip("xxxxxxyyyyyy", (1, 2, 3, 4, 5, 9, 4, 5, 6, 7, 8, 2))))
        sizes.write_text("size,value\n" + "".join(
            f"{float(v)!r},0\n" for v in np.random.default_rng(3).lognormal(0.0, 1.0, 40)))
        exposures = tmp_path / "exposures.csv"
        exposures.write_text(max_entropy([2.0, 3.0, 4.0, 5.0]).to_csv_text())
        runs = [
            ("analyze", panel, ("--epsilon", "0", "--rho", "0.04")),
            ("sweep", panel, ("--sweep-max", "0.05", "--sweep-steps", "3", "--size-dependent")),
            ("bootstrap", panel, ("-B", "12", "--level", "0.8", "--seed", "5", "--year", "2018")),
            ("did", panel, ("--base-year", "2018", "--quantile", "0.5", "--years", "2018,2021")),
            ("did", panel, ("--base-year", "2018", "--no-log")),
            ("did", equity, ("--base-year", "2018", "--outcome-column", "equity")),
            ("placebo", exposures, ("--epsilon", "0", "--n-draws", "7", "--seed", "2")),
            ("permute", groups, ("--group-column", "arm", "--value-column", "score",
                                 "--n-perm", "50")),
            ("fit", sizes, ("--column", "size", "--scan-xmin")),
            ("fit", sizes, ("--column", "size", "--x-min", "0.8")),
        ]
        for i, (command, path, flags) in enumerate(runs):
            out = tmp_path / f"run{i}"
            assert cli.main([command, "--input", str(path), "--output-dir", str(out), *flags]) == 0
            first = json.loads((out / f"{command}.json").read_text())
            cfg_path = tmp_path / f"config{i}.json"
            cfg_path.write_text(json.dumps(first["config"]))
            assert cli.main([command, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
            again = json.loads((out / f"{command}.json").read_text())
            assert dump_json(again["results"]) == dump_json(first["results"]), flags
            assert again["config"] == first["config"], flags
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


def test_analyze_runs_without_scipy(tmp_path):
    # betweenness runs on numpy alone; with None in sys.modules every scipy import fails
    panel = tmp_path / "panel.csv"
    panel.write_text(synth_panel_csv(30, [2018, 2021], seed=4, log_sigma=0.8))
    common = f"'--input', {str(panel)!r}, '--output-dir', {str(tmp_path)!r}"
    code = ("import sys\nsys.modules['scipy'] = None\nfrom contagion_lab import cli\n"
            f"assert cli.main(['analyze', {common}]) == 0\n"
            f"assert cli.main(['analyze', {common}, '--epsilon', '30']) == 0\n"
            f"print({SCIPY_OR_NETWORKX})")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "['scipy']"  # the blocking entry alone
    years = json.loads((tmp_path / "analyze.json").read_text())["results"]["years"]
    assert [y["year"] for y in years] == [2018, 2021]


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


# --- one route from the command line into a command ------------------------------

#: Flags that change no ``results``, so they are no config field.
OUTPUT_ONLY = {"config", "table", "eigenvalues_csv"}
#: ``synth``'s generator flags; it writes a panel, not an envelope.
SYNTH_ONLY = {"n", "log_mean", "log_sigma", "shrink", "shrink_from", "treat_quantile",
              "noise", "out"}


def config_field_names(obj) -> set[str]:
    """The names ``overlay`` sets: every field of ``obj`` and of its sections."""
    names = set()
    for f in fields(obj):
        names.add(f.name)
        if is_dataclass(getattr(obj, f.name)):
            names |= config_field_names(getattr(obj, f.name))
    return names


def test_every_flag_sets_a_run_config_field_and_defaults_to_none():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = config_field_names(RunConfig())
    for command, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help"}
        extra = OUTPUT_ONLY | (SYNTH_ONLY if command == "synth" else set())
        assert dests - known <= extra, command
        # a default other than None would override the config file's value
        args = vars(p.parse_args(["--n", "5"] if command == "synth" else []))
        for dest in dests & known:
            assert args[dest] in (None, (None, None, None)), (command, dest)


def test_commands_read_no_flag_but_the_output_only_ones():
    for name, fn in vars(cli).items():
        if name.startswith("cmd_"):
            source = inspect.getsource(fn)
            allowed = {"table", "eigenvalues_csv"} | (SYNTH_ONLY if name == "cmd_synth" else set())
            assert set(re.findall(r"\bargs\.(\w+)", source)) <= allowed, name
            assert "getattr(args" not in source and "vars(args)" not in source, name
