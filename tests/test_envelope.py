"""The envelope every command writes, and the exit codes of the CLI.

``pipeline.to_json`` serializes both ``config`` and ``results``, so the
``results`` key sets pinned here are the fields of the result dataclasses.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from contagion_lab import cli
from contagion_lab.graph import WeightedNetwork, laplacian_spectrum, topology_report
from contagion_lab.pipeline import dump_json, synth_panel_csv, to_json
from contagion_lab.reconstruct import ReconstructionConfig, max_entropy
from contagion_lab.stats import leave_one_out_lambda2

TOPOLOGY = {"n", "gini", "hhi", "top_k_share", "cr3", "assortativity", "assortativity_defined",
            "spectral_radius", "lambda_n", "spectral_gap", "effective_resistance",
            "weighted_avg_degree", "centralization"}
YEAR = {"year", "n_banks", "lambda2", "kappa_eff", "d_star", "lambda_n", "n_components",
        "topology"}
CHANGE = {"from", "to", "delta_lambda2", "pct_lambda2", "delta_kappa_eff", "pct_kappa_eff",
          "kappa_ratio"}
RESULTS = {
    "analyze": {"years", "summary"},
    "sweep": {"rhos", "years", "lambda2", "scaling_exponent", "pct_change_first_to_last"},
    "bootstrap": {"year", "point", "replicates", "ci_low", "ci_high", "level", "seed", "B",
                  "B_effective", "n_degenerate"},
    "permute": {"group_a", "group_b", "n_a", "n_b", "t_obs", "n_perm", "p_value"},
    "placebo": {"null_lambda2", "observed", "percentile", "tied"},
    "did": {"base_year", "quantile", "n_treated", "coefficients", "clustered_se", "r_squared",
            "n_obs", "n_banks", "degenerate_terms"},
    "fit": {"alpha_hat", "x_min", "lognormal_mu", "lognormal_sigma", "exp_rate", "lr_pl_vs_ln",
            "vuong_stat", "p_value", "ks_stat", "ks_lognormal", "ks_exponential", "n_tail",
            "best_fit"},
}


def write_inputs(d: Path, n: int = 12, seed: int = 1, log_sigma: float = 0.5) -> dict:
    """One input file per command family, all small."""
    rng = np.random.default_rng(seed)
    paths = {name: d / f"{name}.csv" for name in ("panel", "exposures", "fit", "groups")}
    paths["panel"].write_text(synth_panel_csv(n, [2018, 2021], seed=seed, log_sigma=log_sigma,
                                              treated_shrink=0.1))
    A = rng.uniform(100.0, 200.0, 6)  # no bank near half the total: feasible
    paths["exposures"].write_text(max_entropy(A).to_csv_text())
    paths["fit"].write_text("value\n" + "".join(f"{v}\n" for v in rng.lognormal(0, 1, 60)))
    paths["groups"].write_text("group,value\n" + "".join(
        f"{g},{v}\n" for g, vals in (("a", rng.normal(0, 1, 5)), ("b", rng.normal(1, 1, 6)))
        for v in vals))
    return paths


def command_argv(command: str, paths: dict) -> list[str]:
    data = {"placebo": "exposures", "fit": "fit", "permute": "groups"}.get(command, "panel")
    extra = {"analyze": ["--epsilon", "0"], "sweep": ["--sweep-steps", "3"],
             "bootstrap": ["-B", "10"], "placebo": ["--n-draws", "20"],
             "did": ["--base-year", "2018"], "permute": ["--n-perm", "50"]}.get(command, [])
    return [command, "--input", str(paths[data]), *extra]


def test_results_key_sets_of_the_seven_file_writing_commands(tmp_path):
    paths = write_inputs(tmp_path)
    for command, keys in RESULTS.items():
        out = tmp_path / command
        assert cli.main([*command_argv(command, paths), "--output-dir", str(out)]) == 0
        doc = json.loads((out / f"{command}.json").read_text())
        assert set(doc) == {"schema_version", "command", "config", "results"}
        assert doc["command"] == command
        assert set(doc["results"]) == keys, command

    analyze = json.loads((tmp_path / "analyze" / "analyze.json").read_text())["results"]
    for year in analyze["years"]:
        assert set(year) == YEAR
        assert set(year["topology"]) == TOPOLOGY
        assert set(year["topology"]["top_k_share"]) == {"3", "5", "10"}
        assert set(year["topology"]["centralization"]) == {"degree", "betweenness",
                                                           "eigenvector"}
    assert set(analyze["summary"]) == {"adjacent", "overall"}
    assert set(analyze["summary"]["overall"]) == CHANGE
    assert [set(pair) for pair in analyze["summary"]["adjacent"]] == [CHANGE]


def test_undefined_assortativity_serializes_as_null():
    # a complete graph of equal weights: every endpoint has the same weighted degree
    n = 6
    W = np.ones((n, n)) - np.eye(n)
    report = topology_report(laplacian_spectrum(WeightedNetwork(tuple("abcdef"), W)))
    assert report.assortativity is None and not report.assortativity_defined
    doc = to_json(report)
    assert doc["assortativity"] is None and doc["assortativity_defined"] is False
    assert '"assortativity": null' in dump_json(doc)


def test_results_no_command_writes_still_serialize():
    assets = np.random.default_rng(3).uniform(50.0, 100.0, 8)
    loo = leave_one_out_lambda2(assets, ReconstructionConfig(min_edge_threshold=0.0))
    doc = json.loads(dump_json(to_json(loo)))
    assert doc["lambda2_without"] == loo.lambda2_without.tolist()
    assert doc["deviations_pct"] == loo.deviations_pct.tolist()
    assert doc["base_lambda2"] == loo.base_lambda2


# --- exit codes -----------------------------------------------------------------------

# Flags each command takes, with valid and invalid values, plus a few no command
# takes; a part named "missing..." becomes a path that does not exist.
COMMON = [(), ("--seed", "3"), ("--workers", "2"), ("--workers", "0"), ("--table",),
          ("--input", "missing.csv"), ("--config", "missing.json"), ("--bogus",), ("-B", "10")]
METHOD = [("--epsilon", "0"), ("--epsilon", "1e9"), ("--epsilon", "-1"), ("--epsilon", "x"),
          ("--rho", "0.05"), ("--rho", "1.5"), ("--rho", "nan"), ("--size-dependent",),
          ("--linear-log",), ("--method", "kde"), ("--method", "fitness"),
          ("--method", "min_density"), ("--method", "bogus"), ("--fitness-alpha", "0"),
          ("--years", "2018"), ("--years", "1999"), ("--years", "x"), ("--balanced",),
          ("--d-coeff", "0"), ("--kappa", "-1")]
FLAGS = {
    "analyze": COMMON + METHOD + [("--eigenvalues-csv",)],
    "sweep": COMMON + METHOD + [("--sweep-min", "0.2"), ("--sweep-max", "0.01"),
                                ("--sweep-steps", "0"), ("--sweep-steps", "1")],
    "bootstrap": COMMON + METHOD + [("-B", "5"), ("--level", "1.5"), ("--year", "1999"),
                                    ("--year", "2021")],
    "did": COMMON + [("--base-year", "2021"), ("--base-year", "1999"), ("--quantile", "2"),
                     ("--quantile", "0"), ("--no-log",), ("--years", "2018"), ("--balanced",),
                     ("--outcome-column", "absent")],
    "placebo": COMMON + [("--n-draws", "0"), ("--epsilon", "1e9"), ("--epsilon", "0")],
    "fit": COMMON + [("--x-min", "1e9"), ("--scan-xmin",), ("--column", "absent")],
    "permute": COMMON + [("--n-perm", "-1"), ("--n-perm", "1"), ("--group-column", "absent")],
    "synth": [(), ("--n", "2"), ("--log-mean", "800"), ("--log-mean", "-800"), ("--shrink", "1"),
              ("--shrink", "0.5"), ("--years", "2018,2018"), ("--quantile", "nan"),
              ("--noise", "-1"), ("--table",), ("--bogus",)],
}


@given(st.data(), st.sampled_from(sorted(FLAGS)), st.integers(3, 9), st.integers(0, 2**16),
       st.sampled_from([0.0, 0.5, 2.0]))
@settings(max_examples=150, deadline=None)
def test_cli_exits_0_2_3_or_4_without_traceback(data, command, n, seed, log_sigma):
    flags = data.draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = command_argv(command, write_inputs(d, n=n, seed=seed, log_sigma=log_sigma))
        if command == "synth":
            argv = ["synth", "--n", str(n), "--out", str(d / "synth.csv")]
        argv += ["--output-dir", str(d / "out")]
        for flag in flags:
            argv += [str(d / part) if part.startswith("missing") else part for part in flag]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
