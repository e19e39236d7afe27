"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure names the criterion that broke.
"""

import json
import math
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from conftest import complete_network, random_connected_network
from oracles import did_within_coefficients
from contagion_lab.contagion import (
    DiffusionParams,
    critical_distance,
    effective_decay,
    fit_temporal_decay,
    kappa_ratio,
    solve_diffusion,
    temporal_decay_rate,
)
from contagion_lab.graph import WeightedNetwork, build_network, laplacian_spectrum
from contagion_lab.ingest import BankPanel
from contagion_lab.pipeline import RunConfig, sweep_ratios, synth_panel
from contagion_lab.reconstruct import (
    FixedRatio,
    ReconstructionConfig,
    SizeThresholdRatio,
    kde_weights,
    max_entropy,
    min_density,
    reconstruct_exposures,
)
from contagion_lab.stats import (
    bootstrap_lambda2,
    did_regress,
    fit_distributions,
    permutation_test,
    power_law_mle,
    series_correlation,
)
from contagion_lab.ingest import TreatmentAssignment
from contagion_lab.pipeline import did_from_panel

MAXENT0 = ReconstructionConfig(method="max_entropy", ratio_rule=FixedRatio(0.05),
                               min_edge_threshold=0.0)


def report(n: int, label: str):
    print(f"ACCEPTANCE {n:>2}: PASS - {label}")


def two_scale_network(seed: int, n: int = 12) -> WeightedNetwork:
    """Random connected graph with a weakly attached node.

    The Fiedler mode localizes on the weak node, so an impulse there is
    dominated by it and the log-residual slope is clean.
    """
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    core = n - 1
    Wc = rng.uniform(5.0, 15.0, (core, core))
    Wc = np.triu(Wc, 1)
    W[:core, :core] = Wc + Wc.T
    for a in rng.choice(core, size=3, replace=False):
        W[a, core] = W[core, a] = rng.uniform(0.05, 0.15)
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)


def test_criterion_01_decay_law_arithmetic():
    effective_decay(1.0, DiffusionParams())  # warm the path before timing
    t0 = time.perf_counter()
    k18 = effective_decay(2283.72, DiffusionParams(D=1.0, kappa=0.0))
    k23 = effective_decay(1258.96, DiffusionParams(D=1.0, kappa=0.0))
    ratio = kappa_ratio(1258.96, 2283.72)
    elapsed = time.perf_counter() - t0
    assert abs(k18 - 47.79) <= 0.005
    assert abs(k23 - 35.48) <= 0.005
    change_pp = 100.0 * (ratio - 1.0)
    assert abs(change_pp - (-25.8)) <= 0.05
    assert elapsed < 1e-3
    report(1, f"kappa_eff 47.79/35.48, change {change_pp:.2f}% in {elapsed*1e6:.0f}us")


def test_criterion_02_critical_distances():
    d18 = critical_distance(effective_decay(2283.72, DiffusionParams()), 0.1)
    d23 = critical_distance(effective_decay(1258.96, DiffusionParams()), 0.1)
    assert abs(d18 - 0.0482) <= 5e-4
    assert abs(d23 - 0.0649) <= 5e-4
    # prediction: halving lambda2 stretches d* by sqrt(2)
    lam = 777.7
    base = critical_distance(effective_decay(lam, DiffusionParams()), 0.1)
    halved = critical_distance(effective_decay(0.5 * lam, DiffusionParams()), 0.1)
    assert abs(halved / base - math.sqrt(2.0)) <= 1e-9
    report(2, f"d* {d18:.4f}/{d23:.4f}, halving ratio sqrt(2) to 1e-9")


def test_criterion_03_spectral_exactness():
    t0 = time.perf_counter()
    for n, w in product(range(3, 51), (0.5, 1.0, 3.0)):
        lam2 = laplacian_spectrum(complete_network(n, w)).lambda2
        assert abs(lam2 - n * w) <= 1e-9 * max(1.0, n * w), (n, w)
    path = WeightedNetwork(("a", "b", "c"), np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert abs(laplacian_spectrum(path).lambda2 - 1.0) <= 1e-9
    for seed in range(50):
        net = random_connected_network(seed, 8 + seed % 40)
        s = laplacian_spectrum(net)
        resid = np.linalg.norm(net.laplacian() @ s.fiedler_vector
                               - s.lambda2 * s.fiedler_vector)
        assert resid <= 1e-8 * max(1.0, s.lambda_n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"K_n/path/residual checks in {elapsed:.2f}s")


def test_criterion_04_conservation_and_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for seed in range(6):
        n = int(rng.integers(5, 31))
        spectrum = laplacian_spectrum(random_connected_network(1000 + seed, n))
        u0 = rng.random(n)
        for t in (0.1, 1.0, 10.0):
            drift = solve_diffusion(spectrum, DiffusionParams(kappa=0.0), u0, t)
            assert abs(drift.total() - u0.sum()) <= 1e-8 * u0.sum()
            kap = 0.4
            dec = solve_diffusion(spectrum, DiffusionParams(kappa=kap), u0, t)
            assert abs(dec.total() - math.exp(-kap * t) * u0.sum()) \
                <= 1e-8 * u0.sum()
    for label, net in (("K6", complete_network(6)),
                       ("random n=12", two_scale_network(3))):
        params = DiffusionParams(D=1.0, kappa=0.25)
        spectrum = laplacian_spectrum(net)
        gamma = temporal_decay_rate(spectrum, params)
        q2 = spectrum.fiedler_vector
        fitted = fit_temporal_decay(spectrum, params, source=int(np.argmax(np.abs(q2))))
        assert abs(fitted - gamma) <= 0.01 * gamma, label
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, f"conservation to 1e-8, slope within 1% in {elapsed:.2f}s")


def test_criterion_05_solver_oracle():
    for seed in range(10):
        n = 5 + seed
        net = random_connected_network(2000 + seed, n)
        params = DiffusionParams(D=0.9, kappa=0.2)
        u0 = np.random.default_rng(seed).random(n)
        lam_max = float(np.linalg.eigvalsh(net.laplacian())[-1])
        dt = 1e-4 / (params.D * lam_max + params.kappa)
        L = net.laplacian()
        u = u0.copy()
        for _ in range(int(round(1.0 / dt))):
            u = u + dt * (-params.D * (L @ u) - params.kappa * u)
        spectral = solve_diffusion(laplacian_spectrum(net), params, u0, 1.0).u
        assert np.allclose(spectral, u, rtol=1e-4, atol=1e-12)
    report(5, "spectral vs forward-Euler within 1e-4 on 10 graphs, n <= 15")


def test_criterion_06_reconstruction_marginals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(10, 71))
        A = rng.uniform(1.0, 100.0, n)
        scale = A.max()
        em = max_entropy(A, A.copy())
        assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * scale
        assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * scale
        md = min_density(A, A.copy())
        assert int((md.X > 0).sum()) <= 2 * n - 1
        assert np.abs(md.X.sum(axis=1) - A).max() <= 1e-9 * scale
        assert np.abs(md.X.sum(axis=0) - A).max() <= 1e-9 * scale
        total = float(rng.uniform(10.0, 1000.0))
        kd = kde_weights(rng.lognormal(2.0, 1.0, n), total)
        assert abs(kd.X.sum() - total) <= 1e-12 * total
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(6, f"100 aggregate vectors reconstructed in {elapsed:.2f}s")


def test_criterion_07_ratio_sweep_invariance():
    recs = synth_panel(30, [2018, 2021, 2023], seed=12, treated_shrink=0.15,
                       log_sigma=0.7, noise_sigma=0.01)
    panel = BankPanel(records=tuple(recs))
    cfg = RunConfig(method=MAXENT0, ratio_sweep=(0.01, 0.10, 10))
    out = sweep_ratios(panel, cfg)
    changes = list(out["pct_change_first_to_last"].values())
    assert max(changes) - min(changes) <= 0.1  # percentage points
    for year, slope in out["scaling_exponent"].items():
        assert abs(slope - 1.0) <= 1e-6, year
    report(7, f"pct-change spread {max(changes)-min(changes):.2e}pp, "
              f"exponent 1 to 1e-6 (documented divergence from the quadratic table)")


def test_criterion_08_distribution_fitting():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=808, spawn_key=(seed,)))
        sample = rng.lognormal(3.0, 0.8, 5000)
        fit = fit_distributions(sample)
        wins += (fit.lr_pl_vs_ln < 0 and fit.p_value < 0.01)
    assert wins >= 95
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=809, spawn_key=(seed,)))
        alpha_true = 2.5
        x = (1.0 - rng.random(10_000)) ** (-1.0 / (alpha_true - 1.0))
        worst = max(worst, abs(power_law_mle(x, 1.0) - alpha_true))
    assert worst <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"lognormal wins {wins}/100, alpha err {worst:.3f} in {elapsed:.1f}s")


def test_criterion_09_did_correctness():
    t0 = time.perf_counter()
    obs = [("ctl", 2018, 1.0), ("ctl", 2021, 2.0),
           ("trt", 2018, 3.0), ("trt", 2021, 5.0)]
    tr = TreatmentAssignment(treated={"ctl": False, "trt": True},
                             quantile=0.75, base_year=2018)
    res = did_regress(obs, tr)
    assert res.coefficients["treated_post2021"] == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(909)
    checked = 0
    while checked < 50:
        n_banks = int(rng.integers(4, 11))
        n_years = int(rng.integers(2, 5))
        banks = [f"B{i}" for i in range(n_banks)]
        years = [2018 + 2 * t for t in range(n_years)]
        treated = set(rng.choice(banks, size=max(1, n_banks // 2), replace=False))
        if len(treated) == n_banks:
            continue
        tr = TreatmentAssignment(treated={b: b in treated for b in banks},
                                 quantile=0.75, base_year=years[0])
        obs = [(b, y, float(rng.normal())) for b in banks for y in years]
        full = did_regress(obs, tr)
        within = did_within_coefficients(obs, tr)
        for term, beta in within.items():
            assert full.coefficients[term] == pytest.approx(beta, abs=1e-8)
        checked += 1

    target = math.log(0.85)
    hits = 0
    for seed in range(200):
        recs = synth_panel(40, [2018, 2021, 2023], seed=seed, treated_shrink=0.15,
                           noise_sigma=0.02, year_drift=-0.02)
        panel = BankPanel(records=tuple(recs))
        out, _ = did_from_panel(panel, base_year=2018, quantile=0.75)
        d1 = out.coefficients["treated_post2021"]
        se1 = out.clustered_se["treated_post2021"]
        hits += abs(d1 - target) <= 3 * se1
    assert hits >= 198  # >= 99% of 200 runs
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(9, f"2x2 exact, FE equivalence, coverage {hits}/200 in {elapsed:.1f}s")


def test_criterion_10_resampling_determinism_and_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    assets = rng.lognormal(10, 0.8, 25)
    runs = [bootstrap_lambda2(assets, MAXENT0, B=50, seed=6, workers=w)
            for w in (1, 1, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].replicates, other.replicates)
        assert (runs[0].ci_low, runs[0].ci_high) == (other.ci_low, other.ci_high)
    a = rng.normal(0, 1, 12)
    b = rng.normal(0, 1, 12)
    p1 = permutation_test(a, b, n_perm=299, seed=17)
    p2 = permutation_test(a, b, n_perm=299, seed=17)
    assert p1 == p2

    hits = 0
    sims = 500
    for sim in range(sims):
        r = np.random.default_rng(np.random.SeedSequence(entropy=55, spawn_key=(sim,)))
        ga = r.normal(0, 1, 8)
        gb = r.normal(0, 1, 8)
        hits += permutation_test(ga, gb, n_perm=199, seed=sim, method="mc") <= 0.05
    rate = hits / sims
    assert rate <= 0.07
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, f"bit-identical across reruns/workers, P(p<=.05)={rate:.3f} "
               f"in {elapsed:.1f}s")


def test_criterion_11_cross_method_coherence():
    recs = synth_panel(48, [2018, 2021, 2023], seed=7, treated_shrink=0.15,
                       noise_sigma=0.005, year_drift=-0.15)
    panel = BankPanel(records=tuple(recs))
    methods = {
        "max_entropy": MAXENT0,
        "size_dependent": ReconstructionConfig(
            method="max_entropy", ratio_rule=SizeThresholdRatio(),
            min_edge_threshold=0.0),
        "kde": ReconstructionConfig(method="kde", ratio_rule=FixedRatio(0.05),
                                    min_edge_threshold=0.0),
    }
    series = {}
    for name, cfg in methods.items():
        lams = []
        for year in panel.years:
            ids, assets = panel.assets_for_year(year)
            exposures = reconstruct_exposures(assets, cfg, ids)
            lams.append(laplacian_spectrum(build_network(exposures, 0.0)).lambda2)
        series[name] = lams
    for name, lams in series.items():
        assert lams[-1] < lams[0], f"{name} did not decline"
    names = list(series)
    min_corr = min(series_correlation(series[a], series[b], "levels")
                   for i, a in enumerate(names) for b in names[i + 1:])
    assert min_corr > 0.9
    report(11, f"all methods decline, min pairwise corr {min_corr:.4f}")


def test_criterion_12_end_to_end(tmp_path):
    def run(out_dir):
        out_dir.mkdir(exist_ok=True)
        cmds = [
            ["synth", "--n", "70", "--years", "2018,2021,2023", "--seed", "11",
             "--shrink", "0.15", "--out", str(out_dir / "panel.csv"),
             "--output-dir", str(out_dir)],
            ["analyze", "--input", str(out_dir / "panel.csv"),
             "--output-dir", str(out_dir), "--seed", "11"],
            ["sweep", "--input", str(out_dir / "panel.csv"),
             "--output-dir", str(out_dir), "--sweep-min", "0.01",
             "--sweep-max", "0.10", "--sweep-steps", "10", "--seed", "11"],
            ["bootstrap", "--input", str(out_dir / "panel.csv"),
             "--output-dir", str(out_dir), "-B", "100", "--seed", "11"],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "contagion_lab.cli", *cmd],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (cmd[0], proc.stderr)

    t0 = time.perf_counter()
    run(tmp_path / "run1")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    run(tmp_path / "run2")
    assert (tmp_path / "run1" / "panel.csv").read_bytes() == \
        (tmp_path / "run2" / "panel.csv").read_bytes()
    for name in ("analyze.json", "sweep.json", "bootstrap.json"):
        a = json.loads((tmp_path / "run1" / name).read_text())
        b = json.loads((tmp_path / "run2" / name).read_text())
        assert a["results"] == b["results"], name
    report(12, f"synth->analyze->sweep->bootstrap(B=100) n=70 in {elapsed:.1f}s, "
               "deterministic")
