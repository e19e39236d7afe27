import math
from itertools import combinations

import numpy as np
import pytest

from conftest import complete_network, random_connected_network
from oracles import did_within_coefficients
from contagion_lab.errors import (
    CollinearDesign,
    InsufficientData,
    NonPositiveSample,
    TooFewClusters,
    TooFewPoints,
    ZeroVariance,
)
from contagion_lab.graph import WeightedNetwork, laplacian_spectrum
from contagion_lab.ingest import TreatmentAssignment
from contagion_lab.pipeline import network_spectrum, to_json
from contagion_lab.reconstruct import FixedRatio, ReconstructionConfig
from contagion_lab.stats import (
    _norm_cdf,
    bootstrap_lambda2,
    did_regress,
    fit_distributions,
    leave_one_out_lambda2,
    permutation_test,
    placebo_null,
    power_law_mle,
    series_correlation,
)

MAXENT = ReconstructionConfig(method="max_entropy", ratio_rule=FixedRatio(0.05),
                              min_edge_threshold=0.0)


class TestBootstrap:
    def test_percentile_ci_is_order_statistics(self):
        rng = np.random.default_rng(8)
        assets = rng.lognormal(10, 1, 20)
        res = bootstrap_lambda2(assets, MAXENT, B=100, level=0.95, seed=4)
        reps = np.sort(res.replicates)
        assert res.ci_low in reps and res.ci_high in reps
        assert res.ci_low == np.quantile(reps, 0.025, method="lower")
        assert res.ci_high == np.quantile(reps, 0.975, method="higher")
        assert res.ci_low <= res.ci_high
        assert res.B_effective == 100

    def test_identical_assets_zero_width(self):
        assets = np.full(12, 50.0)
        res = bootstrap_lambda2(assets, MAXENT, B=25, seed=1)
        assert np.allclose(res.replicates, res.point, rtol=1e-9)
        assert res.ci_high - res.ci_low <= 1e-9 * res.point

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        assets = rng.lognormal(10, 1, 15)
        a = bootstrap_lambda2(assets, MAXENT, B=40, seed=7)
        b = bootstrap_lambda2(assets, MAXENT, B=40, seed=7)
        assert np.array_equal(a.replicates, b.replicates)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(10)
        assets = rng.lognormal(10, 1, 15)
        seq = bootstrap_lambda2(assets, MAXENT, B=30, seed=2, workers=1)
        par = bootstrap_lambda2(assets, MAXENT, B=30, seed=2, workers=4)
        assert np.array_equal(seq.replicates, par.replicates)

    def test_ci_widens_with_level(self):
        rng = np.random.default_rng(11)
        assets = rng.lognormal(10, 1, 20)
        lo = bootstrap_lambda2(assets, MAXENT, B=60, level=0.80, seed=3)
        hi = bootstrap_lambda2(assets, MAXENT, B=60, level=0.99, seed=3)
        assert hi.ci_low <= lo.ci_low and hi.ci_high >= lo.ci_high
        med = float(np.median(lo.replicates))
        assert lo.ci_low <= med <= lo.ci_high

    def test_preconditions(self):
        with pytest.raises(InsufficientData):
            bootstrap_lambda2([1.0, 2.0], MAXENT, B=20)
        with pytest.raises(InsufficientData):
            bootstrap_lambda2([1.0, 2.0, 3.0, 4.0], MAXENT, B=5)


class TestPermutationTest:
    def test_identical_groups_give_p_one(self):
        # group sizes force Monte Carlo mode; every |T_perm| >= |T_obs| = 0
        a = list(range(10))
        p = permutation_test(a, list(a), n_perm=300, seed=0, method="mc")
        assert p == 1.0

    def test_exhaustive_oracle_maximally_separated(self):
        # oracle: the 20 label assignments of {0,0,0, 10,10,10} contain one
        # non-observed arrangement with |T| >= 10 (the mirror), so the
        # minimal attainable p is (1+1)/(20+1)
        pooled = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
        count = 0
        for idx in combinations(range(6), 3):
            if idx == (0, 1, 2):
                continue
            g1 = [pooled[i] for i in idx]
            g2 = [pooled[i] for i in range(6) if i not in idx]
            if abs(np.mean(g1) - np.mean(g2)) >= 10.0:
                count += 1
        assert count == 1
        p = permutation_test([0.0, 0.0, 0.0], [10.0, 10.0, 10.0], n_perm=10_000, seed=5)
        assert p == pytest.approx(2 / 21, abs=1e-15)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(0, 1, 30), rng.normal(0.5, 1, 30)
        p1 = permutation_test(a, b, n_perm=500, seed=42)
        p2 = permutation_test(a, b, n_perm=500, seed=42)
        assert p1 == p2

    def test_detects_separated_groups(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0, 1, 25)
        b = rng.normal(3, 1, 25)
        assert permutation_test(a, b, n_perm=999, seed=1) < 0.01

    def test_empty_group_rejected(self):
        with pytest.raises(InsufficientData):
            permutation_test([], [1.0], n_perm=10)

    @pytest.mark.parametrize("n_perm", [0, -5])
    def test_no_permutations_rejected(self, n_perm):
        with pytest.raises(ValueError, match=f"n_perm must be >= 1, got {n_perm}"):
            permutation_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], n_perm=n_perm)


class TestPlaceboNull:
    def test_equal_weights_tied(self):
        net = complete_network(5, 2.0)
        res = placebo_null(net, n_draws=20, seed=0)
        assert res.tied
        assert np.all(res.null_lambda2 == res.observed)

    def test_two_edge_exhaustive_configurations(self):
        # path a-b-c with weights {1, 9}: only two distinct weight layouts
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        W[1, 2] = W[2, 1] = 9.0
        net = WeightedNetwork(("a", "b", "c"), W)
        lam_obs = laplacian_spectrum(net).lambda2
        W2 = np.zeros((3, 3))
        W2[0, 1] = W2[1, 0] = 9.0
        W2[1, 2] = W2[2, 1] = 1.0
        lam_swap = laplacian_spectrum(WeightedNetwork(("a", "b", "c"), W2)).lambda2
        assert lam_swap == pytest.approx(lam_obs, rel=1e-12)  # mirror symmetry
        res = placebo_null(net, n_draws=64, seed=3)
        assert set(np.round(res.null_lambda2, 12)) <= {round(lam_obs, 12), round(lam_swap, 12)}

    def test_seeded_determinism(self):
        net = random_connected_network(14, 12)
        r1 = placebo_null(net, n_draws=25, seed=9)
        r2 = placebo_null(net, n_draws=25, seed=9)
        assert np.array_equal(r1.null_lambda2, r2.null_lambda2)
        assert r1.percentile == r2.percentile

    def test_shuffling_preserves_edge_support(self):
        net = random_connected_network(15, 10)
        res = placebo_null(net, n_draws=10, seed=1)
        assert len(res.null_lambda2) == 10
        assert not res.tied

    @pytest.mark.parametrize("n_draws", [0, -2])
    def test_no_draws_rejected(self, n_draws):
        with pytest.raises(ValueError, match=f"n_draws must be >= 1, got {n_draws}"):
            placebo_null(complete_network(4), n_draws=n_draws)

    def test_null_matches_per_edge_reference_loop(self):
        # reference: the per-edge rebuild, drawing one permutation per draw
        net = random_connected_network(16, 14, p=0.3)
        edges = net.edges()
        weights = np.array([w for _, _, w in edges])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=21))
        reference = np.empty(40)
        for d in range(40):
            W = np.zeros_like(net.W)
            for (i, j, _), w in zip(edges, rng.permutation(weights)):
                W[i, j] = w
                W[j, i] = w
            reference[d] = laplacian_spectrum(WeightedNetwork(net.bank_ids, W)).lambda2
        res = placebo_null(net, n_draws=40, seed=21)
        assert np.array_equal(res.null_lambda2, reference)


class TestFitDistributions:
    def test_closed_form_alpha_three_points(self):
        # alpha = 1 + 3 / (ln1 + ln2 + ln4) = 1 + 1/ln2
        alpha = power_law_mle([2.0, 4.0, 8.0], x_min=2.0)
        assert alpha == pytest.approx(1.0 + 1.0 / math.log(2.0), rel=1e-12)
        assert alpha == pytest.approx(2.4427, abs=5e-5)

    def test_lognormal_sample_selects_lognormal(self):
        rng = np.random.default_rng(21)
        sample = rng.lognormal(3.0, 0.8, 5000)
        fit = fit_distributions(sample)
        assert fit.lr_pl_vs_ln < 0
        assert fit.p_value < 0.01
        assert fit.best_fit == "lognormal"

    def test_pareto_sample_recovers_alpha(self):
        rng = np.random.default_rng(22)
        alpha_true = 2.5
        x = (1.0 - rng.random(10_000)) ** (-1.0 / (alpha_true - 1.0))
        fit = fit_distributions(x, x_min=1.0)
        assert fit.alpha_hat == pytest.approx(alpha_true, abs=0.05)
        assert fit.ks_stat < 0.02

    def test_lognormal_moments_match_definition(self):
        rng = np.random.default_rng(23)
        sample = rng.lognormal(1.5, 0.4, 500)
        fit = fit_distributions(sample)
        logs = np.log(np.sort(sample))
        assert fit.lognormal_mu == pytest.approx(float(logs.mean()), rel=1e-12)
        assert fit.lognormal_sigma == pytest.approx(float(logs.std(ddof=0)), rel=1e-12)

    def test_constant_sample_flagged(self):
        with pytest.raises(TooFewPoints):
            fit_distributions([3.0] * 50)

    def test_nonpositive_sample(self):
        with pytest.raises(NonPositiveSample):
            fit_distributions([1.0, -2.0] + [1.0] * 20)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_distributions([1.0, 2.0, 3.0])

    def test_xmin_scan_mode(self):
        rng = np.random.default_rng(24)
        # lognormal body with a Pareto tail grafted above 10
        body = rng.lognormal(0.5, 0.5, 800)
        tail = 10.0 * (1.0 - rng.random(400)) ** (-1.0 / 1.5)
        fit = fit_distributions(np.concatenate([body, tail]), scan_xmin=True)
        assert fit.x_min > 1.0  # the scan moved past the lognormal body

    def test_normal_cdf_matches_scipy_ndtr(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        x = np.concatenate([np.random.default_rng(26).standard_normal(200_000),
                            np.linspace(-37.0, 37.0, 7401), [0.0]])
        got = _norm_cdf(x)
        want = ndtr(x)
        assert np.all(want > 0)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert _norm_cdf(-37.0) == pytest.approx(ndtr(-37.0), rel=1e-13)

    @pytest.mark.parametrize("scan_xmin", [False, True])
    def test_lognormal_terms_match_scipy_stats(self, scan_xmin):
        # the fit takes its normal CDF from math.erfc; scipy.stats.norm is the
        # reference, to 1e-13 relative (the two round differently by a few ulps)
        norm = pytest.importorskip("scipy.stats").norm
        rng = np.random.default_rng(25)
        body = rng.lognormal(0.5, 0.5, 300)
        tail = 10.0 * (1.0 - rng.random(100)) ** (-1.0 / 1.5)
        sample = np.concatenate([body, tail])
        fit = fit_distributions(sample, scan_xmin=scan_xmin)

        x_min, mu, sigma, alpha = fit.x_min, fit.lognormal_mu, fit.lognormal_sigma, fit.alpha_hat
        t = np.sort(sample[sample >= x_min])
        z_min = (math.log(x_min) - mu) / sigma
        tailmass = max(1.0 - norm.cdf(z_min), 1e-300)
        ll_pl = (math.log(alpha - 1) - math.log(x_min)) - alpha * np.log(t / x_min)
        ll_ln = (-np.log(t * sigma * math.sqrt(2 * math.pi))
                 - (np.log(t) - mu) ** 2 / (2 * sigma ** 2) - math.log(tailmass))
        diffs = ll_pl - ll_ln
        vuong = float(math.sqrt(len(t)) * diffs.mean() / float(diffs.std(ddof=0)))
        cdf_ln = (norm.cdf((np.log(t) - mu) / sigma) - norm.cdf(z_min)) / tailmass
        m = len(t)
        ks_ln = float(max(np.abs(np.arange(1, m + 1) / m - cdf_ln).max(),
                          np.abs(np.arange(0, m) / m - cdf_ln).max()))

        assert fit.lr_pl_vs_ln == pytest.approx(float(diffs.sum()), rel=1e-13)
        assert fit.vuong_stat == pytest.approx(vuong, rel=1e-13)
        assert fit.p_value == pytest.approx(float(2.0 * norm.sf(abs(vuong))), rel=1e-13)
        assert fit.ks_lognormal == pytest.approx(ks_ln, rel=1e-13)
        cdf_pl = 1.0 - (t / x_min) ** (1.0 - alpha)
        assert fit.ks_stat == float(max(np.abs(np.arange(1, m + 1) / m - cdf_pl).max(),
                                        np.abs(np.arange(0, m) / m - cdf_pl).max()))


def simple_treatment(treated_ids, all_ids, base_year=2018):
    return TreatmentAssignment(
        treated={b: b in treated_ids for b in all_ids},
        quantile=0.75, base_year=base_year)


class TestDidRegress:
    def test_two_by_two_hand_example(self):
        obs = [("ctl", 2018, 1.0), ("ctl", 2021, 2.0),
               ("trt", 2018, 3.0), ("trt", 2021, 5.0)]
        tr = simple_treatment({"trt"}, ["ctl", "trt"])
        res = did_regress(obs, tr)
        assert res.coefficients["treated_post2021"] == pytest.approx(1.0, abs=1e-12)
        assert res.n_obs == 4 and res.n_banks == 2

    def test_within_equals_dummy_ols(self):
        rng = np.random.default_rng(30)
        for trial in range(50):
            n_banks = int(rng.integers(4, 11))
            n_years = int(rng.integers(2, 5))
            banks = [f"B{i}" for i in range(n_banks)]
            years = [2018 + 3 * t for t in range(n_years)]
            treated = set(rng.choice(banks, size=n_banks // 2, replace=False))
            tr = simple_treatment(treated, banks)
            obs = []
            for b in banks:
                for y in years:
                    # unbalanced: drop ~15% of cells but keep 2 obs per bank
                    if rng.random() < 0.15 and y != years[0]:
                        continue
                    obs.append((b, y, float(rng.normal())))
            try:
                full = did_regress(obs, tr)
            except (CollinearDesign, InsufficientData):
                continue
            within = did_within_coefficients(obs, tr)
            for term, beta in within.items():
                assert full.coefficients[term] == pytest.approx(beta, abs=1e-8)

    def test_constant_outcome_degenerate(self):
        obs = [(b, y, 5.0) for b in ("a", "b", "c", "d") for y in (2018, 2021)]
        tr = simple_treatment({"a", "b"}, ["a", "b", "c", "d"])
        res = did_regress(obs, tr)
        assert res.coefficients["treated_post2021"] == pytest.approx(0.0, abs=1e-12)
        assert "treated_post2021" in res.degenerate_terms
        assert to_json(res)["degenerate_terms"] == list(res.degenerate_terms)  # a tuple

    def test_heterogeneity_triple_interaction(self):
        # built-in extra shift of -0.5 for core treated banks post-2021
        banks = ["t_core", "t_oth", "c_core", "c_oth"]
        core = {"t_core": 1.0, "t_oth": 0.0, "c_core": 1.0, "c_oth": 0.0}
        tr = simple_treatment({"t_core", "t_oth"}, banks)
        obs = []
        for b in banks:
            for y in (2018, 2021):
                val = 1.0
                if y == 2021:
                    val += 0.3  # common year effect
                    if tr.treated[b]:
                        val += -0.2
                        if core[b]:
                            val += -0.5
                obs.append((b, y, val))
        res = did_regress(obs, tr, interactions=["core"],
                          covariates={b: {"core": core[b]} for b in banks})
        assert res.coefficients["treated_post2021"] == pytest.approx(-0.2, abs=1e-9)
        assert res.coefficients["treated_post2021_x_core"] == pytest.approx(-0.5, abs=1e-9)

    def test_single_arm_rejected(self):
        obs = [("a", 2018, 1.0), ("a", 2021, 2.0), ("b", 2018, 1.0), ("b", 2021, 2.0)]
        tr = simple_treatment(set(), ["a", "b"])
        with pytest.raises(CollinearDesign):
            did_regress(obs, tr)

    def test_too_few_clusters(self):
        obs = [("a", 2018, 1.0), ("a", 2021, 2.0)]
        tr = simple_treatment({"a"}, ["a"])
        with pytest.raises(TooFewClusters):
            did_regress(obs, tr)

    def test_null_effect_coverage_smoke(self):
        rng = np.random.default_rng(31)
        hits = 0
        runs = 60
        for _ in range(runs):
            banks = [f"B{i}" for i in range(12)]
            treated = set(banks[:6])
            tr = simple_treatment(treated, banks)
            obs = [(b, y, float(rng.normal())) for b in banks
                   for y in (2018, 2021, 2023)]
            res = did_regress(obs, tr)
            d = res.coefficients["treated_post2021"]
            se = res.clustered_se["treated_post2021"]
            hits += abs(d) <= 3 * se
        assert hits >= int(0.9 * runs)


class TestSeriesCorrelation:
    def test_affine_copies(self):
        a = [1.0, 3.0, 2.0, 5.0]
        assert series_correlation(a, [2 * x for x in a], "levels") == pytest.approx(1.0)
        assert series_correlation(a, [2 * x for x in a], "changes") == pytest.approx(1.0)
        assert series_correlation(a, [-x for x in a], "levels") == pytest.approx(-1.0)

    def test_cross_method_table_value(self):
        fixed = [114.19, 108.48, 62.95]
        kde = [16693.30, 14041.94, 11695.98]
        assert series_correlation(fixed, kde, "levels") == pytest.approx(0.897, abs=5e-4)

    def test_pct_changes_mode(self):
        a = [100.0, 110.0, 99.0]
        b = [10.0, 11.0, 9.9]
        assert series_correlation(a, b, "pct_changes") == pytest.approx(1.0)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            series_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "levels")

    def test_length_checks(self):
        with pytest.raises(InsufficientData):
            series_correlation([1.0, 2.0], [2.0, 4.0], "changes")


class TestLeaveOneOut:
    def test_max_deviation_over_all_drops(self):
        rng = np.random.default_rng(40)
        assets = rng.lognormal(10, 1, 15)
        res = leave_one_out_lambda2(assets, MAXENT)
        assert len(res.lambda2_without) == 15
        assert res.max_abs_deviation_pct == pytest.approx(
            float(np.abs(res.deviations_pct).max()))
        manual = []
        for i in (0, 7, 14):
            sub = np.delete(assets, i)
            manual.append(network_spectrum(sub, MAXENT).lambda2)
        assert res.lambda2_without[[0, 7, 14]] == pytest.approx(manual)
