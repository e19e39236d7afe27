import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contagion_lab.errors import (
    DegenerateBandwidth,
    InfeasibleMarginals,
    InvalidRatio,
    ZeroTotal,
)
from contagion_lab.graph import algebraic_connectivity, build_network
from contagion_lab.reconstruct import (
    ExposureMatrix,
    FixedRatio,
    LinearLogRatio,
    ReconstructionConfig,
    SizeThresholdRatio,
    TieredRatio,
    apply_threshold,
    exposure_from_csv_text,
    fitness_model,
    interbank_aggregates,
    kde_weights,
    max_entropy,
    min_density,
    reconstruct_exposures,
    silverman_bandwidth,
)


class TestInterbankAggregates:
    def test_fixed_ratio(self):
        A, L = interbank_aggregates([100.0, 200.0], FixedRatio(0.05))
        assert A.tolist() == [5.0, 10.0]
        assert L.tolist() == [5.0, 10.0]

    def test_size_threshold_three_and_seven_percent(self):
        # 75th percentile of [100, 1000] is 775: the small bank gets 7%, the large 3%
        A, _ = interbank_aggregates(
            [100.0, 1000.0], SizeThresholdRatio(0.03, 0.07, 0.75))
        assert np.allclose(A, [7.0, 30.0], rtol=1e-12)

    def test_linear_log_at_mean_gives_intercept(self):
        A, _ = interbank_aggregates(
            [50.0, 50.0, 50.0], LinearLogRatio(intercept=0.08, slope=-0.03))
        assert np.allclose(A, 0.08 * 50.0)

    def test_tiered(self):
        assets = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        A, _ = interbank_aggregates(
            assets, TieredRatio(tiers=((0.9, 0.02), (0.5, 0.05), (0.0, 0.08))))
        rho = A / assets
        assert rho[-1] == 0.02          # above the 90th percentile
        assert rho[0] == 0.08           # bottom tier

    def test_invalid_ratio(self):
        # a steep slope pushes the linear-log rule negative for the big bank
        with pytest.raises(InvalidRatio):
            interbank_aggregates([1.0, 10.0], LinearLogRatio(0.08, -0.5))

    def test_nonpositive_assets_rejected(self):
        with pytest.raises(ValueError):
            interbank_aggregates([1.0, 0.0], FixedRatio(0.05))


def ipf_oracle(A, L, sweeps=200_000, rtol=1e-12):
    """Independent straight-loop IPF for cross-checking max_entropy."""
    A = np.asarray(A, float)
    L = np.asarray(L, float)
    X = np.outer(A, L) / A.sum()
    np.fill_diagonal(X, 0.0)
    for _ in range(sweeps):
        for i in range(len(A)):
            s = X[i].sum()
            if s > 0:
                X[i] *= A[i] / s
        for j in range(len(L)):
            s = X[:, j].sum()
            if s > 0:
                X[:, j] *= L[j] / s
        err = max(np.abs(X.sum(axis=1) - A).max(), np.abs(X.sum(axis=0) - L).max())
        if err <= rtol * A.max():
            break
    return X


class TestMaxEntropy:
    def test_two_banks_forced_single_counterparty(self):
        em = max_entropy([1.0, 1.0], [1.0, 1.0])
        assert np.allclose(em.X, [[0, 1], [1, 0]], atol=1e-12)

    def test_three_banks_interior_against_ipf_oracle(self):
        A = [1.0, 1.0, 1.5]
        em = max_entropy(A, list(A))
        oracle = ipf_oracle(A, A)
        assert np.allclose(em.X, oracle, atol=1e-9)
        assert np.allclose(em.X.sum(axis=1), A, atol=1e-9)
        assert np.allclose(em.X.sum(axis=0), A, atol=1e-9)

    def test_three_banks_boundary_case(self):
        # A=L=[1,1,2] puts bank 2 on the feasibility boundary: the unique
        # solution routes everything through it, and plain IPF approaches
        # that limit at a 1/sweeps rate (verified: residual 1e-6 after 1e6
        # sweeps), so the oracle is only consulted loosely here
        A = [1.0, 1.0, 2.0]
        em = max_entropy(A, list(A))
        assert np.allclose(em.X, [[0, 0, 1], [0, 0, 1], [1, 1, 0]], atol=1e-12)
        assert np.allclose(em.X.sum(axis=1), A, atol=1e-9)
        assert np.allclose(em.X.sum(axis=0), A, atol=1e-9)
        oracle = ipf_oracle(A, A, sweeps=100_000)
        assert np.allclose(em.X, oracle, atol=1e-4)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            max_entropy([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_marginal_feasibility_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(10, 71))
            A = rng.uniform(1.0, 100.0, n)
            em = max_entropy(A, A.copy())
            scale = A.max()
            assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * scale
            assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * scale

    def test_symmetric_inputs_give_symmetric_matrix(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(1.0, 50.0, 12)
        em = max_entropy(A, A.copy())
        assert np.allclose(em.X, em.X.T, atol=1e-10)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_degree_one_homogeneity(self, c):
        A = np.array([3.0, 5.0, 2.0, 9.0])
        base = max_entropy(A, A.copy()).X
        scaled = max_entropy(c * A, c * A).X
        assert np.allclose(scaled, c * base, rtol=1e-9, atol=1e-12)

    def test_infeasible_marginal_raises(self):
        # one bank holds more than half the total: no zero-diagonal solution
        with pytest.raises(InfeasibleMarginals):
            max_entropy([10.0, 1.0, 1.0], [10.0, 1.0, 1.0])


def gaussian_kde_oracle(points, h):
    """Independent plain-loop Gaussian KDE evaluation."""
    out = []
    for x in points:
        total = sum(math.exp(-0.5 * ((x - p) / h) ** 2) for p in points)
        out.append(total / (len(points) * h * math.sqrt(2 * math.pi)))
    return out


class TestKdeWeights:
    def test_two_equal_assets_split_half(self):
        em = kde_weights([5.0, 5.0], 10.0)
        assert np.allclose(em.X, [[0, 5], [5, 0]])
        assert "uniform_weight_fallback" in em.flags

    def test_three_banks_against_hand_oracle(self):
        assets = [1.0, 2.0, 10.0]
        n = 3
        sigma = np.std(assets, ddof=1)
        iqr = np.quantile(assets, 0.75) - np.quantile(assets, 0.25)
        h = 0.9 * min(sigma, iqr / 1.34) * n ** (-0.2)
        assert math.isclose(silverman_bandwidth(np.array(assets)), h)
        dens = gaussian_kde_oracle(assets, h)
        W = np.outer(dens, dens)
        np.fill_diagonal(W, 0.0)
        expected = W * (7.5 / W.sum())
        em = kde_weights(assets, 7.5)
        assert np.allclose(em.X, expected, rtol=1e-12)
        assert abs(em.X.sum() - 7.5) <= 1e-12 * 7.5

    def test_total_preserved_tightly(self):
        rng = np.random.default_rng(3)
        assets = rng.lognormal(3, 1, 40)
        em = kde_weights(assets, 1234.5)
        assert abs(em.X.sum() - 1234.5) <= 1e-12 * 1234.5
        assert em.marginals_fitted is False

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            kde_weights([1.0, 2.0], 0.0)

    def test_degenerate_bandwidth_when_fallback_disabled(self):
        with pytest.raises(DegenerateBandwidth):
            kde_weights([5.0, 5.0, 5.0], 1.0, allow_fallback=False)

    def test_sigma_fallback_when_iqr_zero(self):
        # IQR of this 5-point sample is 0 but sigma is not
        assets = [5.0, 5.0, 5.0, 5.0, 50.0]
        em = kde_weights(assets, 10.0)
        assert "bandwidth_fallback_sigma" in em.flags
        assert abs(em.X.sum() - 10.0) <= 1e-12 * 10.0


class TestFitnessModel:
    def test_equal_assets_uniform_split(self):
        em = fitness_model([4.0, 4.0, 4.0], alpha=1.0, total_interbank=6.0)
        off = em.X[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)

    def test_alpha_zero_ignores_assets(self):
        em = fitness_model([1.0, 100.0, 10000.0], alpha=0.0, total_interbank=6.0)
        off = em.X[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)

    def test_two_banks_hand_value(self):
        em = fitness_model([1.0, 2.0], alpha=1.0, total_interbank=3.0)
        assert np.allclose(em.X, [[0, 1.5], [1.5, 0]])

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        assets = rng.uniform(1, 9, 8)
        em = fitness_model(assets, alpha=1.3, total_interbank=100.0)
        assert np.allclose(em.X, em.X.T)


def support_feasible(support, A, L):
    """LP feasibility of a transport plan restricted to a support pattern."""
    from scipy.optimize import linprog

    cells = sorted(support)
    if not cells:
        return A.sum() == 0
    n = len(A)
    n_eq = 2 * n
    Aeq = np.zeros((n_eq, len(cells)))
    for k, (i, j) in enumerate(cells):
        Aeq[i, k] = 1.0
        Aeq[n + j, k] = 1.0
    beq = np.concatenate([A, L])
    res = linprog(np.zeros(len(cells)), A_eq=Aeq, b_eq=beq,
                  bounds=[(0, None)] * len(cells), method="highs")
    return res.status == 0


class TestMinDensity:
    def test_two_banks_forced(self):
        em = min_density([1.0, 1.0], [1.0, 1.0])
        assert np.allclose(em.X, [[0, 1], [1, 0]])
        assert int((em.X > 0).sum()) == 2

    def test_three_banks_matches_exhaustive_feasibility(self):
        # oracle: exhaustive search over off-diagonal supports of size <= 5
        from itertools import combinations

        A = np.array([3.0, 2.0, 1.0])
        cells = [(i, j) for i in range(3) for j in range(3) if i != j]
        min_feasible = None
        for size in range(1, 6):
            if any(support_feasible(set(c), A, A) for c in combinations(cells, size)):
                min_feasible = size
                break
        em = min_density(A, A.copy())
        edges = int((em.X > 0).sum())
        assert edges <= 2 * 3 - 1
        assert min_feasible is not None and edges >= min_feasible
        assert np.allclose(em.X.sum(axis=1), A, atol=1e-9)
        assert np.allclose(em.X.sum(axis=0), A, atol=1e-9)

    def test_single_edge_case(self):
        em = min_density([1.0, 0.0], [0.0, 1.0])
        assert np.allclose(em.X, [[0, 1], [0, 0]])

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            min_density([0.0, 0.0], [0.0, 0.0])

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleMarginals):
            min_density([10.0, 1.0, 1.0], [10.0, 1.0, 1.0])

    def test_random_instances_feasible_and_sparse(self):
        rng = np.random.default_rng(555)
        for _ in range(30):
            n = int(rng.integers(3, 71))
            A = rng.uniform(0.5, 100.0, n)
            em = min_density(A, A.copy())
            assert int((em.X > 0).sum()) <= 2 * n - 1
            assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * A.max()
            assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * A.max()

    def test_round_off_residual_without_counterparty_finishes(self):
        # a column residual of ~1.6e-7 outlives every row residual here; it
        # is round-off, far inside the marginal tolerance
        from contagion_lab.pipeline import synth_panel

        recs = synth_panel(1000, (2018, 2021, 2023), seed=13)
        assets = np.array([r.total_assets for r in recs if r.year == 2021])
        A, L = interbank_aggregates(assets, FixedRatio())
        em = min_density(A, L)
        assert int((em.X > 0).sum()) <= 2 * 1000 - 1
        assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * A.max()
        assert np.abs(em.X.sum(axis=0) - L).max() <= 1e-9 * A.max()


class TestApplyThreshold:
    def exposures(self):
        X = np.array([[0.0, 3.0, 0.2],
                      [0.3, 0.0, 5.0],
                      [0.2, 4.0, 0.0]])
        return ExposureMatrix(bank_ids=("a", "b", "c"), X=X,
                              row_targets=X.sum(axis=1), col_targets=X.sum(axis=0),
                              method="loaded")

    def test_epsilon_zero_is_identity(self):
        em = self.exposures()
        assert apply_threshold(em, 0.0) is em

    def test_all_below_threshold_gives_zero_matrix_with_flag(self):
        em = self.exposures()
        out = apply_threshold(em, 100.0)
        assert np.all(out.X == 0.0)
        assert "all_edges_below_threshold" in out.flags
        assert out.marginals_fitted is False

    def test_mixed_pairs_direct_comparison(self):
        em = self.exposures()
        out = apply_threshold(em, 1.0)
        # oracle: symmetric sums are ab=3.3, ac=0.4, bc=9.0; only ac dies
        assert out.X[0, 2] == 0.0 and out.X[2, 0] == 0.0
        assert out.X[0, 1] == 3.0 and out.X[1, 0] == 0.3
        assert out.X[1, 2] == 5.0 and out.X[2, 1] == 4.0
        assert "thresholded" in out.flags


class TestScalingInvariant:
    def test_lambda2_linear_in_fixed_rho(self):
        rng = np.random.default_rng(17)
        assets = rng.lognormal(10, 1, 25)
        lams = {}
        for rho in (0.01, 0.02, 0.04, 0.08):
            cfg = ReconstructionConfig(method="max_entropy",
                                       ratio_rule=FixedRatio(rho),
                                       min_edge_threshold=0.0)
            em = reconstruct_exposures(assets, cfg)
            lams[rho] = algebraic_connectivity(build_network(em, 0.0))
        base = lams[0.01] / 0.01
        for rho, lam in lams.items():
            assert math.isclose(lam, base * rho, rel_tol=1e-9)


class TestSerialization:
    def test_csv_roundtrip_exact(self):
        em = max_entropy([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        again = exposure_from_csv_text(em.to_csv_text())
        assert np.array_equal(again.X, em.X)
        assert again.bank_ids == em.bank_ids
