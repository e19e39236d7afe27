import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contagion_lab.errors import (
    InfeasibleMarginals,
    InvalidRatio,
    NonPositiveLambda2,
    ZeroTotal,
)
from contagion_lab.graph import _ranked_degrees, build_network, laplacian_spectrum
from contagion_lab.pipeline import network_lambda2
from contagion_lab.reconstruct import (
    MARGINAL_RTOL,
    ExposureMatrix,
    FixedRatio,
    LinearLogRatio,
    ReconstructionConfig,
    SizeThresholdRatio,
    TieredRatio,
    exposure_from_csv_text,
    fitness_model,
    interbank_aggregates,
    kde_weights,
    max_entropy,
    min_density,
    reconstruct_exposures,
    silverman_bandwidth,
)
from oracles import matrix_ras


class TestInterbankAggregates:
    def test_fixed_ratio(self):
        A = interbank_aggregates([100.0, 200.0], FixedRatio(0.05))
        assert A.tolist() == [5.0, 10.0]

    def test_size_threshold_three_and_seven_percent(self):
        # 75th percentile of [100, 1000] is 775: the small bank gets 7%, the large 3%
        A = interbank_aggregates(
            [100.0, 1000.0], SizeThresholdRatio(0.03, 0.07, 0.75))
        assert np.allclose(A, [7.0, 30.0], rtol=1e-12)

    def test_linear_log_at_mean_gives_intercept(self):
        A = interbank_aggregates(
            [50.0, 50.0, 50.0], LinearLogRatio(intercept=0.08, slope=-0.03))
        assert np.allclose(A, 0.08 * 50.0)

    def test_tiered(self):
        assets = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        A = interbank_aggregates(
            assets, TieredRatio(tiers=((0.9, 0.02), (0.5, 0.05), (0.0, 0.08))))
        rho = A / assets
        assert rho[-1] == 0.02          # above the 90th percentile
        assert rho[0] == 0.08           # bottom tier

    def test_invalid_ratio(self):
        # a steep slope pushes the linear-log rule negative for the big bank;
        # the message shows a plain float, not numpy's repr of one
        with pytest.raises(InvalidRatio, match=r"^ratio -0\.2\d+ outside \(0, 1\)$"):
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


def first_order_correction(X: np.ndarray, A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The change E that takes X to row sums A and column sums L, to first order.

    The max-entropy solution is X* = diag(e^a) X diag(e^b) for some a, b
    when X has its product form off the diagonal. Moving (a, b) moves the
    row and column sums by J (a, b), J = [[diag(rows), X], [X^T, diag(cols)]],
    and x_ij by x_ij (a_i + b_j). J is singular only along a = -b, which
    leaves X unchanged, so its pseudo-inverse applied to the marginal
    residual gives X* - X up to terms of second order in that residual;
    the residual's reach into X is set by J's conditioning.
    """
    n = len(A)
    rows, cols = X.sum(axis=1), X.sum(axis=0)
    J = np.block([[np.diag(rows), X], [X.T, np.diag(cols)]])
    ab = np.linalg.pinv(J) @ np.concatenate([A - rows, L - cols])
    E = X * (ab[:n, None] + ab[None, n:])
    np.fill_diagonal(E, 0.0)
    return E


class TestMaxEntropy:
    def test_two_banks_forced_single_counterparty(self):
        em = max_entropy([1.0, 1.0])
        assert np.allclose(em.X, [[0, 1], [1, 0]], atol=1e-12)

    def test_three_banks_interior_against_ipf_oracle(self):
        A = [1.0, 1.0, 1.5]
        em = max_entropy(A)
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
        em = max_entropy(A)
        assert np.allclose(em.X, [[0, 0, 1], [0, 0, 1], [1, 1, 0]], atol=1e-12)
        assert np.allclose(em.X.sum(axis=1), A, atol=1e-9)
        assert np.allclose(em.X.sum(axis=0), A, atol=1e-9)
        oracle = ipf_oracle(A, A, sweeps=100_000)
        assert np.allclose(em.X, oracle, atol=1e-4)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            max_entropy([0.0, 0.0, 0.0])

    def test_marginal_feasibility_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(10, 71))
            A = rng.uniform(1.0, 100.0, n)
            em = max_entropy(A)
            scale = A.max()
            assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * scale
            assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * scale

    def test_symmetric_inputs_give_symmetric_matrix(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(1.0, 50.0, 12)
        em = max_entropy(A)
        assert np.allclose(em.X, em.X.T, atol=1e-10)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_degree_one_homogeneity(self, c):
        A = np.array([3.0, 5.0, 2.0, 9.0])
        base = max_entropy(A).X
        scaled = max_entropy(c * A).X
        assert np.allclose(scaled, c * base, rtol=1e-9, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 80), st.floats(0.05, 2.0),
           st.floats(0.0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_factor_ipf_meets_marginals_and_matches_matrix_ras(self, seed, n, sigma, reach):
        # ``reach`` pushes the largest bank toward the feasibility boundary
        # 2 A_i = total
        rng = np.random.default_rng(seed)
        A = rng.lognormal(0.0, sigma, n)
        A[0] += reach * A.sum()
        assume(np.all(2 * A < 0.98 * A.sum()))
        em = max_entropy(A)
        u = em.factor
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(em.X[off], np.outer(u, u)[off])
        assert np.abs(em.X.sum(axis=1) - A).max() <= 2e-12 * A.max()
        assert np.abs(em.X.sum(axis=0) - A).max() <= 2e-12 * A.max()
        # Both aim at the same X*, but RAS stops at its own residual, and the
        # factor solve at its rounding. Each is X* - E to first order, E its
        # first_order_correction, hence |X - X_ras| is at most |E| + |E_ras|
        # plus the rounding of sums of n terms.
        ras = matrix_ras(A, A)
        bound = (np.abs(first_order_correction(em.X, A, A))
                 + np.abs(first_order_correction(ras, A, A))
                 + 8 * n * np.finfo(float).eps * em.X.max())
        assert np.all(np.abs(em.X - ras) <= bound)

    def test_factors_only_where_x_is_their_product(self):
        assert max_entropy([1.0, 1.0, 2.0]).factor is None  # boundary
        assert min_density([1.0, 2.0, 3.0]).factor is None
        em = max_entropy([1.0, 2.0, 3.0, 4.0])
        assert em.factor is not None
        with pytest.raises(ValueError, match="factor must be a vector of length 4"):
            ExposureMatrix(bank_ids=em.bank_ids, X=em.X, targets=em.targets,
                           factor=np.ones(3))

    def test_factored_matrix_is_checked_on_its_factors(self):
        em = max_entropy([1.0, 2.0, 3.0, 4.0])
        assert "X" not in vars(em)  # built on first read only
        u = em.factor
        args = (em.bank_ids, None, em.targets)
        for bad in (np.inf, np.nan, -1.0):
            worse = u.copy()
            worse[2] = bad
            with pytest.raises(ValueError, match="factor must be finite and non-negative"):
                ExposureMatrix(*args, factor=worse)
        with pytest.raises(ValueError, match="marginals off"):
            ExposureMatrix(*args, factor=u * (1 + 1e-8))
        with pytest.raises(ValueError, match="needs X or its factor"):
            ExposureMatrix(*args)
        # the same factor with its dense X: checked on X, which is kept
        X = np.outer(u, u)
        np.fill_diagonal(X, 0.0)
        dense = ExposureMatrix(em.bank_ids, X, em.targets, factor=em.factor)
        assert dense.X is X and np.array_equal(em.X, X)
        # moving weight along row 0 keeps every row sum but not two column sums
        X = X.copy()
        X[0, 1] += 1e-6
        X[0, 2] -= 1e-6
        with pytest.raises(ValueError, match="marginals off"):
            ExposureMatrix(em.bank_ids, X, em.targets)

    def test_matrices_compare_by_identity(self):
        a, b = max_entropy([1.0, 2.0, 3.0]), max_entropy([1.0, 2.0, 3.0])
        assert a == a and a != b

    def test_infeasible_marginal_raises(self):
        # one bank holds more than half the total: no zero-diagonal solution
        with pytest.raises(InfeasibleMarginals):
            max_entropy([10.0, 1.0, 1.0])

    @pytest.mark.parametrize("share, rtol", [(0.4999, 2e-12),
                                             (0.499999, MARGINAL_RTOL),
                                             (0.4999999999, MARGINAL_RTOL)])
    @pytest.mark.parametrize("n", [3, 10, 70])
    def test_feasible_marginals_near_the_boundary_are_met(self, n, share, rtol):
        # one bank holds 49.99% (and more) of the total: feasible, since
        # 2 A_0 < total; the bank takes the large root of its quadratic
        others = np.random.default_rng(n).lognormal(0.0, 1.0, n - 1)
        A = np.concatenate([[others.sum() * share / (1.0 - share)], others])
        em = max_entropy(A)
        assert em.factor is not None
        assert np.abs(em.X.sum(axis=1) - A).max() <= rtol * A.max()
        assert np.abs(em.X.sum(axis=0) - A).max() <= rtol * A.max()

    @given(st.integers(0, 2**32 - 1), st.integers(3, 80), st.floats(0.05, 2.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_equal_targets_give_equal_factors_to_rounding(self, seed, n, sigma, reach):
        # ``reach`` pushes bank 0 past a quarter of the total, where the
        # quadratics' roots meet near t0, and toward half, into the large root
        rng = np.random.default_rng(seed)
        A = rng.lognormal(0.0, sigma, n)
        A[0] += reach * A.sum()
        assume(2 * A.max() < 0.98 * A.sum())
        em = max_entropy(A)
        # one factor: x_ij and x_ji are the same product, bit for bit
        assert np.array_equal(em.X, em.X.T)
        bound = 4 * n * np.finfo(float).eps * A.max()
        assert np.abs(em.X.sum(axis=1) - A).max() <= bound
        assert np.abs(em.X.sum(axis=0) - A).max() <= bound


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
        assert em.targets is None

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            kde_weights([1.0, 2.0], 0.0)

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

    def test_large_alpha_does_not_overflow(self):
        # 3e4 ** 300 overflows a float; the weights, from logs, do not
        assets = np.array([1e4, 2e4, 3e4])
        em = fitness_model(assets, alpha=300.0, total_interbank=6.0)
        log_w = 300.0 * (np.log(assets)[:, None] + np.log(assets)[None, :])
        np.fill_diagonal(log_w, -np.inf)
        w = np.exp(log_w - log_w.max())
        assert np.allclose(em.X, 6.0 * w / w.sum(), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha", [1060.0, 1100.0])
    def test_alpha_past_the_float_range_is_a_one_line_error(self, alpha):
        # (1/2)^alpha is subnormal at 1060, so the scale overflows, and zero at 1100;
        # two banks share the total, x_12 = 1.5, at every alpha
        with pytest.raises(ZeroTotal, match=rf"^fitness_alpha={alpha!r}: [^\n]+$"):
            fitness_model([1.0, 2.0], alpha=alpha, total_interbank=3.0)

    @pytest.mark.parametrize("assets", [[1.0, 2.0], [1.0, 1.5, 2.0], [0.5, 1.0, 1.0, 2.0]])
    def test_every_alpha_gives_finite_exposures_or_the_error(self, assets):
        # across the window where the top bank's u_i^2 leaves the float range:
        # no warning from the scale, from X, from the degrees or from lambda2
        for alpha in np.linspace(950.0, 1100.0, 300):
            method = ReconstructionConfig(method="fitness", fitness_alpha=float(alpha),
                                          min_edge_threshold=0.0)
            try:
                em = reconstruct_exposures(assets, method)
            except ZeroTotal as exc:
                assert str(exc).startswith(f"fitness_alpha={float(alpha)!r}: ")
                continue
            order = np.argsort(-em.factor, kind="stable")
            net = build_network(em)
            assert np.array_equal(_ranked_degrees(em.factor[order], 0.0),
                                  (net.W > 0).sum(axis=1)[order])
            assert np.all(np.isfinite(em.X))
            assert em.X.sum() == pytest.approx(0.05 * sum(assets), rel=1e-12)
            if len(assets) == 2:
                assert em.X[0, 1] == pytest.approx(0.025 * sum(assets), rel=1e-13)
            lcc = np.linalg.eigvalsh(net.subnetwork(net.components()[0]).laplacian())
            if not lcc[1] > len(lcc) * np.finfo(float).eps * lcc[-1]:
                # rounding in the dense eigvalsh hides lambda2: a one-line error
                with pytest.raises(NonPositiveLambda2, match=r"^lambda2 .* lambda_n "):
                    laplacian_spectrum(net)
                with pytest.raises(NonPositiveLambda2, match=r"^lambda2 .* lambda_n "):
                    network_lambda2(assets, method)
                continue
            want = laplacian_spectrum(net).lambda2
            assert network_lambda2(assets, method) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("make", [lambda T: kde_weights(T, 7.5),
                                  lambda T: fitness_model(T, 1.3, 7.5)], ids=["kde", "fitness"])
def test_kde_and_fitness_keep_only_their_factor(make):
    em = make(np.random.default_rng(4).lognormal(3, 1, 12))
    assert "X" not in vars(em) and em.targets is None  # ``X`` caches itself there
    want = np.outer(em.factor, em.factor)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(em.X, want)
    assert em.X.sum() == pytest.approx(7.5, rel=1e-13)


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
        em = min_density([1.0, 1.0])
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
        em = min_density(A)
        edges = int((em.X > 0).sum())
        assert edges <= 2 * 3 - 1
        assert min_feasible is not None and edges >= min_feasible
        assert np.allclose(em.X.sum(axis=1), A, atol=1e-9)
        assert np.allclose(em.X.sum(axis=0), A, atol=1e-9)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            min_density([0.0, 0.0])

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleMarginals):
            min_density([10.0, 1.0, 1.0])

    def test_random_instances_feasible_and_sparse(self):
        rng = np.random.default_rng(555)
        for _ in range(30):
            n = int(rng.integers(3, 71))
            A = rng.uniform(0.5, 100.0, n)
            em = min_density(A)
            assert int((em.X > 0).sum()) <= 2 * n - 1
            assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * A.max()
            assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * A.max()

    @given(st.integers(0, 2**32 - 1), st.integers(3, 80), st.floats(0.05, 2.0),
           st.floats(0.0, 0.5), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=100, deadline=None)
    def test_random_marginals_met_within_2n_minus_1_edges(self, seed, n, sigma, reach,
                                                           zero_share):
        # some banks with no interbank positions; ``reach`` pushes the largest
        # bank toward the feasibility boundary 2 A_i = total
        rng = np.random.default_rng(seed)
        A = rng.lognormal(0.0, sigma, n)
        A[rng.random(n) < zero_share] = 0.0
        assume(A.sum() > 0)
        A[0] += reach * A.sum()
        assume(np.all(2 * A < 0.98 * A.sum()))
        em = min_density(A)
        assert np.count_nonzero(em.X) <= 2 * n - 1
        assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * A.max()
        assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * A.max()

    def test_round_off_residual_without_counterparty_finishes(self):
        # a column residual of ~1.6e-7 outlives every row residual here; it
        # is round-off, far inside the marginal tolerance
        from contagion_lab.pipeline import synth_panel

        recs = synth_panel(1000, (2018, 2021, 2023), seed=13)
        assets = np.array([r.total_assets for r in recs if r.year == 2021])
        A = interbank_aggregates(assets, FixedRatio())
        em = min_density(A)
        assert int((em.X > 0).sum()) <= 2 * 1000 - 1
        assert np.abs(em.X.sum(axis=1) - A).max() <= 1e-9 * A.max()
        assert np.abs(em.X.sum(axis=0) - A).max() <= 1e-9 * A.max()


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
            lams[rho] = laplacian_spectrum(build_network(em, 0.0)).lambda2
        base = lams[0.01] / 0.01
        for rho, lam in lams.items():
            assert math.isclose(lam, base * rho, rel_tol=1e-9)


class TestSerialization:
    def test_csv_roundtrip_exact(self):
        em = max_entropy([1.0, 2.0, 3.0])
        again = exposure_from_csv_text(em.to_csv_text())
        assert np.array_equal(again.X, em.X)
        assert again.bank_ids == em.bank_ids
