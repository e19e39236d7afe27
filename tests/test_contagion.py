import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_network, random_connected_network
from contagion_lab.contagion import (
    CascadeConfig,
    DiffusionParams,
    DistressState,
    cascade,
    critical_distance,
    diffusion_trajectory,
    dominance_share,
    effective_decay,
    fit_temporal_decay,
    kappa_ratio,
    prediction_proportional,
    solve_diffusion,
    temporal_decay_rate,
)
from contagion_lab.errors import (
    DimensionMismatch,
    Disconnected,
    InvalidEpsilon,
    NonPositiveLambda2,
)
from contagion_lab.graph import WeightedNetwork, laplacian_spectrum


class TestDecayArithmetic:
    def test_effective_decay_2018_level(self):
        assert effective_decay(2283.72, DiffusionParams(D=1.0, kappa=0.0)) == \
            pytest.approx(47.79, abs=0.005)

    def test_effective_decay_perfect_square(self):
        assert effective_decay(4.0, DiffusionParams(D=1.0, kappa=0.0)) == 2.0

    def test_effective_decay_with_kappa(self):
        assert effective_decay(4.0, DiffusionParams(D=4.0, kappa=1.0)) == 2.0

    def test_nonpositive_lambda2(self):
        with pytest.raises(NonPositiveLambda2):
            effective_decay(0.0, DiffusionParams())

    def test_params_reject_nan(self):
        with pytest.raises(ValueError, match="D must be"):
            DiffusionParams(D=math.nan)
        with pytest.raises(ValueError, match="kappa must be"):
            DiffusionParams(kappa=math.nan)

    def test_monotonicity(self):
        base = effective_decay(100.0, DiffusionParams(D=1.0, kappa=0.5))
        assert effective_decay(150.0, DiffusionParams(D=1.0, kappa=0.5)) > base
        assert effective_decay(100.0, DiffusionParams(D=2.0, kappa=0.5)) < base
        assert effective_decay(100.0, DiffusionParams(D=1.0, kappa=0.9)) > base


class TestCriticalDistance:
    def test_2018_value(self):
        assert critical_distance(47.79, 0.1) == pytest.approx(0.0482, abs=5e-4)

    def test_2023_value(self):
        assert critical_distance(35.48, 0.1) == pytest.approx(0.0649, abs=5e-4)

    def test_epsilon_to_one_limit(self):
        assert critical_distance(10.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_invalid_epsilon(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidEpsilon):
                critical_distance(10.0, eps)


class TestKappaRatio:
    def test_table_value(self):
        r = kappa_ratio(1258.96, 2283.72)
        assert r == pytest.approx(0.7425, abs=5e-5)
        assert 100.0 * (r - 1.0) == pytest.approx(-25.8, abs=0.05)

    def test_equal_inputs(self):
        assert kappa_ratio(7.7, 7.7) == 1.0

    def test_halving_gives_inverse_sqrt2(self):
        assert kappa_ratio(0.5 * 3.3, 3.3) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


class TestPredictionArithmetic:
    def test_forty_percent_decline(self):
        assert prediction_proportional(-0.40, 0.0) == pytest.approx(-0.20)

    def test_zero_change(self):
        assert prediction_proportional(0.0, 0.0) == 0.0

    def test_first_order_gap_documented(self):
        # linearized -22.45% vs the exact 1-sqrt(0.551) = 25.77% decline
        approx = prediction_proportional(-0.449, 0.0)
        assert approx == pytest.approx(-0.2245)
        exact = 1.0 - math.sqrt(0.551)
        assert exact == pytest.approx(0.2577, abs=5e-5)
        assert abs(exact - (-approx)) > 0.03  # the gap is real, not roundoff

    def test_d_change_enters_negatively(self):
        assert prediction_proportional(0.0, 0.2) == pytest.approx(-0.1)


class TestDominanceShare:
    def test_no_intrinsic_decay(self):
        assert dominance_share(123.4, DiffusionParams(D=2.0, kappa=0.0)) == 1.0

    def test_balanced_case(self):
        assert dominance_share(1.0, DiffusionParams(D=1.0, kappa=1.0)) == 0.5

    def test_empirical_scale(self):
        share = dominance_share(2283.72, DiffusionParams(D=1.0, kappa=0.5))
        assert share == pytest.approx(0.9896, abs=5e-5)


def k2(weight: float = 1.0) -> WeightedNetwork:
    W = np.array([[0.0, weight], [weight, 0.0]])
    return WeightedNetwork(("a", "b"), W)


def euler_solve(net, params, u0, t, dt):
    """Independent forward-Euler oracle."""
    L = net.laplacian()
    u = np.asarray(u0, dtype=float).copy()
    steps = int(round(t / dt))
    for _ in range(steps):
        u = u + dt * (-params.D * (L @ u) - params.kappa * u)
    return u


class TestSolveDiffusion:
    def test_t_zero_is_identity(self):
        net = random_connected_network(1, 8)
        u0 = np.arange(8, dtype=float)
        out = solve_diffusion(laplacian_spectrum(net), DiffusionParams(), u0, 0.0)
        assert np.array_equal(out.u, u0)

    def test_k2_closed_form(self):
        # u(t) = ((1+e^{-2t})/2, (1-e^{-2t})/2) for unit weight, D=1, kappa=0
        net = k2(1.0)
        spectrum = laplacian_spectrum(net)
        for t in (0.1, 0.7, 2.0):
            out = solve_diffusion(spectrum, DiffusionParams(), [1.0, 0.0], t)
            expected = np.array([(1 + math.exp(-2 * t)) / 2,
                                 (1 - math.exp(-2 * t)) / 2])
            assert np.allclose(out.u, expected, atol=1e-12)
        # cross-check against forward Euler at dt = 1e-4
        out = solve_diffusion(spectrum, DiffusionParams(), [1.0, 0.0], 1.0)
        oracle = euler_solve(net, DiffusionParams(), [1.0, 0.0], 1.0, 1e-4)
        assert np.allclose(out.u, oracle, rtol=1e-3)

    def test_conservation_kappa_zero(self):
        for seed, n in ((1, 10), (2, 30)):
            net = random_connected_network(seed, n)
            u0 = np.random.default_rng(seed).random(n)
            spectrum = laplacian_spectrum(net)
            for t in (0.1, 1.0, 10.0):
                out = solve_diffusion(spectrum, DiffusionParams(kappa=0.0), u0, t)
                assert out.total() == pytest.approx(u0.sum(), rel=1e-8)

    def test_exponential_total_decay_kappa_positive(self):
        for seed, n in ((3, 12), (4, 30)):
            net = random_connected_network(seed, n)
            u0 = np.random.default_rng(seed).random(n)
            kappa = 0.7
            spectrum = laplacian_spectrum(net)
            for t in (0.1, 1.0, 10.0):
                out = solve_diffusion(spectrum, DiffusionParams(kappa=kappa), u0, t)
                assert out.total() == pytest.approx(
                    math.exp(-kappa * t) * u0.sum(), rel=1e-8)

    def test_nonnegativity_preserved(self):
        for seed in range(5):
            net = random_connected_network(seed + 50, 14)
            rng = np.random.default_rng(seed)
            u0 = rng.random(14)
            spectrum = laplacian_spectrum(net)
            for t in (0.05, 0.5, 5.0):
                out = solve_diffusion(spectrum, DiffusionParams(), u0, t)
                assert out.u.min() >= -1e-10

    def test_monotone_eigenmode_decay(self):
        net = random_connected_network(21, 10)
        vals, vecs = np.linalg.eigh(net.laplacian())
        u0 = np.random.default_rng(21).random(10)
        times = np.linspace(0.0, 2.0, 9)
        projections = []
        for state in diffusion_trajectory(laplacian_spectrum(net), DiffusionParams(kappa=0.1),
                                          u0, times):
            projections.append(np.abs(vecs.T @ state.u))
        projections = np.array(projections)
        for k in range(1, 10):
            diffs = np.diff(projections[:, k])
            assert np.all(diffs <= 1e-12)

    def test_spectral_vs_euler_on_random_graphs(self):
        for seed in range(10):
            n = 5 + (seed % 11)
            net = random_connected_network(600 + seed, n)
            params = DiffusionParams(D=0.7, kappa=0.3)
            u0 = np.random.default_rng(seed).random(n)
            lam_max = np.linalg.eigvalsh(net.laplacian())[-1]
            dt = 1e-4 / (params.D * lam_max + params.kappa)
            oracle = euler_solve(net, params, u0, 1.0, dt)
            out = solve_diffusion(laplacian_spectrum(net), params, u0, 1.0)
            assert np.allclose(out.u, oracle, rtol=1e-4, atol=1e-12)

    def test_dimension_mismatch(self):
        net = k2()
        with pytest.raises(DimensionMismatch):
            solve_diffusion(laplacian_spectrum(net), DiffusionParams(), [1.0, 0.0, 0.0], 1.0)

    def test_distress_state_input(self):
        net = k2()
        state = DistressState(u=np.array([1.0, 0.0]), t=0.0)
        out = solve_diffusion(laplacian_spectrum(net), DiffusionParams(), state, 0.3)
        assert isinstance(out, DistressState)


def components_network(seed: int, sizes, density: float) -> WeightedNetwork:
    """Random connected components of the given sizes plus one isolated node,
    scattered over the labels."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + 1
    W = np.zeros((n, n))
    start = 0
    for m in sizes:
        block = np.triu((rng.random((m, m)) < density) * rng.uniform(0.1, 1.0, (m, m)), 1)
        for i in range(m - 1):  # a path keeps the component connected
            block[i, i + 1] = block[i, i + 1] or 1.0
        W[start:start + m, start:start + m] = block + block.T
        start += m
    perm = rng.permutation(n)
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W[np.ix_(perm, perm)])


def closed_form(net, params, u0, t):
    """u(t) from one eigh of the full Laplacian."""
    vals, vecs = np.linalg.eigh(net.laplacian())
    return vecs @ (np.exp(-(params.D * vals + params.kappa) * t) * (vecs.T @ u0))


class TestSpectrumHandle:
    """Diffusion reads the eigenpairs cached on the network's SpectrumResult."""

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 6), min_size=2, max_size=3),
           st.sampled_from([1.0, 0.5, 0.1]), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_disconnected_matches_dense_eigh_and_forward_euler(self, seed, sizes, density, t):
        net = components_network(seed, sizes, density)
        params = DiffusionParams(D=0.7, kappa=0.3)
        u0 = np.random.default_rng(seed).random(net.n)
        out = solve_diffusion(laplacian_spectrum(net), params, u0, t).u
        np.testing.assert_allclose(out, closed_form(net, params, u0, t), rtol=0, atol=1e-12)
        # forward Euler with 2**20 steps, taken by repeated squaring of one step
        steps = 2**20
        step = np.eye(net.n) - (t / steps) * (params.D * net.laplacian()
                                              + params.kappa * np.eye(net.n))
        euler = np.linalg.matrix_power(step, steps) @ u0
        np.testing.assert_allclose(out, euler, rtol=1e-4, atol=1e-10)

    def test_connected_outputs_bit_identical_to_full_laplacian_eigh(self):
        for seed in range(30):
            net = random_connected_network(700 + seed, 5 + seed)
            params = DiffusionParams(D=0.8, kappa=0.2)
            u0 = np.random.default_rng(seed).random(net.n)
            spectrum = laplacian_spectrum(net)
            for state in diffusion_trajectory(spectrum, params, u0, [0.3, 1.0, 4.0]):
                assert np.array_equal(state.u, closed_form(net, params, u0, state.t))
            assert np.array_equal(solve_diffusion(spectrum, params, u0, 1.0).u,
                                  closed_form(net, params, u0, 1.0))
            vecs = np.linalg.eigh(net.laplacian())[1]
            q2 = vecs[:, 1] - vecs[:, 1].mean()
            q2 /= np.linalg.norm(q2)
            if q2[np.abs(q2) > 1e-12][0] < 0:
                q2 = -q2
            assert np.array_equal(spectrum.fiedler_vector, q2)

    @staticmethod
    def count_eigensolvers(monkeypatch) -> Counter:
        calls = Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_one_decomposition_per_network(self, monkeypatch):
        net = random_connected_network(31, 20)
        params = DiffusionParams(D=0.8, kappa=0.1)
        u0 = np.random.default_rng(31).random(net.n)
        calls = self.count_eigensolvers(monkeypatch)
        spectrum = laplacian_spectrum(net)
        spectrum.fiedler_vector
        solve_diffusion(spectrum, params, u0, 0.5)
        diffusion_trajectory(spectrum, params, u0, [0.0, 0.5, 2.0])
        temporal_decay_rate(spectrum, params)
        fit_temporal_decay(spectrum, params, source=3)
        assert calls == {"eigvalsh": 1, "eigh": 1}

    def test_one_decomposition_per_block(self, monkeypatch):
        net = components_network(5, [6, 4, 3], 0.5)
        params = DiffusionParams(D=0.8, kappa=0.1)
        u0 = np.random.default_rng(5).random(net.n)
        calls = self.count_eigensolvers(monkeypatch)
        spectrum = laplacian_spectrum(net)
        spectrum.fiedler_vector
        solve_diffusion(spectrum, params, u0, 0.5)
        diffusion_trajectory(spectrum, params, u0, [0.0, 0.5, 2.0])
        with pytest.raises(Disconnected):
            fit_temporal_decay(spectrum, params)
        assert calls == {"eigvalsh": 2, "eigh": 2}


class TestTemporalDecayRate:
    def test_k4_rate(self, k4):
        assert temporal_decay_rate(laplacian_spectrum(k4), DiffusionParams()) == pytest.approx(4.0, abs=1e-9)

    def test_path_with_parameters(self):
        W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        net = WeightedNetwork(("a", "b", "c"), W)
        gamma = temporal_decay_rate(laplacian_spectrum(net), DiffusionParams(D=2.0, kappa=0.5))
        assert gamma == pytest.approx(2.5, abs=1e-9)

    def test_disconnected_raises(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        net = WeightedNetwork(("a", "b", "c"), W)
        with pytest.raises(Disconnected):
            temporal_decay_rate(laplacian_spectrum(net), DiffusionParams())

    def test_fitted_slope_matches_on_k6(self):
        spectrum = laplacian_spectrum(complete_network(6))
        params = DiffusionParams(D=1.0, kappa=0.0)
        gamma = temporal_decay_rate(spectrum, params)
        fitted = fit_temporal_decay(spectrum, params, source=0)
        assert fitted == pytest.approx(gamma, rel=0.01)

    @pytest.mark.parametrize("source", [-1, 4, 7])
    def test_fit_source_outside_network_rejected(self, k4, source):
        with pytest.raises(DimensionMismatch, match=f"source {source} outside"):
            fit_temporal_decay(laplacian_spectrum(k4), DiffusionParams(), source=source)


class TestCascade:
    def test_shock_below_threshold(self):
        net = k2(10.0)
        assert cascade(net, CascadeConfig(source=0, s0=0.5, theta=0.5)) == 0

    def test_k2_two_iterations_hand_trace(self):
        # sweep 1: node 0 (1 > 0.5) joins, transfers 10*1 to node 1;
        # sweep 2: node 1 (10 > 0.5) joins -> size 2
        net = k2(10.0)
        assert cascade(net, CascadeConfig(source=0, s0=1.0, theta=0.5, kappa=0.0)) == 2

    def test_isolated_source(self):
        W = np.zeros((3, 3))
        W[1, 2] = W[2, 1] = 1.0
        net = WeightedNetwork(("iso", "b", "c"), W)
        assert cascade(net, CascadeConfig(source=0, s0=2.0, theta=0.5)) == 1

    def test_decay_dampens_propagation(self):
        net = k2(0.6)
        full = cascade(net, CascadeConfig(source=0, s0=1.0, theta=0.5, kappa=0.0))
        damped = cascade(net, CascadeConfig(source=0, s0=1.0, theta=0.5, kappa=0.5))
        assert full == 2 and damped == 1

    def test_deterministic(self):
        net = random_connected_network(77, 20)
        cfg = CascadeConfig(source=3, s0=2.0, theta=0.4, kappa=0.1)
        assert cascade(net, cfg) == cascade(net, cfg)

    def test_monotone_on_uniform_weight_ensemble(self):
        # monotonicity holds on homogeneous-weight cascades; heterogeneous
        # weights admit counterexamples (see test below and decisions ledger)
        rng = np.random.default_rng(505)
        for _ in range(60):
            n = int(rng.integers(4, 15))
            W = (rng.random((n, n)) < 0.4).astype(float)
            W = np.triu(W, 1)
            W = W + W.T
            net = WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)
            src = int(rng.integers(0, n))
            theta = float(rng.uniform(0.2, 2.0))
            sizes = [cascade(net, CascadeConfig(src, s0, theta, 0.0))
                     for s0 in (0.2, 0.6, 1.2, 2.4)]
            assert sizes == sorted(sizes)
            s0 = float(rng.uniform(0.5, 3.0))
            sizes_t = [cascade(net, CascadeConfig(src, s0, th, 0.0))
                       for th in (0.2, 0.6, 1.2, 2.4)]
            assert sizes_t == sorted(sizes_t, reverse=True)

    def test_known_heterogeneous_theta_counterexample(self):
        # freeze-at-entry semantics (needed for convergence on cycles) let a
        # node that joins later transfer a larger frozen value, so strict
        # theta-monotonicity can fail with heterogeneous weights: A-B strong,
        # A-C weak, B-C strong, C-D medium
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[0, 2] = W[2, 0] = 0.5
        W[1, 2] = W[2, 1] = 1.0
        W[2, 3] = W[3, 2] = 0.8
        net = WeightedNetwork(("A", "B", "C", "D"), W)
        low = cascade(net, CascadeConfig(source=0, s0=1.0, theta=0.45, kappa=0.0))
        high = cascade(net, CascadeConfig(source=0, s0=1.0, theta=0.60, kappa=0.0))
        assert low == 3 and high == 4  # documented non-monotone instance
