"""lambda2 of max-entropy networks from their IPF factors.

``network_lambda2`` counts eigenvalues with ``threshold_lambda2`` when the
exposures keep their factors, whether the threshold left the network
complete or removed edges, and runs ``laplacian_spectrum`` otherwise or when
the count declines. Dense ``eigvalsh`` of the network's Laplacian (of its
largest component) is the oracle; eigensolver counters guard which path a
run takes.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_connected_network
from contagion_lab.errors import InfeasibleMarginals
from contagion_lab import pipeline
from contagion_lab.graph import (
    WeightedNetwork,
    build_network,
    laplacian_spectrum,
    threshold_lambda2,
)
from contagion_lab.ingest import BankPanel
from contagion_lab.pipeline import RunConfig, network_lambda2, sweep_ratios, synth_panel
from contagion_lab.reconstruct import ReconstructionConfig, max_entropy, reconstruct_exposures
from contagion_lab.stats import _replicate_rng, bootstrap_lambda2, leave_one_out_lambda2

COMPLETE = ReconstructionConfig(min_edge_threshold=0.0)


@st.composite
def asset_vectors(draw):
    """Lognormal sizes, resamples that repeat banks, all-equal assets, and
    near-boundary marginals (one bank holds 45% to 49.9% of the total)."""
    kind = draw(st.sampled_from(["lognormal", "repeated", "equal", "boundary"]))
    n = draw(st.integers(3, 60))
    if kind == "equal":
        return np.full(n, draw(st.floats(1.0, 1e6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sigma stays small enough that lambda_n / lambda2 keeps eigvalsh itself
    # accurate to well under 1e-12 relative
    assets = rng.lognormal(11.0, draw(st.floats(0.05, 1.2)), n)
    if kind == "repeated":
        return assets[rng.integers(0, draw(st.integers(1, n)), n)]
    if kind == "boundary":
        share = draw(st.floats(0.45, 0.499))
        assets[0] = share / (1.0 - share) * assets[1:].sum()
    return assets


def maxent_network(assets, method=COMPLETE):
    """The exposures and network of ``assets``, or a rejected example."""
    try:
        exposures = reconstruct_exposures(assets, method)
    except InfeasibleMarginals:
        assume(False)
    return exposures, build_network(exposures, method.min_edge_threshold)


def count_lambda2(exposures, net):
    """``threshold_lambda2`` on the factors and edge mask of ``net``."""
    return threshold_lambda2(*exposures.factors, net.W > 0)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counter on ``np.linalg.eigvalsh``: a silent fallback to the dense path
    would pass every correctness test and lose the gain."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestAgainstDenseEigvalsh:
    @given(asset_vectors())
    @settings(max_examples=200, deadline=None)
    def test_matches_eigvalsh_of_the_laplacian(self, assets):
        with np.errstate(all="raise"):
            exposures, net = maxent_network(assets)
            assert exposures.factors is not None
            assert np.count_nonzero(net.W) == net.n * (net.n - 1)
            got = network_lambda2(assets, COMPLETE)
            assert count_lambda2(exposures, net) == got
        want = np.linalg.eigvalsh(net.laplacian())[1]
        assert abs(got - want) <= 1e-12 * want

    def test_all_equal_assets_give_n_times_the_weight(self):
        for n in (3, 4, 17, 200):
            exposures, net = maxent_network(np.full(n, 7.0))
            w = net.W[0, 1]
            assert np.all(net.W[~np.eye(n, dtype=bool)] == w)
            assert count_lambda2(exposures, net) == pytest.approx(n * w, rel=1e-14)

    def test_two_banks_closed_form(self):
        # q = 3 p: one edge of weight w = p_0 q_1 + p_1 q_0 = 6 + 6, lambda2 = 2 w
        p = np.array([1.0, 2.0])
        assert threshold_lambda2(p, 3.0 * p, ~np.eye(2, dtype=bool)) == \
            pytest.approx(24.0, rel=1e-15)

    def test_lowest_degree_bank_repeated_is_the_lower_bound(self):
        # banks 0 and 1 are identical and the smallest: e_0 - e_1 is an
        # eigenvector, and lambda2 is exactly their diagonal entry
        assets = np.array([1.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        exposures, net = maxent_network(assets)
        want = np.linalg.eigvalsh(net.laplacian())[1]
        assert count_lambda2(exposures, net) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [70, 300])
    def test_paper_scale_lognormal(self, n):
        for seed in range(3):
            assets = np.random.default_rng(seed).lognormal(11.0, 1.0, n)
            exposures, net = maxent_network(assets)
            want = np.linalg.eigvalsh(net.laplacian())[1]
            got = network_lambda2(assets, COMPLETE)
            assert got == count_lambda2(exposures, net)
            assert abs(got - want) <= 1e-12 * want


def threshold_between(net, quantile):
    """An edge threshold halfway between two distinct weights of ``net``."""
    w = np.unique(net.W[net.W > 0])
    k = min(int(quantile * (len(w) - 1)), len(w) - 2)
    return float(0.5 * (w[k] + w[k + 1]))


def largest_component_lambda2(net):
    """The oracle: dense ``eigvalsh`` of the largest component's Laplacian."""
    return np.linalg.eigvalsh(net.subnetwork(net.components()[0]).laplacian())[1]


@st.composite
def thresholded_cases(draw):
    """Assets and a threshold that removes some but not all edges: lognormal
    sizes or resamples that repeat banks (tied u), with the threshold between
    two distinct weights, exactly on one, or on the largest weight of the
    smallest bank, which leaves that bank isolated."""
    kind = draw(st.sampled_from(["lognormal", "repeated"]))
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sigma stays small enough that lambda_n / lambda2 keeps eigvalsh itself
    # accurate to well under 1e-12 relative
    assets = rng.lognormal(11.0, draw(st.floats(0.05, 1.2)), n)
    if kind == "repeated":
        assets = assets[rng.integers(0, draw(st.integers(1, n)), n)]
    _, net = maxent_network(assets)
    w = np.unique(net.W[net.W > 0])
    assume(len(w) >= 2)
    where = draw(st.sampled_from(["between", "on", "isolating"]))
    if where == "isolating":
        epsilon = float(net.W[np.argmin(assets)].max())
    else:
        k = draw(st.integers(0, len(w) - 2))
        epsilon = float(w[k] if where == "on" else 0.5 * (w[k] + w[k + 1]))
    assume(epsilon < w[-1])
    return assets, ReconstructionConfig(min_edge_threshold=epsilon), where


class TestThresholdedAgainstDenseEigvalsh:
    @given(thresholded_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_eigvalsh_of_the_largest_component(self, case):
        assets, method, where = case
        exposures, net = maxent_network(assets, method)
        adj = net.W > 0
        deg = adj.sum(axis=1)
        assert deg.min() < net.n - 1 and deg.max() > 0
        if where == "isolating":
            assert deg.min() == 0
        with np.errstate(all="raise"):
            got = threshold_lambda2(*exposures.factors, adj)
        assert got is not None
        want = largest_component_lambda2(net)
        assert abs(got - want) <= 1e-12 * want
        assert network_lambda2(assets, method) == got

    @pytest.mark.parametrize("n, epsilon", [(300, 5.0), (1000, 30.0)])
    def test_paper_scale_lognormal(self, n, epsilon):
        method = ReconstructionConfig(min_edge_threshold=epsilon)
        for seed in range(2):
            assets = np.random.default_rng(seed).lognormal(11.0, 1.0, n)
            exposures, net = maxent_network(assets, method)
            got = count_lambda2(exposures, net)
            want = largest_component_lambda2(net)
            assert abs(got - want) <= 1e-12 * want

    def test_star_and_clique_with_isolated_banks(self):
        # a star (the clique is the largest bank alone), and a clique of the
        # three largest banks with the other two isolated
        for u, cut in [([5.0, 2.0, 1.5, 1.0], 4.5), ([4.0, 3.0, 2.5, 1.0, 0.5], 7.0)]:
            u = np.array(u)
            W = np.outer(u, u)
            np.fill_diagonal(W, 0.0)
            W[W <= cut] = 0.0
            net = WeightedNetwork(tuple("abcde"[:len(u)]), 2.0 * W)
            got = threshold_lambda2(u, u, net.W > 0)
            want = largest_component_lambda2(net)
            assert got == pytest.approx(want, rel=1e-13)

    def test_trial_value_on_a_pivot(self):
        # banks 0-2 form the clique; bank 3 attaches to ranks 0-1 and bank 4
        # to rank 0. The first step's trial values are 6.4 t, and bank 3's
        # pivot Delta_3 = 2 u_3 (u_0 + u_1) = 147.2 = 6.4 * 23 exactly: its
        # count divides by zero there
        u = np.array([64.0, 4.0, 3.0, 1.0823529411764707, 1.0])
        W = 2.0 * np.outer(u, u)
        np.fill_diagonal(W, 0.0)
        W[W <= 8.4] = 0.0
        adj = W > 0
        assert adj.sum(axis=1).tolist() == [4, 3, 2, 2, 1]
        assert 2.0 * u[3] * (u[0] + u[1]) == 160.0 * (23 / 25)
        want = np.linalg.eigvalsh(np.diag(W.sum(axis=1)) - W)[1]
        assert threshold_lambda2(u, u, adj) == pytest.approx(want, rel=1e-13)

    def test_declines_what_it_cannot_count(self, monkeypatch, eigvalsh_calls):
        u = np.array([4.0, 3.0, 2.0, 1.0])
        W = 2.0 * np.outer(u, u)
        np.fill_diagonal(W, 0.0)
        W[W <= 9.0] = 0.0          # keeps 0-1, 0-2 and 1-2
        adj = W > 0
        assert threshold_lambda2(u, u, adj) is not None
        # q not proportional to p
        assert threshold_lambda2(u, u * [1.0, 1.0, 1.0, 1.0 + 1e-6], adj) is None
        # bank 3 joined to bank 2 but not to bank 0, which outranks bank 2
        nested_not = adj.copy()
        nested_not[2, 3] = nested_not[3, 2] = True
        assert threshold_lambda2(u, u, nested_not) is None
        # no edge left
        assert threshold_lambda2(u, u, np.zeros_like(adj)) is None
        # a complete network whose factors are not proportional (A != L)
        exposures = max_entropy([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0])
        net = build_network(exposures)
        assert np.count_nonzero(net.W) == 4 * 3
        assert count_lambda2(exposures, net) is None
        monkeypatch.setattr(pipeline, "reconstruct_exposures", lambda assets, method: exposures)
        got = network_lambda2(u, COMPLETE)
        assert eigvalsh_calls == [4]
        assert got == laplacian_spectrum(net).lambda2


class TestWhichPath:
    """Counters on eigensolver calls and ``components()``."""

    def test_complete_networks_make_no_eigvalsh_call(self, eigvalsh_calls):
        assets = np.random.default_rng(3).lognormal(11.0, 1.0, 40)
        res = bootstrap_lambda2(assets, COMPLETE, B=20, seed=5)
        assert res.B_effective == 20
        assert eigvalsh_calls == []

    @pytest.fixture
    def components_calls(self, monkeypatch):
        calls = []
        real = WeightedNetwork.components

        def counted(net):
            calls.append(net.n)
            return real(net)

        monkeypatch.setattr(WeightedNetwork, "components", counted)
        return calls

    def test_thresholded_networks_make_no_eigvalsh_call(self, eigvalsh_calls, components_calls):
        assets = np.random.default_rng(3).lognormal(11.0, 1.0, 40)
        _, net = maxent_network(assets)
        method = ReconstructionConfig(min_edge_threshold=threshold_between(net, 1 / 3))
        B, seed = 20, 5
        bootstrap_lambda2(assets, method, B=B, seed=seed)
        leave_one_out_lambda2(assets, method)
        assert eigvalsh_calls == [] and components_calls == []
        samples = [assets] + [assets[_replicate_rng(seed, b).integers(0, 40, size=40)]
                              for b in range(B)]
        removed = sum(net.n * (net.n - 1) - np.count_nonzero(net.W)
                      for net in (maxent_network(sample, method)[1] for sample in samples))
        assert removed > 0

    def test_networks_without_factors_make_one_call_per_block(self, eigvalsh_calls):
        assets = np.random.default_rng(3).lognormal(11.0, 1.0, 40)
        for epsilon, blocks in ((0.0, 1), (100.0, 2)):  # 100 isolates three banks
            method = ReconstructionConfig(method="kde", min_edge_threshold=epsilon)
            eigvalsh_calls.clear()
            got = network_lambda2(assets, method)
            assert len(eigvalsh_calls) == blocks
            net = build_network(reconstruct_exposures(assets, method), epsilon)
            assert (len(net.components()) > 1) == (blocks == 2)
            assert got == laplacian_spectrum(net).lambda2

    def test_mask_that_is_not_nested_takes_the_dense_path(self, monkeypatch, eigvalsh_calls):
        assets = np.random.default_rng(3).lognormal(11.0, 1.0, 40)
        _, net = maxent_network(assets)
        method = ReconstructionConfig(min_edge_threshold=threshold_between(net, 1 / 3))
        exposures, thresholded = maxent_network(assets, method)
        # join the two smallest banks, which the threshold had separated
        a, b = np.argsort(assets)[:2]
        W = thresholded.W.copy()
        assert W[a, b] == 0.0
        W[a, b] = W[b, a] = net.W[a, b]
        edited = WeightedNetwork(thresholded.bank_ids, W)
        assert threshold_lambda2(*exposures.factors, W > 0) is None
        monkeypatch.setattr(pipeline, "build_network", lambda exposures, epsilon: edited)
        got = network_lambda2(assets, method)
        assert len(eigvalsh_calls) == (1 if len(edited.components()) == 1 else 2)
        assert got == laplacian_spectrum(edited).lambda2

    def test_leave_one_out_and_sweep_take_the_structured_path(self, eigvalsh_calls):
        assets = np.random.default_rng(4).lognormal(11.0, 0.5, 12)
        leave_one_out_lambda2(assets, COMPLETE)
        panel = BankPanel(records=tuple(synth_panel(10, [2018, 2021], seed=3, log_sigma=0.5)))
        sweep_ratios(panel, RunConfig(method=COMPLETE, ratio_sweep=(0.02, 0.08, 3)))
        assert eigvalsh_calls == []


class TestScaling:
    @given(st.integers(0, 10_000), st.integers(3, 30), st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_lambda2_of_scaled_weights(self, seed, n, c):
        net = random_connected_network(seed, n)
        base = laplacian_spectrum(net).lambda2
        scaled = laplacian_spectrum(WeightedNetwork(net.bank_ids, c * net.W)).lambda2
        assert scaled == pytest.approx(c * base, rel=1e-11)

    @given(st.integers(0, 10_000), st.integers(4, 40), st.floats(1e-3, 1e3),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scaling_assets_scales_lambda2_on_both_paths(self, seed, n, c, thresholded):
        assets = np.random.default_rng(seed).lognormal(11.0, 0.8, n)
        method = COMPLETE
        if thresholded:
            _, net = maxent_network(assets)
            w = np.unique(net.W[net.W > 0])
            assume(len(w) >= 4)
            k = len(w) // 4
            method = ReconstructionConfig(min_edge_threshold=float(0.5 * (w[k] + w[k + 1])))
        _, net = maxent_network(assets, method)
        assert (np.count_nonzero(net.W) < n * (n - 1)) == thresholded
        scaled = ReconstructionConfig(min_edge_threshold=c * method.min_edge_threshold)
        got = network_lambda2(c * assets, scaled)
        want = c * network_lambda2(assets, method)
        assert got == pytest.approx(want, rel=1e-12 if not thresholded else 1e-11)


class TestWorkerCounts:
    @given(st.integers(0, 10_000), st.integers(8, 25), st.sampled_from([0.0, 200.0]))
    @settings(max_examples=10, deadline=None)
    def test_bootstrap_and_sweep_bit_identical_across_workers(self, seed, n, epsilon):
        method = ReconstructionConfig(min_edge_threshold=epsilon)
        assets = np.random.default_rng(seed).lognormal(11.0, 0.5, n)
        panel = BankPanel(records=tuple(synth_panel(n, [2018, 2021], seed=seed, log_sigma=0.5)))
        try:
            runs = [bootstrap_lambda2(assets, method, B=12, seed=seed, workers=w)
                    for w in (1, 2)]
            sweeps = [sweep_ratios(panel, RunConfig(method=method, ratio_sweep=(0.02, 0.08, 3),
                                                    workers=w))
                      for w in (1, 2)]
        except InfeasibleMarginals:  # a network in which one bank holds half the total
            assume(False)
        assert np.array_equal(runs[0].replicates, runs[1].replicates)
        assert (runs[0].point, runs[0].ci_low, runs[0].ci_high) == \
            (runs[1].point, runs[1].ci_low, runs[1].ci_high)
        assert json.dumps(sweeps[0], sort_keys=True) == json.dumps(sweeps[1], sort_keys=True)
