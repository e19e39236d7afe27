"""lambda2 of max-entropy, kde and fitness networks from their factor.

``network_lambda2`` counts eigenvalues with ``threshold_lambda2`` when the
exposures keep a factor, whether the threshold left the network complete or
removed edges, and runs ``build_network`` and ``laplacian_spectrum``
otherwise (no factor), when fewer than 2 banks keep an edge, or when the top
bank's factor swamps its neighbours' (``COUNT_SKEW_MAX``). Dense ``eigvalsh`` of the network's Laplacian (of its largest
component) is the oracle, and the mask of ``build_network`` the oracle of
the degrees; eigensolver counters guard which path a run takes, and
``tracemalloc`` that it builds no n x n array.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_connected_network
from contagion_lab.errors import InfeasibleMarginals, NonPositiveLambda2, SingletonGraph
from contagion_lab import pipeline
from contagion_lab.graph import (
    COUNT_SKEW_MAX,
    WeightedNetwork,
    _ranked_degrees,
    build_network,
    laplacian_spectrum,
    threshold_lambda2,
)
from contagion_lab.ingest import BankPanel
from contagion_lab.pipeline import RunConfig, network_lambda2, sweep_ratios, synth_panel
from contagion_lab.reconstruct import ReconstructionConfig, reconstruct_exposures
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


def count_lambda2(exposures, epsilon=0.0):
    """``threshold_lambda2`` on the factor of ``exposures``."""
    return threshold_lambda2(exposures.factor, epsilon)


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
            assert exposures.factor is not None
            assert np.count_nonzero(net.W) == net.n * (net.n - 1)
            got = network_lambda2(assets, COMPLETE)
            assert count_lambda2(exposures) == got
        want = np.linalg.eigvalsh(net.laplacian())[1]
        assert abs(got - want) <= 1e-12 * want

    def test_all_equal_assets_give_n_times_the_weight(self):
        for n in (3, 4, 17, 200):
            exposures, net = maxent_network(np.full(n, 7.0))
            w = net.W[0, 1]
            assert np.all(net.W[~np.eye(n, dtype=bool)] == w)
            assert count_lambda2(exposures) == pytest.approx(n * w, rel=1e-14)

    def test_two_banks_closed_form(self):
        # one edge of weight w = p_0 p_1 + p_1 p_0 = 4, lambda2 = 2 w
        assert threshold_lambda2(np.array([1.0, 2.0]), 0.0) == pytest.approx(8.0, rel=1e-15)

    def test_lowest_degree_bank_repeated_is_the_lower_bound(self):
        # banks 0 and 1 are identical and the smallest: e_0 - e_1 is an
        # eigenvector, and lambda2 is exactly their diagonal entry
        assets = np.array([1.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        exposures, net = maxent_network(assets)
        want = np.linalg.eigvalsh(net.laplacian())[1]
        assert count_lambda2(exposures) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [70, 300])
    def test_paper_scale_lognormal(self, n):
        for seed in range(3):
            assets = np.random.default_rng(seed).lognormal(11.0, 1.0, n)
            exposures, net = maxent_network(assets)
            want = np.linalg.eigvalsh(net.laplacian())[1]
            got = network_lambda2(assets, COMPLETE)
            assert got == count_lambda2(exposures)
            assert abs(got - want) <= 1e-12 * want


@st.composite
def product_form_cases(draw):
    """kde or fitness (alpha from 1e-3 to 50) on ``asset_vectors``, or on
    assets whose quartiles meet, which kde's sigma bandwidth fallback takes
    (all-equal assets take its uniform one), with no threshold or one
    halfway between two distinct weights."""
    if draw(st.booleans()):
        assets = draw(asset_vectors())
    else:
        n = draw(st.integers(5, 60))
        k = draw(st.integers(1, (n - 1) // 4))  # above the upper quartile
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        assets = np.full(n, draw(st.floats(1.0, 1e6)))
        assets[:k] *= 1.0 + rng.lognormal(0.0, 1.0, k)
    method = ReconstructionConfig(
        method=draw(st.sampled_from(["kde", "fitness"])), min_edge_threshold=0.0,
        fitness_alpha=draw(st.floats(1e-3, 50.0)))
    if draw(st.booleans()):
        w = np.unique(maxent_network(assets, method)[1].W)
        assume(len(w) >= 3)  # 0 and two distinct weights
        k = draw(st.integers(1, len(w) - 2))
        method = replace(method, min_edge_threshold=float(0.5 * (w[k] + w[k + 1])))
    return assets, method


class TestProductFormsAgainstDenseEigvalsh:
    @given(product_form_cases())
    @settings(max_examples=50, deadline=None)
    def test_kde_and_fitness_match_eigvalsh(self, case):
        assets, method = case
        exposures, net = maxent_network(assets, method)
        u = np.sort(exposures.factor)[::-1]
        d = _ranked_degrees(u, method.min_edge_threshold)
        assert np.array_equal(np.sort(d), np.sort((net.W > 0).sum(axis=1)))
        skew = u[0] / u[1:d[0] + 1].sum()  # the count declines above COUNT_SKEW_MAX
        spectrum = np.linalg.eigvalsh(net.subnetwork(net.components()[0]).laplacian())
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # kde's exp underflows
            if skew > COUNT_SKEW_MAX and \
                    not spectrum[1] > len(spectrum) * np.finfo(float).eps * spectrum[-1]:
                # the dense path takes the network, and rounding hides its lambda2
                with pytest.raises(NonPositiveLambda2, match=r"^lambda2 .* lambda_n "):
                    network_lambda2(assets, method)
                return
            got = network_lambda2(assets, method)
            if skew <= COUNT_SKEW_MAX:
                assert count_lambda2(exposures, method.min_edge_threshold) == got
        # the count's error is about max(1, skew) times eigvalsh's n eps lambda_n;
        # at a large alpha lambda_n / lambda2 leaves neither accurate relative to lambda2
        tol = 4 * net.n * np.finfo(float).eps * spectrum[-1] * max(1.0, min(skew, COUNT_SKEW_MAX))
        assert abs(got - spectrum[1]) <= 1e-12 * abs(spectrum[1]) + tol


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
            got = count_lambda2(exposures, method.min_edge_threshold)
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
            got = count_lambda2(exposures, epsilon)
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
            # u_i u_j > cut exactly when 2 fl(u_i u_j) > 2 cut
            got = threshold_lambda2(u, 2.0 * cut)
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
        assert (W > 0).sum(axis=1).tolist() == [4, 3, 2, 2, 1]
        assert _ranked_degrees(u, 8.4).tolist() == [4, 3, 2, 2, 1]
        assert 2.0 * u[3] * (u[0] + u[1]) == 160.0 * (23 / 25)
        want = np.linalg.eigvalsh(np.diag(W.sum(axis=1)) - W)[1]
        assert threshold_lambda2(u, 8.4) == pytest.approx(want, rel=1e-13)

    def test_declines_what_it_cannot_count(self):
        u = np.array([4.0, 3.0, 2.0, 1.0])
        # the weights 2 u_i u_j above 9 are 0-1, 0-2 and 1-2
        assert _ranked_degrees(u, 9.0).tolist() == [2, 2, 2, 0]
        assert threshold_lambda2(u, 9.0) is not None
        # no edge left (the largest weight is 24), or a single bank
        assert threshold_lambda2(u, 24.0) is None
        assert threshold_lambda2(u[:1], 0.0) is None


@st.composite
def degree_cases(draw):
    """Lognormal sizes or resamples that repeat banks (tied u), and a
    threshold of 0, exactly on a weight 2 fl(u_i u_j), halfway between two
    weights, or on or above the largest weight."""
    n = draw(st.integers(3, 80))  # two banks are on the feasibility boundary
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sigma as in ``asset_vectors``, so that eigvalsh is an accurate oracle
    assets = rng.lognormal(11.0, draw(st.floats(0.05, 1.2)), n)
    if draw(st.booleans()):
        assets = assets[rng.integers(0, draw(st.integers(1, n)), n)]
    exposures, net = maxent_network(assets)
    u = exposures.factor
    w = np.unique(net.W[net.W > 0])
    where = draw(st.sampled_from(["zero", "on", "between", "top", "above"]))
    if where == "on":
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.integers(1, n - 1))) % n
        epsilon = float(2.0 * (u[i] * u[j]))
        assert epsilon in w
    elif where == "between" and len(w) >= 2:
        k = draw(st.integers(0, len(w) - 2))
        epsilon = float(0.5 * (w[k] + w[k + 1]))
    elif where in ("top", "above"):
        epsilon = float(w[-1]) * (2.0 if where == "above" else 1.0)
    else:
        epsilon = 0.0
    return assets, exposures, epsilon


class TestDegreesFromFactors:
    @given(degree_cases())
    @settings(max_examples=200, deadline=None)
    def test_degrees_equal_the_mask_of_build_network(self, case):
        assets, exposures, epsilon = case
        u = exposures.factor
        order = np.argsort(-u, kind="stable")
        net = build_network(exposures, epsilon)
        want = (net.W > 0).sum(axis=1)
        assert np.array_equal(_ranked_degrees(u[order], epsilon), want[order])
        method = ReconstructionConfig(min_edge_threshold=epsilon)
        try:
            dense = laplacian_spectrum(net).lambda2
        except SingletonGraph:
            assert want.max() <= 1  # no edge: one edge leaves two banks
            with pytest.raises(SingletonGraph):
                network_lambda2(assets, method)
            return
        got = network_lambda2(assets, method)
        assert abs(got - dense) <= 1e-12 * dense

    def test_no_edge_raises_what_the_dense_path_raises(self, eigvalsh_calls):
        assets = np.random.default_rng(5).lognormal(11.0, 1.0, 50)
        method = ReconstructionConfig(min_edge_threshold=1e12)
        with pytest.raises(SingletonGraph, match="largest component has fewer than 2 nodes"):
            network_lambda2(assets, method)
        assert eigvalsh_calls == []


class TestNoDenseArray:
    """The paper-scale sparse case of the benchmark: n = 1000, epsilon 30."""

    N = 1000
    METHOD = ReconstructionConfig(min_edge_threshold=30.0)

    def assets(self):
        return np.random.default_rng(0).lognormal(11.0, 1.0, self.N)

    def test_peak_allocation_is_below_one_boolean_mask(self):
        assets = self.assets()
        network_lambda2(assets, self.METHOD)  # imports and first-call caches
        tracemalloc.start()
        try:
            network_lambda2(assets, self.METHOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.N * self.N

    def test_exposures_build_x_only_when_read(self, monkeypatch, eigvalsh_calls):
        made = []

        def keep(assets, method):
            made.append(reconstruct_exposures(assets, method))
            return made[-1]

        monkeypatch.setattr(pipeline, "reconstruct_exposures", keep)
        got = network_lambda2(self.assets(), self.METHOD)
        (exposures,) = made
        assert "X" not in vars(exposures)  # ``X`` caches itself there on first read
        assert eigvalsh_calls == []
        u = exposures.factor
        want = np.outer(u, u)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(exposures.X, want)
        net = build_network(exposures, self.METHOD.min_edge_threshold)
        assert abs(got - largest_component_lambda2(net)) <= 1e-12 * got


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
        for epsilon, blocks in ((0.0, 1), (300.0, 2)):  # 300 isolates two banks
            method = ReconstructionConfig(method="min_density", min_edge_threshold=epsilon)
            eigvalsh_calls.clear()
            got = network_lambda2(assets, method)
            assert len(eigvalsh_calls) == blocks
            net = build_network(reconstruct_exposures(assets, method), epsilon)
            assert (len(net.components()) > 1) == (blocks == 2)
            assert got == laplacian_spectrum(net).lambda2

    @pytest.mark.parametrize("name", ["kde", "fitness"])
    def test_kde_and_fitness_networks_make_no_eigvalsh_call(self, eigvalsh_calls, name):
        assets = np.random.default_rng(3).lognormal(11.0, 1.0, 40)
        complete = ReconstructionConfig(method=name, min_edge_threshold=0.0)
        net = build_network(reconstruct_exposures(assets, complete))
        thresholded = replace(complete, min_edge_threshold=threshold_between(net, 1 / 3))
        for method in (complete, thresholded):
            assert bootstrap_lambda2(assets, method, B=10, seed=5).B_effective == 10
            leave_one_out_lambda2(assets, method)
        panel = BankPanel(records=tuple(synth_panel(10, [2018, 2021], seed=3, log_sigma=0.5)))
        sweep_ratios(panel, RunConfig(method=thresholded, ratio_sweep=(0.02, 0.08, 3)))
        assert eigvalsh_calls == []

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
