import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import complete_network, random_connected_network
from contagion_lab.errors import SingletonGraph, TooSmall
from contagion_lab.graph import (
    WeightedNetwork,
    _betweenness,
    build_network,
    gini_coefficient,
    hhi,
    laplacian_spectrum,
    topology_report,
    weighted_degree_assortativity,
)
from contagion_lab.pipeline import to_json
from contagion_lab.reconstruct import (ExposureMatrix, ReconstructionConfig, max_entropy,
                                       reconstruct_exposures)


def exposures_from(X):
    X = np.asarray(X, dtype=float)
    return ExposureMatrix(bank_ids=tuple(f"b{i}" for i in range(len(X))), X=X,
                          method="loaded")


def path3() -> WeightedNetwork:
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return WeightedNetwork(("n1", "n2", "n3"), W)


class TestBuildNetwork:
    def test_weights_are_symmetric_sums(self):
        em = exposures_from([[0, 3, 0], [5, 0, 0], [0, 0, 0]])
        net = build_network(em, epsilon=1.0)
        assert net.W[0, 1] == 8.0 and net.W[1, 0] == 8.0

    def test_threshold_is_strict(self):
        em = exposures_from([[0, 0.4, 0], [0.5, 0, 0], [0, 0, 0]])
        net = build_network(em, epsilon=1.0)
        assert net.W[0, 1] == 0.0  # 0.9 <= 1

    def test_equal_aggregates_give_complete_equal_weights(self):
        em = max_entropy([1.0, 1.0, 1.0, 1.0])
        net = build_network(em, epsilon=0.0)
        off = net.W[~np.eye(4, dtype=bool)]
        assert np.allclose(off, off[0])
        assert np.all(off > 0)


class TestLaplacianSpectrum:
    def test_complete_graph_spectrum(self, k4):
        s = laplacian_spectrum(k4)
        assert np.allclose(s.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-9)
        assert math.isclose(s.lambda2, 4.0, abs_tol=1e-9)

    def test_path_graph_hand_polynomial(self):
        # det(L - xI) for the 3-node unit path expands to -x(x-1)(x-3)
        s = laplacian_spectrum(path3())
        assert np.allclose(s.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)
        assert math.isclose(s.lambda2, 1.0, abs_tol=1e-9)

    def test_two_components_lambda2_from_largest(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 3.0
        W[2, 3] = W[3, 2] = 1.0
        net = WeightedNetwork(("a", "b", "c", "d"), W)
        s = laplacian_spectrum(net)
        assert np.sum(np.abs(s.eigenvalues) < 1e-6 * max(1.0, s.lambda_n)) == 2
        assert s.component_sizes == (2, 2)
        # ties in size: the component containing the lowest index wins
        assert math.isclose(s.lambda2, 6.0, abs_tol=1e-9)

    def test_singleton_graph(self):
        net = WeightedNetwork(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(SingletonGraph):
            laplacian_spectrum(net)

    def test_laplacian_row_sums_zero(self):
        net = random_connected_network(5, 20)
        L = net.laplacian()
        assert np.abs(L @ np.ones(20)).max() <= 1e-10 * net.weighted_degrees().max()

    def test_eigenvalue_sum_equals_trace(self):
        net = random_connected_network(6, 25)
        s = laplacian_spectrum(net)
        assert math.isclose(s.eigenvalues.sum(), net.weighted_degrees().sum(),
                            rel_tol=1e-8)

    def test_complete_graph_grid(self):
        for n in (3, 10, 25):
            for w in (0.5, 1.0, 3.0):
                s = laplacian_spectrum(complete_network(n, w))
                assert abs(s.lambda2 - n * w) <= 1e-9 * max(1.0, n * w)

    def test_eigen_residual(self):
        for seed in range(10):
            net = random_connected_network(seed, 15)
            s = laplacian_spectrum(net)
            L = net.laplacian()
            resid = np.linalg.norm(L @ s.fiedler_vector - s.lambda2 * s.fiedler_vector)
            assert resid <= 1e-8 * max(1.0, s.lambda_n)

    def test_weight_scaling_scales_eigenvalues(self):
        net = random_connected_network(9, 12)
        base = laplacian_spectrum(net).eigenvalues
        for c in (2.0, 0.5):
            scaled = laplacian_spectrum(
                WeightedNetwork(net.bank_ids, c * net.W)).eigenvalues
            assert np.allclose(scaled, c * base, rtol=1e-9, atol=1e-12)

    def test_union_spectrum_matches_full_laplacian(self):
        rng = np.random.default_rng(23)
        tested = 0
        for _ in range(30):
            n = int(rng.integers(8, 60))
            # sparse random graphs, left as whatever components fall out
            W = (rng.random((n, n)) < 2.5 / n) * rng.uniform(0.1, 5.0, (n, n))
            W = np.triu(W, 1)
            W = W + W.T
            net = WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)
            comps = net.components()
            if len(comps) < 2 or len(comps[0]) < 2:
                continue
            tested += 1
            s = laplacian_spectrum(net)
            oracle = np.linalg.eigvalsh(net.laplacian())
            scale = max(1.0, float(oracle[-1]))
            assert len(s.eigenvalues) == n
            assert np.all(np.diff(s.eigenvalues) >= 0)
            assert np.abs(s.eigenvalues - oracle).max() <= 1e-9 * scale
            lcc = net.subnetwork(comps[0])
            lam2 = np.linalg.eigvalsh(lcc.laplacian())[1]
            assert abs(s.lambda2 - lam2) <= 1e-9 * lam2
        assert tested >= 10

    def test_zero_eigenvalue_count_matches_components(self):
        rng = np.random.default_rng(71)
        for _ in range(8):
            n = int(rng.integers(6, 25))
            # random graph left as whatever components fall out
            W = (rng.random((n, n)) < 0.12) * rng.uniform(0.5, 2.0, (n, n))
            W = np.triu(W, 1)
            W = W + W.T
            net = WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)
            comps = net.components()
            if len(comps[0]) < 2:
                continue
            s = laplacian_spectrum(net)
            assert np.sum(np.abs(s.eigenvalues) < 1e-6 * max(1.0, s.lambda_n)) == len(comps)

    def test_fiedler_vector_contract(self):
        net = random_connected_network(3, 18)
        s = laplacian_spectrum(net)
        assert abs(np.linalg.norm(s.fiedler_vector) - 1.0) <= 1e-10
        assert abs(s.fiedler_vector.sum()) <= 1e-8


class TestFiedlerPartition:
    """The sign split of the Fiedler vector: its orientation and its support."""

    def test_path_middle_node_on_positive_side(self):
        # hand eigenvector for lambda2=1 is (1, 0, -1)/sqrt(2)
        v = laplacian_spectrum(path3()).fiedler_vector
        assert np.allclose(v, np.array([1.0, 0.0, -1.0]) / math.sqrt(2), atol=1e-10)
        # the middle node's entry is 0 and the first nonzero entry is positive
        assert v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0

    def test_off_component_nodes_in_neither_set(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[0, 2] = W[2, 0] = 1.0
        net = WeightedNetwork(("a", "b", "c", "d"), W)
        s = laplacian_spectrum(net)
        assert not s.component_mask[3]
        assert s.fiedler_vector[3] == 0.0
        assert np.all(s.fiedler_vector[~s.component_mask] == 0.0)


class TestEigenvalueExport:
    def test_csv_lists_sorted_spectrum(self, k4):
        from contagion_lab.graph import eigenvalues_csv_text

        text = eigenvalues_csv_text(laplacian_spectrum(k4))
        lines = text.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        assert len(values) == 4


def star_network(n: int, w: float = 1.0) -> WeightedNetwork:
    W = np.zeros((n, n))
    for leaf in range(1, n):
        W[0, leaf] = W[leaf, 0] = w
    return WeightedNetwork(tuple(f"s{i}" for i in range(n)), W)


class TestTopologyReport:
    def test_uniform_degrees(self):
        net = complete_network(10)
        rep = topology_report(laplacian_spectrum(net))
        assert rep.gini == pytest.approx(0.0, abs=1e-12)
        assert rep.hhi == pytest.approx(0.1, abs=1e-12)
        assert rep.top_k_share[5] == pytest.approx(0.5, abs=1e-12)
        assert not rep.assortativity_defined

    def test_star_assortativity_minus_one(self):
        # brute-force Pearson over the 4 edges (both orientations):
        # x=(4,4,4,4,1,1,1,1), y=(1,1,1,1,4,4,4,4) -> r = -1
        x = np.array([4.0] * 4 + [1.0] * 4)
        y = np.array([1.0] * 4 + [4.0] * 4)
        oracle = float(np.corrcoef(x, y)[0, 1])
        assert oracle == pytest.approx(-1.0, abs=1e-12)
        rep = topology_report(laplacian_spectrum(star_network(5)))
        assert rep.assortativity == pytest.approx(-1.0, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30),
           st.sampled_from([1.0, 0.5, 0.15]))
    @settings(max_examples=40, deadline=None)
    def test_assortativity_matches_edge_loop(self, seed, n, density):
        # the per-edge loop over ``edges()``, both orientations in edge order
        net = lognormal_network(seed, n, density)
        d = net.weighted_degrees()
        xs, ys = [], []
        for i, j, _ in net.edges():
            xs.extend((d[i], d[j]))
            ys.extend((d[j], d[i]))
        value, defined = weighted_degree_assortativity(net)
        if not xs or np.std(xs) == 0:
            assert not defined and math.isnan(value)
        else:
            assert defined
            assert value == float(np.corrcoef(xs, ys)[0, 1])  # bit for bit

    def test_k4_effective_resistance_closed_form(self, k4):
        # K_n eigenvalues are 0 and n (multiplicity n-1): n * (n-1)/n = n-1
        rep = topology_report(laplacian_spectrum(k4))
        assert rep.effective_resistance == pytest.approx(3.0, abs=1e-9)

    def test_spectral_fields(self, k4):
        rep = topology_report(laplacian_spectrum(k4))
        assert rep.spectral_radius == pytest.approx(3.0, abs=1e-9)  # K4 adjacency
        assert rep.lambda_n == pytest.approx(4.0, abs=1e-9)
        assert rep.spectral_gap == pytest.approx(4.0, abs=1e-9)

    def test_gini_hhi_scale_invariance(self):
        net = random_connected_network(8, 15)
        d = net.weighted_degrees()
        for c in (2.0, 0.5):
            assert gini_coefficient(c * d) == pytest.approx(gini_coefficient(d), abs=1e-12)
            assert hhi(c * d) == pytest.approx(hhi(d), abs=1e-12)

    def test_star_centralizations_are_maximal(self):
        rep = topology_report(laplacian_spectrum(star_network(6)))
        assert rep.centralization["degree"] == pytest.approx(1.0, abs=1e-9)
        assert rep.centralization["betweenness"] == pytest.approx(1.0, abs=1e-9)
        assert rep.centralization["eigenvector"] == pytest.approx(1.0, abs=1e-9)

    def test_complete_graph_centralizations_are_zero(self, k4):
        rep = topology_report(laplacian_spectrum(k4))
        assert rep.centralization["degree"] == pytest.approx(0.0, abs=1e-12)
        assert rep.centralization["eigenvector"] == pytest.approx(0.0, abs=1e-9)

    def test_betweenness_uses_inverse_weight_lengths(self):
        # triangle with one weak edge: shortest paths avoid it, so the
        # opposite vertex carries betweenness despite complete topology
        W = np.array([[0.0, 10.0, 10.0],
                      [10.0, 0.0, 0.1],
                      [10.0, 0.1, 0.0]])
        rep = topology_report(laplacian_spectrum(WeightedNetwork(("hub", "x", "y"), W)))
        assert rep.centralization["betweenness"] > 0

    def test_too_small(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TooSmall):
            topology_report(laplacian_spectrum(WeightedNetwork(("a", "b"), W)))

    def test_computed_on_largest_component(self):
        W = np.zeros((5, 5))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            W[i, j] = W[j, i] = 1.0
        W[3, 4] = W[4, 3] = 9.0
        rep = topology_report(laplacian_spectrum(WeightedNetwork(tuple("abcde"), W)))
        assert rep.n == 3
        assert rep.weighted_avg_degree == pytest.approx(2.0)


def assert_close_tree(x, y):
    """Equal JSON trees, floats within 1e-9 relative (1e-12 absolute near zero)."""
    if isinstance(x, dict):
        assert x.keys() == y.keys()
        for key in x:
            assert_close_tree(x[key], y[key])
    elif isinstance(x, float):
        assert y == pytest.approx(x, rel=1e-9, abs=1e-12)
    else:
        assert x == y


class TestRelabeling:
    """Permuting the banks, W's rows and columns with bank_ids, changes nothing."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 30),
           st.sampled_from([1.0, 0.5, 0.15, 0.08]))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_and_topology_invariant(self, seed, n, density):
        net = lognormal_network(seed, n, density)
        sizes = [len(c) for c in net.components()]
        # with an equal-size runner-up the relabeling may pick another largest component
        assume(sizes[0] >= 3 and (len(sizes) == 1 or sizes[0] > sizes[1]))
        perm = np.random.default_rng(seed).permutation(n)
        moved = WeightedNetwork(tuple(net.bank_ids[i] for i in perm),
                                net.W[np.ix_(perm, perm)])
        a, b = laplacian_spectrum(net), laplacian_spectrum(moved)
        assert b.lambda2 == pytest.approx(a.lambda2, rel=1e-9)
        np.testing.assert_allclose(b.eigenvalues, a.eigenvalues, rtol=1e-9,
                                   atol=1e-9 * a.lambda_n)
        assert_close_tree(to_json(topology_report(b)), to_json(topology_report(a)))


def networkx_betweenness(net: WeightedNetwork) -> np.ndarray:
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(net.n))
    for i, j, w in net.edges():
        G.add_edge(i, j, length=1.0 / w)
    bc = nx.betweenness_centrality(G, weight="length", normalized=True)
    return np.array([bc[i] for i in range(net.n)])


def lognormal_network(seed: int, n: int, density: float) -> WeightedNetwork:
    rng = np.random.default_rng(seed)
    W = np.triu(rng.lognormal(3.0, 0.8, (n, n)) * (rng.random((n, n)) < density), 1)
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W + W.T)


def unit_network(n: int, pairs) -> WeightedNetwork:
    W = np.zeros((n, n))
    for i, j in pairs:
        W[i, j] = W[j, i] = 1.0
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)


class TestBetweennessOracle:
    """The Brandes kernel against networkx, edge lengths 1/w, normalized."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 30),
           st.sampled_from([1.0, 0.5, 0.15]))
    @settings(max_examples=40, deadline=None)
    def test_random_lognormal_graphs(self, seed, n, density):
        net = lognormal_network(seed, n, density)
        np.testing.assert_allclose(_betweenness(net), networkx_betweenness(net),
                                   rtol=0, atol=1e-12)

    def test_complete_lognormal_70(self):
        net = lognormal_network(301, 70, 1.0)
        np.testing.assert_allclose(_betweenness(net), networkx_betweenness(net),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("net", [
        complete_network(6),
        complete_network(5, w=3.0),
        unit_network(7, [(0, k) for k in range(1, 7)]),
        unit_network(6, [(k, (k + 1) % 6) for k in range(6)]),
        unit_network(16, [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
                     + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]),
    ], ids=["K6", "K5-w3", "star7", "cycle6", "grid4x4"])
    def test_tie_heavy_graphs(self, net):
        np.testing.assert_allclose(_betweenness(net), networkx_betweenness(net),
                                   rtol=0, atol=1e-12)

    def test_weighted_chain_48(self):
        # on a path each source's shortest-path DAG is up to 47 hops deep, and
        # the path counts and dependencies take one propagation pass per hop
        w = np.random.default_rng(48).lognormal(3.0, 0.8, 47)
        W = np.diag(w, 1)
        net = WeightedNetwork(tuple(f"b{i}" for i in range(48)), W + W.T)
        np.testing.assert_allclose(_betweenness(net), networkx_betweenness(net),
                                   rtol=0, atol=1e-12)

    def test_min_density_network_70(self):
        # the CLI's sparsest reconstruction: about two edges per bank, many hops
        assets = np.random.default_rng(70).lognormal(11.0, 1.0, 70)
        cfg = ReconstructionConfig(method="min_density")
        net = build_network(reconstruct_exposures(assets, cfg), cfg.min_edge_threshold)
        assert np.count_nonzero(net.W) < 0.1 * 70 * 69
        np.testing.assert_allclose(_betweenness(net), networkx_betweenness(net),
                                   rtol=0, atol=1e-12)

    def test_isolated_node_and_second_component(self):
        net = unit_network(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (5, 6), (6, 7)])
        bc = _betweenness(net)
        np.testing.assert_allclose(bc, networkx_betweenness(net), rtol=0, atol=1e-12)
        assert bc[4] == 0.0 and bc[6] > 0.0

    def test_round_off_tie_counts_both_paths(self):
        # lengths 0.1 + 0.2 and 0.3 tie in exact arithmetic, but 0.1 + 0.2 rounds to
        # 0.30000000000000004, so an exact comparison (networkx) misses it
        W = np.array([[0.0, 10.0, 1.0 / 0.3],
                      [10.0, 0.0, 5.0],
                      [1.0 / 0.3, 5.0, 0.0]])
        bc = _betweenness(WeightedNetwork(("s", "a", "t"), W))
        np.testing.assert_allclose(bc, [0.0, 0.5, 0.0], rtol=0, atol=1e-15)


def grouped_network(seed: int, n: int, n_groups: int, density: float) -> WeightedNetwork:
    """Random edges only within randomly drawn node groups: a graph with
    isolated nodes and, often, several components of the same size."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, n_groups, size=n)
    keep = (rng.random((n, n)) < density) & (group[:, None] == group[None, :])
    W = np.triu(rng.uniform(0.5, 2.0, (n, n)) * keep, 1)
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W + W.T)


def scipy_components(net: WeightedNetwork) -> list[np.ndarray]:
    """Components from scipy's connected_components, numbered by their lowest
    node and stably sorted by size: the oracle for ``components``."""
    sp = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(sp.csr_matrix(net.W > 0), directed=False)
    comps = [np.flatnonzero(labels == k) for k in range(n_comp)]
    comps.sort(key=len, reverse=True)
    return comps


class TestComponents:
    def assert_same_as_scipy(self, net):
        got, want = net.components(), scipy_components(net)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8),
           st.sampled_from([1.0, 0.6, 0.2, 0.05]))
    @settings(max_examples=150, deadline=None)
    def test_random_disconnected_graphs(self, seed, n, n_groups, density):
        self.assert_same_as_scipy(grouped_network(seed, n, n_groups, density))

    @pytest.mark.parametrize("net", [
        complete_network(1),
        complete_network(2),
        complete_network(300),
        unit_network(5, []),
        unit_network(6, [(0, 3), (1, 4), (2, 5)]),
        unit_network(9, [(8, 0), (7, 1), (6, 2), (6, 5)]),
        unit_network(7, [(0, 6), (1, 2), (2, 3), (4, 5)]),
    ], ids=["K1", "K2", "K300", "isolated5", "equal-pairs", "reversed", "mixed"])
    def test_fixed_graphs(self, net):
        self.assert_same_as_scipy(net)

    def test_equal_sizes_keep_lowest_node_order(self):
        comps = unit_network(6, [(1, 4), (0, 5), (2, 3)]).components()
        assert [c.tolist() for c in comps] == [[0, 5], [1, 4], [2, 3]]
