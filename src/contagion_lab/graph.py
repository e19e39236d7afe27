"""Weighted-graph construction, Laplacian spectra, and topology metrics.

The Laplacian is L = D - W with D the diagonal weighted-degree matrix.
Algebraic connectivity (lambda2) is always reported for the largest
connected component, and comes from one of two paths:

* ``laplacian_spectrum``, the dense path: one ``eigvalsh`` on the largest
  component and one on the block of the other nodes, which gives the
  whole spectrum. Every network can take it.
* ``threshold_lambda2``: lambda2 alone of a product-form network with
  factor u (x_ij = u_i u_j), from ``u`` and the threshold alone, with no
  n x n array. Its weights w_ij = 2 fl(u_i u_j) make it a threshold
  graph, complete or thresholded; monotone rounding makes each bank's
  edges a prefix of the banks sorted by u, so the degrees come from a
  bisection per bank and need no mask, and an elimination that creates
  no fill counts eigenvalues in O(n) per trial value.

``pipeline.network_lambda2`` picks the path: the count needs a factor and
at least one edge; every other network takes the dense path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPositiveLambda2, SingletonGraph, TooSmall
from .reconstruct import ExposureMatrix

#: Two shortest-path lengths within TIE_RTOL of each other (relative) tie.
TIE_RTOL = 1e-12
#: ``threshold_lambda2`` declines a network whose largest u exceeds
#: COUNT_SKEW_MAX times the sum of its neighbours' u.
COUNT_SKEW_MAX = 1024.0


@dataclass(frozen=True)
class WeightedNetwork:
    """Symmetric weighted graph with zero diagonal."""

    bank_ids: tuple[str, ...]
    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        n = len(self.bank_ids)
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        if np.any(W < 0) or not np.all(np.isfinite(W)):
            raise ValueError("weights must be finite and non-negative")
        if not np.array_equal(W, W.T):
            raise ValueError("W must be exactly symmetric")
        if np.any(np.diagonal(W) != 0.0):
            raise ValueError("diagonal must be zero")
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    def weighted_degrees(self) -> np.ndarray:
        return self.W.sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.weighted_degrees()) - self.W

    def components(self) -> list[np.ndarray]:
        """Connected components as sorted index arrays, largest first.

        Breadth-first search from the lowest unvisited node numbers the
        components by their lowest node; the stable sort by size keeps that
        order among components of equal size.
        """
        adj = self.W > 0
        unvisited = np.ones(self.n, dtype=bool)
        comps = []
        for start in range(self.n):
            if not unvisited[start]:
                continue
            frontier = np.zeros(self.n, dtype=bool)
            frontier[start] = True
            comp = frontier.copy()
            while frontier.any():
                unvisited &= ~frontier
                frontier = adj[frontier].any(axis=0) & unvisited
                comp |= frontier
            comps.append(np.flatnonzero(comp))
        comps.sort(key=len, reverse=True)
        return comps

    def subnetwork(self, idx: np.ndarray) -> "WeightedNetwork":
        ids = tuple(self.bank_ids[i] for i in idx)
        return WeightedNetwork(bank_ids=ids, W=self.W[np.ix_(idx, idx)])

    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected positive-weight edges (i < j)."""
        iu, ju = np.triu_indices(self.n, k=1)
        mask = self.W[iu, ju] > 0
        return [(int(i), int(j), float(self.W[i, j]))
                for i, j in zip(iu[mask], ju[mask])]


def build_network(exposures: ExposureMatrix, epsilon: float = 0.0) -> WeightedNetwork:
    """Symmetrize exposures into edge weights w_ij = x_ij + x_ji.

    Pairs whose symmetric sum is <= epsilon get no edge.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    W = exposures.X + exposures.X.T
    W[W <= epsilon] = 0.0
    np.fill_diagonal(W, 0.0)
    return WeightedNetwork(bank_ids=exposures.bank_ids, W=W)


@dataclass(frozen=True)
class SpectrumResult:
    """Complete Laplacian spectrum of one network, and its eigenpairs on demand.

    ``eigenvalues`` is the sorted union of the largest component's
    eigenvalues (kept in ``lcc_eigenvalues``) and those of the block of all
    other nodes: the whole graph's spectrum. ``eigenpairs`` and the Fiedler
    vector are computed on first read and cached, so every consumer of one
    network shares one decomposition per block.
    """

    network: WeightedNetwork = field(repr=False)
    eigenvalues: np.ndarray
    lcc_eigenvalues: np.ndarray
    component_sizes: tuple[int, ...]
    lambda2: float
    lambda_n: float
    component_mask: np.ndarray
    method: str = "dense"  # the only solver path; perfbench/tracing.py counts by it

    @property
    def bank_ids(self) -> tuple[str, ...]:
        return self.network.bank_ids

    @cached_property
    def eigenpairs(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """``(nodes, eigenvalues, eigenvectors)`` of each Laplacian block.

        One ``eigh`` per block of ``laplacian_spectrum``: the largest
        component first, then the other nodes when there are any.
        """
        return tuple((idx, *np.linalg.eigh(_laplacian_block(self.network.W, idx)))
                     for idx in _blocks(self.component_mask))

    @cached_property
    def fiedler_vector(self) -> np.ndarray:
        """Second eigenvector of the largest component, embedded in full length
        with zeros elsewhere and its first nonzero entry oriented positive."""
        main, _, vecs = self.eigenpairs[0]
        # project out any residual uniform contamination, then normalize
        q2 = vecs[:, 1] - vecs[:, 1].mean()
        q2 /= np.linalg.norm(q2)
        fiedler = np.zeros(self.network.n)
        fiedler[main] = q2
        return _orient(fiedler)

    def n_components(self) -> int:
        return len(self.component_sizes)


def _orient(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip sign so the first entry exceeding tol in magnitude is positive."""
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


def _blocks(mask: np.ndarray) -> list[np.ndarray]:
    """Node indices of the largest component, then of the other nodes if any.

    No edge joins the two, so the Laplacian is block diagonal in them.
    """
    blocks = [np.flatnonzero(mask)]
    if not mask.all():
        blocks.append(np.flatnonzero(~mask))
    return blocks


def _laplacian_block(W: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Laplacian of the subgraph on ``idx``, built in its own copy of the block."""
    L = W[np.ix_(idx, idx)]
    degrees = L.sum(axis=1)
    np.subtract(0.0, L, out=L)
    L.flat[::len(idx) + 1] = degrees
    return L


def laplacian_spectrum(net: WeightedNetwork) -> SpectrumResult:
    """Complete Laplacian spectrum with component bookkeeping.

    The spectrum is the union of the eigenvalues of the largest component's
    block and of the other nodes' block (one ``eigvalsh`` each). lambda2 is
    that component's, of m >= 2 nodes (else SingletonGraph), and must exceed
    the m eps lambda_n that ``eigvalsh`` rounds by (else NonPositiveLambda2).
    """
    if net.n < 2:
        raise SingletonGraph("need at least 2 nodes")
    comps = net.components()
    sizes = tuple(len(c) for c in comps)
    if sizes[0] < 2:
        raise SingletonGraph("largest component has fewer than 2 nodes")
    mask = np.zeros(net.n, dtype=bool)
    mask[comps[0]] = True

    lcc, *rest = [np.linalg.eigvalsh(_laplacian_block(net.W, idx)) for idx in _blocks(mask)]
    if not lcc[1] > sizes[0] * np.finfo(float).eps * lcc[-1]:
        raise NonPositiveLambda2(f"lambda2 {lcc[1]:.3g} is lost in the rounding of lambda_n "
                                 f"{lcc[-1]:.3g} (dense eigvalsh)")
    eigenvalues = np.sort(np.concatenate([lcc, *rest])) if rest else lcc
    return SpectrumResult(
        network=net,
        eigenvalues=eigenvalues,
        lcc_eigenvalues=lcc,
        component_sizes=sizes,
        lambda2=float(lcc[1]),
        lambda_n=float(eigenvalues[-1]),
        component_mask=mask,
    )


#: Fractions of the bracket probed by each multisection step of ``_multisect``.
_GRID = np.arange(1, 25) / 25

def _multisect(count, lo: float, hi: float) -> float:
    """lambda2 in the bracket [lo, hi] from an eigenvalue count.

    ``count(mu)`` returns, for an array of trial values, how many
    eigenvalues lie below each one and whether that count is valid (a trial
    value on a pivot gives none). Each step counts at 24 trial values across
    the bracket in one vectorized pass, and the bracket ends at a relative
    width of 4 eps.
    """
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while hi - lo > 4.0 * eps * hi:
            mu = lo + (hi - lo) * _GRID
            below, valid = count(mu)
            under = np.flatnonzero(valid & (below <= 1))
            over = np.flatnonzero(valid & (below >= 2))
            moved = False
            if len(under) and mu[under[-1]] > lo:
                lo, moved = mu[under[-1]], True
            if len(over) and mu[over[0]] < hi:
                hi, moved = mu[over[0]], True
            if not moved:
                break
    return float(0.5 * (lo + hi))


def _ranked_degrees(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Each bank's degree in the mask fl(u_i u_j) + fl(u_j u_i) > epsilon, i != j,
    for ``u`` sorted decreasing.

    Each bank's edges are a prefix of the ranks (``threshold_lambda2`` says
    why). Its length is built bit by bit, from the largest power of two
    down: a step is kept when the last rank of the longer prefix still
    passes, so each pass is O(n) and there are about log2(n) of them.
    """
    n = len(u)
    length = np.zeros(n, dtype=np.intp)
    for step in (1 << b for b in reversed(range(n.bit_length()))):
        longer = length + step
        v = u[np.minimum(longer, n) - 1]
        length = np.where((longer <= n) & (u * v + v * u > epsilon), longer, length)
    return length - (np.arange(n) < length)  # a bank inside its own prefix is no edge


def threshold_lambda2(u: np.ndarray, epsilon: float) -> float | None:
    """lambda2 of the product-form network with factor u, or None.

    This is the network ``build_network`` makes of x_ij = u_i u_j with
    threshold ``epsilon``, counted from ``u`` alone: no n x n array is
    built. Its weights fl(u_i u_j) + fl(u_j u_i) are exactly 2 fl(u_i u_j),
    so a threshold keeps the pairs with u_i u_j above a cut: a threshold
    graph (Chvatal & Hammer 1977), and a complete network is one with no
    pair below the cut. Rounding is monotone, so with u sorted decreasing
    each bank's edge set {j : fl(u_i u_j) + fl(u_j u_i) > epsilon} is a
    prefix of that order: the neighbourhoods are nested by construction. A
    vectorized bisection over ranks finds every prefix length in about
    log2(n) passes of O(n), each evaluating the very expression
    ``build_network`` thresholds, so the degrees are those of its mask,
    after subtracting each bank that falls inside its own prefix. None is
    returned when no edge is left; the caller then takes the dense path,
    which raises SingletonGraph. It is returned too when the top bank's u
    exceeds COUNT_SKEW_MAX times its neighbours' sum (fitness at a large
    alpha): the 2 u^2 that the elimination below adds to its degree then
    swamps it, and the count's error grows to about that ratio times the
    dense path's n eps lambda_n.

    Nested neighbourhoods leave no fill when banks are eliminated in
    increasing-u order. The banks with edges form the largest component: a
    clique of the k top-ranked banks, and independent banks j, each joined
    to the ranks [0, deg_j) of the clique. Eliminating the independent
    banks gives pivots Delta_j - mu and leaves on the clique

        diag(Delta_i - mu + 2 u_i^2) - [g_il u_i u_l],

    where g_il is 2 plus 4 u_j^2 / (Delta_j - mu) summed over the independent
    banks joined to both i and l. It depends only on the segment, between
    two attachment ranks, that max(i, l) falls in. Going up from the bottom
    segment, each is a diagonal D minus g u u^T: it has the negative
    eigenvalues of D, plus [z < 0] - [g < 0] with z = 1/g - u^T D^-1 u
    (Bunch, Nielsen & Sorensen 1978), and its Schur complement adds
    1/z - g to the g of every segment above. So a count costs O(n) per
    trial value, and ``_multisect`` narrows [0, m/(m-1) min Delta]
    (Fiedler's bound on the m banks with edges). A trial value on a pivot,
    or one that makes a segment singular, is skipped.
    """
    u = u[np.argsort(-u, kind="stable")]
    d = _ranked_degrees(u, epsilon)
    m = int(np.count_nonzero(d))  # nesting puts the banks without edges last
    if m < 2 or u[0] > COUNT_SKEW_MAX * u[1:d[0] + 1].sum():
        return None
    u, d = u[:m], d[:m]
    prefix = np.concatenate([[0.0], np.cumsum(u)])  # prefix[t] = sum of the top t u
    k = int(np.count_nonzero(d > np.arange(m)))
    uc, ui, att = u[:k], u[k:], d[k:]
    clique_diag = 2.0 * uc * prefix[d[:k] + 1]     # Delta_i + 2 u_i^2
    piv = 2.0 * ui * prefix[att]                   # Delta_j
    delta_min = min(float((clique_diag - 2.0 * uc * uc).min()), float(piv.min(initial=np.inf)))

    ends = np.union1d(att, [k])                    # segment i is [starts[i], ends[i])
    starts = np.concatenate([[0], ends[:-1]])
    by_att = np.argsort(-att, kind="stable")
    attached = np.searchsorted(-att[by_att], -ends, side="right")  # banks with att >= end
    w = (4.0 * ui[by_att] ** 2)[:, None]
    piv_by_att = piv[by_att][:, None]
    diagonal = np.sort(np.concatenate([piv, clique_diag]))
    uc2, clique_diag = (uc * uc)[:, None], clique_diag[:, None]
    cum = np.zeros((len(ui) + 1, len(_GRID)))
    hz = np.empty((2, len(ends), len(_GRID)))
    h, z = hz

    def count(mu):
        np.cumsum(w / (piv_by_att - mu), axis=0, out=cum[1:])
        g = 2.0 + cum[attached]             # g of each segment, before Schur updates
        s = np.add.reduceat(uc2 / (clique_diag - mu), starts, axis=0)
        h[-1] = 1.0 / g[-1]
        z[-1] = h[-1] - s[-1]
        for i in range(len(ends) - 2, -1, -1):
            np.divide(1.0, 1.0 / z[i + 1] + g[i] - g[i + 1], out=h[i])
            np.subtract(h[i], s[i], out=z[i])
        neg_h, neg_z = (hz < 0).sum(axis=1)
        below = np.searchsorted(diagonal, mu) + neg_z - neg_h
        return below, np.isfinite(cum[-1]) & np.isfinite(s).all(axis=0) & (z != 0).all(axis=0)

    return _multisect(count, 0.0, delta_min * m / (m - 1))


def eigenvalues_csv_text(spectrum: SpectrumResult) -> str:
    """Plot-ready CSV of the sorted spectrum (index, eigenvalue)."""
    lines = ["index,eigenvalue"]
    for i, v in enumerate(spectrum.eigenvalues, start=1):
        lines.append(f"{i},{float(v)!r}")
    return "\n".join(lines) + "\n"


def gini_coefficient(values: np.ndarray) -> float:
    """Gini of a non-negative sequence via the sorted-rank formula."""
    x = np.sort(np.asarray(values, dtype=float), kind="stable")
    n = len(x)
    total = x.sum()
    if n == 0 or total <= 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(((2 * ranks - n - 1) * x).sum() / (n * total))


def hhi(values: np.ndarray) -> float:
    shares = values / values.sum()
    return float((shares ** 2).sum())


def top_k_share(values: np.ndarray, k: int) -> float:
    x = np.sort(values)[::-1]
    return float(x[:k].sum() / x.sum())


@dataclass(frozen=True)
class TopologyReport:
    """Concentration, spectral, and centralization summary of one network.

    ``assortativity`` is None where ``assortativity_defined`` is False.
    """

    n: int
    gini: float
    hhi: float
    top_k_share: dict[int, float]
    cr3: float
    assortativity: float | None
    assortativity_defined: bool
    spectral_radius: float
    lambda_n: float
    spectral_gap: float
    effective_resistance: float
    weighted_avg_degree: float
    centralization: dict[str, float]


def weighted_degree_assortativity(net: WeightedNetwork) -> tuple[float, bool]:
    """Pearson correlation of endpoint weighted degrees across edges.

    Each undirected edge contributes both orientations. Returns
    (value, defined); undefined when endpoint degrees have no variance.
    """
    d = net.weighted_degrees()
    iu, ju = np.triu_indices(net.n, k=1)
    mask = net.W[iu, ju] > 0
    if not mask.any():
        return math.nan, False
    i, j = iu[mask], ju[mask]
    x = np.stack([d[i], d[j]], axis=1).ravel()
    y = np.stack([d[j], d[i]], axis=1).ravel()
    if np.std(x) == 0 or np.std(y) == 0:
        return math.nan, False
    return float(np.corrcoef(x, y)[0, 1]), True


def _settle(b: np.ndarray, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """y = b + the sum of y[src] over the edges src -> dst of an acyclic list,
    by passes (one per hop) until a pass changes nothing."""
    y, prev = b, None
    while not np.array_equal(y, prev):
        y, prev = b + np.bincount(dst, y[src], minlength=b.size), y
    return y


def _betweenness(net: WeightedNetwork) -> np.ndarray:
    """Normalized betweenness with edge lengths 1/w (Brandes 2001).

    Distances come from Floyd-Warshall (Floyd 1962) on the dense matrix of
    lengths, inf where there is no edge. For each source s the tight edges
    u -> v, |d[s,u] + 1/w_uv - d[s,v]| <= TIE_RTOL * d[s,v], form the
    shortest-path DAG. Propagated along its edge list, the path counts are
    sigma = e_s + sum_{u -> v} sigma[u] and the dependencies
    delta = sigma * x - 1 with x = 1 / sigma + sum_{u -> v} x[v]. Pairs in
    different components contribute nothing; the sum over sources is divided
    by (n - 1)(n - 2), as networkx normalizes undirected graphs.
    """
    n = net.n
    bc = np.zeros(n)
    if n <= 2:
        return bc
    iu, ju = np.nonzero(net.W)  # both orientations of every edge
    length = 1.0 / net.W[iu, ju]
    dist = np.full((n, n), np.inf)
    dist[iu, ju] = length
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    pos = np.empty(n, dtype=np.intp)
    for s in range(n):
        d = dist[s]
        reach = np.isfinite(d)
        r = int(reach.sum())
        order = np.argsort(d, kind="stable")[:r]
        pos[order] = np.arange(r)
        e = reach[iu]
        u, v, le = iu[e], ju[e], length[e]
        tight = (pos[u] < pos[v]) & (np.abs(d[u] + le - d[v]) <= TIE_RTOL * d[v])
        pu, pv = pos[u[tight]], pos[v[tight]]
        sigma = _settle(np.eye(1, r)[0], pv, pu)
        x = _settle(1.0 / sigma, pu, pv)
        bc[order[1:]] += sigma[1:] * x[1:] - 1.0
    return bc / ((n - 1) * (n - 2))


def _eigenvector_centrality(vecs: np.ndarray) -> np.ndarray:
    """Principal adjacency eigenvector (last column of ``eigh``), unit 2-norm, >= 0."""
    v = vecs[:, -1]
    if v.sum() < 0:
        v = -v
    return np.clip(v, 0.0, None) / np.linalg.norm(np.clip(v, 0.0, None))


def _freeman(values: np.ndarray, max_sum: float) -> float:
    if max_sum <= 0:
        return 0.0
    return float((values.max() - values).sum() / max_sum)


def topology_report(spectrum: SpectrumResult, ks: Sequence[int] = (3, 5, 10)) -> TopologyReport:
    """All topology metrics of ``spectrum.network``, on its largest component.

    lambda2, lambda_n and the effective resistance come from the largest
    component's eigenvalues in ``spectrum``; spectral radius and eigenvector
    centrality from one ``eigh`` of that component's adjacency. Betweenness
    uses weighted shortest paths with length 1/w; the centralization entries
    are Freeman centralizations against the star of the same size. Raises
    TooSmall below 3 nodes.
    """
    m = spectrum.component_sizes[0]
    if m < 3:
        raise TooSmall("largest component must have >= 3 nodes")
    sub = spectrum.network.subnetwork(np.flatnonzero(spectrum.component_mask))

    d = sub.weighted_degrees()
    shares = {k: top_k_share(d, k) for k in ks if k <= m}
    cr3 = top_k_share(d, 3)

    lap_vals = spectrum.lcc_eigenvalues
    # n * sum of reciprocal nonzero eigenvalues, not the per-pair Kirchhoff form
    effective_resistance = float(m * np.sum(1.0 / lap_vals[1:]))
    adj_vals, adj_vecs = np.linalg.eigh(sub.W)
    spectral_radius = float(np.abs(adj_vals).max())

    assort, assort_def = weighted_degree_assortativity(sub)

    deg_unweighted = (sub.W > 0).sum(axis=1).astype(float)
    bc = _betweenness(sub)
    ec = _eigenvector_centrality(adj_vecs)
    star_ec_center = 1.0 / math.sqrt(2.0)
    star_ec_leaf = 1.0 / math.sqrt(2.0 * (m - 1))
    centralization = {
        "degree": _freeman(deg_unweighted, (m - 1) * (m - 2)),
        "betweenness": _freeman(bc, m - 1),
        "eigenvector": _freeman(ec, (m - 1) * (star_ec_center - star_ec_leaf)),
    }

    return TopologyReport(
        n=m,
        gini=gini_coefficient(d),
        hhi=hhi(d),
        top_k_share=shares,
        cr3=cr3,
        assortativity=assort if assort_def else None,
        assortativity_defined=assort_def,
        spectral_radius=spectral_radius,
        lambda_n=float(lap_vals[-1]),
        spectral_gap=float(lap_vals[1]),
        effective_resistance=effective_resistance,
        weighted_avg_degree=float(d.mean()),
        centralization=centralization,
    )
