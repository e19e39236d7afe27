"""Output checks that do not use the program's own code.

Each check compares what a CLI command wrote with a computation made here
(a max-entropy RAS, a dense ``eigvalsh`` of the largest component, a
full-dummy least-squares fit, an exhaustive permutation count, networkx
betweenness) or with a property the method must have. A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

#: Relative tolerance for spectral quantities. Both sides solve to ~1e-12,
#: and an output off by a factor 1 + 1e-6 must still be caught.
RTOL = 1e-8


def close(got, want, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return got is not None and math.isfinite(got) and \
        abs(got - want) <= max(atol, rtol * abs(want))


def results(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


# --- oracles -------------------------------------------------------------------

def ras(A: np.ndarray, L: np.ndarray, tol: float = 1e-13,
        max_sweeps: int = 100_000) -> np.ndarray:
    """Max-entropy exposures with a zero diagonal: start from A_i L_j / sum(A)
    and rescale rows and columns in turn until both marginals hold."""
    X = np.outer(A, L) / A.sum()
    np.fill_diagonal(X, 0.0)
    scale = tol * max(A.max(), L.max())
    for _ in range(max_sweeps):
        X *= (A / X.sum(axis=1))[:, None]
        X *= (L / X.sum(axis=0))[None, :]
        if max(np.abs(X.sum(axis=1) - A).max(), np.abs(X.sum(axis=0) - L).max()) <= scale:
            return X
    raise RuntimeError("RAS did not converge")


def max_entropy_exposures(assets: np.ndarray, rho: float) -> np.ndarray:
    A = rho * np.asarray(assets, dtype=float)
    return ras(A, A.copy())


class Spectrum:
    """Laplacian spectra of the network w_ij = x_ij + x_ji, edges > epsilon.

    ``full`` holds every Laplacian eigenvalue of the whole graph (only when
    ``full=True``); ``lcc`` those of the largest connected component, whose
    adjacency eigenvalues are in ``adjacency``.
    """

    def __init__(self, X: np.ndarray, epsilon: float, full: bool = True):
        W = X + X.T
        W[W <= epsilon] = 0.0
        np.fill_diagonal(W, 0.0)
        n_comp, labels = connected_components(W > 0, directed=False)
        sizes = np.bincount(labels)
        main = np.flatnonzero(labels == int(np.argmax(sizes)))
        self.n_components = int(n_comp)
        self.W_lcc = W[np.ix_(main, main)]
        self.full = np.linalg.eigvalsh(laplacian(W)) if full else None
        self.lcc = np.linalg.eigvalsh(laplacian(self.W_lcc))
        self.adjacency = np.linalg.eigvalsh(self.W_lcc) if full else None

    @property
    def lambda2(self) -> float:
        return float(self.lcc[1])


def laplacian(W: np.ndarray) -> np.ndarray:
    return np.diag(W.sum(axis=1)) - W


def betweenness_centralization(W: np.ndarray) -> float:
    """Freeman centralization of networkx betweenness, edge length 1/w."""
    import networkx as nx

    m = W.shape[0]
    G = nx.Graph()
    G.add_nodes_from(range(m))
    iu, ju = np.nonzero(np.triu(W, 1))
    G.add_weighted_edges_from(((int(i), int(j), 1.0 / W[i, j]) for i, j in zip(iu, ju)),
                              weight="length")
    bc = np.array(list(nx.betweenness_centrality(G, weight="length",
                                                 normalized=True).values()))
    return float((bc.max() - bc).sum() / (m - 1))


def bootstrap_sample(assets: np.ndarray, seed: int, b: int) -> np.ndarray:
    """Replicate ``b`` of the documented stream SeedSequence(seed, spawn_key=(b,))."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
    n = len(assets)
    return assets[rng.integers(0, n, size=n)]


def exact_permutation_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided p of a mean difference over every relabelling, the observed
    one excluded from the count and added to both sides of the ratio."""
    pooled = np.concatenate([a, b])
    t_obs = abs(a.mean() - b.mean())
    total = pooled.sum()
    n_a, n_b = len(a), len(b)
    idx = np.array(list(combinations(range(len(pooled)), n_a)))
    sum_a = pooled[idx].sum(axis=1)
    t = np.abs(sum_a / n_a - (total - sum_a) / n_b)
    r = int(np.sum(t >= t_obs * (1.0 - 1e-9))) - 1
    return (r + 1) / (len(idx) + 1)


# --- per-command checks ---------------------------------------------------------

def check_analyze(out: Path, panel: dict[int, np.ndarray], rho: float, epsilon: float,
                  D: float, kappa: float, betweenness_year: int | None,
                  d_star_eps: float = 0.1) -> list[str]:
    res = results(out / "analyze.json")
    problems = []
    years = [r["year"] for r in res["years"]]
    if years != sorted(panel):
        problems.append(f"analyze years {years} != {sorted(panel)}")
    for r in res["years"]:
        y = r["year"]
        spec = Spectrum(max_entropy_exposures(panel[y], rho), epsilon)
        topo = r["topology"]
        lam2 = r["lambda2"]
        want = {
            "lambda2": (lam2, spec.lambda2),
            "kappa_eff": (r["kappa_eff"], math.sqrt(lam2 / D) + kappa),
            "d_star": (r["d_star"], -math.log(d_star_eps) / r["kappa_eff"]),
            "lambda_n": (r["lambda_n"], float(spec.full[-1])),
            "topology.lambda_n": (topo["lambda_n"], float(spec.lcc[-1])),
            "topology.spectral_gap": (topo["spectral_gap"], spec.lambda2),
            "topology.spectral_radius": (topo["spectral_radius"],
                                         float(np.abs(spec.adjacency).max())),
            "topology.effective_resistance": (
                topo["effective_resistance"], len(spec.lcc) * float(np.sum(1.0 / spec.lcc[1:]))),
        }
        for name, (got, ref) in want.items():
            if not close(got, ref):
                problems.append(f"analyze {y} {name} = {got!r}, expected {ref!r}")
        if r["n_components"] != spec.n_components or topo["n"] != len(spec.lcc):
            problems.append(f"analyze {y} components {r['n_components']}/{topo['n']}, "
                            f"expected {spec.n_components}/{len(spec.lcc)}")
        if y == betweenness_year:
            ref = betweenness_centralization(spec.W_lcc)
            got = topo["centralization"]["betweenness"]
            if not close(got, ref, rtol=1e-9, atol=1e-12):
                problems.append(f"analyze {y} betweenness centralization {got!r}, "
                                f"networkx gives {ref!r}")
        problems += _check_eigenvalues_csv(out / f"eigenvalues_{y}.csv", spec.full, y)
    return problems


def _check_eigenvalues_csv(path: Path, full: np.ndarray, year: int) -> list[str]:
    """All eigenvalues, or (on the iterative path) the smallest ones, in order."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "index,eigenvalue" or lines[-1] != "":
        return [f"{path.name}: bad layout"]
    rows = [line.split(",") for line in lines[1:-1]]
    vals = np.array([float(v) for _, v in rows])
    idx = [int(i) for i, _ in rows]
    if not 2 <= len(vals) <= len(full) or idx != list(range(1, len(vals) + 1)):
        return [f"{path.name}: {len(vals)} rows for {len(full)} banks"]
    err = float(np.abs(vals - full[:len(vals)]).max())
    if err > RTOL * full[-1]:
        return [f"eigenvalues {year}: off by {err:.3e} from the dense spectrum"]
    return []


def check_sweep(out: Path, panel: dict[int, np.ndarray], rhos: np.ndarray,
                epsilon: float) -> list[str]:
    res = results(out / "sweep.json")
    problems = []
    if not np.allclose(res["rhos"], rhos, rtol=1e-15, atol=0.0):
        problems.append(f"sweep rhos {res['rhos']}")
        return problems
    for y, assets in panel.items():
        exponent = res["scaling_exponent"][str(y)]
        if not close(exponent, 1.0, rtol=1e-9):
            problems.append(f"sweep {y}: scaling exponent {exponent!r}, expected 1")
        for rho in res["rhos"]:
            got = res["lambda2"][str(y)][repr(rho)]
            ref = Spectrum(max_entropy_exposures(assets, rho), epsilon, full=False).lambda2
            if not close(got, ref):
                problems.append(f"sweep {y} rho={rho}: lambda2 {got!r}, expected {ref!r}")
    return problems


def check_bootstrap(out: Path, assets: np.ndarray, rho: float, epsilon: float,
                    B: int, seed: int, level: float = 0.95,
                    recompute: tuple[int, ...] = (0, 1)) -> list[str]:
    res = results(out / "bootstrap.json")
    reps = np.asarray(res["replicates"], dtype=float)
    problems = []
    if res["B"] != B or res["B_effective"] != B or len(reps) != B:
        problems.append(f"bootstrap B={res['B']} B_effective={res['B_effective']} "
                        f"replicates={len(reps)}, expected {B}")
        return problems

    def lam2(sample: np.ndarray) -> float:
        return Spectrum(max_entropy_exposures(sample, rho), epsilon, full=False).lambda2

    ref = lam2(assets)
    if not close(res["point"], ref):
        problems.append(f"bootstrap point {res['point']!r}, expected {ref!r}")
    for b in recompute:
        ref = lam2(bootstrap_sample(assets, seed, b))
        if not close(float(reps[b]), ref):
            problems.append(f"bootstrap replicate {b}: {reps[b]!r}, expected {ref!r}")
    # percentile interval: order statistics just outside the alpha tails
    ordered = np.sort(reps)
    alpha = (1.0 - level) / 2.0
    lo = ordered[math.floor(alpha * (B - 1))]
    hi = ordered[math.ceil((1.0 - alpha) * (B - 1))]
    if res["ci_low"] != lo or res["ci_high"] != hi:
        problems.append(f"bootstrap CI ({res['ci_low']!r}, {res['ci_high']!r}), "
                        f"expected ({lo!r}, {hi!r})")
    return problems


def check_did(out: Path, panel: dict[int, np.ndarray], ids: list[str],
              base_year: int, quantile: float) -> list[str]:
    res = results(out / "did.json")
    years = sorted(panel)
    base = panel[base_year]
    treated = base > np.quantile(base, quantile)
    n = len(ids)
    # bank dummies drop the first sorted id, year dummies the first year
    dummy_banks = sorted(ids)[1:]
    rows, y = [], []
    for t in years:
        for i in range(n):
            bank_d = [1.0 if ids[i] == s else 0.0 for s in dummy_banks]
            year_d = [1.0 if t == s else 0.0 for s in years[1:]]
            post = [float(treated[i] and t >= s) for s in years[1:]]
            rows.append([1.0, *bank_d, *year_d, *post])
            y.append(math.log(panel[t][i]))
    beta = np.linalg.lstsq(np.array(rows), np.array(y), rcond=None)[0]
    k = len(years) - 1
    names = [f"year[{s}]" for s in years[1:]] + [f"treated_post{s}" for s in years[1:]]
    problems = []
    for name, ref in zip(names, beta[-2 * k:]):
        got = res["coefficients"].get(name)
        if not close(got, float(ref), rtol=1e-8, atol=1e-10):
            problems.append(f"did {name} = {got!r}, full-dummy lstsq gives {ref!r}")
    if res["n_obs"] != n * len(years) or res["n_banks"] != n \
            or res["n_treated"] != int(treated.sum()):
        problems.append(f"did counts {res['n_obs']}/{res['n_banks']}/{res['n_treated']}")
    return problems


def check_placebo(out: Path, X: np.ndarray, epsilon: float, n_draws: int) -> list[str]:
    res = results(out / "placebo.json")
    null = np.asarray(res["null_lambda2"], dtype=float)
    problems = []
    ref = Spectrum(X, epsilon, full=False).lambda2
    if not close(res["observed"], ref):
        problems.append(f"placebo observed {res['observed']!r}, expected {ref!r}")
    if len(null) != n_draws or not np.all(np.isfinite(null)) or not np.all(null > 0):
        problems.append(f"placebo null has {len(null)} draws or non-positive values")
    elif res["percentile"] != float(100.0 * np.mean(null <= res["observed"])):
        problems.append(f"placebo percentile {res['percentile']!r} disagrees with its null")
    return problems


def check_fit(out: Path, sample: np.ndarray, min_tail: int = 10) -> list[str]:
    res = results(out / "fit.json")
    x_min = res["x_min"]
    tail = sample[sample >= x_min]
    m = len(tail)
    problems = []
    if x_min not in sample or m < min_tail or res["n_tail"] != m:
        return [f"fit x_min {x_min!r} n_tail {res['n_tail']} (tail has {m})"]
    ref = 1.0 + m / float(np.log(tail / x_min).sum())
    if not close(res["alpha_hat"], ref, rtol=1e-10):
        problems.append(f"fit alpha_hat {res['alpha_hat']!r}, expected {ref!r}")
    return problems


def check_permute(out: Path, a: np.ndarray, b: np.ndarray) -> list[str]:
    res = results(out / "permute.json")
    ref = exact_permutation_p(a, b)
    problems = []
    if not close(res["p_value"], ref, rtol=1e-12):
        problems.append(f"permute p {res['p_value']!r}, exact enumeration gives {ref!r}")
    if not close(res["t_obs"], float(a.mean() - b.mean()), rtol=1e-12):
        problems.append(f"permute t_obs {res['t_obs']!r}")
    return problems
