"""Resampling inference, hypothesis tests, distribution fits, and panel DID.

Every randomized procedure derives replicate RNG streams deterministically
from (master seed, replicate index), so results are bit-identical across
reruns and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CollinearDesign,
    InsufficientData,
    NonPositiveSample,
    TooFewClusters,
    TooFewPoints,
    ZeroVariance,
)
from .graph import laplacian_spectrum, WeightedNetwork
from .ingest import TreatmentAssignment
from .pipeline import network_lambda2
from .reconstruct import ReconstructionConfig


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for replicate ``index`` of master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# --- bootstrap ----------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with percentile CI over bootstrap replicates.

    CI bounds are order statistics of the replicate vector. ``bootstrap_lambda2``
    keeps every replicate, so B_effective equals B and n_degenerate is 0.
    """

    point: float
    replicates: np.ndarray
    ci_low: float
    ci_high: float
    level: float
    seed: int
    B: int
    B_effective: int
    n_degenerate: int = 0


def bootstrap_lambda2(assets: Sequence[float] | np.ndarray,
                      cfg: ReconstructionConfig,
                      B: int = 100, level: float = 0.95, seed: int = 0,
                      workers: int = 1) -> BootstrapResult:
    """Bank-level bootstrap of algebraic connectivity.

    Each replicate draws n banks with replacement, re-runs the configured
    reconstruction and network, and records lambda2 (``network_lambda2``). The
    percentile interval at ``level`` is read off the sorted replicates.
    The point estimate needs strictly positive assets, so every resample
    has a positive total; a replicate whose reconstruction or spectrum
    fails aborts the run, and ``n_degenerate`` is always 0.
    """
    assets = np.asarray(assets, dtype=float)
    n = len(assets)
    if n < 3:
        raise InsufficientData("need at least 3 banks")
    if B < 10:
        raise InsufficientData("need at least 10 replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")

    point = network_lambda2(assets, cfg)

    def one(b: int) -> float:
        rng = _replicate_rng(seed, b)
        idx = rng.integers(0, n, size=n)
        return network_lambda2(assets[idx], cfg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            replicates = np.array(list(pool.map(one, range(B))))
    else:
        replicates = np.array([one(b) for b in range(B)])

    alpha = (1.0 - level) / 2.0
    ci_low = float(np.quantile(replicates, alpha, method="lower"))
    ci_high = float(np.quantile(replicates, 1.0 - alpha, method="higher"))
    return BootstrapResult(point=point, replicates=replicates, ci_low=ci_low,
                           ci_high=ci_high, level=level, seed=seed, B=B,
                           B_effective=B)


# --- permutation test ---------------------------------------------------------

def permutation_test(group_a: Sequence[float], group_b: Sequence[float],
                     n_perm: int = 10_000, seed: int = 0,
                     method: str = "auto") -> float:
    """Two-sided permutation p-value for a difference in group means.

    Monte Carlo mode counts sampled label permutations with |T| >= |T_obs|
    and applies the add-one estimator (r+1)/(n_perm+1), which never
    returns zero. When the label assignments can be enumerated within
    ``n_perm`` (or ``method="exhaustive"``), all C(n_a+n_b, n_a)
    assignments are scored instead, the observed assignment is excluded
    from the count, and the denominator is the assignment count plus one.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise InsufficientData("both groups must be non-empty")
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    pooled = np.concatenate([a, b])
    n_a = len(a)
    t_obs = abs(a.mean() - b.mean())

    def exceeds(t: float) -> bool:
        return t > t_obs or math.isclose(t, t_obs, rel_tol=1e-9, abs_tol=0.0)

    if method not in ("auto", "mc", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    total = math.comb(len(pooled), n_a)
    exhaustive = method == "exhaustive" or (method == "auto" and total <= n_perm)

    if exhaustive:
        observed = tuple(range(n_a))
        r = 0
        for idx in combinations(range(len(pooled)), n_a):
            if idx == observed:
                continue
            sel = np.zeros(len(pooled), dtype=bool)
            sel[list(idx)] = True
            t = abs(pooled[sel].mean() - pooled[~sel].mean())
            if exceeds(t):
                r += 1
        return (r + 1) / (total + 1)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    r = 0
    for _ in range(n_perm):
        perm = rng.permutation(pooled)
        t = abs(perm[:n_a].mean() - perm[n_a:].mean())
        if exceeds(t):
            r += 1
    return (r + 1) / (n_perm + 1)


# --- placebo weight shuffling ---------------------------------------------------

@dataclass(frozen=True)
class PlaceboResult:
    """Null distribution of lambda2 under edge-weight shuffling."""

    null_lambda2: np.ndarray
    observed: float
    percentile: float
    tied: bool


def placebo_null(net: WeightedNetwork, n_draws: int = 1000,
                 seed: int = 0) -> PlaceboResult:
    """Shuffle edge weights over the fixed edge set and recompute lambda2.

    The degree *support* is preserved (same edges) while the weight
    multiset is permuted uniformly at random. Returns the null vector and
    the percentile of the observed lambda2 within it; a tie flag is set
    when every draw equals the observed value (e.g. all weights equal).
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    iu, ju = np.triu_indices(net.n, k=1)
    edge = net.W[iu, ju] > 0
    iu, ju = iu[edge], ju[edge]
    weights = net.W[iu, ju]
    if len(weights) < 2:
        raise InsufficientData("need at least 2 edges to shuffle")
    observed = laplacian_spectrum(net).lambda2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    null = np.empty(n_draws)
    for d in range(n_draws):
        shuffled = rng.permutation(weights)
        W = np.zeros_like(net.W)
        W[iu, ju] = shuffled
        W[ju, iu] = shuffled
        null[d] = laplacian_spectrum(WeightedNetwork(net.bank_ids, W)).lambda2
    percentile = float(100.0 * np.mean(null <= observed))
    tied = bool(np.all(null == observed))
    return PlaceboResult(null_lambda2=null, observed=observed,
                         percentile=percentile, tied=tied)


# --- distribution fitting -------------------------------------------------------

#: Fewest tail points a fit accepts above x_min.
MIN_TAIL = 10


@dataclass(frozen=True)
class FitComparison:
    """Power-law vs lognormal vs exponential tail fits above x_min.

    ``lr_pl_vs_ln`` is the total log-likelihood difference (power law
    minus lognormal); negative values favor the lognormal. ``p_value`` is
    the two-sided Vuong test p. ``ks_stat`` is the KS statistic of the
    power-law fit; per-family statistics are carried alongside.
    """

    alpha_hat: float
    x_min: float
    lognormal_mu: float
    lognormal_sigma: float
    exp_rate: float
    lr_pl_vs_ln: float
    vuong_stat: float
    p_value: float
    ks_stat: float
    ks_lognormal: float
    ks_exponential: float
    n_tail: int
    best_fit: str


def power_law_mle(sample: Sequence[float] | np.ndarray, x_min: float) -> float:
    """Continuous power-law exponent alpha = 1 + m / sum(ln(x_i / x_min))."""
    x = np.asarray(sample, dtype=float)
    tail = x[x >= x_min]
    if len(tail) == 0:
        raise TooFewPoints("no points at or above x_min")
    denom = np.log(tail / x_min).sum()
    if denom <= 0:
        raise TooFewPoints("degenerate tail: all points equal x_min")
    return float(1.0 + len(tail) / denom)


def _ks_statistic(sorted_tail: np.ndarray, cdf: np.ndarray) -> float:
    m = len(sorted_tail)
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(max(np.abs(upper - cdf).max(), np.abs(lower - cdf).max()))


def _norm_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x sqrt(1/2)), elementwise over an array.

    ``math.erfc`` keeps ``fit`` off scipy. Scaling by sqrt(1/2), as
    ``scipy.special.ndtr`` does, rounds the argument the same way, so the
    two agree to 1e-13 relative even in the lower tail, where the relative
    error of erfc grows with x^2 times that of its argument.
    """
    scale = math.sqrt(0.5)
    if np.ndim(x):
        return np.array([0.5 * math.erfc(-v * scale) for v in np.asarray(x).tolist()])
    return 0.5 * math.erfc(-x * scale)


def fit_distributions(sample: Sequence[float] | np.ndarray,
                      x_min: float | None = None,
                      scan_xmin: bool = False) -> FitComparison:
    """Fit and compare tail distributions above x_min.

    Power law: closed-form MLE. Lognormal: mu, sigma are the mean and
    (MLE, ddof 0) std of ln x over the tail; its density is conditioned
    on x >= x_min when computing likelihoods so all families are
    normalized on the same support. Exponential: shifted, rate
    1/(mean - x_min). The Vuong statistic is the normalized per-point
    log-likelihood difference, negative favoring the lognormal.

    ``x_min`` defaults to the sample minimum; ``scan_xmin=True`` instead
    scans candidate x_min values and keeps the one minimizing the
    power-law KS statistic (leaving at least ``MIN_TAIL`` points).
    """
    x = np.asarray(sample, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NonPositiveSample("sample must be strictly positive and finite")

    if scan_xmin:
        ordered = np.sort(x)
        candidates = np.unique(x)
        tail_counts = len(x) - np.searchsorted(ordered, candidates, side="left")
        candidates = candidates[tail_counts >= MIN_TAIL]
        if len(candidates) == 0:
            raise TooFewPoints(f"no x_min leaves {MIN_TAIL} tail points")
        best = None
        for cand in candidates:
            try:
                fit = fit_distributions(x, x_min=float(cand), scan_xmin=False)
            except TooFewPoints:
                continue
            if best is None or fit.ks_stat < best.ks_stat:
                best = fit
        if best is None:
            raise TooFewPoints("all candidate x_min values were degenerate")
        return best

    x_min = float(x.min()) if x_min is None else float(x_min)
    tail = np.sort(x[x >= x_min])
    m = len(tail)
    if m < MIN_TAIL:
        raise TooFewPoints(f"only {m} points above x_min, need {MIN_TAIL}")
    if tail[0] == tail[-1]:
        raise TooFewPoints("degenerate sample: zero variance above x_min")

    alpha = power_law_mle(tail, x_min)
    log_tail = np.log(tail)
    mu = float(log_tail.mean())
    sigma = float(log_tail.std(ddof=0))
    exp_rate = float(1.0 / (tail.mean() - x_min)) if tail.mean() > x_min else math.inf

    # densities conditioned on x >= x_min
    ll_pl = (math.log(alpha - 1) - math.log(x_min)) - alpha * np.log(tail / x_min)
    ln_tailmass = max(1.0 - _norm_cdf((math.log(x_min) - mu) / sigma), 1e-300)
    ll_ln = (-np.log(tail * sigma * math.sqrt(2 * math.pi))
             - (log_tail - mu) ** 2 / (2 * sigma ** 2)
             - math.log(ln_tailmass))
    diffs = ll_pl - ll_ln
    lr = float(diffs.sum())
    sd = float(diffs.std(ddof=0))
    if sd > 0:
        vuong = float(math.sqrt(m) * diffs.mean() / sd)
        p_value = float(2.0 * _norm_cdf(-abs(vuong)))
    else:
        vuong = 0.0
        p_value = 1.0

    cdf_pl = 1.0 - (tail / x_min) ** (1.0 - alpha)
    ks_pl = _ks_statistic(tail, cdf_pl)
    cdf_ln_raw = _norm_cdf((log_tail - mu) / sigma)
    cdf_ln_at_min = _norm_cdf((math.log(x_min) - mu) / sigma)
    cdf_ln = (cdf_ln_raw - cdf_ln_at_min) / ln_tailmass
    ks_ln = _ks_statistic(tail, cdf_ln)
    cdf_exp = 1.0 - np.exp(-exp_rate * (tail - x_min))
    ks_exp = _ks_statistic(tail, cdf_exp)

    if p_value < 0.1:
        best_fit = "lognormal" if lr < 0 else "power_law"
    else:
        best_fit = "inconclusive"

    return FitComparison(
        alpha_hat=alpha, x_min=x_min, lognormal_mu=mu, lognormal_sigma=sigma,
        exp_rate=exp_rate, lr_pl_vs_ln=lr, vuong_stat=vuong, p_value=p_value,
        ks_stat=ks_pl, ks_lognormal=ks_ln, ks_exponential=ks_exp,
        n_tail=m, best_fit=best_fit,
    )


# --- difference-in-differences ----------------------------------------------------

@dataclass(frozen=True)
class DidResult:
    """Two-way fixed-effects DID estimates with bank-clustered SEs."""

    coefficients: dict[str, float]
    clustered_se: dict[str, float]
    r_squared: float
    n_obs: int
    n_banks: int
    degenerate_terms: tuple[str, ...] = ()


def _did_design(bank_ids: Sequence[str], years: Sequence[int],
                treatment: TreatmentAssignment,
                interactions: Sequence[str],
                covariates: Mapping[str, Mapping[str, float]] | None):
    """Full-dummy design matrix and term names.

    Columns: intercept, bank dummies (drop first), year dummies (drop
    first), Treated x Post_y for every non-base year y, and for each
    requested covariate Z both Z x Post_y (double) and
    Treated x Post_y x Z (triple). Post_y = 1{year >= y}.
    """
    banks = sorted(set(bank_ids))
    yrs = sorted(set(years))
    if len(yrs) < 2:
        raise InsufficientData("need at least 2 years")
    treated = np.array([1.0 if treatment.treated.get(b, False) else 0.0
                        for b in bank_ids])
    year_arr = np.asarray(years)

    cols: list[np.ndarray] = [np.ones(len(bank_ids))]
    names: list[str] = ["intercept"]
    reported: list[str] = []
    for b in banks[1:]:
        cols.append((np.asarray(bank_ids) == b).astype(float))
        names.append(f"bank[{b}]")
    for yv in yrs[1:]:
        cols.append((year_arr == yv).astype(float))
        names.append(f"year[{yv}]")
        reported.append(f"year[{yv}]")
    post = {yv: (year_arr >= yv).astype(float) for yv in yrs[1:]}
    for yv in yrs[1:]:
        cols.append(treated * post[yv])
        names.append(f"treated_post{yv}")
        reported.append(f"treated_post{yv}")
    for z in interactions:
        if covariates is None:
            raise ValueError(f"interaction {z!r} requested without covariates")
        zvec = np.array([float(covariates[b][z]) for b in bank_ids])
        for yv in yrs[1:]:
            cols.append(zvec * post[yv])
            names.append(f"{z}_post{yv}")
            reported.append(f"{z}_post{yv}")
            cols.append(treated * post[yv] * zvec)
            names.append(f"treated_post{yv}_x_{z}")
            reported.append(f"treated_post{yv}_x_{z}")
    X = np.column_stack(cols)
    return X, names, reported


def did_regress(observations: Iterable[tuple[str, int, float]],
                treatment: TreatmentAssignment,
                interactions: Sequence[str] = (),
                covariates: Mapping[str, Mapping[str, float]] | None = None) -> DidResult:
    """Two-way FE DID with CR0 cluster-robust SEs clustered by bank.

    ``observations`` are (bank_id, year, outcome) triples. Estimated by
    full-dummy OLS, which equals the within transformation (the oracle
    ``did_within_coefficients`` in ``tests/oracles.py`` checks this). The
    CR0 sandwich is scaled by G/(G-1) * (N-1)/(N-K). SEs that collapse to
    zero (saturated designs) are flagged degenerate rather than dropped.
    """
    obs = list(observations)
    if not obs:
        raise InsufficientData("no observations")
    bank_ids = [o[0] for o in obs]
    years = [int(o[1]) for o in obs]
    y = np.array([float(o[2]) for o in obs])

    banks = sorted(set(bank_ids))
    G = len(banks)
    if G < 2:
        raise TooFewClusters("need at least 2 bank clusters")
    arms = {treatment.treated.get(b, False) for b in banks}
    if len(arms) < 2:
        raise CollinearDesign("all banks in one treatment arm")

    X, names, reported = _did_design(bank_ids, years, treatment, interactions, covariates)
    N, K = X.shape
    if np.linalg.matrix_rank(X) < K:
        raise CollinearDesign("design is rank deficient after FE absorption")

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    tss = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0

    xtx_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((K, K))
    bank_arr = np.asarray(bank_ids)
    for b in banks:
        rows = bank_arr == b
        s = X[rows].T @ resid[rows]
        meat += np.outer(s, s)
    dfc = (G / (G - 1)) * ((N - 1) / (N - K)) if N > K else G / (G - 1)
    vcov = dfc * xtx_inv @ meat @ xtx_inv
    se = np.sqrt(np.clip(np.diagonal(vcov), 0.0, None))

    coef = {}
    ses = {}
    degenerate = []
    for name, b_val, s_val in zip(names, beta, se):
        if name.startswith("bank["):
            continue
        coef[name] = float(b_val)
        ses[name] = float(s_val)
        if name in reported and s_val <= 1e-12 * max(1.0, abs(b_val)):
            degenerate.append(name)
    return DidResult(coefficients=coef, clustered_se=ses, r_squared=max(r_squared, 0.0),
                     n_obs=N, n_banks=G, degenerate_terms=tuple(degenerate))


# --- series utilities ------------------------------------------------------------

def series_correlation(a: Sequence[float], b: Sequence[float],
                       mode: str = "levels") -> float:
    """Pearson correlation of two aligned series, optionally transformed.

    Modes: "levels", "changes" (first differences), "pct_changes".
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    if mode == "levels":
        if len(x) < 2:
            raise InsufficientData("need at least 2 points")
    elif mode in ("changes", "pct_changes"):
        if len(x) < 3:
            raise InsufficientData("need at least 3 points for changes")
        if mode == "changes":
            x, y = np.diff(x), np.diff(y)
        else:
            x, y = np.diff(x) / x[:-1], np.diff(y) / y[:-1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if np.std(x) == 0 or np.std(y) == 0:
        raise ZeroVariance("a series has zero variance")
    return float(np.corrcoef(x, y)[0, 1])


# --- leave-one-out stability -------------------------------------------------------

@dataclass(frozen=True)
class LeaveOneOutResult:
    """lambda2 sensitivity to dropping each single bank."""

    base_lambda2: float
    lambda2_without: np.ndarray
    deviations_pct: np.ndarray
    max_abs_deviation_pct: float


def leave_one_out_lambda2(assets: Sequence[float] | np.ndarray,
                          cfg: ReconstructionConfig) -> LeaveOneOutResult:
    """Recompute lambda2 with each bank dropped in turn.

    The headline robustness number is the maximum percentage deviation
    over all single-bank drops.
    """
    assets = np.asarray(assets, dtype=float)
    if len(assets) < 4:
        raise InsufficientData("need at least 4 banks")
    base = network_lambda2(assets, cfg)
    vals = np.empty(len(assets))
    for i in range(len(assets)):
        vals[i] = network_lambda2(np.delete(assets, i), cfg)
    dev = 100.0 * (vals - base) / base
    return LeaveOneOutResult(base_lambda2=base, lambda2_without=vals,
                             deviations_pct=dev,
                             max_abs_deviation_pct=float(np.abs(dev).max()))
