"""Bilateral exposure estimation from per-bank aggregates.

Four schemes are provided:

* maximum entropy with zero-diagonal correction via iterative
  proportional fitting (RAS), the baseline;
* kernel-density weighting (non-parametric, preserves only the total);
* a fitness model with scores proportional to assets^alpha;
* a sparse greedy transport heuristic minimizing edge count.

All functions are pure; a configuration sweep may evaluate them in
parallel without shared state.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleMarginals,
    InvalidRatio,
    MalformedRow,
    ZeroTotal,
)

MARGINAL_RTOL = 1e-9      # |row sum - target| <= MARGINAL_RTOL * max(target)
IPF_RTOL = 1e-12
IPF_MAX_SWEEPS = 10_000

#: Baseline interbank ratio and sensitivity sweep bounds.
DEFAULT_RHO = 0.05
RHO_SWEEP_RANGE = (0.01, 0.10)
#: Default threshold (millions) below which symmetric exposures are dropped.
DEFAULT_EDGE_THRESHOLD = 1.0


# --- ratio rules --------------------------------------------------------------

class RatioRule:
    """Maps per-bank total assets to interbank ratios rho_i in (0, 1)."""

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedRatio(RatioRule):
    kind = "fixed"
    rho: float = DEFAULT_RHO

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        return np.full(len(assets), self.rho, dtype=float)


@dataclass(frozen=True)
class SizeThresholdRatio(RatioRule):
    """Low ratio above the asset size quantile, high ratio below."""

    kind = "size_threshold"
    rho_large: float = 0.03
    rho_small: float = 0.07
    size_quantile: float = 0.75

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        cutoff = np.quantile(assets, self.size_quantile)
        return np.where(assets > cutoff, self.rho_large, self.rho_small).astype(float)


@dataclass(frozen=True)
class LinearLogRatio(RatioRule):
    """rho_i = intercept + slope * ln(assets_i / mean assets)."""

    kind = "linear_log"
    intercept: float = 0.08
    slope: float = -0.03

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * np.log(assets / assets.mean())


@dataclass(frozen=True)
class TieredRatio(RatioRule):
    """Ratios by asset-quantile tier.

    ``tiers`` is a sequence of (lower_quantile, rho) pairs; a bank gets the
    rho of the highest tier whose quantile cutoff its assets strictly
    exceed. A (0.0, rho) entry is the catch-all bottom tier.
    """

    kind = "tiered"
    tiers: tuple[tuple[float, float], ...] = ((0.9, 0.02), (0.5, 0.05), (0.0, 0.08))

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        ordered = sorted(self.tiers, reverse=True)
        out = np.full(len(assets), ordered[-1][1], dtype=float)
        assigned = np.zeros(len(assets), dtype=bool)
        for q, rho in ordered:
            cutoff = np.quantile(assets, q) if q > 0 else -np.inf
            pick = (~assigned) & (assets > cutoff)
            out[pick] = rho
            assigned |= pick
        return out


#: Ratio rules by ``kind``, the tag that names each in a config file.
RATIO_RULES = {rule.kind: rule for rule in
               (FixedRatio, SizeThresholdRatio, LinearLogRatio, TieredRatio)}


@dataclass(frozen=True)
class ReconstructionConfig:
    """Method selection plus its parameters."""

    method: str = "max_entropy"  # max_entropy | kde | fitness | min_density
    ratio_rule: RatioRule = field(default_factory=FixedRatio)
    fitness_alpha: float = 1.0
    min_edge_threshold: float = DEFAULT_EDGE_THRESHOLD

    def __post_init__(self):
        if self.method not in ("max_entropy", "kde", "fitness", "min_density"):
            raise ConfigError(f"unknown reconstruction method {self.method!r}")
        if self.method == "fitness" and not self.fitness_alpha > 0:
            raise ConfigError("fitness_alpha must be > 0")
        if self.min_edge_threshold < 0:
            raise ConfigError("min_edge_threshold must be >= 0")


# --- exposure matrix ----------------------------------------------------------

@dataclass(frozen=True)
class ExposureMatrix:
    """Dense non-negative bilateral exposure estimate with marginal metadata.

    ``marginals_fitted`` is False for methods that intentionally do not
    reproduce the per-bank targets (KDE weighting).
    ``factors`` is the pair (p, q) with x_ij = p_i q_j off the diagonal,
    when ``X`` was built from them (max-entropy IPF); otherwise None.
    """

    bank_ids: tuple[str, ...]
    X: np.ndarray
    row_targets: np.ndarray
    col_targets: np.ndarray
    method: str = "max_entropy"
    marginals_fitted: bool = True
    flags: tuple[str, ...] = ()
    factors: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        n = len(self.bank_ids)
        if X.shape != (n, n):
            raise ValueError(f"X must be {n}x{n}, got {X.shape}")
        if not np.all(np.isfinite(X)) or np.any(X < 0):
            raise ValueError("exposures must be finite and non-negative")
        if np.any(np.diagonal(X) != 0.0):
            raise ValueError("diagonal exposures must be zero")
        if self.factors is not None and any(np.shape(v) != (n,) for v in self.factors):
            raise ValueError(f"factors must be two vectors of length {n}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "row_targets", np.asarray(self.row_targets, dtype=float))
        object.__setattr__(self, "col_targets", np.asarray(self.col_targets, dtype=float))
        if self.marginals_fitted:
            scale = max(float(self.row_targets.max(initial=0.0)), 1e-300)
            row_err = np.abs(X.sum(axis=1) - self.row_targets).max()
            col_err = np.abs(X.sum(axis=0) - self.col_targets).max()
            if max(row_err, col_err) > MARGINAL_RTOL * scale:
                raise ValueError(
                    f"marginals off by {max(row_err, col_err):.3e} "
                    f"(> {MARGINAL_RTOL:.0e} * max target)"
                )

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    def total(self) -> float:
        return float(self.X.sum())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bank_id", *self.bank_ids])
        for bank, row in zip(self.bank_ids, self.X):
            writer.writerow([bank, *[repr(float(v)) for v in row]])
        return buf.getvalue()


def exposure_from_csv_text(text: str) -> ExposureMatrix:
    """Parse the dense CSV layout written by :meth:`ExposureMatrix.to_csv_text`.

    Each row is labelled with the header's bank id at its position and has
    the header's number of cells, all numbers after the label; an empty
    text, a repeated id, a row out of that order, a ragged row, a cell that
    is not a number, and an extra or missing row raise MalformedRow.
    Marginal targets are taken as the realized row/column sums.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise MalformedRow("empty exposure CSV: no header row")
    ids = tuple(rows[0][1:])
    n = len(ids)
    if len(set(ids)) < n:
        twice = next(b for b in ids if ids.count(b) > 1)
        raise MalformedRow(f"header: bank id {twice!r} appears more than once")
    if len(rows) > n + 1:
        raise MalformedRow(f"row {n + 2}: extra row, the header names {n} banks")
    X = np.empty((len(rows) - 1, n))
    for i, (row, bank) in enumerate(zip(rows[1:], ids)):
        label = row[0] if row else ""
        if label != bank:
            raise MalformedRow(f"row {i + 2}: label {label!r} is not the header's "
                               f"bank id {bank!r} at that position")
        if len(row) != n + 1:
            raise MalformedRow(f"row {i + 2}: {len(row)} cells, the header has {n + 1}")
        for j, cell in enumerate(row[1:]):
            try:
                X[i, j] = float(cell)
            except ValueError:
                raise MalformedRow(f"row {i + 2}: cell {cell!r} is not a number") from None
    if len(rows) <= n:
        raise MalformedRow(f"row {len(rows) + 1}: missing, no row for bank id "
                           f"{ids[len(rows) - 1]!r}")
    return ExposureMatrix(bank_ids=ids, X=X, row_targets=X.sum(axis=1),
                          col_targets=X.sum(axis=0), method="loaded")


def _default_ids(n: int) -> tuple[str, ...]:
    return tuple(f"B{i:03d}" for i in range(n))


# --- operations ---------------------------------------------------------------

def interbank_aggregates(assets: Sequence[float] | np.ndarray,
                         rule: RatioRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-bank interbank assets A_i = rho_i * T_i, with liabilities L = A.

    Positions are balanced by assumption, so the same vector is returned
    twice (as separate arrays). Raises InvalidRatio if the rule produces
    any rho outside (0, 1).
    """
    T = np.asarray(assets, dtype=float)
    if np.any(T <= 0) or not np.all(np.isfinite(T)):
        raise ValueError("assets must be strictly positive and finite")
    rho = rule.ratios(T)
    if np.any(rho <= 0.0) or np.any(rho >= 1.0):
        bad = rho[(rho <= 0.0) | (rho >= 1.0)][0]
        raise InvalidRatio(f"ratio {bad!r} outside (0, 1)")
    A = rho * T
    return A, A.copy()


def _ipf(row_targets: np.ndarray, col_targets: np.ndarray,
         rtol: float = IPF_RTOL, max_sweeps: int = IPF_MAX_SWEEPS
         ) -> tuple[np.ndarray, np.ndarray]:
    """RAS scaling of the prior A_i L_j / sum(A) with a zero diagonal, on its factors.

    The iterates keep the product form x_ij = p_i q_j (i != j), so row i
    sums to p_i (sum(q) - q_i) and column j to q_j (sum(p) - p_j): each
    sweep rescales the two vectors in O(n). The first row step reads only
    q, which starts as L. Returns (p, q).
    """
    scale = max(float(row_targets.max(initial=0.0)), float(col_targets.max(initial=0.0)))
    if scale <= 0:
        raise ZeroTotal("all marginal targets are zero")
    q = col_targets
    for _ in range(max_sweeps):
        p = row_targets / (q.sum() - q)
        q = col_targets / (p.sum() - p)
        row_err = np.abs(p * (q.sum() - q) - row_targets).max()
        col_err = np.abs(q * (p.sum() - p) - col_targets).max()
        err = max(row_err, col_err)
        if err <= rtol * scale:
            return p, q
    # final check against the looser marginal tolerance before giving up
    if err <= MARGINAL_RTOL * scale:
        return p, q
    raise InfeasibleMarginals(
        f"IPF did not converge in {max_sweeps} sweeps "
        f"(residual {err:.3e}); a marginal may exceed "
        "half the total, which no zero-diagonal matrix can satisfy"
    )


def max_entropy(A: Sequence[float] | np.ndarray, L: Sequence[float] | np.ndarray,
                bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Entropy-maximizing exposures x_ij = A_i L_j / sum(A), diagonal corrected.

    The closed form has a positive diagonal; we zero it and restore both
    marginals by RAS to 1e-12 relative convergence. RAS keeps the product
    form, so off the diagonal x_ij = p_i q_j, and the result carries
    ``factors=(p, q)``; the forced solution on the feasibility boundary
    carries none.
    """
    A = np.asarray(A, dtype=float)
    L = np.asarray(L, dtype=float)
    if A.shape != L.shape:
        raise ValueError("A and L must have equal length")
    if np.any(A < 0) or np.any(L < 0):
        raise ValueError("A and L must be non-negative")
    total = A.sum()
    if total <= 0:
        raise ZeroTotal("sum of interbank assets is zero")
    if not math.isclose(total, float(L.sum()), rel_tol=1e-9):
        raise ValueError("sum(A) must equal sum(L)")
    if np.any(A + L > total * (1 + 1e-12)):
        raise InfeasibleMarginals(
            "a bank's combined positions exceed the system total; no "
            "zero-diagonal matrix can satisfy these marginals"
        )
    # Feasibility boundary (A_i + L_i == total): the solution is forced --
    # every other bank routes exclusively through bank i -- and IPF would
    # only approach it at a 1/sweeps rate, so construct it directly.
    boundary = np.flatnonzero(A + L >= total * (1 - 1e-12))
    if len(boundary):
        i = int(boundary[0])
        X = np.zeros_like(np.outer(A, L))
        X[i, :] = L
        X[:, i] = A
        X[i, i] = 0.0
        factors = None
    else:
        factors = _ipf(A, L)
        X = np.outer(*factors)
        np.fill_diagonal(X, 0.0)
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(len(A))
    return ExposureMatrix(bank_ids=ids, X=X, row_targets=A, col_targets=L,
                          method="max_entropy", factors=factors)


def silverman_bandwidth(assets: np.ndarray) -> float:
    """h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5) with sample std (ddof=1)."""
    n = len(assets)
    sigma = float(np.std(assets, ddof=1)) if n > 1 else 0.0
    iqr = float(np.quantile(assets, 0.75) - np.quantile(assets, 0.25))
    return 0.9 * min(sigma, iqr / 1.34) * n ** (-0.2)


def kde_weights(assets: Sequence[float] | np.ndarray, total_interbank: float,
                bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Non-parametric exposures weighted by products of kernel density values.

    A Gaussian kernel density with Silverman bandwidth is evaluated at each
    bank's asset level; off-diagonal weights f(A_i)*f(A_j) are rescaled so
    the matrix total equals ``total_interbank`` exactly. Per-bank marginals
    are intentionally not matched (``marginals_fitted=False``).

    If the Silverman bandwidth degenerates (IQR = 0), falls back to
    0.9*sigma*n^(-1/5); if sigma is zero too, falls back to uniform weights
    with a flag.
    """
    T = np.asarray(assets, dtype=float)
    n = len(T)
    if n < 2:
        raise ValueError("need at least 2 banks")
    if not total_interbank > 0:
        raise ZeroTotal("total_interbank must be > 0")

    flags: list[str] = []
    h = silverman_bandwidth(T)
    if h <= 0:
        # IQR collapsed; retry with the plain sigma rule before giving up
        sigma = float(np.std(T, ddof=1))
        h = 0.9 * sigma * n ** (-0.2)
        if h > 0:
            flags.append("bandwidth_fallback_sigma")
    if h <= 0:
        flags.append("uniform_weight_fallback")

    if h > 0:
        z = (T[:, None] - T[None, :]) / h
        dens = np.exp(-0.5 * z ** 2).sum(axis=1) / (n * h * math.sqrt(2 * math.pi))
    else:
        dens = np.ones(n)

    W = np.outer(dens, dens)
    np.fill_diagonal(W, 0.0)
    denom = W.sum()
    if denom <= 0:
        raise ZeroTotal("kernel weights sum to zero")
    X = W * (total_interbank / denom)
    np.fill_diagonal(X, 0.0)
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(n)
    return ExposureMatrix(bank_ids=ids, X=X, row_targets=X.sum(axis=1),
                          col_targets=X.sum(axis=0), method="kde",
                          marginals_fitted=False, flags=tuple(flags))


def fitness_model(assets: Sequence[float] | np.ndarray, alpha: float,
                  total_interbank: float,
                  bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Exposures from fitness scores eta_i proportional to assets^alpha.

    x_ij = eta_i eta_j / sum_{k != l} eta_k eta_l * total; diagonal terms
    are excluded from the normalizing sum so the off-diagonal total is
    exact.
    """
    T = np.asarray(assets, dtype=float)
    if np.any(T <= 0):
        raise ValueError("assets must be strictly positive")
    if not total_interbank > 0:
        raise ZeroTotal("total_interbank must be > 0")
    eta = T ** alpha
    W = np.outer(eta, eta)
    np.fill_diagonal(W, 0.0)
    X = W * (total_interbank / W.sum())
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(len(T))
    return ExposureMatrix(bank_ids=ids, X=X, row_targets=X.sum(axis=1),
                          col_targets=X.sum(axis=0), method="fitness")


def min_density(A: Sequence[float] | np.ndarray, L: Sequence[float] | np.ndarray,
                bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Sparse feasible exposures via greedy largest-residual pairing.

    Repeatedly matches the bank with the largest combined unmet residual
    (row plus column) to the largest-loaded admissible counterparty and
    transfers as much as possible. The transfer is capped so no third
    bank's combined residual exceeds the remaining total, which keeps the
    zero-diagonal problem feasible (r_i + c_i <= total for all i) to the
    end. Produces at most 2n-1 edges.
    """
    A = np.asarray(A, dtype=float)
    L = np.asarray(L, dtype=float)
    total = A.sum()
    if total <= 0:
        raise ZeroTotal("sum of interbank assets is zero")
    if not math.isclose(total, float(L.sum()), rel_tol=1e-9):
        raise ValueError("sum(A) must equal sum(L)")
    n = len(A)
    if np.any(A + L > total * (1 + 1e-12)):
        raise InfeasibleMarginals(
            "a bank's combined positions exceed the system total; no "
            "zero-diagonal matrix can satisfy these marginals"
        )
    X = np.zeros((n, n))
    r = A.astype(float).copy()
    c = L.astype(float).copy()
    tol = IPF_RTOL * max(float(A.max(initial=0.0)), 1e-300)
    all_idx = np.arange(n)
    for _ in range(6 * n + 10):
        if r.max(initial=0.0) <= tol and c.max(initial=0.0) <= tol:
            break
        load = r + c
        i = int(np.argmax(load))
        lends = r[i] >= c[i]
        cand = all_idx[((c if lends else r) > tol) & (all_idx != i)]
        if len(cand) == 0:
            # what is left may be round-off within the tolerance ExposureMatrix checks
            if max(np.abs(r).max(), np.abs(c).max()) <= MARGINAL_RTOL * A.max():
                break
            raise InfeasibleMarginals("no admissible counterparty remains")
        j = int(cand[np.argmax(load[cand])])
        a, b = (i, j) if lends else (j, i)
        others = all_idx[(all_idx != a) & (all_idx != b)]
        amount = min(r[a], c[b])
        if len(others):
            amount = min(amount, r.sum() - load[others].max())
        if amount <= tol:
            raise InfeasibleMarginals("greedy pairing stalled")
        X[a, b] += amount
        r[a] -= amount
        c[b] -= amount
    else:
        raise InfeasibleMarginals("greedy pairing did not terminate")
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(n)
    return ExposureMatrix(bank_ids=ids, X=X, row_targets=A, col_targets=L,
                          method="min_density")


def reconstruct_exposures(assets: Sequence[float] | np.ndarray,
                          cfg: ReconstructionConfig,
                          bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Dispatch one reconstruction per the configuration.

    The aggregate vectors always come from the ratio rule; KDE and fitness
    use only their grand total.
    """
    A, L = interbank_aggregates(assets, cfg.ratio_rule)
    if cfg.method == "max_entropy":
        return max_entropy(A, L, bank_ids)
    if cfg.method == "kde":
        return kde_weights(assets, float(A.sum()), bank_ids)
    if cfg.method == "fitness":
        return fitness_model(assets, cfg.fitness_alpha, float(A.sum()), bank_ids)
    if cfg.method == "min_density":
        return min_density(A, L, bank_ids)
    raise ValueError(f"unknown method {cfg.method!r}")

