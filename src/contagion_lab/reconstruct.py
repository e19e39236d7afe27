"""Bilateral exposure estimation from per-bank aggregates.

Four schemes are provided:

* maximum entropy with zero-diagonal correction, the baseline, whose
  factor solves one scalar equation;
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
from functools import cached_property
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
GREEDY_RTOL = 1e-12       # min_density pairs residuals above GREEDY_RTOL * max(A)

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


# each check is written as "not ok" so that NaN, which fails every comparison,
# is rejected too
def _check_ratio(name: str, rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {rho!r}")


def _check_quantile(name: str, q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {q!r}")


@dataclass(frozen=True)
class FixedRatio(RatioRule):
    kind = "fixed"
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        _check_ratio("rho", self.rho)

    def ratios(self, assets: np.ndarray) -> np.ndarray:
        return np.full(len(assets), self.rho, dtype=float)


@dataclass(frozen=True)
class SizeThresholdRatio(RatioRule):
    """Low ratio above the asset size quantile, high ratio below."""

    kind = "size_threshold"
    rho_large: float = 0.03
    rho_small: float = 0.07
    size_quantile: float = 0.75

    def __post_init__(self):
        _check_ratio("rho_large", self.rho_large)
        _check_ratio("rho_small", self.rho_small)
        _check_quantile("size_quantile", self.size_quantile)

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

    def __post_init__(self):
        if not self.tiers:
            raise ConfigError("tiers must hold at least one (quantile, rho) pair")
        for i, (q, rho) in enumerate(self.tiers):
            _check_quantile(f"tiers[{i}] quantile", q)
            _check_ratio(f"tiers[{i}] rho", rho)

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
        # written as "not ok" so that NaN, which fails every comparison, is rejected
        if self.method == "fitness" and not 0.0 < self.fitness_alpha < math.inf:
            raise ConfigError(f"fitness_alpha must be > 0 and finite, got {self.fitness_alpha!r}")
        if not self.min_edge_threshold >= 0:
            raise ConfigError(
                f"min_edge_threshold must be >= 0, got {self.min_edge_threshold!r}")


# --- exposure matrix ----------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class ExposureMatrix:
    """Non-negative bilateral exposure estimate with its marginal targets.

    ``targets`` is the vector A that both the row and the column sums meet,
    within ``MARGINAL_RTOL * max(A)``, or None for a method that fits no
    per-bank targets (KDE, fitness, loaded exposures).
    ``factor`` is u with x_ij = u_i u_j off the diagonal (KDE, fitness, and
    max-entropy off the feasibility boundary), otherwise None. Given its
    factor and no ``X``, a matrix keeps only the factor, checked in O(n):
    finite, non-negative, and with marginals u_i (sum u - u_i) that meet
    any targets. ``X``, ``np.outer(u, u)`` with a zero diagonal, is built on
    first read. A matrix given ``X`` is checked on ``X``. Compared by identity.
    """

    bank_ids: tuple[str, ...]
    targets: np.ndarray | None
    method: str
    flags: tuple[str, ...]
    factor: np.ndarray | None = field(repr=False)

    def __init__(self, bank_ids: tuple[str, ...], X: np.ndarray | None,
                 targets: np.ndarray | None = None, method: str = "max_entropy",
                 flags: tuple[str, ...] = (), factor: np.ndarray | None = None):
        n = len(bank_ids)
        if factor is not None and np.shape(factor) != (n,):
            raise ValueError(f"factor must be a vector of length {n}")
        if X is not None:
            X = np.asarray(X, dtype=float)
            if X.shape != (n, n):
                raise ValueError(f"X must be {n}x{n}, got {X.shape}")
            if not np.all(np.isfinite(X)) or np.any(X < 0):
                raise ValueError("exposures must be finite and non-negative")
            if np.any(np.diagonal(X) != 0.0):
                raise ValueError("diagonal exposures must be zero")
            rows, cols = X.sum(axis=1), X.sum(axis=0)
            self.__dict__["X"] = X  # the cached value of the ``X`` property
        elif factor is not None:
            if not np.all((0.0 <= factor) & (factor < np.inf)):
                raise ValueError("factor must be finite and non-negative")
            rows = cols = factor * _sum_of_others(factor)
        else:
            raise ValueError("an exposure matrix needs X or its factor")
        if targets is not None:
            targets = np.asarray(targets, dtype=float)
            scale = max(float(targets.max(initial=0.0)), 1e-300)
            err = max(np.abs(rows - targets).max(), np.abs(cols - targets).max())
            if err > MARGINAL_RTOL * scale:
                raise ValueError(
                    f"marginals off by {err:.3e} (> {MARGINAL_RTOL:.0e} * max target)"
                )
        self.__dict__.update(bank_ids=bank_ids, targets=targets, method=method,
                             flags=flags, factor=factor)

    @cached_property
    def X(self) -> np.ndarray:
        """The dense n x n exposures, built from the factor on first read."""
        X = np.outer(self.factor, self.factor)
        np.fill_diagonal(X, 0.0)
        return X

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bank_id", *self.bank_ids])
        for bank, row in zip(self.bank_ids, self.X):
            writer.writerow([bank, *[repr(float(v)) for v in row]])
        return buf.getvalue()


def _sum_of_others(v: np.ndarray) -> np.ndarray:
    """sum(v) - v_i for each i, as the sum of the terms before i plus the sum
    of those after: a term that holds nearly all of sum(v) cancels nothing."""
    before = np.concatenate([[0.0], np.cumsum(v[:-1])])
    after = np.concatenate([np.cumsum(v[:0:-1])[::-1], [0.0]])
    return before + after


def exposure_from_csv_text(text: str, delimiter: str = ",") -> ExposureMatrix:
    """Parse the dense CSV layout written by :meth:`ExposureMatrix.to_csv_text`,
    its cells separated by ``delimiter``.

    Blank lines are skipped, as the panel reader skips them, and rows are
    numbered without them. Each row is labelled with the header's bank id at
    its position and has the header's number of cells, all numbers after the
    label; an empty text, a header with no bank id, a repeated id, a row out
    of that order, a ragged row, a cell that is not a number, and an extra or
    missing row raise MalformedRow. The matrix has no marginal targets.
    """
    rows = [row for row in csv.reader(io.StringIO(text), delimiter=delimiter) if row]
    if not rows:
        raise MalformedRow("empty exposure CSV: no header row")
    ids = tuple(rows[0][1:])
    n = len(ids)
    if n == 0:
        raise MalformedRow("header: no bank id after the first cell")
    if len(set(ids)) < n:
        twice = next(b for b in ids if ids.count(b) > 1)
        raise MalformedRow(f"header: bank id {twice!r} appears more than once")
    if len(rows) > n + 1:
        raise MalformedRow(f"row {n + 2}: extra row, the header names {n} banks")
    X = np.empty((len(rows) - 1, n))
    for i, (row, bank) in enumerate(zip(rows[1:], ids)):
        label = row[0]
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
    return ExposureMatrix(bank_ids=ids, X=X, method="loaded")


def _default_ids(n: int) -> tuple[str, ...]:
    return tuple(f"B{i:03d}" for i in range(n))


# --- operations ---------------------------------------------------------------

def interbank_aggregates(assets: Sequence[float] | np.ndarray,
                         rule: RatioRule) -> np.ndarray:
    """Per-bank interbank assets A_i = rho_i * T_i, and liabilities too.

    Positions are balanced by assumption, so A is both the row and the
    column target of a reconstruction. Raises InvalidRatio if the rule
    produces any rho outside (0, 1).
    """
    T = np.asarray(assets, dtype=float)
    if np.any(T <= 0) or not np.all(np.isfinite(T)):
        raise ValueError("assets must be strictly positive and finite")
    rho = rule.ratios(T)
    outside = ~((0.0 < rho) & (rho < 1.0))  # NaN is outside too
    if outside.any():
        raise InvalidRatio(f"ratio {float(rho[outside][0])!r} outside (0, 1)")
    return rho * T


def _max_entropy_factor(A: np.ndarray) -> np.ndarray:
    """Factor u of x_ij = u_i u_j (i != j) with row and column sums A.

    Row i sums to u_i (sum u - u_i). Scaled so that sum u = S, in t = S^2
    each x_i = S u_i is a root of

        x^2 - t x + A_i t = 0,

    whose discriminant (t - 4 A_i) t is non-negative from t0 = 4 max A up.
    Every bank takes the small root, but the bank binding at t0 takes the
    large one when the small roots at t0 sum to less than t0 (a bank near
    half the total). The fitness equations (Squartini & Garlaschelli 2011)
    are then one scalar equation, sum x(t) = t, solved by Newton steps kept
    inside a bracket that shrinks each step, from max(sum A, t0).
    """
    # 4A is exact, so t - reach2 loses nothing near t0, where the binding
    # bank's x is steep in t
    reach2 = 4.0 * A
    k = int(np.argmax(reach2))
    t0, total = float(reach2[k]), float(A.sum())

    def small_roots(t: float) -> tuple[np.ndarray, np.ndarray]:
        """Small roots of x^2 - t x + A t = 0, and the square roots of their
        discriminants."""
        root = np.sqrt((t - reach2) * t)
        return A * (2.0 * t) / (t + root), root

    # each small root is at least A_i, so with t0 <= sum A they sum to at least
    # t at t = sum A, and the small-root equation has its root above there
    large = t0 > total and small_roots(t0)[0].sum() < t0
    lo, hi, t = t0, math.inf, max(total, t0)
    # dx/dt is infinite at t0, where the binding bank's two roots meet
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            x, root = small_roots(t)
            dx = (A - x) / root
            if large:
                # the large root is t - x_k; the t-sized terms of
                # sum x - t cancel, so they are left out
                x[k], dx[k] = -x[k], -dx[k]
                h, slope = x.sum(), dx.sum()
            else:
                h, slope = x.sum() - t, dx.sum() - 1.0
            if (h > 0) != large:  # the root lies above t
                lo = t
            else:
                hi = t
            step = t - h / slope
            if math.isfinite(slope) and abs(step - t) <= 2.0 * np.finfo(float).eps * t:
                break
            if not lo < step < hi:  # bisect, or double while there is no upper end
                step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
                if not lo < step < hi:
                    break
            t = step
    if large or dx[k] < -1.0:
        # The binding bank's root moves faster than t, so the rounding of t
        # would move it more than the rounding of a sum does: close
        # sum x = t on it instead, which its nearly flat quadratic barely
        # notices. The large root is taken this way too.
        x[k] = 0.0
        x[k] = t - x.sum()
    return x / math.sqrt(t)


def _check_feasible(A: np.ndarray, total: float) -> None:
    if np.any(2.0 * A > total * (1 + 1e-12)):
        raise InfeasibleMarginals(
            "a bank's combined positions exceed the system total; no "
            "zero-diagonal matrix can satisfy these marginals"
        )


def max_entropy(A: Sequence[float] | np.ndarray,
                bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Entropy-maximizing exposures x_ij = A_i A_j / sum(A), diagonal corrected.

    The closed form has a positive diagonal. Zeroing it and restoring the
    marginals A keeps the product form x_ij = u_i u_j off the diagonal,
    with the factor from one scalar equation (``_max_entropy_factor``); the
    result keeps only ``factor=u`` until its ``X`` is read. The forced
    solution on the feasibility boundary has no factor and is built dense.
    """
    A = np.asarray(A, dtype=float)
    if np.any(A < 0):
        raise ValueError("A must be non-negative")
    total = A.sum()
    if total <= 0:
        raise ZeroTotal("sum of interbank assets is zero")
    _check_feasible(A, total)
    # On the feasibility boundary (2 A_i == total) every other bank routes through
    # bank i alone; the factor would be zero or infinite, so X is built directly.
    boundary = np.flatnonzero(2.0 * A >= total * (1 - 1e-12))
    if len(boundary):
        i = int(boundary[0])
        X = np.zeros((len(A), len(A)))
        X[i, :] = X[:, i] = A
        X[i, i] = 0.0
        factor = None
    else:
        X, factor = None, _max_entropy_factor(A)
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(len(A))
    return ExposureMatrix(bank_ids=ids, X=X, targets=A, method="max_entropy", factor=factor)


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
    are intentionally not matched (``targets`` is None).

    If the Silverman bandwidth degenerates (IQR = 0), falls back to
    0.9*sigma*n^(-1/5); if sigma is zero too, falls back to uniform weights
    with a flag.
    """
    T = np.asarray(assets, dtype=float)
    n = len(T)
    if n < 2:
        raise ValueError("need at least 2 banks")

    flags: list[str] = []
    h = silverman_bandwidth(T)
    if h <= 0:
        # IQR collapsed; retry with the plain sigma rule before giving up
        sigma = float(np.std(T, ddof=1))
        h = 0.9 * sigma * n ** (-0.2)
        if h > 0:
            flags.append("bandwidth_fallback_sigma")

    if h > 0:
        z = (T[:, None] - T[None, :]) / h
        dens = np.exp(-0.5 * z ** 2).sum(axis=1) / (n * h * math.sqrt(2 * math.pi))
    else:
        flags.append("uniform_weight_fallback")
        dens = np.ones(n)
    return _scaled_product(dens, total_interbank, bank_ids, "kde", "kernel weights", tuple(flags))


def fitness_model(assets: Sequence[float] | np.ndarray, alpha: float,
                  total_interbank: float,
                  bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Exposures from fitness scores eta_i proportional to assets^alpha.

    x_ij = eta_i eta_j / sum_{k != l} eta_k eta_l * total; diagonal terms
    are excluded from the normalizing sum so the off-diagonal total is
    exact. The scores are taken relative to the largest bank,
    eta_i = (T_i / max T)^alpha, which the normalization cancels, so that
    a large alpha cannot overflow.
    """
    T = np.asarray(assets, dtype=float)
    if np.any(T <= 0):
        raise ValueError("assets must be strictly positive")
    return _scaled_product((T / T.max()) ** alpha, total_interbank, bank_ids, "fitness",
                           f"fitness_alpha={alpha!r}")


def _scaled_product(w: np.ndarray, total: float, bank_ids: Sequence[str] | None, method: str,
                    source: str, flags: tuple[str, ...] = ()) -> ExposureMatrix:
    """x_ij = u_i u_j (i != j), u = w sqrt(total / sum_i w_i (sum w - w_i)): the sum
    of w_i w_j over i != j, which cancels nothing. ZeroTotal names ``source``
    when that sum is 0 or 2n max(u)^2, which bounds X and the eigenvalue count,
    is past the float range, where the Python floats below overflow to inf."""
    if not total > 0:
        raise ZeroTotal("total_interbank must be > 0")
    denom = float(w @ _sum_of_others(w))
    scale = math.sqrt(total / denom) if denom > 0 else math.inf
    top = float(w.max()) * scale
    if not 2.0 * len(w) * top * top < math.inf:
        raise ZeroTotal(f"{source}: the other banks' weights are too small beside the "
                        "largest bank's to scale to the total in floating point")
    ids = tuple(bank_ids) if bank_ids is not None else _default_ids(len(w))
    return ExposureMatrix(bank_ids=ids, X=None, method=method, flags=flags, factor=w * scale)


def min_density(A: Sequence[float] | np.ndarray,
                bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Sparse feasible exposures via greedy largest-residual pairing.

    Repeatedly matches the bank with the largest combined unmet residual
    (row plus column) to the largest-loaded admissible counterparty and
    transfers as much as possible. The transfer is capped so no third
    bank's combined residual exceeds the remaining total, which keeps the
    zero-diagonal problem feasible (r_i + c_i <= total for all i) to the
    end. Rows and columns both sum to A. Produces at most 2n-1 edges.
    """
    A = np.asarray(A, dtype=float)
    total = A.sum()
    if total <= 0:
        raise ZeroTotal("sum of interbank assets is zero")
    _check_feasible(A, total)
    n = len(A)
    X = np.zeros((n, n))
    r, c = A.copy(), A.copy()
    tol = GREEDY_RTOL * max(float(A.max(initial=0.0)), 1e-300)
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
    return ExposureMatrix(bank_ids=ids, X=X, targets=A, method="min_density")


def reconstruct_exposures(assets: Sequence[float] | np.ndarray,
                          cfg: ReconstructionConfig,
                          bank_ids: Sequence[str] | None = None) -> ExposureMatrix:
    """Dispatch one reconstruction per the configuration.

    The aggregate vector always comes from the ratio rule; KDE and fitness
    use only its grand total.
    """
    A = interbank_aggregates(assets, cfg.ratio_rule)
    if cfg.method == "max_entropy":
        return max_entropy(A, bank_ids)
    if cfg.method == "kde":
        return kde_weights(assets, float(A.sum()), bank_ids)
    if cfg.method == "fitness":
        return fitness_model(assets, cfg.fitness_alpha, float(A.sum()), bank_ids)
    if cfg.method == "min_density":
        return min_density(A, bank_ids)
    raise ValueError(f"unknown method {cfg.method!r}")

