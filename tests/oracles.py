"""Independent reference implementations that the tests compare against."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from contagion_lab.errors import TooFewPoints
from contagion_lab.ingest import TreatmentAssignment
from contagion_lab.stats import MIN_TAIL, FitComparison, _did_design, fit_distributions


def matrix_ras(A: np.ndarray, L: np.ndarray, rtol: float = 1e-12,
               max_sweeps: int = 100_000) -> np.ndarray:
    """Max-entropy exposures by RAS on the full matrix.

    Starts from A_i L_j / sum(A) with a zero diagonal and rescales rows,
    then columns, until every row and column sum is within
    ``rtol * max target``; raises RuntimeError after ``max_sweeps`` sweeps.
    """
    X = np.outer(A, L) / A.sum()
    np.fill_diagonal(X, 0.0)
    scale = max(float(A.max()), float(L.max()))
    for _ in range(max_sweeps):
        rows = X.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            X *= np.where(rows > 0, A / rows, 1.0)[:, None]
        cols = X.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            X *= np.where(cols > 0, L / cols, 1.0)[None, :]
        err = max(np.abs(X.sum(axis=1) - A).max(), np.abs(X.sum(axis=0) - L).max())
        if err <= rtol * scale:
            return X
    raise RuntimeError(f"matrix RAS left a residual of {err:.3e} after {max_sweeps} sweeps")


def did_within_coefficients(observations: Iterable[tuple[str, int, float]],
                            treatment: TreatmentAssignment,
                            tol: float = 1e-12, max_iter: int = 10_000) -> dict[str, float]:
    """Within-transformation estimates of the non-FE terms.

    Alternating bank/year demeaning (converges for unbalanced panels)
    applied to the outcome and every non-dummy regressor, then plain OLS.
    Must agree with ``contagion_lab.stats.did_regress`` to high precision.
    """
    obs = list(observations)
    bank_ids = [o[0] for o in obs]
    years = [int(o[1]) for o in obs]
    y = np.array([float(o[2]) for o in obs])
    X, names, _ = _did_design(bank_ids, years, treatment)

    keep = [i for i, nm in enumerate(names)
            if not (nm == "intercept" or nm.startswith("bank[") or nm.startswith("year["))]
    Z = X[:, keep]
    kept_names = [names[i] for i in keep]

    bank_codes = np.unique(bank_ids, return_inverse=True)[1]
    year_codes = np.unique(years, return_inverse=True)[1]

    def demean(v: np.ndarray) -> np.ndarray:
        v = v.astype(float).copy()
        for _ in range(max_iter):
            before = v.copy()
            for codes in (bank_codes, year_codes):
                means = np.bincount(codes, weights=v) / np.bincount(codes)
                v -= means[codes]
            if np.abs(v - before).max() <= tol * max(1.0, np.abs(v).max()):
                break
        return v

    y_w = demean(y)
    Z_w = np.column_stack([demean(Z[:, j]) for j in range(Z.shape[1])])
    beta, *_ = np.linalg.lstsq(Z_w, y_w, rcond=None)
    return {nm: float(b) for nm, b in zip(kept_names, beta)}


def full_fit_xmin_scan(sample) -> FitComparison:
    """The x_min scan as a full three-family fit at every candidate.

    Every distinct value that leaves at least ``MIN_TAIL`` points at or
    above it is fitted in full; a candidate whose fit raises TooFewPoints is
    skipped, and the first fit of least power-law KS statistic wins.
    ``fit_distributions(sample, scan_xmin=True)`` must return the same fit.
    """
    x = np.asarray(sample, dtype=float)
    ordered = np.sort(x)
    candidates = np.unique(x)
    tail_counts = len(x) - np.searchsorted(ordered, candidates, side="left")
    candidates = candidates[tail_counts >= MIN_TAIL]
    if len(candidates) == 0:
        raise TooFewPoints(f"no x_min leaves {MIN_TAIL} tail points")
    best = None
    for cand in candidates:
        try:
            fit = fit_distributions(x, x_min=float(cand))
        except TooFewPoints:
            continue
        if best is None or fit.ks_stat < best.ks_stat:
            best = fit
    if best is None:
        raise TooFewPoints("all candidate x_min values were degenerate")
    return best
