"""Independent reference implementations that the tests compare against."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from contagion_lab.ingest import TreatmentAssignment
from contagion_lab.stats import _did_design


def did_within_coefficients(observations: Iterable[tuple[str, int, float]],
                            treatment: TreatmentAssignment,
                            interactions: Sequence[str] = (),
                            covariates: Mapping[str, Mapping[str, float]] | None = None,
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
    X, names, _ = _did_design(bank_ids, years, treatment, interactions, covariates)

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
