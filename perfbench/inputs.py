"""Seeded input generator for the benchmark.

The benchmark makes its own panels, exposure matrix, fit sample and
permutation groups here, so a change to ``contagion-lab synth`` cannot
change what is measured. The same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

YEARS = (2018, 2021, 2023)
SHRINK = 0.15          # top quartile of 2018 assets shrinks 15% from 2021 on
SHRINK_FROM = 2021
TREAT_QUANTILE = 0.75


def _rng(seed: int, stream: str) -> np.random.Generator:
    # one independent stream per input file, so adding a file moves no other
    key = tuple(ord(ch) for ch in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def panel_assets(n: int, seed: int) -> dict[int, np.ndarray]:
    """Assets (millions) of ``n`` banks per year: lognormal(11, 1) sizes,
    2% yearly noise, and the 2018 top quartile shrunk from 2021 on.

    Base-year log sizes are the midpoints of the n quantile strata of
    N(11, 1), in a seeded order; the seed also draws the yearly noise. Every
    seed thus has the same size profile, and so about the same network
    structure and the same work. With i.i.d. draws the size of the largest
    bank, which decides how many banks the threshold keeps connected, made
    the cost of the n=1000 sparse workload vary by a quarter between seeds.
    """
    rng = _rng(seed, f"panel{n}")
    inv = NormalDist(11.0, 1.0).inv_cdf
    base = rng.permutation([inv((i + 0.5) / n) for i in range(n)])
    levels = {y: base + rng.normal(0.0, 0.02, size=n) for y in YEARS}
    first = np.exp(levels[YEARS[0]])
    treated = first > np.quantile(first, TREAT_QUANTILE)
    out = {}
    for y in YEARS:
        lv = levels[y] + (math.log(1.0 - SHRINK) * treated if y >= SHRINK_FROM else 0.0)
        out[y] = np.exp(lv)
    return out


def bank_ids(n: int) -> list[str]:
    return [f"BK{i:04d}" for i in range(n)]


def write_panel(path: Path, n: int, seed: int) -> None:
    assets = panel_assets(n, seed)
    ids = bank_ids(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bank_id", "year", "total_assets"])
        for y in YEARS:
            for b, a in zip(ids, assets[y]):
                w.writerow([b, y, repr(float(a))])


def exposure_matrix(n: int, seed: int) -> np.ndarray:
    """Dense exposures, every off-diagonal entry above 1, so that the
    default 1-million edge threshold keeps all n(n-1)/2 edges."""
    rng = _rng(seed, f"exposures{n}")
    X = 1.0 + np.exp(rng.normal(3.0, 0.8, size=(n, n)))
    np.fill_diagonal(X, 0.0)
    return X


def write_exposures(path: Path, n: int, seed: int) -> None:
    X = exposure_matrix(n, seed)
    ids = bank_ids(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bank_id", *ids])
        for b, row in zip(ids, X):
            w.writerow([b, *[repr(float(v)) for v in row]])


def fit_sample(m: int, seed: int) -> np.ndarray:
    """Pareto(alpha=2.5) tail over a lognormal body."""
    rng = _rng(seed, f"fit{m}")
    body = np.exp(rng.normal(0.0, 0.5, size=m // 2))
    tail = 2.0 * (1.0 - rng.random(m - m // 2)) ** (-1.0 / 1.5)
    return np.concatenate([body, tail])


def write_fit_sample(path: Path, m: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("value\n")
        for v in fit_sample(m, seed):
            fh.write(f"{float(v)!r}\n")


def permute_groups(n_a: int, n_b: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = _rng(seed, f"permute{n_a}_{n_b}")
    return rng.normal(0.0, 1.0, size=n_a), rng.normal(0.5, 1.0, size=n_b)


def write_permute_groups(path: Path, n_a: int, n_b: int, seed: int) -> None:
    a, b = permute_groups(n_a, n_b, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("group,value\n")
        for g, vals in (("a", a), ("b", b)):
            for v in vals:
                fh.write(f"{g},{float(v)!r}\n")
