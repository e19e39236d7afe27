import os
from pathlib import Path

import numpy as np
import pytest

from contagion_lab.graph import WeightedNetwork

# CLI tests run ``python -m contagion_lab.cli`` in child processes, which find
# the package only through PYTHONPATH; pytest's own ``pythonpath`` setting
# reaches this process alone.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def random_connected_network(seed: int, n: int, p: float = 0.35,
                             w_low: float = 0.1, w_high: float = 2.0) -> WeightedNetwork:
    """Seeded random weighted graph made connected by a unit-weight cycle."""
    rng = np.random.default_rng(seed)
    W = (rng.random((n, n)) < p) * rng.uniform(w_low, w_high, (n, n))
    W = np.triu(W, 1)
    W = W + W.T
    for i in range(n):
        j = (i + 1) % n
        if W[i, j] == 0:
            W[i, j] = W[j, i] = 1.0
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)


def complete_network(n: int, w: float = 1.0) -> WeightedNetwork:
    W = np.full((n, n), w, dtype=float)
    np.fill_diagonal(W, 0.0)
    return WeightedNetwork(tuple(f"b{i}" for i in range(n)), W)


@pytest.fixture
def k4():
    return complete_network(4)
