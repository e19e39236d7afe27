"""Distress diffusion on weighted networks.

The distress field u(t) evolves by du/dt = -D L u - kappa u, solved in
closed form through the Laplacian eigenbasis. Spatial attenuation from a
localized shock is summarized by the effective decay rate
sqrt(lambda2 / D) + kappa and the critical distance at which distress
falls below a fraction of its source value. A threshold cascade
simulator provides the discrete counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    InvalidEpsilon,
    NonPositiveLambda2,
)
from .graph import SpectrumResult, WeightedNetwork


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion coefficient and intrinsic decay rate."""

    D: float = 1.0
    kappa: float = 0.0

    def __post_init__(self):
        if not self.D > 0:
            raise ValueError("D must be > 0")
        if not self.kappa >= 0:
            raise ValueError("kappa must be >= 0")


@dataclass(frozen=True)
class DistressState:
    """Distress field over banks at one instant."""

    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValueError("distress entries must be finite")
        if self.t < 0:
            raise ValueError("time must be >= 0")
        object.__setattr__(self, "u", u)

    def total(self) -> float:
        return float(self.u.sum())


@dataclass(frozen=True)
class CascadeConfig:
    """Source shock, propagation threshold, and per-step decay."""

    source: int
    s0: float
    theta: float
    kappa: float = 0.0

    def __post_init__(self):
        if not self.s0 > 0:
            raise ValueError("s0 must be > 0")
        if not self.theta > 0:
            raise ValueError("theta must be > 0")
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError("kappa must be in [0, 1)")


def effective_decay(lambda2: float, params: DiffusionParams) -> float:
    """Effective spatial decay rate sqrt(lambda2 / D) + kappa."""
    if not lambda2 > 0:
        raise NonPositiveLambda2(f"lambda2 must be > 0, got {lambda2}")
    return math.sqrt(lambda2 / params.D) + params.kappa


def critical_distance(kappa_eff: float, epsilon: float) -> float:
    """Network distance at which distress falls to fraction epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    if not kappa_eff > 0:
        raise ValueError("kappa_eff must be > 0")
    return -math.log(epsilon) / kappa_eff


def kappa_ratio(lambda2_new: float, lambda2_old: float) -> float:
    """Relative change of the decay parameter identified from lambda2 alone."""
    if not (lambda2_new > 0 and lambda2_old > 0):
        raise NonPositiveLambda2("both lambda2 values must be > 0")
    return math.sqrt(lambda2_new / lambda2_old)


def prediction_proportional(d_lambda_rel: float, d_D_rel: float) -> float:
    """First-order response: half the relative lambda2 change net of D."""
    if d_lambda_rel <= -1 or d_D_rel <= -1:
        raise ValueError("relative changes must exceed -1")
    return 0.5 * (d_lambda_rel - d_D_rel)


def dominance_share(lambda2: float, params: DiffusionParams) -> float:
    """Fraction of the effective decay contributed by network structure."""
    if not lambda2 > 0:
        raise NonPositiveLambda2(f"lambda2 must be > 0, got {lambda2}")
    root = math.sqrt(lambda2 / params.D)
    return root / (root + params.kappa)


def solve_diffusion(spectrum: SpectrumResult, params: DiffusionParams,
                    u0: DistressState | Sequence[float] | np.ndarray,
                    t: float) -> DistressState:
    """Closed-form solution u(t) = Q exp(-(D*Lambda + kappa I) t) Q^T u(0).

    Works on disconnected graphs too; mass within each component evolves
    independently.
    """
    u_init = u0.u if isinstance(u0, DistressState) else u0
    return diffusion_trajectory(spectrum, params, u_init, [t])[0]


def diffusion_trajectory(spectrum: SpectrumResult, params: DiffusionParams,
                         u0: Sequence[float] | np.ndarray,
                         times: Sequence[float]) -> list[DistressState]:
    """States at several times, from the spectrum's cached eigenpairs.

    Each Laplacian block (``spectrum.eigenpairs``) evolves on its own, as
    no edge joins two blocks.
    """
    n = spectrum.network.n
    u_init = np.asarray(u0, dtype=float)
    if u_init.shape != (n,):
        raise DimensionMismatch(f"u0 has shape {u_init.shape}, need ({n},)")
    if any(t < 0 for t in times):
        raise ValueError("t must be >= 0")
    blocks = [(idx, vals, vecs, vecs.T @ u_init[idx])
              for idx, vals, vecs in spectrum.eigenpairs]
    out = []
    for t in times:
        if t == 0:
            out.append(DistressState(u=u_init.copy(), t=0.0))
            continue
        u_t = np.empty(n)
        for idx, vals, vecs, coef in blocks:
            damp = np.exp(-(params.D * vals + params.kappa) * float(t))
            u_t[idx] = vecs @ (damp * coef)
        out.append(DistressState(u=u_t, t=float(t)))
    return out


def temporal_decay_rate(spectrum: SpectrumResult, params: DiffusionParams) -> float:
    """Asymptotic non-uniform decay rate gamma = D * lambda2 + kappa.

    Requires a connected network; raises Disconnected otherwise.
    """
    if spectrum.n_components() > 1:
        raise Disconnected(
            f"network has {spectrum.n_components()} components; "
            "the decay rate is defined for connected graphs"
        )
    return params.D * spectrum.lambda2 + params.kappa


#: Geometric verification grid spans [0.01/gamma, 5/gamma] with 20 points.
DECAY_GRID_POINTS = 20
DECAY_GRID_SPAN = (0.01, 5.0)


def fit_temporal_decay(spectrum: SpectrumResult, params: DiffusionParams,
                       source: int = 0) -> float:
    """Verification mode: fitted decay rate of the non-uniform residual.

    Starts from a unit impulse at ``source``, removes the uniform mode,
    and regresses the log norm of the residual on a geometric time grid.
    Returns the fitted rate (positive); compare against
    :func:`temporal_decay_rate`.
    """
    gamma = temporal_decay_rate(spectrum, params)  # validates connectivity
    n = spectrum.network.n
    if not 0 <= source < n:
        raise DimensionMismatch(f"source {source} outside [0, {n})")
    u0 = np.zeros(n)
    u0[source] = 1.0
    times = np.geomspace(DECAY_GRID_SPAN[0] / gamma, DECAY_GRID_SPAN[1] / gamma,
                         DECAY_GRID_POINTS)
    norms = []
    for state in diffusion_trajectory(spectrum, params, u0, times):
        resid = state.u - state.u.mean()
        norms.append(np.linalg.norm(resid))
    slope = np.polyfit(times, np.log(norms), 1)[0]
    return float(-slope)


def cascade(net: WeightedNetwork, cfg: CascadeConfig) -> int:
    """Threshold cascade size from a single seeded shock.

    Nodes whose distress exceeds theta join the cascade set in ascending
    index order within a sweep; each joining node makes a one-shot
    transfer w_ij * (its distress at entry) to nodes outside the set,
    after which the remaining field decays by (1 - kappa). Distress of a
    cascaded node is frozen at its entry value, so every node contributes
    exactly once and the loop terminates.
    """
    n = net.n
    if not 0 <= cfg.source < n:
        raise DimensionMismatch(f"source {cfg.source} outside [0, {n})")
    u = np.zeros(n)
    u[cfg.source] = cfg.s0
    in_cascade = np.zeros(n, dtype=bool)
    while True:
        eligible = np.flatnonzero((u > cfg.theta) & ~in_cascade)
        if eligible.size == 0:
            break
        entry_values = u[eligible]
        in_cascade[eligible] = True
        outside = ~in_cascade
        # one-shot transfer from the newly cascaded nodes, then decay
        u[outside] += net.W[np.ix_(np.flatnonzero(outside), eligible)] @ entry_values
        u[outside] *= 1.0 - cfg.kappa
    return int(in_cascade.sum())
