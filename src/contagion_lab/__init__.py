"""Interbank network reconstruction and contagion analytics."""

from .contagion import (
    DiffusionParams,
    DistressState,
    critical_distance,
    effective_decay,
    fit_temporal_decay,
    kappa_ratio,
    solve_diffusion,
    temporal_decay_rate,
)
from .graph import (
    SpectrumResult,
    TopologyReport,
    WeightedNetwork,
    build_network,
    laplacian_spectrum,
    topology_report,
)
from .ingest import (
    BankPanel,
    BankRecord,
    TreatmentAssignment,
    assign_treatment,
    balanced_panel,
    load_panel,
)
from .pipeline import network_lambda2
from .reconstruct import (
    ExposureMatrix,
    FixedRatio,
    LinearLogRatio,
    RatioRule,
    ReconstructionConfig,
    SizeThresholdRatio,
    TieredRatio,
    fitness_model,
    interbank_aggregates,
    kde_weights,
    max_entropy,
    min_density,
    reconstruct_exposures,
)
from .stats import (
    BootstrapResult,
    DidResult,
    FitComparison,
    bootstrap_lambda2,
    did_regress,
    fit_distributions,
    leave_one_out_lambda2,
    permutation_test,
    placebo_null,
    power_law_mle,
    series_correlation,
)

__version__ = "0.1.0"
