"""The public names of the package, pinned so that each removal or addition
is made on purpose and edits this list."""

import types

import contagion_lab

PUBLIC = [
    "BankPanel", "BankRecord", "BootstrapResult", "DidResult", "DiffusionParams",
    "DistressState", "ExposureMatrix", "FitComparison", "FixedRatio", "LinearLogRatio",
    "RatioRule", "ReconstructionConfig", "SizeThresholdRatio", "SpectrumResult",
    "TieredRatio", "TopologyReport", "TreatmentAssignment", "WeightedNetwork",
    "assign_treatment", "balanced_panel", "bootstrap_lambda2", "build_network",
    "critical_distance", "did_regress", "effective_decay", "fit_distributions",
    "fit_temporal_decay", "fitness_model", "interbank_aggregates", "kappa_ratio",
    "kde_weights", "laplacian_spectrum", "leave_one_out_lambda2", "load_panel",
    "max_entropy", "min_density", "network_lambda2", "permutation_test", "placebo_null",
    "power_law_mle", "reconstruct_exposures", "series_correlation", "solve_diffusion",
    "temporal_decay_rate", "topology_report",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(contagion_lab).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
