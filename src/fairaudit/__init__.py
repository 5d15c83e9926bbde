"""fairaudit: diagnosing where group disparities in model cost come from.

The toolkit decomposes group-conditional costs into bias, variance, and
noise, bounds the irreducible noise, extrapolates learning curves, tests
cost gaps for significance, and localizes disparities to subgroups.

Each export is imported from its home module on first use, so importing
the package, or one command-line subcommand, loads only what it runs.
"""

from importlib import import_module as _import_module

# Each exported name, by the module that defines it.
_EXPORTS = {
    "costs": (
        "CostKind", "GroupCostReport", "PredictionSet", "apply_threshold",
        "discrimination_level", "group_cost", "per_sample_losses",
    ),
    "curves": (
        "PowerLawFit", "extrapolate_gamma", "fit_curve_experiment",
        "fit_power_law", "power_law_critical_point", "power_law_crossings",
        "run_curve_experiment",
    ),
    "data": (
        "Dataset", "DataSplit", "Schema", "Task", "bootstrap_resample",
        "derive_seed", "load_dataset", "split", "subsample", "write_dataset",
    ),
    "decomposition": (
        "EnsemblePredictions", "GroupDecomposition", "Loss",
        "PointDecomposition", "class_conditional_decomposition",
        "compare_models_bias_variance", "ensemble_train", "gamma_bar",
        "group_decomposition", "point_decomposition",
    ),
    "errors": ("AnalysisError", "ConfigError", "DataError", "FairauditError"),
    "learners": ("LearnerKind", "LearnerSpec", "train"),
    "noise_bounds": (
        "BoundMethod", "NoiseBoundEstimate", "all_bounds",
        "cover_hart_lower", "mahalanobis_upper", "nn_bounds",
    ),
    "report": ("AuditReport", "emit_report"),
    "stats": (
        "TestResult", "anova_f", "bootstrap_gamma_ci",
        "compare_discrimination_test", "gamma_z_test", "pairwise_welch_holm",
        "welch_t",
    ),
    "subgroups": (
        "Clustering", "ClusteringKind", "ClusterReport", "rank_clusters",
        "threshold_clusterings", "weighted_group_error",
    ),
    "synth": (
        "ConditionalOutcomeModel", "DiscreteSynthSpec", "RegressionSynthSpec",
        "default_discrete_spec", "exact_bayes", "gen_discrete",
        "gen_regression",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules the package exports by name; each resolves by importing it.
_SUBMODULES = (*_EXPORTS, "kernels")

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        # Importing a submodule binds it on the package.
        return _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
