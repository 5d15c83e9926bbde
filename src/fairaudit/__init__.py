"""fairaudit: diagnosing where group disparities in model cost come from.

The toolkit decomposes group-conditional costs into bias, variance, and
noise, bounds the irreducible noise, extrapolates learning curves, tests
cost gaps for significance, and localizes disparities to subgroups.
"""

from .costs import (
    CostKind,
    GroupCostReport,
    PredictionSet,
    apply_threshold,
    discrimination_level,
    group_cost,
    per_sample_losses,
)
from .curves import (
    PowerLawFit,
    extrapolate_gamma,
    fit_curve_experiment,
    fit_power_law,
    power_law_critical_point,
    power_law_crossings,
    run_curve_experiment,
)
from .data import (
    Dataset,
    DataSplit,
    Schema,
    Task,
    bootstrap_resample,
    derive_seed,
    load_dataset,
    split,
    subsample,
    write_dataset,
)
from .decomposition import (
    EnsemblePredictions,
    GroupDecomposition,
    Loss,
    PointDecomposition,
    class_conditional_decomposition,
    compare_models_bias_variance,
    ensemble_train,
    gamma_bar,
    group_decomposition,
    point_decomposition,
)
from .errors import AnalysisError, ConfigError, DataError, FairauditError
from .learners import LearnerKind, LearnerSpec, train
from .noise_bounds import (
    BoundMethod,
    NoiseBoundEstimate,
    all_bounds,
    bhattacharyya_bounds,
    cover_hart_lower,
    mahalanobis_upper,
    nn_bounds,
)
from .report import AuditReport, emit_report
from .stats import (
    TestResult,
    anova_f,
    bootstrap_gamma_ci,
    compare_discrimination_test,
    gamma_z_test,
    pairwise_welch_holm,
    welch_t,
)
from .subgroups import (
    Clustering,
    ClusteringKind,
    ClusterReport,
    rank_clusters,
    threshold_clusterings,
    weighted_group_error,
)
from .synth import (
    ConditionalOutcomeModel,
    DiscreteSynthSpec,
    RegressionSynthSpec,
    default_discrete_spec,
    exact_bayes,
    gen_discrete,
    gen_regression,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
