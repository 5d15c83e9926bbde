"""Per-layer tracing from outside the package.

``Tracer`` replaces public functions of the ``fairaudit`` modules with
wrappers that keep a span stack in memory: each span's self time is its
duration minus the time its child spans cover.  Nothing under ``src/`` is
changed; ``Tracer.uninstall`` (or leaving the ``with`` block) puts every
original function back.

Callers that bind a function with ``from .x import f`` hold their own
reference, so each such binding is patched where it is used (``cli.train``,
``curves.train``, ``decomposition.train``, ...).  ``missing_calls`` reports
patched bindings that a workload was expected to reach but did not, which
would otherwise show up as silently empty spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


def _dataset_rows(counts, args, kwargs, result):
    counts["data.load_dataset.rows"] += result.n


def _gini_cells(counts, args, kwargs, result):
    X = args[0]
    counts["kernels.best_split_gini.cells"] += X.shape[0] * X.shape[1]
    counts["kernels.best_split_gini.no_split"] += result[0] < 0


def _var_cells(counts, args, kwargs, result):
    X = args[0]
    counts["kernels.best_split_var.cells"] += X.shape[0] * X.shape[1]


def _knn_pairs(counts, args, kwargs, result):
    counts["kernels.knn_scores.pairs"] += args[0].shape[0] * args[2].shape[0]


def _loo_pairs(counts, args, kwargs, result):
    # Distances are evaluated only between rows of different folds.
    fold = np.asarray(args[2])
    per_fold = np.bincount(fold)
    counts["kernels.knn_loo_fold_errors.pairs"] += int(
        fold.size * fold.size - (per_fold * per_fold).sum()
    )


def _tree_nodes(counts, args, kwargs, result):
    trees = getattr(result, "trees", None) or (result,)
    counts["learners.tree_nodes"] += sum(
        len(t.node_feature) for t in trees if hasattr(t, "node_feature")
    )


def _predict_rows(counts, args, kwargs, result):
    counts["learners.predict_scores.rows"] += len(result)


def _decomposition_points(counts, args, kwargs, result):
    counts["decomposition.group_decomposition.points"] += result.n_points


def _nn_rows(counts, args, kwargs, result):
    counts["noise_bounds.nn_rows_used"] += result.auxiliary["n_used"]


def _curve_cells(counts, args, kwargs, result):
    counts["curves.cells"] += len(result.cells)
    counts["curves.none_cells"] += sum(c.cost is None for c in result.cells)


def _bootstrap_reps(counts, args, kwargs, result):
    counts["stats.bootstrap.reps"] += kwargs["reps"] if "reps" in kwargs else args[3]


# (module, attribute, span, counter).  A dotted attribute patches a method
# on a class.  Several bindings of one function share its span.
PATCHES = (
    ("cli", "load_dataset", "data.load_dataset", _dataset_rows),
    ("data", "load_dataset", "data.load_dataset", _dataset_rows),
    ("data", "Dataset.take", "data.take", None),
    ("data", "split", "data.resample", None),
    ("data", "subsample", "data.resample", None),
    ("data", "bootstrap_resample", "data.resample", None),
    ("cli", "split", "data.resample", None),
    ("curves", "split", "data.resample", None),
    ("curves", "subsample", "data.resample", None),
    ("decomposition", "bootstrap_resample", "data.resample", None),
    ("kernels", "best_split_gini", "kernels.best_split_gini", _gini_cells),
    ("kernels", "best_split_var", "kernels.best_split_var", _var_cells),
    ("kernels", "knn_scores", "kernels.knn_scores", _knn_pairs),
    ("kernels", "knn_loo_fold_errors", "kernels.knn_loo_fold_errors", _loo_pairs),
    ("learners", "train", "learners.train", _tree_nodes),
    ("cli", "train", "learners.train", _tree_nodes),
    ("curves", "train", "learners.train", _tree_nodes),
    ("decomposition", "train", "learners.train", _tree_nodes),
    ("learners", "TrainedModel.predict_scores", "learners.predict_scores", _predict_rows),
    ("decomposition", "ensemble_train", "decomposition.ensemble_train", None),
    ("decomposition", "group_decomposition", "decomposition.group_decomposition",
     _decomposition_points),
    ("noise_bounds", "nn_bounds", "noise_bounds.nn_bounds", _nn_rows),
    ("noise_bounds", "mahalanobis_upper", "noise_bounds.parametric", None),
    ("noise_bounds", "bhattacharyya_bounds", "noise_bounds.parametric", None),
    ("curves", "run_curve_experiment", "curves.run_curve_experiment", _curve_cells),
    ("curves", "fit_curve_experiment", "curves.fit", None),
    ("stats", "bootstrap_gamma_ci", "stats.bootstrap_gamma_ci", _bootstrap_reps),
    ("stats", "gamma_z_test", "stats.tests", None),
    ("stats", "anova_f", "stats.tests", None),
    ("stats", "pairwise_welch_holm", "stats.tests", None),
    ("costs", "per_sample_losses", "costs.per_sample_losses", None),
    ("curves", "per_sample_losses", "costs.per_sample_losses", None),
    ("stats", "per_sample_losses", "costs.per_sample_losses", None),
    ("subgroups", "per_sample_losses", "costs.per_sample_losses", None),
    ("subgroups", "threshold_clusterings", "subgroups", None),
    ("subgroups", "rank_clusters", "subgroups", None),
    ("subgroups", "load_membership", "subgroups", None),
    ("report", "emit_report", "report.emit_report", None),
    ("cli", "emit_report", "report.emit_report", None),
    ("cli", "run_cli", "cli.run_cli", None),
)

# Bindings each workload must reach; zero calls on one fails the traced run.
EXPECTED_SITES = {
    "onehot_trees": (
        "cli.load_dataset", "data.Dataset.take", "cli.split", "curves.split",
        "curves.subsample", "decomposition.bootstrap_resample",
        "kernels.best_split_gini", "kernels.knn_scores", "cli.train",
        "curves.train", "decomposition.train",
        "learners.TrainedModel.predict_scores", "decomposition.ensemble_train",
        "decomposition.group_decomposition", "curves.run_curve_experiment",
        "curves.fit_curve_experiment", "stats.bootstrap_gamma_ci",
        "stats.gamma_z_test", "costs.per_sample_losses",
        "curves.per_sample_losses", "stats.per_sample_losses",
        "subgroups.per_sample_losses", "subgroups.threshold_clusterings",
        "subgroups.rank_clusters", "cli.emit_report", "cli.run_cli",
    ),
    "adult_like": (
        "cli.load_dataset", "data.Dataset.take", "cli.split",
        "kernels.knn_loo_fold_errors", "cli.train",
        "learners.TrainedModel.predict_scores", "noise_bounds.nn_bounds",
        "noise_bounds.mahalanobis_upper", "noise_bounds.bhattacharyya_bounds",
        "stats.bootstrap_gamma_ci", "stats.gamma_z_test",
        "costs.per_sample_losses", "stats.per_sample_losses",
        "subgroups.per_sample_losses", "subgroups.threshold_clusterings",
        "subgroups.rank_clusters", "cli.emit_report", "cli.run_cli",
    ),
    "oracle_decompose": (
        "kernels.best_split_gini", "kernels.best_split_var",
        "decomposition.train", "learners.TrainedModel.predict_scores",
        "decomposition.ensemble_train", "decomposition.group_decomposition",
        "cli.emit_report", "cli.run_cli",
    ),
}


class Tracer:
    """Span stack with self time, call counts and work counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.site_calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._patches = []

    def install(self, modules: dict) -> "Tracer":
        """Patch every binding in PATCHES; ``modules`` maps short names
        to the imported ``fairaudit`` modules."""
        for module_name, attr, span, counter in PATCHES:
            owner = modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if name not in vars(owner):
                # The binding no longer exists at this commit.
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(original, span, counter,
                                            f"{module_name}.{attr}"))
            self._patches.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, original, span, counter, site):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[span] += elapsed - stack.pop()
                self.calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, original)

    def missing_calls(self, workload: str) -> list:
        """Expected bindings that exist but recorded zero calls."""
        return [
            site for site in EXPECTED_SITES[workload]
            if site not in self.absent and self.site_calls[site] == 0
        ]

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced pass, keyed by metric name."""
        s, c, n = self.self_s, self.calls, self.counts
        gini_calls = c["kernels.best_split_gini"]
        cells = n["curves.cells"]
        return {
            "data.load_dataset.calls": c["data.load_dataset"],
            "data.load_dataset.self_s": s["data.load_dataset"],
            "data.load_dataset.rows": n["data.load_dataset.rows"],
            "data.take.calls": c["data.take"],
            "data.take.self_s": s["data.take"],
            "data.resample.self_s": s["data.resample"],
            "kernels.best_split_gini.calls": gini_calls,
            "kernels.best_split_gini.self_s": s["kernels.best_split_gini"],
            "kernels.best_split_gini.cells": n["kernels.best_split_gini.cells"],
            "kernels.best_split_gini.no_split_ratio": (
                n["kernels.best_split_gini.no_split"] / gini_calls
                if gini_calls else 0.0
            ),
            "kernels.best_split_var.calls": c["kernels.best_split_var"],
            "kernels.best_split_var.self_s": s["kernels.best_split_var"],
            "kernels.best_split_var.cells": n["kernels.best_split_var.cells"],
            "kernels.knn_scores.calls": c["kernels.knn_scores"],
            "kernels.knn_scores.self_s": s["kernels.knn_scores"],
            "kernels.knn_scores.pairs": n["kernels.knn_scores.pairs"],
            "kernels.knn_loo_fold_errors.calls": c["kernels.knn_loo_fold_errors"],
            "kernels.knn_loo_fold_errors.self_s": s["kernels.knn_loo_fold_errors"],
            "kernels.knn_loo_fold_errors.pairs": n["kernels.knn_loo_fold_errors.pairs"],
            "learners.train.calls": c["learners.train"],
            "learners.train.self_s": s["learners.train"],
            "learners.tree_nodes": n["learners.tree_nodes"],
            "learners.predict_scores.calls": c["learners.predict_scores"],
            "learners.predict_scores.self_s": s["learners.predict_scores"],
            "learners.predict_scores.rows": n["learners.predict_scores.rows"],
            "decomposition.ensemble_train.self_s": s["decomposition.ensemble_train"],
            "decomposition.group_decomposition.calls": c["decomposition.group_decomposition"],
            "decomposition.group_decomposition.self_s": s["decomposition.group_decomposition"],
            "decomposition.group_decomposition.points": n["decomposition.group_decomposition.points"],
            "noise_bounds.nn_bounds.self_s": s["noise_bounds.nn_bounds"],
            "noise_bounds.nn_rows_used": n["noise_bounds.nn_rows_used"],
            "noise_bounds.parametric.self_s": s["noise_bounds.parametric"],
            "curves.run_curve_experiment.self_s": s["curves.run_curve_experiment"],
            "curves.fit.self_s": s["curves.fit"],
            "curves.none_cell_ratio": n["curves.none_cells"] / cells if cells else 0.0,
            "stats.bootstrap_gamma_ci.self_s": s["stats.bootstrap_gamma_ci"],
            "stats.bootstrap.reps": n["stats.bootstrap.reps"],
            "stats.tests.self_s": s["stats.tests"],
            "costs.per_sample_losses.calls": c["costs.per_sample_losses"],
            "costs.per_sample_losses.self_s": s["costs.per_sample_losses"],
            "subgroups.self_s": s["subgroups"],
            "report.emit_report.self_s": s["report.emit_report"],
            "cli.run_cli.self_s": s["cli.run_cli"],
        }
