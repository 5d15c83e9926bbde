"""Group-wise Bayes-error bounds: a Mahalanobis upper bound and a
nearest-neighbor (Cover-Hart) bracket.

All bounds are computed within one protected group, with the binary
outcome playing the role of the class label, on the group's features
z-scored on its own rows.  The Mahalanobis bound assumes nothing about
the class distributions (Devijver & Kittler 1982); its pooled covariance
is ridge-regularized, which one-hot-expanded, rank-deficient feature
matrices need.  Both ends of the nearest-neighbor bracket hold only as
the group's row count grows: at finite size the cross-validated k-NN
error can fall below the Bayes error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import Dataset, Task
from .errors import AnalysisError


class BoundMethod(enum.Enum):
    MAHALANOBIS = "mahalanobis"
    NEAREST_NEIGHBOR = "nearest_neighbor"


@dataclass(frozen=True)
class NoiseBoundEstimate:
    method: BoundMethod
    group: int
    e_low: float | None
    e_up: float
    priors: tuple[float, float]
    auxiliary: dict

    def __post_init__(self):
        if self.e_low is not None and not (
            0.0 <= self.e_low <= self.e_up + 1e-12
        ):
            raise AnalysisError(
                f"need 0 <= e_low <= e_up; got e_low={self.e_low}, "
                f"e_up={self.e_up}"
            )


def _group_class_stats(d: Dataset, a: int):
    if d.task is not Task.BINARY:
        raise AnalysisError("noise bounds require a binary task")
    rows = d.group_indices(a)
    if rows.size == 0:
        raise AnalysisError(f"group {a} has no rows")
    X = kernels.zscore(d.features[rows])[0]
    y = d.outcome[rows]
    neg = X[y == 0.0]
    pos = X[y == 1.0]
    if neg.shape[0] < 2 or pos.shape[0] < 2:
        raise AnalysisError(
            f"group {a} needs >= 2 samples of each class for noise bounds"
        )
    m = rows.size
    priors = (neg.shape[0] / m, pos.shape[0] / m)
    return neg, pos, priors


def mahalanobis_upper(d: Dataset, a: int) -> NoiseBoundEstimate:
    """Upper bound 2 p1 p2 / (1 + p1 p2 * Delta) from the Mahalanobis
    distance between class means under the pooled covariance plus
    lam * I, with lam = 1e-3 * trace / k (1e-6 when that is not
    positive).  The bound holds for any class distributions."""
    neg, pos, priors = _group_class_stats(d, a)
    p1, p2 = priors
    n1, n2 = neg.shape[0], pos.shape[0]
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    # atleast_2d: np.cov of one feature is a 0-d array.
    pooled = np.atleast_2d(
        ((n1 - 1) * np.cov(neg, rowvar=False, ddof=1)
         + (n2 - 1) * np.cov(pos, rowvar=False, ddof=1)) / (n1 + n2 - 2)
    )
    k = pooled.shape[0]
    lam = 1e-3 * np.trace(pooled) / k
    if lam <= 0:
        lam = 1e-6
    delta = float(diff @ np.linalg.solve(pooled + lam * np.eye(k), diff))
    if not math.isfinite(delta):
        raise AnalysisError("non-finite Mahalanobis distance")
    e_up = 2.0 * p1 * p2 / (1.0 + p1 * p2 * delta)
    return NoiseBoundEstimate(
        method=BoundMethod.MAHALANOBIS,
        group=a,
        e_low=None,
        e_up=float(e_up),
        priors=priors,
        auxiliary={"delta": delta, "regularization": lam},
    )


def cover_hart_lower(eps: float) -> float:
    """Invert the asymptotic nearest-neighbor error into a Bayes-error
    lower bound: (1 - sqrt(max(0, 1 - 2 eps))) / 2, clamped at 0.5."""
    if eps < 0.0:
        raise AnalysisError("error rate must be >= 0")
    if eps > 0.5:
        return 0.5
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 2.0 * eps)))


def nn_bounds(
    d: Dataset,
    a: int,
    k: int = 5,
    folds: int = 5,
    seed: int = 0,
    max_samples: int | None = None,
) -> NoiseBoundEstimate:
    """Cross-validated k-NN error within group a, with the Cover-Hart
    inversion for the lower bound.

    ``max_samples`` optionally subsamples the group (deterministically)
    to keep the all-pairs distance computation tractable.
    """
    if d.task is not Task.BINARY:
        raise AnalysisError("noise bounds require a binary task")
    rows = d.group_indices(a)
    n_rows = rows.size
    rng = np.random.default_rng(seed)
    if max_samples is not None and rows.size > max_samples:
        rows = rows[np.sort(rng.choice(rows.size, size=max_samples, replace=False))]
    if rows.size < folds:
        raise AnalysisError(
            f"group {a} uses {rows.size} of its {n_rows} rows; needs >= "
            f"{folds} for {folds}-fold cross validation"
        )
    # The largest fold holds ceil(n / folds) rows; its votes draw on the rest.
    trained_on = rows.size - math.ceil(rows.size / folds)
    if k > trained_on:
        raise AnalysisError(
            f"group {a}: k={k} exceeds the {trained_on} rows a fold trains "
            f"on ({rows.size} rows used, {folds} folds)"
        )
    X = kernels.zscore(d.features[rows])[0]
    y = d.outcome[rows]
    fold = rng.permutation(rows.size) % folds
    errors = kernels.knn_loo_fold_errors(
        np.ascontiguousarray(X),
        np.ascontiguousarray(y),
        np.ascontiguousarray(fold, dtype=np.int64),
        k,
    )
    eps = float(errors.mean())
    e_up = min(eps, 0.5)
    neg = int((y == 0.0).sum())
    return NoiseBoundEstimate(
        method=BoundMethod.NEAREST_NEIGHBOR,
        group=a,
        e_low=cover_hart_lower(eps),
        e_up=float(e_up),
        priors=(neg / rows.size, 1.0 - neg / rows.size),
        auxiliary={"cv_error": eps, "k": k, "folds": folds, "n_used": rows.size},
    )


def all_bounds(
    d: Dataset, k: int = 5, folds: int = 5, seed: int = 0,
    max_samples: int | None = None,
) -> list[NoiseBoundEstimate]:
    """Both methods for every group."""
    out = []
    for a in range(d.n_groups):
        out.append(mahalanobis_upper(d, a))
        out.append(
            nn_bounds(d, a, k=k, folds=folds, seed=seed,
                      max_samples=max_samples)
        )
    return out
