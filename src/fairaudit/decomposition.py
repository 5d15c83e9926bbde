"""Bias-variance-noise decomposition of group costs and of the
discrimination level.

The expectation over training sets is taken uniformly over the T trained
ensemble members, which makes every decomposition an exact finite
identity: for each evaluation point,

    E_{models,Y}[loss] = c_n * N + B + c_v * V

holds to machine precision, and group costs satisfy
gamma_a = N_a + B_a + V_a where the noise and variance terms carry their
sign factors c_n and c_v.

The terms are computed as arrays over a group's points: one batched
outcome-model query per group gives y* and the noise, and the ensemble
columns of those points (an (m, T) slice of the prediction matrix) give
y_main, c_n, c_v, the bias and the variance.  ``point_decomposition`` is
the one-point case of the same function.

When the conditional outcome distribution is unknown, y* is unavailable:
only the (unsigned) variance is reported exactly, together with a
combined bias+noise residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .costs import apply_threshold, cost_gap, empty_group_error
from .data import Dataset, Task, bootstrap_resample, derive_seed
from .errors import AnalysisError, DataError
from .learners import LearnerSpec, train
from .stats import TestResult, two_sample_z
from .synth import ConditionalOutcomeModel


class Loss(enum.Enum):
    ZERO_ONE = "zero_one"
    SQUARED = "squared"


@dataclass(frozen=True)
class EnsemblePredictions:
    """T x n prediction matrix over a fixed evaluation set.

    Hard labels for zero-one analyses, reals for squared loss.
    """

    predictions: np.ndarray
    spec: LearnerSpec
    n_train: int
    source: str  # "fresh_draws" or "bootstrap"
    seed: int

    def __post_init__(self):
        preds = np.ascontiguousarray(self.predictions, dtype=np.float64)
        object.__setattr__(self, "predictions", preds)
        if preds.ndim != 2 or preds.shape[0] < 2:
            raise DataError("ensemble needs a T x n matrix with T >= 2")

    @property
    def n_models(self) -> int:
        return self.predictions.shape[0]

    @property
    def n_points(self) -> int:
        return self.predictions.shape[1]


@dataclass(frozen=True)
class PointDecomposition:
    """Terms at one evaluation point.  ``_terms`` fills the same fields
    with (m,) arrays, one entry per point, so ``expected_loss`` is also
    the per-point expected loss of a whole group."""

    y_star: float
    y_main: float
    noise: float
    bias: float
    variance: float
    c_n: float
    c_v: float

    @property
    def expected_loss(self) -> float:
        return self.c_n * self.noise + self.bias + self.c_v * self.variance


@dataclass(frozen=True)
class GroupDecomposition:
    """Per-group decomposition terms.

    In known-outcome mode, ``noise``, ``bias``, ``variance`` are the
    signed aggregates and sum to ``cost`` exactly.  In
    unknown mode only ``variance_raw`` and the ``bias_noise_residual``
    are populated.
    """

    group: int
    cost: float
    mode: str  # "known" or "unknown"
    noise: float | None = None
    bias: float | None = None
    variance: float | None = None
    variance_raw: float = 0.0
    bias_noise_residual: float | None = None
    n_points: int = 0


def ensemble_train(
    spec: LearnerSpec,
    source,
    t_models: int,
    n_train: int,
    eval_set: Dataset,
    seed: int,
    threshold: float = 0.5,
) -> EnsemblePredictions:
    """Train T models on resampled training sets; record eval predictions.

    ``source`` is either a Dataset (trials are bootstrap resamples of size
    n_train) or a callable ``sampler(n, seed) -> Dataset`` drawing fresh
    training sets.  Per-trial seeds derive from (seed, trial), so results
    do not depend on execution order.
    """
    if t_models < 2:
        raise AnalysisError("ensemble needs T >= 2 models")
    predictions = np.empty((t_models, eval_set.n))
    fresh = callable(source)
    for t in range(t_models):
        trial_seed = derive_seed(seed, "ensemble", t)
        if fresh:
            train_set = source(n_train, trial_seed)
        else:
            train_set = bootstrap_resample(source, n_train, trial_seed)
        model = train(replace(spec, seed=trial_seed), train_set)
        scores = model.predict_scores(eval_set.features)
        if eval_set.task is Task.BINARY:
            scores = apply_threshold(scores, threshold)
        predictions[t] = scores
    return EnsemblePredictions(
        predictions=predictions,
        spec=spec,
        n_train=n_train,
        source="fresh_draws" if fresh else "bootstrap",
        seed=seed,
    )


def _losses(preds: np.ndarray, target, loss: Loss, out=None) -> np.ndarray:
    """Each prediction's loss against ``target`` (broadcast): a mismatch
    flag for zero-one, the squared error otherwise, written into ``out``
    when given.  A mean over it is the mean loss either way."""
    if loss is Loss.ZERO_ONE:
        return preds != target
    diff = np.subtract(preds, target, out=out)
    return np.square(diff, out=diff)


def _vote(p: np.ndarray) -> np.ndarray:
    """The majority label of each vote share or probability ``p``, ties
    toward label 0."""
    return (p > 0.5).astype(np.float64)


def _terms(
    e: EnsemblePredictions,
    eval_set: Dataset,
    om: ConditionalOutcomeModel,
    loss: Loss,
    rows: np.ndarray,
    a: int,
) -> PointDecomposition:
    """Exact terms of the points ``rows`` (all in group ``a``) as arrays.

    Zero-one: y* and y_main are majority labels with ties toward 0, and
    every term is a vote count over T.  Squared: y* is E[Y|x,a] and the
    noise is Var[Y|x,a].  Each point's arithmetic runs in the order a
    computation on its own column alone would use, so these entries equal
    the point's ``point_decomposition`` terms bit for bit.
    """
    X = eval_set.features[rows]
    # (m, T) copy, one contiguous row per point: a row mean sums in the
    # same pairwise order as the mean of that point's ensemble column.
    cols = e.predictions.T[rows]
    y_main = cols.mean(axis=1)
    y_main = _vote(y_main) if loss is Loss.ZERO_ONE else y_main
    # cols is this call's own copy: squared losses overwrite it rather than
    # take a second (m, T) array.
    variance = _losses(cols, y_main[:, None], loss, out=cols).mean(axis=1)
    if loss is Loss.ZERO_ONE:
        p1 = om.prob(X, a)
        y_star = _vote(p1)
        agree = y_main == y_star
        return PointDecomposition(
            y_star=y_star,
            y_main=y_main,
            noise=np.minimum(p1, 1.0 - p1),
            bias=(~agree).astype(np.float64),
            variance=variance,
            c_n=2.0 * np.mean(cols == y_star[:, None], axis=1) - 1.0,
            c_v=np.where(agree, 1.0, -1.0),
        )
    y_star = om.mean(X, a)
    # Python's float ** (libm pow): numpy's **2 computes x*x, which differs
    # from pow in the last bit on some inputs and would move report digits.
    bias = np.array([d**2 for d in (y_main - y_star).tolist()])
    ones = np.ones(rows.size)
    return PointDecomposition(
        y_star=y_star,
        y_main=y_main,
        noise=om.var(X, a),
        bias=bias,
        variance=variance,
        c_n=ones,
        c_v=ones,
    )


def point_decomposition(
    e: EnsemblePredictions,
    i: int,
    eval_set: Dataset,
    om: ConditionalOutcomeModel,
    loss: Loss,
) -> PointDecomposition:
    """Exact pointwise decomposition; requires a known outcome model."""
    if om is None:
        raise AnalysisError(
            "pointwise decomposition needs a known outcome model; "
            "use group_decomposition in unknown mode instead"
        )
    if not 0 <= i < e.n_points:
        raise DataError(f"point index {i} out of range")
    t = _terms(e, eval_set, om, loss, np.array([i]), int(eval_set.group[i]))
    return PointDecomposition(
        **{name: float(v[0]) for name, v in vars(t).items()}
    )


def _unknown_mode(
    preds: np.ndarray, y, loss: Loss, a: int
) -> GroupDecomposition:
    """Observed-label decomposition of the (T, m) predictions ``preds``
    against labels ``y``: the exact cost and the unsigned variance, with
    bias and noise merged into one residual."""
    y_main = preds.mean(axis=0)
    y_main = _vote(y_main) if loss is Loss.ZERO_ONE else y_main
    cost = float(_losses(preds, y, loss).mean())
    variance_raw = float(_losses(preds, y_main, loss).mean())
    return GroupDecomposition(
        group=a,
        cost=cost,
        mode="unknown",
        variance_raw=variance_raw,
        bias_noise_residual=cost - variance_raw,
        n_points=preds.shape[1],
    )


def _group_rows(e: EnsemblePredictions, eval_set: Dataset, a: int) -> np.ndarray:
    if e.n_points != eval_set.n:
        raise DataError("ensemble not aligned with evaluation set")
    rows = eval_set.group_indices(a)
    if rows.size == 0:
        raise empty_group_error(a)
    return rows


def group_decomposition(
    e: EnsemblePredictions,
    eval_set: Dataset,
    om: ConditionalOutcomeModel | None,
    loss: Loss,
    a: int,
) -> GroupDecomposition:
    """Group-weighted decomposition; ``om=None`` selects unknown mode."""
    rows = _group_rows(e, eval_set, a)
    if om is None:
        return _unknown_mode(
            e.predictions[:, rows], eval_set.outcome[rows], loss, a
        )
    t = _terms(e, eval_set, om, loss, rows, a)
    return GroupDecomposition(
        group=a,
        cost=float(np.mean(t.expected_loss)),
        mode="known",
        noise=float(np.mean(t.c_n * t.noise)),
        bias=float(np.mean(t.bias)),
        variance=float(np.mean(t.c_v * t.variance)),
        variance_raw=float(np.mean(t.variance)),
        n_points=rows.size,
    )


def class_conditional_decomposition(
    e: EnsemblePredictions,
    eval_set: Dataset,
    om: ConditionalOutcomeModel | None,
    a: int,
    y: int,
) -> GroupDecomposition:
    """Decomposition of the class-conditional zero-one cost (FNR for y=1,
    FPR for y=0).

    Known mode weights group-a points by p(y|x,a); unknown mode conditions
    on the observed labels and reports the bias+noise residual.
    """
    if y not in (0, 1):
        raise AnalysisError("conditioning class must be 0 or 1")
    rows = _group_rows(e, eval_set, a)

    if om is None:
        sub = rows[eval_set.outcome[rows] == float(y)]
        if sub.size == 0:
            raise AnalysisError(
                f"group {a} has no observed Y={y} rows"
            )
        return _unknown_mode(e.predictions[:, sub], float(y), Loss.ZERO_ONE, a)

    weights = om.prob(eval_set.features[rows], a)
    if y == 0:
        weights = 1.0 - weights
    total = weights.sum()
    if total <= 0.0:
        raise AnalysisError(f"group {a} has zero mass on class {y}")
    weights = weights / total

    t = _terms(e, eval_set, om, Loss.ZERO_ONE, rows, a)
    # With the class fixed, the noise loss of y* is 1[y* != y].
    noise = float(weights @ (t.c_n * (t.y_star != float(y))))
    variance = float(weights @ (t.c_v * t.variance))
    point_costs = _losses(
        e.predictions[:, rows], float(y), Loss.ZERO_ONE
    ).mean(axis=0)
    return GroupDecomposition(
        group=a,
        cost=float(weights @ point_costs),
        mode="known",
        noise=noise,
        bias=float(weights @ t.bias),
        variance=variance,
        variance_raw=variance,
        n_points=rows.size,
    )


def gamma_bar(
    decomps: dict[int, GroupDecomposition]
) -> float:
    """Discrimination level from per-group decompositions (max-min gap)."""
    costs = [dec.cost for dec in decomps.values()]
    if len(costs) < 2:
        raise AnalysisError("need at least 2 groups")
    return cost_gap(costs)


def compare_models_bias_variance(
    e1: EnsemblePredictions,
    e2: EnsemblePredictions,
    eval_set: Dataset,
    loss: Loss,
    level: float = 0.05,
    groups: tuple[int, int] = (0, 1),
) -> TestResult:
    """Test H0: the bias+variance gap terms of two models agree.

    Noise cancels between models, so the statistic reduces to the
    difference of the observed cost gaps; the variance uses per-point
    paired contributions since both ensembles share the evaluation set.
    """
    if e1.n_points != eval_set.n or e2.n_points != eval_set.n:
        raise DataError("ensembles not aligned with evaluation set")
    y = eval_set.outcome
    u = (_losses(e1.predictions, y, loss).mean(axis=0)
         - _losses(e2.predictions, y, loss).mean(axis=0))
    rows0, rows1 = (_group_rows(e1, eval_set, g) for g in groups)
    stat, _, _, p = two_sample_z(u[rows0], u[rows1])
    return TestResult(
        name=f"compare_models_bias_variance[{loss.value}]",
        statistic=stat,
        p_value=p,
        level=level,
        reject=p < level,
        detail={"groups": groups, "counts": (rows0.size, rows1.size)},
    )


def homoskedastic_noise_gap(
    om: ConditionalOutcomeModel, eval_set: Dataset, groups: tuple[int, int] = (0, 1)
) -> float:
    """N_0 - N_1 under squared loss, computed from the outcome model over
    the evaluation measure.

    Only valid for regression: under squared loss c_n = 1 so the group
    noise is the plain average of conditional variances.  For zero-one
    costs the c_n factor depends on the model and the gap is not a pure
    property of the outcome distribution.
    """
    if om is None or om.task is not Task.REGRESSION:
        raise AnalysisError(
            "noise-gap shortcut applies only to regression with a known "
            "outcome model (zero-one noise terms carry model-dependent c_n)"
        )
    means = []
    for a in groups:
        rows = eval_set.group_indices(a)
        if rows.size == 0:
            raise AnalysisError(f"group {a} is empty")
        values = om.var(eval_set.features[rows], a)
        # mean of a constant sample is that constant; bypass summation
        # rounding so the homoskedastic case gives an exact zero gap
        if np.ptp(values) == 0.0:
            means.append(float(values[0]))
        else:
            means.append(float(values.mean()))
    return means[0] - means[1]
