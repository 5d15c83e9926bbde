"""Bias-variance-noise decomposition of group costs and of the
discrimination level.

The expectation over training sets is taken uniformly over the T trained
ensemble members, which makes every decomposition an exact finite
identity: for each evaluation point,

    E_{models,Y}[loss] = c_n * N + B + c_v * V

holds to machine precision, and group costs satisfy
gamma_a = N_a + B_a + V_a where the noise and variance terms carry their
sign factors c_n and c_v.

An ensemble keeps its predictions per cell: a (T, C) table and each
evaluation row's column in it (``EnsemblePredictions``).  Rows of a tree
ensemble that share a cell of its split grid share a column; other kinds
give every row its own.  The terms are computed as arrays over a group's
points: one batched outcome-model query per group gives y* and the noise.
Under zero-one loss every other term follows from each point's vote
count, how many of the T models predict 1 (Domingos, "A Unified
Bias-Variance Decomposition and its Applications", ICML 2000): one
column sum of the table, gathered to the rows.  Under squared loss the
main prediction and the variance are means over the table columns of the
group's cells, gathered likewise.  ``point_decomposition`` is the
one-point case of the same function.

When the conditional outcome distribution is unknown, y* is unavailable:
only the (unsigned) variance is reported exactly, together with a
combined bias+noise residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import data, kernels, learners
from .costs import apply_threshold, cost_gap, empty_group_error
from .data import Dataset, Task, bootstrap_indices, derive_seed
from .errors import AnalysisError, DataError
from .learners import TREE_KINDS, LearnerSpec, threshold_cells
from .stats import TestResult, two_sample_z
from .synth import ConditionalOutcomeModel


class Loss(enum.Enum):
    ZERO_ONE = "zero_one"
    SQUARED = "squared"


@dataclass(frozen=True)
class EnsemblePredictions:
    """Predictions of T models over a fixed evaluation set, kept per cell.

    ``table`` is (T, C): column c holds each model's prediction for the
    evaluation rows of cell c, and ``cells`` (n,) gives each row's column.
    A tree ensemble's cells are those of its split grid
    (``learners.threshold_cells``); other kinds give each row its own
    column, the default ``cells = arange(C)``.  Hard labels for zero-one
    analyses, reals for squared loss.
    """

    table: np.ndarray
    cells: np.ndarray | None = None

    def __post_init__(self):
        table = np.ascontiguousarray(self.table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] < 2:
            raise DataError("ensemble needs a T x C table with T >= 2")
        cells = np.asarray(
            np.arange(table.shape[1]) if self.cells is None else self.cells)
        if cells.ndim != 1 or cells.dtype.kind not in "iu" or (
            cells.size
            and not 0 <= cells.min() <= cells.max() < table.shape[1]
        ):
            raise DataError("ensemble cells must index the table's columns")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "cells", cells)

    @property
    def predictions(self) -> np.ndarray:
        """The (T, n) matrix of every row's predictions, built on each call
        and read-only: the ensemble holds the table, not this matrix."""
        preds = self.table[:, self.cells]
        preds.flags.writeable = False
        return preds

    @property
    def n_models(self) -> int:
        return self.table.shape[0]

    @property
    def n_points(self) -> int:
        return self.cells.size


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

    Tree kinds train all T models at once (``learners.train_tree_models``):
    the rows they draw are binned once, the source's rows that the
    bootstrap indices point into or the fresh draws stacked, and their
    trees grow together, in groups of whole models.  Each model is then
    scored only on one row per cell of the ensemble's split grid
    (``learners.threshold_cells``).  A cell holds the rows that fall on the
    same side of every split threshold of every tree, so they reach the
    same leaves: one row's score is each of its rows' score bit for bit,
    and it fills the cell's column of the table.  Other kinds score every
    evaluation row, one column each, as each model is trained, so only one
    model (a k-NN model holds its training set) is alive at a time.
    """
    if t_models < 2:
        raise AnalysisError("ensemble needs T >= 2 models")
    fresh = callable(source)
    seeds = [derive_seed(seed, "ensemble", t) for t in range(t_models)]

    def recorded(scores):
        if eval_set.task is Task.BINARY:
            return apply_threshold(scores, threshold)
        return scores

    if spec.kind in TREE_KINDS:
        if fresh:
            draws = [source(n_train, s) for s in seeds]
            ends = np.cumsum([d.n for d in draws]).tolist()
            samples = [np.arange(lo, hi) for lo, hi in zip([0] + ends, ends)]
            X = np.concatenate([d.features for d in draws])
            y = np.concatenate([d.outcome for d in draws])
            task = draws[0].task
        else:
            samples = [bootstrap_indices(source.n, n_train, s) for s in seeds]
            X, y, task = source.features, source.outcome, source.task
        models, forests = learners.train_tree_models(
            spec, seeds, X, y, task, samples)
        cells, rows = threshold_cells(eval_set.features, forests)
        # The trees read whole columns: a column-major copy of the rows.
        features = np.asfortranarray(eval_set.features[rows])
        table = np.empty((t_models, rows.size))
        for t, model in enumerate(models):
            table[t] = recorded(model.predict_scores(features))
    else:
        cells = None
        table = np.empty((t_models, eval_set.n))
        for t, s in enumerate(seeds):
            train_set = (source(n_train, s) if fresh
                         else data.bootstrap_resample(source, n_train, s))
            model = learners.train(replace(spec, seed=s), train_set)
            table[t] = recorded(model.predict_scores(eval_set.features))
    return EnsemblePredictions(table=table, cells=cells)


def _squared_errors(preds: np.ndarray, target, out=None) -> np.ndarray:
    """Each prediction's squared error against ``target`` (broadcast),
    written into ``out`` when given."""
    diff = np.subtract(preds, target, out=out)
    return np.square(diff, out=diff)


def _vote(p: np.ndarray) -> np.ndarray:
    """The majority label of each vote share or probability ``p``, ties
    toward label 0."""
    return (p > 0.5).astype(np.float64)


def _check_zero_one(values, what: str) -> None:
    values = np.asarray(values)
    if (np.count_nonzero(values == 1.0) + np.count_nonzero(values == 0.0)
            != values.size):
        raise AnalysisError(f"zero-one loss needs 0/1 {what}")


def _vote_counts(e: EnsemblePredictions, rows=slice(None)) -> np.ndarray:
    """How many of the T models vote 1 at each of the points ``rows``: one
    column sum of ``e``'s 0/1 table, gathered to the rows.  A count is an
    exact integer in float64, so a mismatch count derived from it over T
    equals the mean of that point's mismatch flags bit for bit."""
    _check_zero_one(e.table, "predictions")
    return e.table.sum(axis=0)[e.cells[rows]]


def _misses(votes: np.ndarray, label, t: int) -> np.ndarray:
    """How many of the T votes differ from each point's 0/1 ``label``."""
    return np.where(label == 1.0, t - votes, votes)


def _zero_one_terms(votes: np.ndarray, t: int, p1: np.ndarray):
    """Zero-one terms of points with ``votes`` out of ``t`` and
    P(Y=1|x) ``p1``: y* and y_main are majority labels with ties toward 0."""
    y_main = _vote(votes / t)
    y_star = _vote(p1)
    agree = y_main == y_star
    return PointDecomposition(
        y_star=y_star,
        y_main=y_main,
        noise=np.minimum(p1, 1.0 - p1),
        bias=(~agree).astype(np.float64),
        variance=_misses(votes, y_main, t) / t,
        c_n=2.0 * ((t - _misses(votes, y_star, t)) / t) - 1.0,
        c_v=np.where(agree, 1.0, -1.0),
    )


def _terms(
    e: EnsemblePredictions,
    eval_set: Dataset,
    om: ConditionalOutcomeModel,
    loss: Loss,
    rows: np.ndarray,
    a: int,
) -> PointDecomposition:
    """Exact terms of the points ``rows`` (all in group ``a``) as arrays.

    Zero-one: every term but the noise is a vote count over T.  Squared:
    y* is E[Y|x,a] and the noise is Var[Y|x,a]; y_main and the variance
    are taken once per cell and gathered to the rows.  Each point's
    arithmetic runs in the order a computation on its own column alone
    would use, so these entries equal the point's ``point_decomposition``
    terms bit for bit.
    """
    X = eval_set.features[rows]
    if loss is Loss.ZERO_ONE:
        votes = _vote_counts(e, rows)
        return _zero_one_terms(votes, e.n_models, om.prob(X, a))
    index, used = kernels.renumber_dense(e.cells[rows], e.table.shape[1])
    # One contiguous row per cell: a row mean sums in the same pairwise
    # order as the mean of a point's ensemble column.
    cols = e.table.T[used]
    y_main = cols.mean(axis=1)
    # cols is this call's own copy: the squared errors overwrite it rather
    # than take a second array.
    variance = _squared_errors(cols, y_main[:, None], out=cols).mean(axis=1)
    y_main, variance = y_main[index], variance[index]
    y_star = om.mean(X, a)
    # libm pow, as Python's float ** calls it: numpy's **2 computes x*x,
    # which differs from pow in the last bit on some inputs and would move
    # report digits.
    bias = np.fromiter(
        map(math.pow, (y_main - y_star).tolist(), repeat(2.0)),
        np.float64, rows.size,
    )
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
    e: EnsemblePredictions, rows: np.ndarray, y, loss: Loss, a: int
) -> GroupDecomposition:
    """Observed-label decomposition of the predictions at ``rows`` against
    labels ``y``: the exact cost and the unsigned variance, with bias and
    noise merged into one residual."""
    t, m = e.n_models, rows.size
    if loss is Loss.ZERO_ONE:
        _check_zero_one(y, "labels")
        votes = _vote_counts(e, rows)
        # Mismatch totals are exact integers, as in a mean of (T, m) flags.
        cost = float(_misses(votes, y, t).sum()) / (t * m)
        variance_raw = float(
            _misses(votes, _vote(votes / t), t).sum()) / (t * m)
    else:
        # The (T, m) matrix itself: these means sum over all of it.
        preds = e.table[:, e.cells[rows]]
        cost = float(_squared_errors(preds, y).mean())
        variance_raw = float(
            _squared_errors(preds, preds.mean(axis=0), out=preds).mean())
    return GroupDecomposition(
        group=a,
        cost=cost,
        mode="unknown",
        variance_raw=variance_raw,
        bias_noise_residual=cost - variance_raw,
        n_points=m,
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
        return _unknown_mode(e, rows, eval_set.outcome[rows], loss, a)
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
        return _unknown_mode(e, sub, float(y), Loss.ZERO_ONE, a)

    p1 = om.prob(eval_set.features[rows], a)
    weights = p1 if y == 1 else 1.0 - p1
    total = weights.sum()
    if total <= 0.0:
        raise AnalysisError(f"group {a} has zero mass on class {y}")
    weights = weights / total

    votes = _vote_counts(e, rows)
    t = _zero_one_terms(votes, e.n_models, p1)
    # With the class fixed, the noise loss of y* is 1[y* != y].
    noise = float(weights @ (t.c_n * (t.y_star != float(y))))
    variance = float(weights @ (t.c_v * t.variance))
    point_costs = _misses(votes, float(y), e.n_models) / e.n_models
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


def _point_losses(e: EnsemblePredictions, y, loss: Loss) -> np.ndarray:
    """Each point's loss against ``y``, averaged over the T models."""
    if loss is Loss.ZERO_ONE:
        t = e.n_models
        return _misses(_vote_counts(e), y, t) / t
    # Column means of the (T, n) matrix itself, in its summation order.
    preds = e.table[:, e.cells]
    return _squared_errors(preds, y, out=preds).mean(axis=0)


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
    if loss is Loss.ZERO_ONE:
        _check_zero_one(y, "labels")
    u = _point_losses(e1, y, loss) - _point_losses(e2, y, loss)
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
