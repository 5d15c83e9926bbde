"""Minimal deterministic learners: logistic regression, ridge, k-NN,
depth-limited decision trees, and bagged trees.

Every learner is a pure function of (spec, data): fixed iteration caps,
explicit tie-breaking, and per-tree seeds derived from the spec seed.
Scores are probabilities in [0,1] for classification and reals for
regression.  The protected attribute is never part of the feature
matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .costs import PredictionSet, apply_threshold
from .data import Dataset, Task, derive_seed
from .errors import AnalysisError, DataError


class LearnerKind(enum.Enum):
    LOGISTIC = "logistic"
    RIDGE = "ridge"
    KNN = "knn"
    TREE = "tree"
    BAGGED_TREES = "bagged_trees"


# The LearnerSpec fields each kind reads, besides ``kind`` and ``seed``.
FIELDS_READ = {
    LearnerKind.LOGISTIC: ("lam", "penalty"),
    LearnerKind.RIDGE: ("lam",),
    LearnerKind.KNN: ("k",),
    LearnerKind.TREE: ("max_depth",),
    LearnerKind.BAGGED_TREES: (
        "max_depth", "n_trees", "feature_fraction", "bootstrap"
    ),
}


# Kinds whose models are trees: a row's score depends only on which side of
# each split threshold it falls (see ``threshold_cells``), and the models
# read the features one column at a time, so score fastest column-major.
TREE_KINDS = frozenset({LearnerKind.TREE, LearnerKind.BAGGED_TREES})


@dataclass(frozen=True)
class LearnerSpec:
    kind: LearnerKind
    lam: float = 0.0  # logistic / ridge: penalty weight
    penalty: str = "l2"  # logistic: "l2" or "l1"
    k: int = 5  # knn
    max_depth: int = 4  # tree / bagged trees
    n_trees: int = 20  # bagged trees
    feature_fraction: float = 1.0  # bagged trees
    bootstrap: bool = True  # bagged trees
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise AnalysisError("regularization weight must be finite and >= 0")
        if self.penalty not in ("l1", "l2"):
            raise AnalysisError(f"unknown penalty {self.penalty!r}")
        if self.k < 1 or self.max_depth < 1 or self.n_trees < 1:
            raise AnalysisError("k, max_depth, n_trees must be >= 1")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise AnalysisError("feature_fraction must be in (0, 1]")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) cannot overflow; each branch is the form that stays exact
    # on its side of 0.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class TrainedModel:
    kind: LearnerKind
    task: Task
    n_features: int

    def checked_features(self, features: np.ndarray) -> np.ndarray:
        """``features`` as float64, once it is known to have this model's
        columns."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} feature columns, "
                f"got shape {features.shape}"
            )
        return features

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``features``, in either memory layout;
        the bytes do not depend on it."""
        scores = self._scores(self.checked_features(features))
        # A NaN fails both comparisons.
        if self.task is Task.BINARY and scores.size and not (
            scores.min() >= 0.0 and scores.max() <= 1.0
        ):
            raise AnalysisError("binary scores must lie in [0, 1]")
        return scores

    def _scores(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class LogisticModel(TrainedModel):
    weights: np.ndarray = None
    intercept: float = 0.0

    def _scores(self, features):
        # Row-major: a matrix-vector product's bits depend on the layout.
        features = np.ascontiguousarray(features)
        return _sigmoid(features @ self.weights + self.intercept)


@dataclass(frozen=True)
class RidgeModel(TrainedModel):
    weights: np.ndarray = None
    intercept: float = 0.0

    def _scores(self, features):
        # Row-major: a matrix-vector product's bits depend on the layout.
        features = np.ascontiguousarray(features)
        return features @ self.weights + self.intercept


@dataclass(frozen=True)
class KNNModel(TrainedModel):
    k: int = 5
    train_features: np.ndarray = None  # z-scored
    train_outcome: np.ndarray = None
    mean: np.ndarray = None
    scale: np.ndarray = None

    def _scores(self, features):
        z = (features - self.mean) / self.scale
        return kernels.knn_scores(
            self.train_features, self.train_outcome, z, self.k
        )


@dataclass(frozen=True)
class TreeModel(TrainedModel):
    # Flat array encoding: internal nodes carry (feature, threshold,
    # left, right); leaves have feature == -1 and carry the value.
    node_feature: np.ndarray = None
    node_threshold: np.ndarray = None
    node_left: np.ndarray = None
    node_right: np.ndarray = None
    node_value: np.ndarray = None

    def _scores(self, features, columns=None):
        """Scores of the rows of ``features``, whose column ``columns[f]``
        holds the tree's feature ``f`` (column ``f`` when ``columns`` is
        None).

        Row-index sets are pushed down the tree.  Each node compares its
        feature's column view, whole at the root (which needs no index
        set) and gathered at its rows below.  A node whose children are
        both leaves writes its rows' values in one ``np.where``; a node
        with one leaf child writes the leaf's value to all its rows, and
        the rows of its other child are overwritten further down.  Only
        leaf values are copied into the output, and a row's last write is
        its own leaf's, so the scores are those of a per-row descent bit
        for bit.
        """
        feature = self.node_feature.tolist()
        if columns is not None:
            feature = [-1 if f < 0 else columns[f] for f in feature]
        threshold = self.node_threshold.tolist()
        left = self.node_left.tolist()
        right = self.node_right.tolist()
        value = self.node_value.tolist()
        out = np.empty(features.shape[0])
        if feature[0] < 0:
            out.fill(value[0])
            return out
        stack = [(0, None)]  # None: every row
        while stack:
            node, rows = stack.pop()
            at = slice(None) if rows is None else rows
            col = features[:, feature[node]]
            # Fancy indexing gathers from a strided view in place; take
            # would first copy the whole column.
            go_right = (col if rows is None else col[rows]) >= threshold[node]
            lo, hi = left[node], right[node]
            if feature[lo] < 0 and feature[hi] < 0:
                out[at] = np.where(go_right, value[hi], value[lo])
                continue
            if feature[lo] < 0:
                out[at] = value[lo]
                inner = ((hi, go_right),)
            elif feature[hi] < 0:
                out[at] = value[hi]
                inner = ((lo, ~go_right),)
            else:
                inner = ((hi, go_right), (lo, ~go_right))
            for child, go in inner:
                child_rows = (
                    go.nonzero()[0] if rows is None else rows.compress(go)
                )
                if child_rows.size:
                    stack.append((child, child_rows))
        return out


@dataclass(frozen=True)
class BaggedModel(TrainedModel):
    trees: tuple = ()
    feature_subsets: tuple = ()

    def _scores(self, features):
        # Every tree reads whole columns: one column-major copy serves all.
        features = np.asfortranarray(features)
        acc = np.zeros(features.shape[0])
        for tree, cols in zip(self.trees, self.feature_subsets):
            acc += tree._scores(features, cols.tolist())
        return acc / len(self.trees)


def _splits(model: TrainedModel):
    """(columns, thresholds) of the splits of each tree of a tree model,
    with a bagged tree's columns mapped through its feature subset."""
    if isinstance(model, TreeModel):
        trees, subsets = (model,), (None,)
    elif isinstance(model, BaggedModel):
        trees, subsets = model.trees, model.feature_subsets
    else:
        raise AnalysisError(
            f"{model.kind.value} models have no split thresholds")
    for tree, cols in zip(trees, subsets):
        inner = tree.node_feature >= 0
        feature = tree.node_feature[inner]
        if cols is not None:
            feature = cols[feature]
        yield feature, tree.node_threshold[inner]


# Cell keys stay below 2^62, inside int64: before a column whose radix
# would carry the span of the keys past it, they are renumbered densely.
_KEY_LIMIT = 1 << 62


def _densify(key: np.ndarray, span: int):
    """The keys (each in [0, span)) renumbered 0, 1, ... in key order, and
    the count of distinct keys: through a table over the span when it is
    at most a few times the row count, else by sorting."""
    if 0 < span <= 4 * key.size:
        dense, distinct = kernels.renumber_dense(key, span)
        return dense, distinct.size
    distinct, dense = np.unique(key, return_inverse=True)
    return dense, distinct.size


def threshold_cells(features: np.ndarray, models):
    """The cells of the rows of ``features`` under the split grid of the
    tree models ``models``: (cell of each row, one row of each cell).

    Two rows share a cell when they fall on the same side of every split
    threshold of every tree of every model, so each tree sends them to the
    same leaf and each model gives them the same score bit for bit.  A
    column's rank ``searchsorted(cuts, x, side="right")`` counts its
    distinct thresholds t <= x, so ``x >= t`` holds exactly when the rank
    passes t's index (-0.0 and 0.0 compare equal both ways; NaN fails
    every comparison and takes rank 0, as a value below every cut does).
    A cell numbers one vector of ranks, through a mixed-radix key over the
    split columns.  Raises AnalysisError for a model that is not a tree.
    """
    features = np.asarray(features, dtype=np.float64)
    for model in models:
        model.checked_features(features)
    splits = [split for model in models for split in _splits(model)]
    columns = np.concatenate([c for c, _ in splits] + [np.zeros(0, np.int64)])
    thresholds = np.concatenate([t for _, t in splits] + [np.zeros(0)])
    # The distinct (column, threshold) pairs, by column then threshold;
    # -0.0 and 0.0 sort together and compare equal, so they are one cut.
    # (A bare np.unique would import numpy.ma, about 1 MB and 10 ms.)
    order = np.lexsort((thresholds, columns))
    columns, thresholds = columns[order], thresholds[order]
    distinct = np.ones(columns.size, dtype=bool)
    distinct[1:] = (columns[1:] != columns[:-1]) | (
        thresholds[1:] != thresholds[:-1])
    columns, thresholds = columns[distinct], thresholds[distinct]
    starts = np.flatnonzero(np.diff(columns, prepend=-1)).tolist()
    key = np.zeros(features.shape[0], dtype=np.int64)
    span = 1  # every key is below span
    for lo, hi in zip(starts, starts[1:] + [columns.size]):
        f, cuts = columns[lo], thresholds[lo:hi]
        radix = cuts.size + 1
        if span * radix > _KEY_LIMIT:
            key, span = _densify(key, span)
        x = features[:, f]
        rank = np.searchsorted(cuts, x, side="right")
        rank[np.isnan(x)] = 0
        key *= radix
        key += rank
        span *= radix
    cells, count = _densify(key, span)
    rows = np.empty(count, dtype=np.intp)
    rows[cells] = np.arange(cells.size)  # any row of a cell serves
    return cells, rows


# Newton stops once the decrement, the fall of the objective that a full
# step predicts to first order (g^T H^+ g for l2), is at rounding level
# for a mean log-loss near 1, or once the line search cannot lower it.
_NEWTON_TOL = 1e-14
_MAX_NEWTON_STEPS = 500
# Armijo: a step of length t must lower the objective by at least
# _ARMIJO * t * decrement (Nocedal & Wright, Numerical Optimization, 3.1).
# After 50 halvings t = 2^-50, and the step is lost in rounding.
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
# Rows per block of the Hessian product, so no full-size weighted copy of
# X is held.
_HESSIAN_BLOCK = 1024
# Coordinate descent on the l1 Newton quadratic stops once a sweep moves
# no coordinate j by more than _SWEEP_TOL / sqrt(H_jj).
_SWEEP_TOL = 1e-15
_MAX_SWEEPS = 1000


def _logistic_objective(X, y, w, b, lam, l1):
    """(mean log-loss + lam |w|_1 or lam/2 |w|^2, margins); the intercept
    is not penalized."""
    z = X @ w + b
    loss = np.logaddexp(0.0, z) - y * z
    penalty = lam * float(np.abs(w).sum()) if l1 else 0.5 * lam * float(w @ w)
    return float(loss.mean()) + penalty, z


def _l1_newton_step(X, s, r, hess, grad, w, lam):
    """The step d (intercept last) minimizing the Newton model
    -grad.d + d.H.d/2 + lam |w - d[:-1]|_1 at residuals ``r`` and curvature
    weights ``s``, so grad = (X^T r, sum r) and the intercept row of H is
    ``hess[k]`` = (X^T s, sum s): the intercept's part in closed form, the
    weights' by cyclic coordinate descent with soft-thresholding (glmnet:
    Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010), which does not
    depend on feature scale.

    Solving out the intercept leaves the weights the Newton model of the
    columns centered on their s-weighted means, built here from those
    centered columns: its algebraic equal H_ww - h h^T / h_bb cancels away
    the digits of a column far from 0."""
    k = w.size
    lever = hess[:k, k] / hess[k, k]  # the weighted column means
    quad, lin = np.zeros((k, k)), np.zeros(k)
    for lo in range(0, X.shape[0], _HESSIAN_BLOCK):
        centered = X[lo:lo + _HESSIAN_BLOCK] - lever
        quad += centered.T @ (centered * s[lo:lo + _HESSIAN_BLOCK, None])
        lin += centered.T @ r[lo:lo + _HESSIAN_BLOCK]
    lin = lin.tolist()
    weights, step, qs = w.tolist(), [0.0] * k, np.zeros(k)  # qs = quad @ step
    for _ in range(_MAX_SWEEPS):
        moved = 0.0
        for j, a in enumerate(quad.diagonal().tolist()):
            if a > 0.0:  # 0 for a zero column
                z = weights[j] - step[j] + (qs.item(j) - lin[j]) / a
                new = weights[j] - math.copysign(max(abs(z) - lam / a, 0.0), z)
                if new != step[j]:
                    qs += quad[j] * (new - step[j])
                    moved = max(moved, abs(new - step[j]) * math.sqrt(a))
                    step[j] = new
        if moved <= _SWEEP_TOL:
            break
    step = np.array(step)
    return np.append(step, (grad[k] - hess[k, :k] @ step) / hess[k, k])


def _logistic_newton(spec: LearnerSpec, X, y):
    """Damped Newton (IRLS; Hastie, Tibshirani & Friedman, ESL 4.4.1) on
    the mean log-loss plus the penalty; invariant to feature scale.  For
    l2, lam * I joins the Hessian and the Newton system is solved by least
    squares, as with lam = 0 it is singular whenever a one-hot block sums
    to the intercept column.  For l1 the step minimizes the Newton model
    plus the penalty: proximal Newton (Lee, Sun & Saunders, SIAM J. Optim.
    2014)."""
    n, k = X.shape
    lam, l1 = spec.lam, spec.penalty == "l1"
    ridge = 0.0 if l1 else lam
    w, b = np.zeros(k), 0.0
    f, z = _logistic_objective(X, y, w, b, lam, l1)
    hess = np.empty((k + 1, k + 1))
    for _ in range(_MAX_NEWTON_STEPS):
        p = _sigmoid(z)
        r = (p - y) / n
        grad = np.append(X.T @ r + ridge * w, r.sum())
        s = p * (1.0 - p) / n
        hess[:k, k] = hess[k, :k] = X.T @ s
        hess[k, k] = s.sum()
        if l1:
            step = _l1_newton_step(X, s, r, hess, grad, w, lam)
            # The penalty's fall joins that of the smooth part.
            decrement = float(grad @ step) + lam * float(
                np.abs(w).sum() - np.abs(w - step[:k]).sum())
        else:
            hess[:k, :k] = sum(
                X[lo:lo + _HESSIAN_BLOCK].T
                @ (X[lo:lo + _HESSIAN_BLOCK] * s[lo:lo + _HESSIAN_BLOCK, None])
                for lo in range(0, n, _HESSIAN_BLOCK)
            ) + ridge * np.eye(k)
            # Solved in unit-diagonal form, so the rank cut-off of lstsq
            # does not drop the directions of small-scale features.
            unit = np.sqrt(hess.diagonal())
            unit[unit == 0.0] = 1.0
            step = np.linalg.lstsq(
                hess / np.outer(unit, unit), grad / unit, rcond=None
            )[0] / unit
            decrement = float(grad @ step)
        if decrement <= _NEWTON_TOL:
            # Here the full step needs no damping (Boyd & Vandenberghe,
            # Convex Optimization, 9.5.3).  Taking it brings the gradient of
            # a badly scaled column from about sqrt(decrement * H_jj) down
            # to rounding level.
            w = w - step[:k]
            b = b - step[k]
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w - t * step[:k]
            b_new = b - t * step[k]
            f_new, z_new = _logistic_objective(X, y, w_new, b_new, lam, l1)
            if f_new <= f - _ARMIJO * t * decrement:
                break
            t *= 0.5
        if not f_new < f:
            break
        w, b, f, z = w_new, b_new, f_new, z_new
    return w, b


def _train_ridge(spec: LearnerSpec, X, y) -> RidgeModel:
    n, k = X.shape
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + spec.lam * np.eye(k)
    rhs = Xc.T @ yc
    if spec.lam > 0:
        w = np.linalg.solve(gram, rhs)
    else:
        w = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    intercept = y_mean - float(x_mean @ w)
    return RidgeModel(
        kind=LearnerKind.RIDGE,
        task=Task.REGRESSION,
        n_features=k,
        weights=w,
        intercept=intercept,
    )


def _train_knn(spec: LearnerSpec, X, y, task: Task) -> KNNModel:
    if spec.k > X.shape[0]:
        raise AnalysisError(
            f"k-NN: k={spec.k} exceeds the {X.shape[0]} training rows"
        )
    Z, mean, scale = kernels.zscore(X)
    return KNNModel(
        kind=LearnerKind.KNN,
        task=task,
        n_features=X.shape[1],
        k=spec.k,
        train_features=np.ascontiguousarray(Z),
        train_outcome=np.ascontiguousarray(y),
        mean=mean,
        scale=scale,
    )


def _grow_tree(X, y, task: Task, max_depth: int, bins=None) -> TreeModel:
    """A tree grown on the rows of the feature matrix X, or, with ``bins``,
    on X as the bin codes of its rows into that table."""
    if bins is None:
        X, bins = kernels.bin_table(X)
    feature, threshold, left, right, value = [], [], [], [], []

    def build(codes: np.ndarray, yn: np.ndarray, bins, depth: int) -> int:
        # codes, yn are this node's rows, sliced once from the parent's.
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(yn.sum() / yn.size))  # bit-equal to yn.mean()
        if depth >= max_depth or yn.size < 2 or (yn == yn[0]).all():
            return node
        # Looked up on the module at each node, so a wrapper installed on
        # ``kernels`` sees every call.
        if task is Task.BINARY:
            # The Gini kernel scans every bin of its table, so a node with
            # fewer cells than bins gets a table of its own bins.
            if bins.values.size > codes.size:
                codes, bins = kernels.compact_bins(codes, bins)
            feat, thresh, _ = kernels.best_split_gini(codes, yn, bins)
        else:
            feat, thresh, _ = kernels.best_split_var(codes, yn, bins)
        if feat < 0:
            return node
        # By value, not by code: the threshold need not be a bin's value.
        go_right = bins.values[codes[:, feat]] >= thresh
        go_left = ~go_right
        feature[node] = int(feat)
        threshold[node] = float(thresh)
        left[node] = build(codes.compress(go_left, axis=0),
                           yn.compress(go_left), bins, depth + 1)
        right[node] = build(codes.compress(go_right, axis=0),
                            yn.compress(go_right), bins, depth + 1)
        return node

    build(X, y, bins, 0)
    return TreeModel(
        kind=LearnerKind.TREE,
        task=task,
        n_features=X.shape[1],
        node_feature=np.asarray(feature, dtype=np.int64),
        node_threshold=np.asarray(threshold),
        node_left=np.asarray(left, dtype=np.int64),
        node_right=np.asarray(right, dtype=np.int64),
        node_value=np.asarray(value),
    )


def _train_bagged(spec: LearnerSpec, X, y, task: Task) -> BaggedModel:
    n, k = X.shape
    n_feats = max(1, int(np.ceil(spec.feature_fraction * k)))
    # One bin table serves every tree: each takes its rows and columns of
    # the codes.
    codes, bins = kernels.bin_table(X)
    every = np.arange(k)
    trees = []
    subsets = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng(derive_seed(spec.seed, "bagged-tree", t))
        rows = rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
        if n_feats == k:
            # The column draw is the tree's last, so skipping it changes
            # no other draw.
            cols, tree_codes, tree_bins = every, codes[rows], bins
        else:
            cols = np.sort(rng.choice(k, size=n_feats, replace=False))
            tree_codes, tree_bins = codes[np.ix_(rows, cols)], bins.select(cols)
        trees.append(
            _grow_tree(tree_codes, y[rows], task, spec.max_depth, tree_bins)
        )
        subsets.append(cols)
    return BaggedModel(
        kind=LearnerKind.BAGGED_TREES,
        task=task,
        n_features=k,
        trees=tuple(trees),
        feature_subsets=tuple(subsets),
    )


def train(spec: LearnerSpec, d: Dataset) -> TrainedModel:
    """Train a model on a dataset's features; deterministic given (spec,
    data)."""
    if d.n == 0:
        raise DataError("cannot train on an empty dataset")
    X = d.features
    y = d.outcome
    if spec.kind is LearnerKind.LOGISTIC:
        if d.task is not Task.BINARY:
            raise AnalysisError("logistic regression requires a binary task")
        w, b = _logistic_newton(spec, X, y)
        return LogisticModel(kind=LearnerKind.LOGISTIC, task=Task.BINARY,
                             n_features=X.shape[1], weights=w, intercept=b)
    if spec.kind is LearnerKind.RIDGE:
        if d.task is not Task.REGRESSION:
            raise AnalysisError("ridge requires a regression task")
        return _train_ridge(spec, X, y)
    if spec.kind is LearnerKind.KNN:
        return _train_knn(spec, X, y, d.task)
    if spec.kind is LearnerKind.TREE:
        return _grow_tree(X, y, d.task, spec.max_depth)
    if spec.kind is LearnerKind.BAGGED_TREES:
        return _train_bagged(spec, X, y, d.task)
    raise AnalysisError(f"unknown learner kind {spec.kind}")


def score_predictions(
    scores: np.ndarray, task: Task, threshold: float = 0.5
) -> PredictionSet:
    """Scores as a PredictionSet, with hard labels at ``threshold`` for a
    binary task."""
    labels = apply_threshold(scores, threshold) if task is Task.BINARY else None
    return PredictionSet(scores=scores, labels=labels)
