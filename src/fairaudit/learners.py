"""Minimal deterministic learners: logistic regression, ridge, k-NN,
depth-limited decision trees, and bagged trees.

Every learner is a pure function of (spec, data): fixed iteration caps,
explicit tie-breaking, and per-tree seeds derived from the spec seed.
Scores are probabilities in [0,1] for classification and reals for
regression.  The protected attribute is not part of the feature matrix
unless ``include_group`` is set at training time.
"""

from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class LearnerSpec:
    kind: LearnerKind
    lam: float = 0.0
    penalty: str = "l2"  # logistic only: "l1" or "l2"
    k: int = 5  # knn
    max_depth: int = 4  # tree / bagged trees
    n_trees: int = 20  # bagged trees
    feature_fraction: float = 1.0  # bagged trees
    bootstrap: bool = True  # bagged trees
    epochs: int = 500  # logistic: iteration cap of either solver
    step_size: float = 0.1  # logistic with penalty "l1"
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
        if self.epochs < 1:
            raise AnalysisError("epochs must be >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise AnalysisError("step_size must be finite and > 0")

    def fields_read(self) -> tuple[str, ...]:
        """The fields this learner reads, besides ``kind`` and ``seed``."""
        if self.kind is LearnerKind.LOGISTIC:
            # Only the l1 path takes gradient steps.
            return ("lam", "penalty", "epochs") + (
                ("step_size",) if self.penalty == "l1" else ()
            )
        return {
            LearnerKind.RIDGE: ("lam",),
            LearnerKind.KNN: ("k",),
            LearnerKind.TREE: ("max_depth",),
            LearnerKind.BAGGED_TREES: (
                "max_depth", "n_trees", "feature_fraction", "bootstrap"
            ),
        }[self.kind]


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

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} feature columns, "
                f"got shape {features.shape}"
            )
        scores = self._scores(features)
        if self.task is Task.BINARY and not np.all(
            (scores >= 0.0) & (scores <= 1.0)
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
        return _sigmoid(features @ self.weights + self.intercept)


@dataclass(frozen=True)
class RidgeModel(TrainedModel):
    weights: np.ndarray = None
    intercept: float = 0.0

    def _scores(self, features):
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
        acc = np.zeros(features.shape[0])
        for tree, cols in zip(self.trees, self.feature_subsets):
            acc += tree._scores(features, cols.tolist())
        return acc / len(self.trees)


# Newton stops once the decrement g^T H^+ g, twice the objective's
# predicted fall, is at rounding level for a mean log-loss near 1.
_NEWTON_TOL = 1e-14
# Armijo: a step of length t must lower the objective by at least
# _ARMIJO * t * decrement (Nocedal & Wright, Numerical Optimization, 3.1).
# After 50 halvings t = 2^-50, and the step is lost in rounding.
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
# Rows per block of the Hessian product, so no full-size weighted copy of
# X is held.
_HESSIAN_BLOCK = 1024


def _logistic_objective(X, y, w, b, lam):
    """(mean log-loss + lam/2 |w|^2, margins); the intercept is not
    penalized."""
    z = X @ w + b
    loss = np.logaddexp(0.0, z) - y * z
    return float(loss.mean()) + 0.5 * lam * float(w @ w), z


def _logistic_newton(spec: LearnerSpec, X, y):
    """Damped Newton (IRLS; Hastie, Tibshirani & Friedman, ESL 4.4.1) on
    the l2 objective.  Invariant to feature scale.  The Newton system is
    solved by least squares: with lam = 0 the Hessian is singular whenever
    a one-hot block sums to the intercept column."""
    n, k = X.shape
    lam = spec.lam
    w = np.zeros(k)
    b = 0.0
    f, z = _logistic_objective(X, y, w, b, lam)
    hess = np.empty((k + 1, k + 1))
    for _ in range(spec.epochs):
        p = _sigmoid(z)
        r = (p - y) / n
        grad = np.append(X.T @ r + lam * w, r.sum())
        s = p * (1.0 - p) / n
        hess[:k, :k] = sum(
            X[lo:lo + _HESSIAN_BLOCK].T
            @ (X[lo:lo + _HESSIAN_BLOCK] * s[lo:lo + _HESSIAN_BLOCK, None])
            for lo in range(0, n, _HESSIAN_BLOCK)
        ) + lam * np.eye(k)
        hess[:k, k] = hess[k, :k] = X.T @ s
        hess[k, k] = s.sum()
        # Solved in unit-diagonal form, so the rank cut-off of lstsq does
        # not drop the directions of small-scale features.
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
            f_new, z_new = _logistic_objective(X, y, w_new, b_new, lam)
            if f_new <= f - _ARMIJO * t * decrement:
                break
            t *= 0.5
        if not f_new < f:
            break
        w, b, f, z = w_new, b_new, f_new, z_new
    return w, b


def _logistic_l1(spec: LearnerSpec, X, y):
    """Proximal gradient descent with a 1/sqrt(t) step: the l1 penalty is
    not smooth, so Newton does not apply."""
    n, k = X.shape
    w = np.zeros(k)
    b = 0.0
    for t in range(1, spec.epochs + 1):
        lr = spec.step_size / np.sqrt(t)
        margin = X @ w + b
        grad_common = _sigmoid(margin) - y
        grad_w = X.T @ grad_common / n
        grad_b = float(grad_common.mean())
        w = w - lr * grad_w
        # Proximal step: soft-threshold everything but the intercept.
        w = np.sign(w) * np.maximum(np.abs(w) - lr * spec.lam, 0.0)
        b = b - lr * grad_b
    return w, b


def _train_logistic(spec: LearnerSpec, X, y) -> LogisticModel:
    solve = _logistic_l1 if spec.penalty == "l1" else _logistic_newton
    w, b = solve(spec, X, y)
    return LogisticModel(
        kind=LearnerKind.LOGISTIC,
        task=Task.BINARY,
        n_features=X.shape[1],
        weights=w,
        intercept=b,
    )


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


def _grow_tree(X, y, task: Task, max_depth: int) -> TreeModel:
    feature, threshold, left, right, value = [], [], [], [], []

    def build(Xn: np.ndarray, yn: np.ndarray, depth: int) -> int:
        # Xn, yn are this node's rows, sliced once from the parent's.
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
            feat, thresh, _ = kernels.best_split_gini(Xn, yn)
        else:
            feat, thresh, _ = kernels.best_split_var(Xn, yn)
        if feat < 0:
            return node
        go_right = Xn[:, feat] >= thresh
        go_left = ~go_right
        feature[node] = int(feat)
        threshold[node] = float(thresh)
        left[node] = build(Xn[go_left], yn[go_left], depth + 1)
        right[node] = build(Xn[go_right], yn[go_right], depth + 1)
        return node

    build(X, y, 0)
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
    trees = []
    subsets = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng(derive_seed(spec.seed, "bagged-tree", t))
        rows = rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
        cols = np.sort(rng.choice(k, size=n_feats, replace=False))
        trees.append(_grow_tree(X[np.ix_(rows, cols)], y[rows], task, spec.max_depth))
        subsets.append(cols)
    return BaggedModel(
        kind=LearnerKind.BAGGED_TREES,
        task=task,
        n_features=k,
        trees=tuple(trees),
        feature_subsets=tuple(subsets),
    )


def train(
    spec: LearnerSpec, d: Dataset, include_group: bool = False
) -> TrainedModel:
    """Train a model on a dataset; deterministic given (spec, data)."""
    if d.n == 0:
        raise DataError("cannot train on an empty dataset")
    X = d.features
    if include_group:
        onehot = np.zeros((d.n, d.n_groups))
        onehot[np.arange(d.n), d.group] = 1.0
        X = np.hstack([X, onehot])
    y = d.outcome
    if spec.kind is LearnerKind.LOGISTIC:
        if d.task is not Task.BINARY:
            raise AnalysisError("logistic regression requires a binary task")
        return _train_logistic(spec, X, y)
    if spec.kind is LearnerKind.RIDGE:
        if d.task is not Task.REGRESSION:
            raise AnalysisError("ridge requires a regression task")
        return _train_ridge(spec, X, y)
    if spec.kind is LearnerKind.KNN:
        return _train_knn(spec, X, y, d.task)
    if spec.kind is LearnerKind.TREE:
        return _grow_tree(np.ascontiguousarray(X), y, d.task, spec.max_depth)
    if spec.kind is LearnerKind.BAGGED_TREES:
        return _train_bagged(spec, np.ascontiguousarray(X), y, d.task)
    raise AnalysisError(f"unknown learner kind {spec.kind}")


def score_predictions(
    scores: np.ndarray, task: Task, threshold: float = 0.5
) -> PredictionSet:
    """Scores as a PredictionSet, with hard labels at ``threshold`` for a
    binary task."""
    labels = apply_threshold(scores, threshold) if task is Task.BINARY else None
    return PredictionSet(scores=scores, labels=labels)
