"""Minimal deterministic learners: logistic regression, ridge, k-NN,
depth-limited decision trees, and bagged trees.

Every learner is a pure function of (spec, data): fixed iteration budgets,
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
    epochs: int = 500  # logistic
    step_size: float = 0.1  # logistic
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    def _scores(self, features):
        n = features.shape[0]
        out = np.empty(n)
        # Evaluate by pushing index sets down the tree.
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            feat = self.node_feature[node]
            if feat < 0:
                out[rows] = self.node_value[node]
                continue
            go_right = features[rows, feat] >= self.node_threshold[node]
            stack.append((self.node_right[node], rows[go_right]))
            stack.append((self.node_left[node], rows[~go_right]))
        return out


@dataclass(frozen=True)
class BaggedModel(TrainedModel):
    trees: tuple = ()
    feature_subsets: tuple = ()

    def _scores(self, features):
        acc = np.zeros(features.shape[0])
        for tree, cols in zip(self.trees, self.feature_subsets):
            acc += tree._scores(features[:, cols])
        return acc / len(self.trees)


def _train_logistic(spec: LearnerSpec, X, y) -> LogisticModel:
    n, k = X.shape
    w = np.zeros(k)
    b = 0.0
    for t in range(1, spec.epochs + 1):
        lr = spec.step_size / np.sqrt(t)
        margin = X @ w + b
        grad_common = _sigmoid(margin) - y
        grad_w = X.T @ grad_common / n
        grad_b = float(grad_common.mean())
        if spec.penalty == "l2":
            grad_w = grad_w + spec.lam * w
            w = w - lr * grad_w
        else:
            w = w - lr * grad_w
            # Proximal step: soft-threshold everything but the intercept.
            w = np.sign(w) * np.maximum(np.abs(w) - lr * spec.lam, 0.0)
        b = b - lr * grad_b
    return LogisticModel(
        kind=LearnerKind.LOGISTIC,
        task=Task.BINARY,
        n_features=k,
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
