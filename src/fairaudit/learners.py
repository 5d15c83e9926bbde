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
import itertools
import math
from dataclasses import dataclass, replace

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
        """Raises AnalysisError for a query row whose squared distances to
        the training rows could overflow, naming its farthest column."""
        refs = self.train_features
        with np.errstate(over="ignore"):
            z = (features - self.mean) / self.scale
            # Per column, the distance to the farther end of the training
            # rows' range; their squares add up to a bound on every squared
            # distance the search computes.
            far = np.maximum(z - refs.min(axis=0), refs.max(axis=0) - z)
            reach = (far * far).sum(axis=1)
        bad = ~np.isfinite(reach)
        if bad.any():
            column = int(far[bad.argmax()].argmax())
            raise AnalysisError(
                f"k-NN: a query row's feature column {column} (0-based) lies "
                "so far from the training rows that its squared distances "
                "overflow"
            )
        return kernels.knn_scores(refs, self.train_outcome, z, self.k)


@dataclass(frozen=True)
class TreeModel(TrainedModel):
    """One table of nodes holds every tree of the model, and tree i starts
    at node ``roots[i]``; a ``tree`` model has the one root 0.  Internal
    nodes carry (feature, threshold, left, right), the feature a column of
    the model's features and each link a later node; leaves have feature
    == -1 and carry the value."""
    node_feature: np.ndarray = None
    node_threshold: np.ndarray = None
    node_left: np.ndarray = None
    node_right: np.ndarray = None
    node_value: np.ndarray = None
    roots: tuple = (0,)

    def _scores(self, features):
        """The mean of the trees' scores: 0.0 plus each tree's, in tree
        order, over the number of trees (so a leaf of -0.0 scores +0.0).

        Each tree pushes row-index sets down from its root.  Each node
        compares its feature's column view, whole at the root (which needs
        no index set) and gathered at its rows below.  A node whose
        children are both leaves writes its rows' values in one
        ``np.where``; a node with one leaf child writes the leaf's value to
        all its rows, and the rows of its other child are overwritten
        further down.  Only leaf values are copied into the output, and a
        row's last write is its own leaf's, so each tree's scores are those
        of a per-row descent bit for bit.
        """
        # Every tree reads whole columns: one column-major copy serves all.
        features = np.asfortranarray(features)
        feature = self.node_feature.tolist()
        threshold = self.node_threshold.tolist()
        left = self.node_left.tolist()
        right = self.node_right.tolist()
        value = self.node_value.tolist()
        acc = np.zeros(features.shape[0])
        out = np.empty(features.shape[0])
        for root in self.roots:
            if feature[root] < 0:
                out.fill(value[root])
                stack = []
            else:
                stack = [(root, None)]  # None: every row
            while stack:
                node, rows = stack.pop()
                at = slice(None) if rows is None else rows
                col = features[:, feature[node]]
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
            acc += out
        return acc / len(self.roots)


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
    A column with one cut takes its rank as ``x >= t`` itself.
    A cell numbers one vector of ranks (``kernels.row_cells``) over the
    split columns.  Raises AnalysisError for a model that is not a tree.
    """
    features = np.asarray(features, dtype=np.float64)
    for model in models:
        model.checked_features(features)
    for model in models:
        if not isinstance(model, TreeModel):
            raise AnalysisError(
                f"{model.kind.value} models have no split thresholds")
    inner = [model.node_feature >= 0 for model in models]
    columns = np.concatenate([m.node_feature[i] for m, i in zip(models, inner)]
                             + [np.zeros(0, np.int64)])
    thresholds = np.concatenate(
        [m.node_threshold[i] for m, i in zip(models, inner)] + [np.zeros(0)])
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

    def ranks():
        for lo, hi in zip(starts, starts[1:] + [columns.size]):
            x, cuts = features[:, columns[lo]], thresholds[lo:hi]
            if cuts.size == 1:
                yield x >= cuts[0], 2
            else:
                rank = np.searchsorted(cuts, x, side="right")
                rank[np.isnan(x)] = 0
                yield rank, cuts.size + 1

    return kernels.row_cells(features.shape[0], ranks())


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


# Most (row, column) cells of the trees that grow together, counting the
# rows each tree grows on: a binary tree's merged rows, a regression
# tree's drawn rows.  A level's split search holds up to about 200 bytes
# per cell (codes, keys, counts or running sums; measured on all-distinct
# columns), so a group's memory stays flat however many trees there are.
_GROUP_CELLS = 1 << 16


def _node_sums(y: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``yn.sum()`` of each node's labels yn, the nodes' rows consecutive in
    ``y`` and ``length[i]`` long: the nodes of one length are summed as the
    rows of one matrix, each of which numpy sums as it sums a vector."""
    start = length.cumsum() - length
    out = np.empty(length.size)
    order = np.argsort(length, kind="stable")
    runs = np.flatnonzero(np.diff(length[order], prepend=-1)).tolist()
    for lo, hi in zip(runs, runs[1:] + [order.size]):
        nodes = order[lo:hi]
        width = int(length[nodes[0]])
        out[nodes] = y[start[nodes][:, None] + np.arange(width)].sum(axis=1)
    return out


def _grow_forest(codes, bins, y, draws, max_depth: int, task: Task) -> TreeModel:
    """Trees grown together, one per (rows, weight, cols) draw of
    ``_forest_draws``.  Tree i, walked from ``roots[i]``, is node for node,
    byte for byte, the tree a recursive per-node grower (the tests'
    ``loop_grow_tree``) builds on the drawn rows its draw stands for, in
    the columns ``cols``, with its features mapped through ``cols``: each
    node's value is the mean of its labels, and a node less than
    ``max_depth`` deep with two or more rows of mixed labels splits at its
    rows' best cut, when a cut separates them.

    The trees grow level by level: one split-kernel call searches every
    node of the level.  A binary tree's rows are its distinct (codes row,
    label) rows, each counting ``weight`` times; a node's counts are exact
    integers, so its value, its purity and its children's counts come from
    the Gini kernel's counts.  A regression tree's rows are its drawn rows
    in draw order, repeated rows included (a weight w times y is not y
    added w times), kept grouped by node in that order, so that each
    node's value is its labels' own sum and the variance kernel adds them
    in the order a search of that node alone would.  Each tree's nodes
    are stored together, tree after tree, in the order they grow: its
    root, then the two children of each of its splitting nodes in turn,
    left then right.
    """
    binary = task is Task.BINARY
    n_trees = len(draws)
    tree = np.repeat(np.arange(n_trees), [rows.size for rows, _, _ in draws])
    row = np.concatenate([rows for rows, _, _ in draws])
    if binary:
        weight = np.concatenate([w for _, w, _ in draws])
        node_n = np.bincount(tree, weight, minlength=n_trees)
    else:
        node_n = np.array([rows.size for rows, _, _ in draws])
    cols = np.stack([c for _, _, c in draws])
    if cols.shape[1] == codes.shape[1]:  # every tree has every column
        cells = codes[row]
    else:
        cells = codes[row[:, None], cols[tree]]
    label = y[row]
    node = tree  # each row's node among those of the current depth
    node_tree = np.arange(n_trees)  # each node's tree, at the current depth
    if binary:
        node_pos = np.bincount(tree, weight * label, minlength=n_trees)
    # Per depth: each node's value, feature and threshold; the children of
    # the depth's splitting nodes, left then right, are the next depth's
    # nodes in order.
    levels = []
    while True:
        value = (node_pos if binary else _node_sums(label, node_n)) / node_n
        feature = np.full(value.size, -1, dtype=np.int64)
        threshold = np.zeros(value.size)
        levels.append((feature, threshold, value, node_tree))
        if len(levels) > max_depth:
            break
        if binary:
            grows = (node_n >= 2) & (node_pos > 0) & (node_pos < node_n)
        else:
            first = np.repeat(label[node_n.cumsum() - node_n], node_n)
            mixed = np.bincount(node, label != first, minlength=node_n.size)
            grows = (node_n >= 2) & (mixed > 0)
        slot = np.where(grows, grows.cumsum() - 1, -1)
        slot = np.where(node >= 0, slot[node], -1)
        kept = slot >= 0
        if not kept.all():
            if not kept.any():
                break
            slot, cells = slot[kept], cells.compress(kept, axis=0)
            label = label[kept]
            if binary:
                weight = weight[kept]
        if binary:
            found = kernels.best_splits_gini(cells, label, bins, slot, weight)
        else:
            found = kernels.best_splits_var(cells, label, bins, slot)
        front = grows.nonzero()[0]
        did = found.feature >= 0
        if not did.any():
            break
        parent = front[did]
        feature[parent] = cols[node_tree[parent], found.feature[did]]
        threshold[parent] = found.threshold[did]
        node_tree = np.repeat(node_tree[parent], 2)
        if binary:
            n_left, pos_left = found.n_left[did], found.pos_left[did]
            children_n = np.empty(2 * parent.size)
            children_n[0::2] = n_left
            children_n[1::2] = node_n[parent] - n_left
            children_pos = np.empty(2 * parent.size)
            children_pos[0::2] = pos_left
            children_pos[1::2] = node_pos[parent] - pos_left
            node_n, node_pos = children_n, children_pos
            if len(levels) == max_depth:
                continue  # the children are leaves at the depth limit
        # By value, not by code (a threshold need not be a bin's value): the
        # value of each row's code in its node's split column, read from
        # the flat codes.
        at = found.feature[slot]
        at += np.arange(0, cells.size, cells.shape[1])
        go_right = bins.values[cells.ravel()[at]] >= found.threshold[slot]
        # Rows of a node that does not split get a negative node.
        node = np.where(did, did.cumsum() - 1, -1)[slot] * 2 + go_right
        if not binary:
            # The rows of the children, grouped by child in their order.
            order = np.argsort(node, kind="stable")
            order = order[np.count_nonzero(node < 0):]
            node, cells, label = node[order], cells[order], label[order]
            node_n = np.bincount(node, minlength=2 * parent.size)
    feature, threshold, value, tree = (np.concatenate(a) for a in zip(*levels))
    # As grown, the children of the j-th split are nodes n_trees + 2j and
    # n_trees + 2j + 1; a stable sort by tree keeps each tree's order, and
    # so keeps two children of one node next to each other.
    splits = feature >= 0
    left = np.full(feature.size, -1, dtype=np.int64)
    left[splits] = np.arange(n_trees, feature.size, 2)
    order = np.argsort(tree, kind="stable")
    at = np.empty(feature.size, dtype=np.int64)
    at[order] = np.arange(feature.size)
    left = np.where(splits, at[left], -1)[order]
    return TreeModel(
        kind=LearnerKind.BAGGED_TREES, task=task,
        n_features=codes.shape[1], node_feature=feature[order],
        node_threshold=threshold[order], node_left=left,
        node_right=np.where(left >= 0, left + 1, -1),
        node_value=value[order],
        roots=tuple(at[:n_trees].tolist()),
    )


def _trees(forest: TreeModel, lo: int, hi: int, kind: LearnerKind) -> TreeModel:
    """Trees lo .. hi - 1 of a ``_grow_forest`` forest as a model of their
    own: the slice of its node table that holds their nodes."""
    first = forest.roots[lo]
    end = forest.roots[hi] if hi < len(forest.roots) else forest.node_value.size

    def links(name):
        link = getattr(forest, name)[first:end]
        return np.where(link >= 0, link - first, -1)

    return TreeModel(
        kind=kind, task=forest.task, n_features=forest.n_features,
        node_feature=forest.node_feature[first:end],
        node_threshold=forest.node_threshold[first:end],
        node_left=links("node_left"), node_right=links("node_right"),
        node_value=forest.node_value[first:end],
        roots=tuple(r - first for r in forest.roots[lo:hi]),
    )


def _joined(parts, kind: LearnerKind) -> TreeModel:
    """One TreeModel of the trees of ``parts``, one after another, their
    links and roots offset by the nodes before them."""
    offsets = np.cumsum([0] + [p.node_value.size for p in parts]).tolist()

    def joined(name, link=False):
        return np.concatenate([
            np.where(getattr(p, name) >= 0, getattr(p, name) + o, -1)
            if link else getattr(p, name)
            for p, o in zip(parts, offsets)
        ])

    return replace(
        parts[0], kind=kind,
        node_feature=joined("node_feature"),
        node_threshold=joined("node_threshold"),
        node_left=joined("node_left", link=True),
        node_right=joined("node_right", link=True),
        node_value=joined("node_value"),
        roots=tuple(o + r for p, o in zip(parts, offsets) for r in p.roots),
    )


def _draws(spec: LearnerSpec, sample: np.ndarray, k: int) -> list:
    """The (rows, cols) of each tree of a ``spec`` model trained on the rows
    ``sample``: a ``tree`` takes them all; each bagged tree draws from
    its own seed, its rows (indices into ``sample``) and then, unless it
    keeps every column, its columns."""
    every = np.arange(k)
    if spec.kind is LearnerKind.TREE:
        return [(sample, every)]
    n = sample.size
    n_feats = min(k, max(1, int(np.ceil(spec.feature_fraction * k))))
    draws = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng(derive_seed(spec.seed, "bagged-tree", t))
        rows = sample[rng.integers(0, n, size=n)] if spec.bootstrap else sample
        # The column draw is the tree's last, so skipping it changes no
        # other draw.
        cols = every if n_feats == k else np.sort(
            rng.choice(k, size=n_feats, replace=False))
        draws.append((rows, cols))
    return draws


def _label_cells(codes, bins, y):
    """The distinct (codes row, label) pairs of the rows of a binary task:
    (each row's pair, numbered, and one row of each pair)."""
    k = codes.shape[1]
    radix = np.bincount(bins.feature, minlength=k)
    first = (radix.cumsum() - radix).tolist()  # each column's first bin
    digits = ((codes[:, j] - first[j], r) for j, r in enumerate(radix.tolist())
              if r > 1)
    return kernels.row_cells(y.size, itertools.chain([(y == 1.0, 2)], digits))


def _forest_draws(draws, codes, bins, y, task: Task) -> list:
    """The (rows, weight, cols) of each tree of each model, from the
    (rows, cols) of ``_draws``.  A regression tree keeps its drawn rows,
    in draw order, and no weight.  A binary tree's drawn rows merge into
    one row of each of their distinct (codes row, label) pairs, in pair
    order, weighted by how many drawn rows it stands for: one sort over
    the keys (tree, pair) of every tree of every model."""
    if task is not Task.BINARY:
        return [[(rows, None, cols) for rows, cols in trees] for trees in draws]
    cell, rows = _label_cells(codes, bins, y)
    flat = [tree for trees in draws for tree in trees]
    key = np.repeat(np.arange(len(flat)) * rows.size,
                    [drawn.size for drawn, _ in flat])
    key += cell[np.concatenate([drawn for drawn, _ in flat])]
    key.sort()
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = first.nonzero()[0]
    weight = np.diff(starts, append=key.size).astype(np.float64)
    tree, cell = np.divmod(key[starts], rows.size)
    ends = np.searchsorted(tree, np.arange(len(flat)), side="right").tolist()
    merged = iter([
        (rows[cell[lo:hi]], weight[lo:hi], cols)
        for lo, hi, (_, cols) in zip([0] + ends, ends, flat)
    ])
    return [[next(merged) for _ in trees] for trees in draws]


def train_tree_models(spec: LearnerSpec, seeds, X, y, task: Task, samples):
    """The tree models of ``spec`` with the seeds ``seeds[i]`` trained on
    the rows ``samples[i]`` of (X, y), each equal to ``train`` on a dataset
    of those rows in the scores it gives, its trees walked from its roots
    node for node.

    X is binned once, and a binary tree's drawn rows merge into its
    distinct (codes row, label) rows (``_forest_draws``).  The models' trees
    grow together through ``_grow_forest``, in groups of whole models of
    at most ``_GROUP_CELLS`` cells of the rows they grow on (a model with
    more grows alone, in groups of its trees).  Returns (the models, the
    forests they were cut from): a model is the slice of its group's node
    table that holds its trees."""
    codes, bins = kernels.bin_table(X)
    draws = _forest_draws([_draws(replace(spec, seed=s), sample, X.shape[1])
                           for s, sample in zip(seeds, samples)],
                          codes, bins, y, task)
    # The trees of a group hold their rows' codes at once, each in the
    # smallest type that holds every code.
    codes = codes.astype(np.min_scalar_type(bins.values.size))
    forests, models = [], []
    group, cells = [], 0  # whole models waiting to grow together

    def grow(trees):
        forests.append(
            _grow_forest(codes, bins, y, trees, spec.max_depth, task))
        return forests[-1]

    def flush():
        if group:
            forest = grow([tree for i in group for tree in draws[i]])
            first = 0
            for i in group:
                models.append(
                    _trees(forest, first, first + len(draws[i]), spec.kind))
                first += len(draws[i])
            group.clear()

    for i, trees in enumerate(draws):
        size = sum(rows.size * c.size for rows, _, c in trees)
        if cells + size > _GROUP_CELLS:
            flush()
            cells = 0
        if size > _GROUP_CELLS:
            per_group = max(1, _GROUP_CELLS // max(1, size // len(trees)))
            models.append(_joined([
                grow(trees[lo:lo + per_group])
                for lo in range(0, len(trees), per_group)
            ], spec.kind))
        else:
            group.append(i)
            cells += size
    flush()
    return models, forests


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
    if spec.kind in TREE_KINDS:
        return train_tree_models(spec, [spec.seed], X, y, d.task,
                                 [np.arange(d.n)])[0][0]
    raise AnalysisError(f"unknown learner kind {spec.kind}")


def score_predictions(
    scores: np.ndarray, task: Task, threshold: float = 0.5
) -> PredictionSet:
    """Scores as a PredictionSet, with hard labels at ``threshold`` for a
    binary task."""
    labels = apply_threshold(scores, threshold) if task is Task.BINARY else None
    return PredictionSet(scores=scores, labels=labels)
