"""Hot numeric kernels: tree split search and k-NN scoring.

The kernels are vectorized numpy that reproduces, bit for bit, the plain
per-row loops they replaced (``tests/test_kernels.py`` keeps those loops
as the reference).  To stay exact they keep the loops' arithmetic:
running sums use ``np.cumsum``, which adds in order; score formulas keep
the loops' operand order; squared distances are accumulated one feature
at a time; and neighbours are ranked by a stable sort, so distance ties go
to the lower row index.  The k-NN kernels take query rows in blocks of at
most ``_BLOCK_CELLS`` distance cells, so their memory stays flat however
many rows a group has.
"""

from __future__ import annotations

import numpy as np

# Benchmark tooling records this as the kernel path.  There is one path,
# plain numpy; nothing is compiled.
USE_NUMBA = False

# Most distance cells (query rows x reference rows) a k-NN kernel holds at
# once; one block of float64 cells is 256 KiB.
_BLOCK_CELLS = 1 << 15


def _presort(X: np.ndarray, y: np.ndarray):
    """Each feature's values and labels in stable ascending order, as
    (features, rows) arrays."""
    order = np.argsort(X.T, axis=1, kind="stable")
    return np.take_along_axis(X.T, order, axis=1), y[order]


def _first_best(score: np.ndarray, xs: np.ndarray):
    """The cut a feature-major scan keeps when it accepts a cut only if
    ``score < best - 1e-12``: ties go to the lowest feature, then the
    lowest threshold.  A cut between equal values is never taken.

    Every accepted cut scores below all cuts scanned before it, so only
    those strict running-minimum records are scanned here.
    """
    score = np.where(xs[:, :-1] == xs[:, 1:], np.inf, score).ravel()
    before = np.concatenate(([np.inf], np.fmin.accumulate(score)[:-1]))
    records = np.flatnonzero(score < before)
    best_at, best = -1, np.inf
    for at, s in zip(records.tolist(), score[records].tolist()):
        if s < best - 1e-12:
            best_at, best = at, s
    if best_at < 0:
        return -1, 0.0, np.inf
    feat, pos = divmod(best_at, xs.shape[1] - 1)
    return feat, 0.5 * (xs[feat, pos] + xs[feat, pos + 1]), best


def best_split_gini(X, y):
    """Best axis-aligned split of a classification node by Gini impurity.

    Returns (feature, threshold, weighted_impurity); feature == -1 when no
    split separates the node.  Ties break toward the lowest feature index,
    then the lowest threshold.
    """
    n = X.shape[0]
    if n < 2:
        return -1, 0.0, np.inf
    xs, ys = _presort(X, y)
    total_pos = np.cumsum(y)[-1]
    left_pos = np.cumsum(ys, axis=1)[:, :-1]
    n_l = np.arange(1, n)
    n_r = n - n_l
    p_l = left_pos / n_l
    p_r = (total_pos - left_pos) / n_r
    score = n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)
    return _first_best(score, xs)


def best_split_var(X, y):
    """Best split of a regression node by weighted within-child variance.

    Same contract and tie-breaking as best_split_gini.
    """
    n = X.shape[0]
    if n < 2:
        return -1, 0.0, np.inf
    xs, ys = _presort(X, y)
    total_sum = np.cumsum(y)[-1]
    total_sq = np.cumsum(y * y)[-1]
    left_sum = np.cumsum(ys, axis=1)[:, :-1]
    left_sq = np.cumsum(ys * ys, axis=1)[:, :-1]
    n_l = np.arange(1, n)
    n_r = n - n_l
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    score = (left_sq - left_sum * left_sum / n_l) + (
        right_sq - right_sum * right_sum / n_r
    )
    return _first_best(score, xs)


def _blocks(n_rows: int, n_cols: int):
    """Row slices covering ``n_rows`` query rows, each with at most
    ``_BLOCK_CELLS`` cells against ``n_cols`` reference rows (at least one
    row per block)."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _sq_dists(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, summed one feature at a time from the
    first, as (queries, refs)."""
    acc = np.zeros((queries.shape[0], refs.shape[0]))
    diff = np.empty_like(acc)
    for j in range(queries.shape[1]):
        np.subtract.outer(queries[:, j], refs[:, j], out=diff)
        diff *= diff
        acc += diff
    return acc


def _vote_sums(labels: np.ndarray) -> np.ndarray:
    """Row sums of ``labels``, added column by column from 0.0."""
    total = np.zeros(labels.shape[0])
    for t in range(labels.shape[1]):
        total += labels[:, t]
    return total


def knn_scores(train_X, train_y, test_X, k):
    """Mean label of the k nearest training rows (Euclidean) per test row."""
    n_train = train_X.shape[0]
    kk = min(k, n_train)
    out = np.empty(test_X.shape[0])
    for rows in _blocks(test_X.shape[0], n_train):
        dist = _sq_dists(test_X[rows], train_X)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :kk]
        out[rows] = _vote_sums(train_y[nearest]) / kk
    return out


def knn_loo_fold_errors(X, y, fold, k, n_folds):
    """Cross-validated k-NN misclassification indicators.

    For each row, neighbors are searched among rows of the *other* folds;
    the prediction is the majority vote of the k nearest (ties toward
    label 0).  Returns a 0/1 error vector aligned with the rows.
    """
    n = X.shape[0]
    k = min(k, n)
    err = np.empty(n)
    for rows in _blocks(n, n):
        dist = _sq_dists(X[rows], X)
        own_fold = fold[rows, None] == fold[None, :]
        dist[own_fold] = np.inf
        kk = np.minimum(k, n - own_fold.sum(axis=1))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        counted = np.arange(nearest.shape[1]) < kk[:, None]
        votes = _vote_sums(np.where(counted, y[nearest], 0.0))
        pred = np.where(votes > kk / 2.0, 1.0, 0.0)
        err[rows] = np.where(pred == y[rows], 0.0, 1.0)
    return err
