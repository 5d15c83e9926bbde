"""Hot numeric kernels: tree split search, k-NN scoring and the z-scoring
that both k-NN users apply to features first.

The kernels are vectorized numpy that reproduces, bit for bit, the plain
per-row loops they replaced (``tests/test_kernels.py`` keeps those loops
as the reference).  To stay exact they keep the loops' arithmetic:
running sums use ``np.cumsum``, which adds in order; score formulas keep
the loops' operand order; squared distances are accumulated one feature
at a time; and neighbours are ranked by a stable sort, so distance ties go
to the lower row index.  The k-NN kernels take query rows in blocks of at
most ``_BLOCK_CELLS`` distance cells, so their memory stays flat however
many rows a group has.

Split search scores only the cuts between distinct values of a feature,
the only cuts a split can take.  The running sums still run over every
sorted row and are read at those cuts; a node with no such cut returns
before any scoring, and a node whose every cut is one (all-distinct
columns) scores the full arrays without gathering.
"""

from __future__ import annotations

import numpy as np

# Benchmark tooling records this as the kernel path.  There is one path,
# plain numpy; nothing is compiled.
USE_NUMBA = False

# Most distance cells (query rows x reference rows) a k-NN kernel holds at
# once; one block of float64 cells is 256 KiB.
_BLOCK_CELLS = 1 << 15

# A split search's result when no cut separates the node.
_NO_SPLIT = (-1, 0.0, np.inf)


def zscore(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of X centred on their means and divided by their population
    standard deviations, a zero deviation counting as 1; returns
    (Z, mean, scale) so that new rows can be scaled alike."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def _presort(X: np.ndarray, y: np.ndarray):
    """Each feature's values and labels in stable ascending order, as
    (features, rows) arrays, and the cuts between distinct values: their
    flat indices into the (features, rows - 1) cut grid in feature-major
    order, or None when every cut separates two distinct values."""
    n, k = X.shape
    columns = np.ascontiguousarray(X.T)
    order = np.argsort(columns, axis=1, kind="stable")
    xs = columns.ravel()[order + np.arange(0, n * k, n)[:, None]]
    distinct = xs[:, :-1] != xs[:, 1:]
    cuts = None if distinct.all() else distinct.ravel().nonzero()[0]
    return xs, y[order], cuts


def _at_cuts(running: np.ndarray, cuts):
    """The running sums over each feature's sorted rows read at the cuts,
    and the number of rows left of each cut."""
    if cuts is None:
        return running[:, :-1], np.arange(1, running.shape[1])
    feat, pos = np.divmod(cuts, running.shape[1] - 1)
    return running.ravel()[cuts + feat], pos + 1


def _first_best(score: np.ndarray, xs: np.ndarray, cuts):
    """The cut a feature-major scan keeps when it accepts a cut only if
    ``score < best - 1e-12``: ties go to the lowest feature, then the
    lowest threshold.  ``score`` holds only cuts between distinct values.

    Every accepted cut scores below all cuts scanned before it, so only
    those strict running-minimum records are scanned here.
    """
    score = score.ravel()
    before = np.concatenate(([np.inf], np.fmin.accumulate(score)[:-1]))
    records = (score < before).nonzero()[0]
    best_at, best = -1, np.inf
    for at, s in zip(records.tolist(), score[records].tolist()):
        if s < best - 1e-12:
            best_at, best = at, s
    if best_at < 0:
        return _NO_SPLIT
    if cuts is not None:
        best_at = int(cuts[best_at])
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
        return _NO_SPLIT
    xs, ys, cuts = _presort(X, y)
    if cuts is not None and cuts.size == 0:
        return _NO_SPLIT
    total_pos = y.cumsum()[-1]
    left_pos, n_l = _at_cuts(ys.cumsum(axis=1), cuts)
    n_r = n - n_l
    p_l = left_pos / n_l
    p_r = (total_pos - left_pos) / n_r
    score = n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)
    return _first_best(score, xs, cuts)


def best_split_var(X, y):
    """Best split of a regression node by weighted within-child variance.

    Same contract and tie-breaking as best_split_gini.
    """
    n = X.shape[0]
    if n < 2:
        return _NO_SPLIT
    xs, ys, cuts = _presort(X, y)
    if cuts is not None and cuts.size == 0:
        return _NO_SPLIT
    total_sum = y.cumsum()[-1]
    total_sq = (y * y).cumsum()[-1]
    left_sum, n_l = _at_cuts(ys.cumsum(axis=1), cuts)
    left_sq, _ = _at_cuts((ys * ys).cumsum(axis=1), cuts)
    n_r = n - n_l
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    score = (left_sq - left_sum * left_sum / n_l) + (
        right_sq - right_sum * right_sum / n_r
    )
    return _first_best(score, xs, cuts)


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
