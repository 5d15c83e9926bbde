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

Split search works on value bins: each column's distinct values in
ascending order, numbered column by column (``bin_table``).  A node passes
its rows' (rows, features) bin codes and the table; a tree's nodes, or a
forest's trees, share one table built by one argsort per column.  The
Gini kernel counts rows and positives per bin with ``np.bincount`` and
scores the cuts between consecutive non-empty bins of a feature; its
counts are exact integers, so the scores equal the loop's.  The variance
kernel sorts the codes, which orders the rows as a stable sort of the
values does, and keeps the in-order running sums.  Called without a
table, either kernel bins its matrix first.  A threshold is the midpoint
of the values on either side of the cut, or the upper value where the
midpoint would not separate them; rows go right when their value is at
least the threshold.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Bins(NamedTuple):
    """A bin table: each column's distinct values in ascending order, the
    bins numbered column by column.  ``feature`` holds each bin's column
    among the columns of the codes the table serves, and -1 for a column
    they leave out."""

    values: np.ndarray
    feature: np.ndarray

    def select(self, cols: np.ndarray) -> "Bins":
        """The table served to codes that keep only the columns ``cols``
        (ascending), numbered 0, 1, ... in that order."""
        local = np.full(self.feature.max() + 1, -1, dtype=np.intp)
        local[cols] = np.arange(cols.size)
        return Bins(self.values, local[self.feature])


def bin_table(X: np.ndarray) -> tuple[np.ndarray, Bins]:
    """The bin codes of X's cells, as an (n, k) intp array, and their
    table.  Equal values share a bin, 0.0 and -0.0 included.  The codes do
    not depend on the order of ties, so one unstable argsort per column
    builds them."""
    n, k = X.shape
    columns = np.ascontiguousarray(X.T)
    order = columns.argsort(axis=1)
    xs = columns.ravel()[order + np.arange(0, n * k, n)[:, None]]
    first = np.empty((k, n), dtype=bool)
    first[:, :1] = True
    np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
    first = first.ravel()
    rank = first.cumsum()
    rank -= 1
    codes = np.empty(n * k, dtype=np.intp)
    # Row i's code for column j sits at i * k + j.
    order *= k
    order += np.arange(k)[:, None]
    codes[order.ravel()] = rank
    starts = first.nonzero()[0]
    return codes.reshape(n, k), Bins(xs.ravel()[starts], starts // n)


def renumber_dense(values: np.ndarray, span: int):
    """``values``, integers in [0, span), renumbered 0, 1, ... in
    ascending order, and the distinct values in that order: through a
    table over the span."""
    used = np.zeros(span, dtype=bool)
    used[values] = True
    number = used.cumsum()
    number -= 1
    return number[values], used.nonzero()[0]


def compact_bins(codes: np.ndarray, bins: Bins) -> tuple[np.ndarray, Bins]:
    """The codes renumbered over only the bins they use, and the table of
    those bins, in the same order."""
    codes, keep = renumber_dense(codes, bins.values.size)
    return codes, Bins(bins.values[keep], bins.feature[keep])


def _threshold(lo: float, hi: float) -> float:
    """The threshold of a cut between the values lo < hi: their midpoint
    when it lies in (lo, hi], else hi.  Between adjacent doubles the
    midpoint can round onto lo, and the sum of two huge values can
    overflow; either would put every row on one side."""
    mid = 0.5 * (lo + hi)
    return mid if lo < mid <= hi else hi


def _presort(codes: np.ndarray, y: np.ndarray):
    """Each feature's codes and labels in stable ascending order of the
    codes, as (features, rows) arrays, and the cuts between distinct
    codes: their flat indices into the (features, rows - 1) cut grid in
    feature-major order, or None when every cut separates two distinct
    codes."""
    n = codes.shape[0]
    # code * n + row is unique, so sorting it, stably or not, orders the
    # rows as a stable sort of the codes does.
    keys = np.multiply(codes.T, n, order="C")
    keys += np.arange(n)
    keys.sort(axis=1)
    cs, rows = np.divmod(keys, n)
    distinct = cs[:, :-1] != cs[:, 1:]
    cuts = None if distinct.all() else distinct.ravel().nonzero()[0]
    return cs, y[rows], cuts


def _at_cuts(running: np.ndarray, cuts):
    """The running sums over each feature's sorted rows read at the cuts,
    and the number of rows left of each cut."""
    if cuts is None:
        return running[:, :-1], np.arange(1, running.shape[1])
    feat, pos = np.divmod(cuts, running.shape[1] - 1)
    return running.ravel()[cuts + feat], pos + 1


def _first_best(score: np.ndarray) -> tuple[int, float]:
    """The index of the cut a scan in ``score``'s order keeps when it
    accepts a cut only if ``score < best - 1e-12``, and its score; -1 when
    it keeps none.  Ties go to the earliest cut.

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
    return best_at, best


def best_split_gini(codes, y, bins=None):
    """Best axis-aligned split of a classification node by Gini impurity.

    ``codes`` holds the node's rows as bin codes into ``bins``; with
    ``bins`` None it is the node's feature matrix, binned here.  ``y``
    holds 0/1 labels.  Returns (feature, threshold, weighted_impurity);
    feature == -1 when no split separates the node.  Ties break toward the
    lowest feature index, then the lowest threshold.

    Rows and positives are counted per bin.  A cut lies between two
    consecutive non-empty bins of a feature; every row has one bin per
    feature, so the counts left of a cut on feature f are running sums
    over the bins minus f times the node's totals, exact integers.
    """
    n, k = codes.shape
    if n < 2:
        return _NO_SPLIT
    if bins is None:
        codes, bins = bin_table(codes)
    size = bins.values.size
    count = np.bincount(codes.ravel(), minlength=size)
    positive = y == 1.0
    total_pos = int(positive.sum())
    pos = np.bincount(codes.compress(positive, axis=0).ravel(), minlength=size)
    filled = count.nonzero()[0]
    feat = bins.feature[filled]
    cut = (feat[1:] == feat[:-1]).nonzero()[0]
    if cut.size == 0:
        return _NO_SPLIT
    f = feat[cut]
    n_l = count[filled].cumsum()[cut] - n * f
    left_pos = pos[filled].cumsum()[cut] - total_pos * f
    n_r = n - n_l
    p_l = left_pos / n_l
    p_r = (total_pos - left_pos) / n_r
    score = n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)
    at, best = _first_best(score)
    if at < 0:
        return _NO_SPLIT
    lo, hi = bins.values[filled[cut[at] : cut[at] + 2]].tolist()
    return int(f[at]), _threshold(lo, hi), best


def best_split_var(codes, y, bins=None):
    """Best split of a regression node by weighted within-child variance.

    Same arguments, contract and tie-breaking as best_split_gini, but any
    real ``y``.  Sorting the codes gives the stable order of the values,
    as equal codes mean equal values; the running sums add the sorted
    rows in order.
    """
    n = codes.shape[0]
    if n < 2:
        return _NO_SPLIT
    if bins is None:
        codes, bins = bin_table(codes)
    cs, ys, cuts = _presort(codes, y)
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
    at, best = _first_best(score)
    if at < 0:
        return _NO_SPLIT
    if cuts is not None:
        at = int(cuts[at])
    feat, pos = divmod(at, n - 1)
    lo, hi = bins.values[cs[feat, pos : pos + 2]].tolist()
    return feat, _threshold(lo, hi), best


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


def knn_loo_fold_errors(X, y, fold, k):
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
