"""Hot numeric kernels: tree split search, k-NN scoring and the z-scoring
that both k-NN users apply to features first.

The kernels are vectorized numpy that reproduces, bit for bit, the plain
per-row loops they replaced (``tests/test_kernels.py`` keeps those loops
as the reference).  To stay exact they keep the loops' arithmetic:
running sums use ``np.cumsum``, which adds in order; score formulas keep
the loops' operand order; a squared distance is summed one feature at a
time from 0.0; and the k nearest rows are ranked by (distance, index),
as a stable sort of the whole distance row ranks them.

The k-NN kernels search exactly by screening, the multi-step scheme of
Seidl & Kriegel ("Optimal multi-step k-nearest neighbor search", SIGMOD
1998): a cheap bound rules most rows out, and exact distances rank the
rest.  Query rows go in blocks of at most ``_BLOCK_CELLS`` distance cells,
so memory stays flat however many rows a group has.  Per block:

1. One matrix product gives approximate squared distances a = |q|^2 +
   |r|^2 - 2 q.r, as rows (q, |q|^2, 1) times (-2 r, 1, |r|^2), on columns
   centred on the reference rows' means: distances do not move under a
   shift, and a large offset would blow up the bound.  The bits of a do
   not matter.
2. E bounds |a - s|, where s is the distance the loops take: the squares
   of the raw columns' differences, added in feature order.  With u =
   eps / 2 and N = |q|^2 + |r|^2 of the centred rows, to first order in
   u: centring rounds each centred entry by at most u of itself, which
   moves the root of the distance by at most u (|q| + |r|), so the
   distance by at most 4 u N; the norms carry at most d u N, and the
   product, d + 2 terms of total size at most 2 N added in any order,
   with or without fused multiply-adds, at most 2 (d + 2) u N; and the
   loops' sum rounds each of its non-negative terms at most d + 2 times,
   at most 2 (d + 2) u N again, since s is at most about 2 N.  So |a - s|
   <= (5 d + 12) u N.  The kernels take E = 4 (d + 4) eps M = 8 (d + 4)
   u M, one value per query row, with M = |q|^2 + the largest |r|^2 >= N
   for every cell of the row; the margin of (3 d + 20) u M covers the
   second-order terms and the rounding of E and of the limit in step 4.
   A product that underflows errs by at most 2^-1075 (sums and
   differences among subnormals are exact), and a cell takes at most
   4 d + 2 products, so E adds 4 (d + 4) times the smallest subnormal.  A
   row with M >= max / 16, inf or NaN, takes an infinite E and zeros in
   the product: all its cells are candidates and nothing overflows.
3. U is the row's k-th smallest a + E, the rows of a query's own fold
   counting as +inf; as E is one value per row, U = (k-th smallest a) +
   E.
4. A cell is a candidate unless a - E > U, tested as a > (k-th smallest
   a) + 2 E, so that a NaN counts as a candidate.  The k cells with the
   smallest a have s <= U, so the k-th smallest s is at most U, and every
   cell with s at most that has a - E <= U: the candidates hold the k
   nearest rows.  With fewer than k finite cells U is inf, and every cell
   is a candidate.
5. The candidates' distances are computed exactly, from the raw columns,
   a bounded number of pairs at a time so that no array of the pass is
   larger than the block, and ordered by (distance, index).
6. The votes add the k nearest labels in that order, from 0.0.

Split search works on value bins: each column's distinct values in
ascending order, numbered column by column (``bin_table``).  The trees a
forest grows together share one table, and pass their rows as (rows,
features) bin codes into it.

The Gini kernel searches many nodes at once: a whole level of the trees
a forest grows together, each row tagged with its node and weighted by
how many of its tree's drawn rows it stands for.  One ``np.bincount``
counts the rows of each (node, bin, label) key, and the cuts between
consecutive non-empty bins of a column are scored from running sums over
those counts.  The counts are exact integers, so each node's scores, and
the cut its scan keeps, equal the per-node loop's.  While a table over
every key would hold at most ``_TABLE_PER_CELL`` entries per cell
counted, it is used as is; past that (all-distinct columns, deep levels)
the keys are first densified to the ones that occur (``densify``), so no
table grows with nodes times bins.
The variance kernel searches a whole level of the regression trees a
forest grows together too.  Its labels are reals, whose sums depend on
the order they are added in, so each node keeps its own arithmetic: its
rows fill one row of a padded array, sorting their codes orders them as
a stable sort of the values does, and running sums along each row add
them in order.  A threshold is the midpoint of the values on either side
of the cut, or the upper value where the midpoint would not separate
them; rows go right when their value is at least the threshold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AnalysisError

# Benchmark tooling records this as the kernel path.  There is one path,
# plain numpy; nothing is compiled.
USE_NUMBA = False

# Most distance cells (query rows x reference rows) a k-NN kernel holds at
# once; one block of float64 cells is 256 KiB.
_BLOCK_CELLS = 1 << 15

# The variance kernel pads a node's rows to its group's width by at most
# its own length or this many cells, whichever is more.
_PAD_CELLS = 2048

# The Gini kernel counts into a table over every (node, bin, label) key
# while it has at most this many entries per cell of the codes; past that
# it densifies the keys first.
_TABLE_PER_CELL = 4


def zscore(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of X centred on their means and divided by their population
    standard deviations, a zero deviation counting as 1; returns
    (Z, mean, scale) so that new rows can be scaled alike.

    Raises AnalysisError for a column whose mean or deviation overflows
    (values near the float limit, or deviations past about 1e154, whose
    squares overflow): it has no z-scores.  With finite deviations every
    Z is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(scale))
    if bad.any():
        raise AnalysisError(
            f"cannot z-score feature column {int(bad.argmax())} (0-based): "
            "its mean or standard deviation overflows"
        )
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


class Bins(NamedTuple):
    """A bin table: each column's distinct values in ascending order, the
    bins numbered column by column, and each bin's column."""

    values: np.ndarray
    feature: np.ndarray


def bin_table(X: np.ndarray) -> tuple[np.ndarray, Bins]:
    """The bin codes of X's cells, as an (n, k) intp array, and their
    table.  Equal values share a bin, 0.0 and -0.0 included.

    A column each of whose cells has the bits of its minimum or of its
    maximum (no NaN, and not both zeros) has one or two bins, and a
    cell's code says whether it exceeds the minimum: ``searchsorted``
    into those two values, in one comparison.  Every other column takes
    its codes by scattering through an argsort, whose order also gives
    each bin's value (the value sorted first of a bin of 0.0 and -0.0;
    each NaN is a bin of its own); the codes do not depend on the order of
    ties, so the argsort need not be stable.  On 10 000 rows (one core of
    a 2-vCPU x86 host), an argsort of a 0/1 column that is 90% zeros took
    about ten times as long as of a balanced one,
    and twenty times as long as the comparison; a ``searchsorted`` of a
    balanced 3- to 64-valued column took 3-6 times as long as its argsort.
    """
    n, k = X.shape
    columns = np.ascontiguousarray(X.T)
    paired = np.zeros(k, dtype=bool)  # the columns of one or two bins
    if n:
        lo, hi = columns.min(axis=1), columns.max(axis=1)
        bits, lo_bits, hi_bits = (a.view(np.int64) for a in (columns, lo, hi))
        paired = (((bits == lo_bits[:, None]) | (bits == hi_bits[:, None]))
                  .all(axis=1) & ~np.isnan(lo) & ((lo != hi) | (lo_bits == hi_bits)))
    two, many = paired.nonzero()[0], (~paired).nonzero()[0]
    codes = np.empty((n, k), dtype=np.intp)
    count = np.zeros(k, dtype=np.intp)
    if two.size:
        lo, hi = lo[two], hi[two]
        upper = (hi != lo).nonzero()[0]
        count[two] = 1
        count[two[upper]] = 2
        codes[:, two] = (columns[two] > lo[:, None]).T
    if many.size:
        order = columns[many].argsort(axis=1)
        order += (many * n)[:, None]
        xs = columns.ravel()[order]
        first = np.empty(xs.shape, dtype=bool)
        first[:, :1] = True
        np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
        count[many] = first.sum(axis=1)
    start = count.cumsum() - count
    values = np.empty(int(count.sum()))
    if two.size:
        codes[:, two] += start[two]
        values[start[two]] = lo
        values[start[two[upper]] + 1] = hi[upper]
    if many.size:
        rank = first.cumsum(axis=1)
        rank += (start[many] - 1)[:, None]
        # Row i's code for column j sits at i * k + j.
        order -= (many * n)[:, None]
        order *= k
        order += many[:, None]
        codes.ravel()[order.ravel()] = rank.ravel()
        # Each column's bins are consecutive in the table.
        values[np.repeat(~paired, count)] = xs[first]
    return codes, Bins(values, np.repeat(np.arange(k), count))


def renumber_dense(values: np.ndarray, span: int):
    """``values``, integers in [0, span), renumbered 0, 1, ... in
    ascending order, and the distinct values in that order: through a
    table over the span."""
    used = np.zeros(span, dtype=bool)
    used[values] = True
    number = used.cumsum()
    number -= 1
    return number[values], used.nonzero()[0]


def densify(key: np.ndarray, span: int):
    """The keys (each in [0, span)) renumbered 0, 1, ... in key order, and
    the distinct keys in that order: through a table over the span when it
    is at most a few times the key count, else by sorting."""
    if 0 < span <= 4 * key.size:
        return renumber_dense(key, span)
    distinct, dense = np.unique(key, return_inverse=True)
    return dense, distinct


# Mixed-radix keys stay below 2^62, inside int64: before a digit whose
# radix would carry the span of the keys past it, they are renumbered
# densely.
_KEY_LIMIT = 1 << 62


def row_cells(n: int, digits):
    """The cells of n rows, a cell being one vector of digits: (the cell
    of each row, numbered 0, 1, ... in the order of the vectors, one row of
    each cell).  ``digits`` yields (each row's digit, radix) pairs, the
    most significant first, each digit in [0, radix); a cell numbers its
    vector through a mixed-radix key."""
    key = np.zeros(n, dtype=np.int64)
    span = 1  # every key is below span
    for digit, radix in digits:
        if span * radix > _KEY_LIMIT:
            key, distinct = densify(key, span)
            span = distinct.size
        key *= radix
        key += digit
        span *= radix
    cells, distinct = densify(key, span)
    rows = np.empty(distinct.size, dtype=np.intp)
    rows[cells] = np.arange(n)  # any row of a cell serves
    return cells, rows


def _threshold(lo: float, hi: float) -> float:
    """The threshold of a cut between the values lo < hi: their midpoint
    when it lies in (lo, hi], else hi.  Between adjacent doubles the
    midpoint can round onto lo, and the sum of two huge values can
    overflow; either would put every row on one side."""
    mid = 0.5 * (lo + hi)
    return mid if lo < mid <= hi else hi


def _scan(score: np.ndarray) -> int:
    """The index of the cut a scan in ``score``'s order keeps when it
    accepts a cut only if ``score < best - 1e-12``; -1 when it keeps none.
    Ties go to the earliest cut.

    Every accepted cut scores below all cuts scanned before it (NaN
    aside), so only those strict running-minimum records are scanned here.
    """
    before = np.fmin.accumulate(np.concatenate(([np.inf], score[:-1])))
    records = (score < before).nonzero()[0]
    best_at, best = -1, np.inf
    for at, s in zip(records.tolist(), score[records].tolist()):
        if s < best - 1e-12:
            best_at, best = at, s
    return best_at


def _first_best(score: np.ndarray, seg: np.ndarray, n_segs: int) -> np.ndarray:
    """For each of ``n_segs`` segments, the index into ``score`` of the cut
    that ``_scan`` keeps over that segment's scores, or -1; ``seg`` holds
    each cut's segment, in ascending order.

    The scan keeps a segment's first lowest score (NaN aside) unless a
    cut before it scores within 1e-12 above it; only segments with such a
    near tie are scanned.
    """
    at = np.full(n_segs, -1, dtype=np.intp)
    if score.size == 0:
        return at
    first = np.empty(score.size, dtype=bool)
    first[0] = True
    np.not_equal(seg[1:], seg[:-1], out=first[1:])
    starts = first.nonzero()[0]
    rank = first.cumsum()
    rank -= 1
    low = np.fmin.reduceat(score, starts)[rank]
    index = np.arange(score.size)
    lowest = np.minimum.reduceat(
        np.where(score == low, index, score.size), starts)
    at[seg[starts]] = np.where(lowest < score.size, lowest, -1)
    near = (score - 1e-12 <= low) & (index < lowest[rank])
    if near.any():
        ends = np.append(starts[1:], score.size)
        for r in np.unique(rank[near]).tolist():
            found = _scan(score[starts[r]:ends[r]])
            at[seg[starts[r]]] = -1 if found < 0 else starts[r] + found
    return at


class GiniSplits(NamedTuple):
    """Each node's best Gini split, as arrays over the nodes: the column
    of the codes (-1 where no cut separates the node), the threshold, the
    weighted impurity (inf with no split), and the weighted counts of the
    rows and of the positive rows sent left."""

    feature: np.ndarray
    threshold: np.ndarray
    score: np.ndarray
    n_left: np.ndarray
    pos_left: np.ndarray


def best_splits_gini(codes, y, bins, node, weight) -> GiniSplits:
    """Best axis-aligned split by Gini impurity of each of a set of
    classification nodes, all searched at once.

    ``codes`` holds the rows as bin codes into ``bins``.  Row i, labelled
    y[i] in {0, 1}, belongs to node ``node[i]`` and counts ``weight[i]``
    times; each node in 0 .. max(node) must hold a row.  Ties break toward
    the lowest feature index, then the lowest threshold.

    One ``np.bincount`` counts the weighted rows of each (label, node,
    bin) key.  A cut lies between two consecutive non-empty bins of one
    column in a node, and the rows left of it are a running sum over
    those bins, an exact integer, so every score is the per-row loop's.
    The table holds every key while it has at most ``_TABLE_PER_CELL``
    entries per cell of the codes; past that the keys are densified
    first.
    """
    k = codes.shape[1]
    size = bins.values.size
    positive = y == 1.0
    n_nodes, node_key = int(node.max()) + 1, node * size
    totals = np.bincount(2 * node + positive, weight, minlength=2 * n_nodes)
    total_pos = totals[1::2]
    n_total = totals[0::2] + total_pos
    span = n_nodes * size
    # Keys label * span + node * size + bin, or, densified, label * (keys
    # that occur) + the (node, bin) key's rank among them.
    row_key = positive.astype(np.intp)
    if 2 * span <= _TABLE_PER_CELL * codes.size:
        row_key *= span
        row_key += node_key
        key, filled = codes + row_key[:, None], None
    else:
        key, filled = densify((codes + node_key[:, None]).ravel(), span)
        span = filled.size
        key = key.reshape(codes.shape)
        row_key *= span
        key += row_key[:, None]
    table = np.bincount(key.ravel(), np.repeat(weight, k), minlength=2 * span)
    count, pos = table[:span] + table[span:], table[span:]
    if filled is None:
        filled = count.nonzero()[0]
        count, pos = count[filled], pos[filled]
    # ``count`` and ``pos`` hold the rows and positive rows of each (node,
    # bin) that holds a row, in key order: node by node, column by column,
    # value by value.  A run is one column of one node; every node has one
    # run per column of the codes, each holding all of its rows.
    node_of, bin_of = np.divmod(filled, size)
    run = bins.feature[bin_of] + node_of * size
    same = run[1:] == run[:-1]
    cut = same.nonzero()[0]
    if cut.size == 0:
        return _no_splits(n_nodes)
    # A new run starts between each two consecutive entries except at a
    # cut, so the cut after entry i lies in run i - (cuts before it):
    # column ``f`` of its node.  The rows left of it are the running count
    # less the rows of each earlier node, once per column, and of its own
    # node, once per earlier column; likewise the positive rows.
    f = cut - np.arange(cut.size)
    n_l = count.cumsum()[cut]
    left_pos = pos.cumsum()[cut]
    nd = node_of[cut]
    f -= nd * k
    n_l -= k * (n_total.cumsum() - n_total)[nd] + n_total[nd] * f
    left_pos -= k * (total_pos.cumsum() - total_pos)[nd] + total_pos[nd] * f
    n_total, total_pos = n_total[nd], total_pos[nd]
    n_r = n_total - n_l
    p_l = left_pos / n_l
    p_r = (total_pos - left_pos) / n_r
    score = n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)
    at = _first_best(score, nd, n_nodes)
    found = (at >= 0).nonzero()[0]
    at = at[found]
    c = cut[at]
    out = _no_splits(n_nodes)
    out.feature[found] = f[at]
    out.threshold[found] = [
        _threshold(lo, hi) for lo, hi in zip(
            bins.values[bin_of[c]].tolist(), bins.values[bin_of[c + 1]].tolist())
    ]
    out.score[found] = score[at]
    out.n_left[found] = n_l[at]
    out.pos_left[found] = left_pos[at]
    return out


def _no_splits(n_nodes: int) -> GiniSplits:
    """GiniSplits of ``n_nodes`` nodes that no cut separates."""
    feature = np.empty(n_nodes, dtype=np.intp)
    feature.fill(-1)
    score = np.empty(n_nodes)
    score.fill(np.inf)
    return GiniSplits(feature, np.zeros(n_nodes), score, np.zeros(n_nodes),
                      np.zeros(n_nodes))


class VarSplits(NamedTuple):
    """Each node's best variance split, as arrays over the nodes: the
    column of the codes (-1 where no cut separates the node), the
    threshold, and the children's summed squared deviations (inf with no
    split)."""

    feature: np.ndarray
    threshold: np.ndarray
    score: np.ndarray


def _padded_groups(length: np.ndarray):
    """Yield (nodes, width): the nodes with ``length`` rows each, in
    groups that hold each of their nodes' rows in a row of ``width`` cells
    (their longest node's length), longest nodes first.  A group holds at
    most twice its rows' cells, and pads no node by more than its own
    length or ``_PAD_CELLS``, whichever is more."""
    order = np.argsort(-length, kind="stable")
    sizes = length[order]
    filled = sizes.cumsum()
    lo = 0
    while lo < order.size:
        width = int(sizes[lo])
        # The lengths descend, so the nodes near enough come first.
        rest = sizes[lo:]
        near = np.count_nonzero(width - rest <= np.maximum(rest, _PAD_CELLS))
        taken = np.arange(1, near + 1) * width
        fits = taken <= 2 * (filled[lo:lo + near] - (filled[lo - 1] if lo else 0))
        hi = lo + int(fits.nonzero()[0][-1]) + 1
        yield order[lo:hi], width
        lo = hi


def best_splits_var(codes, y, bins, node) -> VarSplits:
    """Best axis-aligned split by within-child squared deviation of each
    of a set of regression nodes, all searched at once.

    ``codes`` holds the rows as bin codes into ``bins``.  Row i, with any
    real label y[i], belongs to node ``node[i]``; ``node`` does not
    decrease, so each node's rows are consecutive, in their order, and
    each node in 0 .. max(node) must hold a row.  Ties break toward the
    lowest feature index, then the lowest threshold.

    Each node is scored as the per-row loop scores it alone.  Its rows
    fill one row of a padded (node, feature, row) array, and within each
    feature sorting the codes orders them as a stable sort of the values
    does; running sums along those rows add each node's sorted labels in
    order, from its first, and its totals add its labels in its own row
    order.  Nodes are padded in groups of similar length
    (``_padded_groups``), so the arrays hold at most twice the cells.
    """
    k = codes.shape[1]
    n_nodes = int(node[-1]) + 1
    length = np.bincount(node, minlength=n_nodes)
    start = length.cumsum() - length
    out = VarSplits(np.full(n_nodes, -1, dtype=np.intp), np.zeros(n_nodes),
                    np.full(n_nodes, np.inf))
    searched = (length >= 2).nonzero()[0]
    for members, width in _padded_groups(length[searched]):
        members = searched[members]
        m, n = members.size, length[members]
        at = np.arange(width)
        pad = at >= n[:, None]
        rows = start[members][:, None] + at
        rows[pad] = 0
        yp = y.take(rows)
        yp[pad] = 0.0
        # Flat indices, into a (node, position) or (node, feature,
        # position) array, of each node's last row and of each cut.
        last = np.arange(0, m * width, width) + n - 1
        total_sum = yp.cumsum(axis=1).take(last)
        total_sq = (yp * yp).cumsum(axis=1).take(last)
        # Sort keys code << shift | position; padding sorts last.
        shift = width.bit_length()
        key = codes[rows].transpose(0, 2, 1).astype(np.int64)
        key <<= shift
        key |= at
        np.copyto(key, bins.values.size << shift, where=pad[:, None, :])
        key.sort(axis=2)
        cs = key >> shift
        pos = key & ((1 << shift) - 1)
        pos += np.arange(0, m * width, width)[:, None, None]
        ys = yp.take(pos)
        cut = cs[:, :, 1:] != cs[:, :, :-1]
        cut &= at[:-1] < (n - 1)[:, None, None]
        # In (node, feature, position) order: each node's cuts in the
        # order its loop scans them.
        node_feature, p = np.divmod(cut.ravel().nonzero()[0], width - 1)
        j, f = np.divmod(node_feature, k)
        at = node_feature * width + p
        left_sum = ys.cumsum(axis=2).take(at)
        left_sq = (ys * ys).cumsum(axis=2).take(at)
        n_l = p + 1
        n_r = n[j] - n_l
        right_sum = total_sum[j] - left_sum
        right_sq = total_sq[j] - left_sq
        score = (left_sq - left_sum * left_sum / n_l) + (
            right_sq - right_sum * right_sum / n_r
        )
        best = _first_best(score, j, m)
        found = (best >= 0).nonzero()[0]
        best = best[found]
        kept = members[found]
        out.feature[kept] = f[best]
        out.threshold[kept] = [
            _threshold(lo, hi) for lo, hi in zip(
                bins.values[cs.take(at[best])].tolist(),
                bins.values[cs.take(at[best] + 1)].tolist())
        ]
        out.score[kept] = score[best]
    return out


def _blocks(n_rows: int, n_cols: int):
    """Row slices covering ``n_rows`` query rows, each with at most
    ``_BLOCK_CELLS`` cells against ``n_cols`` reference rows (at least one
    row per block)."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _vote_sums(labels: np.ndarray) -> np.ndarray:
    """Row sums of ``labels``, added column by column from 0.0."""
    total = np.zeros(labels.shape[0])
    for t in range(labels.shape[1]):
        total += labels[:, t]
    return total


def _pair_sq_dists(queries, refs, qi, ri):
    """Squared Euclidean distances between the rows ``queries[qi]`` and
    ``refs[ri]``, pair by pair, each summed one feature at a time from
    0.0.  ``np.cumsum`` adds in order, and starting from the first square
    equals starting from 0.0, as no square is -0.0."""
    diff = queries[qi]
    diff -= refs[ri]
    diff *= diff
    if diff.shape[1] == 0:
        return np.zeros(qi.size)
    return diff.cumsum(axis=1)[:, -1]


def _neighbours(queries, refs, k, fold=None):
    """Yield (rows, nearest) per block of query rows: row i of ``nearest``
    holds the k reference rows nearest to query row ``rows.start + i``, in
    order of (squared distance, index).  ``fold``, a pair of arrays (the
    query rows' folds, the reference rows' folds), makes the reference
    rows of a query's own fold infinitely far; each run of consecutive
    query rows of one fold is masked at once.  Needs 1 <= k <= the
    reference rows.

    A matrix product screens the candidates and exact distances rank only
    those; the module docstring derives the screen.
    """
    n_q, d = queries.shape
    n_r = refs.shape[0]
    blocks = _blocks(n_q, n_r)
    f64 = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        centre = refs.mean(axis=0)
        ref_c = refs - centre
        query_c = queries - centre
        r_norm = np.einsum("ij,ij->i", ref_c, ref_c)
        q_norm = np.einsum("ij,ij->i", query_c, query_c)
        size = q_norm + r_norm.max()
    # A row whose size is not below max / 16 (inf and NaN included) enters
    # the product as zeros and takes an infinite bound, so that all its
    # cells are candidates and no step of the screen overflows.  With no
    # such row every reference row is finite and small enough too.
    ok = size <= f64.max / 16
    twice_bound = np.where(
        ok, 8.0 * (d + 4) * (f64.eps * size + f64.smallest_subnormal), np.inf)
    q_aug = np.column_stack([query_c, q_norm, np.ones(n_q)])
    q_aug[~ok] = 0.0
    r_aug = np.column_stack([-2.0 * ref_c, np.ones(n_r), r_norm])
    if not ok.any():
        r_aug[:] = 0.0
    step = blocks[0].stop if blocks else 0
    approx_buf = np.empty((step, n_r))
    kth_buf = np.empty((step, n_r))
    mask_buf = np.empty((step, n_r), dtype=bool)
    offsets = np.arange(k)
    for rows in blocks:
        block_q = queries[rows]
        b = block_q.shape[0]
        approx = np.matmul(q_aug[rows], r_aug.T, out=approx_buf[:b])
        if fold is not None:
            q_fold = fold[0][rows]
            starts = [0, *(np.flatnonzero(q_fold[1:] != q_fold[:-1]) + 1).tolist()]
            for a, c in zip(starts, [*starts[1:], b]):
                approx[a:c, fold[1] == q_fold[a]] = np.inf
        kth = kth_buf[:b]
        np.copyto(kth, approx)
        kth.partition(k - 1, axis=1)
        limit = kth[:, k - 1] + twice_bound[rows]
        candidate = np.greater(approx, limit[:, None], out=mask_buf[:b])
        np.logical_not(candidate, out=candidate)
        qi, ri = np.divmod(candidate.ravel().nonzero()[0], n_r)
        # No array of the exact pass is larger than the block.
        chunk = max(1, approx.size // max(d, 1))
        dist = np.empty(qi.size)
        for s in range(0, qi.size, chunk):
            dist[s:s + chunk] = _pair_sq_dists(
                block_q, refs, qi[s:s + chunk], ri[s:s + chunk])
        if fold is not None:
            dist[fold[1][ri] == q_fold[qi]] = np.inf
        # Stable, so each row's equal distances keep their index order.
        order = np.lexsort((dist, qi))
        first = np.searchsorted(qi, np.arange(b))
        yield rows, ri[order[first[:, None] + offsets]]


def knn_scores(train_X, train_y, test_X, k):
    """Mean label of the k nearest training rows (Euclidean) per test row."""
    kk = min(k, train_X.shape[0])
    out = np.empty(test_X.shape[0])
    for rows, nearest in _neighbours(test_X, train_X, kk):
        out[rows] = _vote_sums(train_y[nearest]) / kk
    return out


def knn_loo_fold_errors(X, y, fold, k):
    """Cross-validated k-NN misclassification indicators.

    For each row, neighbors are searched among rows of the *other* folds;
    the prediction is the majority vote of the k nearest (ties toward
    label 0).  Returns a 0/1 error vector aligned with the rows.

    The rows are searched in fold order, so that a block of them holds
    few folds.
    """
    n = X.shape[0]
    k = min(k, n)
    order = np.argsort(fold, kind="stable")
    q_fold = fold[order]
    fold_size = (np.searchsorted(q_fold, q_fold, side="right")
                 - np.searchsorted(q_fold, q_fold, side="left"))
    err = np.empty(n)
    for rows, nearest in _neighbours(X[order], X, k, (q_fold, fold)):
        kk = np.minimum(k, n - fold_size[rows])
        counted = np.arange(k) < kk[:, None]
        votes = _vote_sums(np.where(counted, y[nearest], 0.0))
        pred = np.where(votes > kk / 2.0, 1.0, 0.0)
        err[order[rows]] = np.where(pred == y[order[rows]], 0.0, 1.0)
    return err
