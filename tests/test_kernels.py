import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import kernels
from fairaudit.errors import AnalysisError


def gini_codes(codes, y, bins):
    """The level Gini kernel on one node of bin codes into ``bins``, each
    row counted once, as (feature, threshold, score)."""
    n = codes.shape[0]
    found = kernels.best_splits_gini(codes, y, bins, np.zeros(n, dtype=np.intp),
                                     np.ones(n))
    return int(found.feature[0]), float(found.threshold[0]), float(found.score[0])


def var_codes(codes, y, bins):
    """The level variance kernel on one node of bin codes into ``bins``, as
    (feature, threshold, score)."""
    found = kernels.best_splits_var(codes, y, bins,
                                    np.zeros(codes.shape[0], dtype=np.intp))
    return int(found.feature[0]), float(found.threshold[0]), float(found.score[0])


def gini_split(X, y):
    """``gini_codes`` on the feature matrix X, binned first."""
    codes, bins = kernels.bin_table(X)
    return gini_codes(codes, y, bins)


def var_split(X, y):
    """``var_codes`` on the feature matrix X, binned first."""
    codes, bins = kernels.bin_table(X)
    return var_codes(codes, y, bins)


def brute_best_split_gini(X, y):
    n, k = X.shape
    best = (-1, 0.0, np.inf)
    for j in range(k):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            t = 0.5 * (lo + hi)
            left = X[:, j] < t
            n_l, n_r = left.sum(), n - left.sum()
            p_l = y[left].mean()
            p_r = y[~left].mean()
            score = n_l * 2 * p_l * (1 - p_l) + n_r * 2 * p_r * (1 - p_r)
            if score < best[2] - 1e-12:
                best = (j, t, score)
    return best


def test_best_split_gini_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = rng.integers(5, 40)
        k = rng.integers(1, 4)
        X = np.round(rng.normal(size=(n, k)), 1)  # induce ties
        y = (rng.random(n) < 0.5).astype(np.float64)
        feat, thresh, score = gini_split(X, y)
        bf, bt, bs = brute_best_split_gini(X, y)
        assert feat == bf
        if feat >= 0:
            assert thresh == bt
            assert score == np.float64(bs) or abs(score - bs) < 1e-9


def test_best_split_var_reduces_sse():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = X[:, 1] * 3.0 + rng.normal(0, 0.01, 50)
    feat, thresh, score = var_split(X, y)
    assert feat == 1
    total_sse = ((y - y.mean()) ** 2).sum()
    assert score < total_sse


def test_split_no_separation():
    X = np.ones((5, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    feat, _, _ = gini_split(X, y)
    assert feat == -1


def test_knn_scores_matches_brute_force():
    rng = np.random.default_rng(2)
    train_X = rng.normal(size=(30, 4))
    train_y = (rng.random(30) < 0.5).astype(np.float64)
    test_X = rng.normal(size=(10, 4))
    got = kernels.knn_scores(train_X, train_y, test_X, 5)
    for i in range(10):
        dist = ((test_X[i] - train_X) ** 2).sum(axis=1)
        idx = np.argsort(dist, kind="mergesort")[:5]
        assert got[i] == train_y[idx].mean()


def test_knn_loo_excludes_own_fold():
    # two separable clusters; if own-fold rows leaked, error would be 0
    X = np.vstack([np.zeros((6, 1)), np.ones((6, 1))])
    y = np.array([0.0] * 6 + [1.0] * 6)
    fold = np.array([0, 0, 0, 1, 1, 1] * 2, dtype=np.int64)
    err = kernels.knn_loo_fold_errors(X, y, fold, 3)
    assert err.shape == (12,)
    assert err.mean() == 0.0  # other-fold rows of the same cluster dominate


def test_knn_loo_tie_breaks_to_zero():
    # single feature value: all distances equal; votes tie -> predict 0
    X = np.zeros((4, 1))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    fold = np.array([0, 0, 1, 1], dtype=np.int64)
    err = kernels.knn_loo_fold_errors(X, y, fold, 2)
    # prediction is 0 everywhere: errors exactly on y=1 rows
    np.testing.assert_array_equal(err, [0.0, 1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# Reference loops.  These are the per-row loops the vectorized kernels
# replaced; the kernels must reproduce them bit for bit.


def loop_best_split_gini(X, y):
    n, k = X.shape
    best_feat = -1
    best_thresh = 0.0
    best_score = np.inf
    total_pos = 0.0
    for i in range(n):
        total_pos += y[i]
    for j in range(k):
        order = np.argsort(X[:, j], kind="mergesort")
        left_pos = 0.0
        for pos in range(n - 1):
            i = order[pos]
            left_pos += y[i]
            x_here = X[order[pos], j]
            x_next = X[order[pos + 1], j]
            if x_here == x_next:
                continue
            n_l = pos + 1
            n_r = n - n_l
            p_l = left_pos / n_l
            p_r = (total_pos - left_pos) / n_r
            score = n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)
            if score < best_score - 1e-12:
                best_score = score
                best_feat = j
                lo, hi = float(x_here), float(x_next)
                mid = 0.5 * (lo + hi)
                best_thresh = mid if lo < mid <= hi else hi
    return best_feat, best_thresh, best_score


def loop_best_split_var(X, y):
    n, k = X.shape
    best_feat = -1
    best_thresh = 0.0
    best_score = np.inf
    total_sum = 0.0
    total_sq = 0.0
    for i in range(n):
        total_sum += y[i]
        total_sq += y[i] * y[i]
    for j in range(k):
        order = np.argsort(X[:, j], kind="mergesort")
        left_sum = 0.0
        left_sq = 0.0
        for pos in range(n - 1):
            i = order[pos]
            left_sum += y[i]
            left_sq += y[i] * y[i]
            x_here = X[order[pos], j]
            x_next = X[order[pos + 1], j]
            if x_here == x_next:
                continue
            n_l = pos + 1
            n_r = n - n_l
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            score = (left_sq - left_sum * left_sum / n_l) + (
                right_sq - right_sum * right_sum / n_r
            )
            if score < best_score - 1e-12:
                best_score = score
                best_feat = j
                lo, hi = float(x_here), float(x_next)
                mid = 0.5 * (lo + hi)
                best_thresh = mid if lo < mid <= hi else hi
    return best_feat, best_thresh, best_score


def loop_knn_scores(train_X, train_y, test_X, k):
    n_train = train_X.shape[0]
    n_test = test_X.shape[0]
    dim = train_X.shape[1]
    kk = min(k, n_train)
    out = np.empty(n_test)
    dist = np.empty(n_train)
    for i in range(n_test):
        for t in range(n_train):
            acc = 0.0
            for j in range(dim):
                diff = test_X[i, j] - train_X[t, j]
                acc += diff * diff
            dist[t] = acc
        order = np.argsort(dist, kind="mergesort")
        total = 0.0
        for t in range(kk):
            total += train_y[order[t]]
        out[i] = total / kk
    return out


def loop_knn_loo_fold_errors(X, y, fold, k):
    n = X.shape[0]
    dim = X.shape[1]
    err = np.empty(n)
    dist = np.empty(n)
    for i in range(n):
        for t in range(n):
            if fold[t] == fold[i]:
                dist[t] = np.inf
            else:
                acc = 0.0
                for j in range(dim):
                    diff = X[i, j] - X[t, j]
                    acc += diff * diff
                dist[t] = acc
        order = np.argsort(dist, kind="mergesort")
        avail = 0
        for t in range(n):
            if fold[t] != fold[i]:
                avail += 1
        kk = min(k, avail)
        votes = 0.0
        for t in range(kk):
            votes += y[order[t]]
        pred = 1.0 if votes > kk / 2.0 else 0.0
        err[i] = 0.0 if pred == y[i] else 1.0
    return err


# ---------------------------------------------------------------------------
# Bit-for-bit comparison with the reference loops.

STYLES = ("normal", "onehot", "integer")


def _features(rng, n, dim, style):
    if style == "normal":
        return np.round(rng.normal(size=(n, dim)), 1)  # ties, and -0.0
    if style == "onehot":
        return rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    return rng.integers(0, 4, size=(n, dim)).astype(np.float64)


def _sizes(rng, count):
    """Row counts: the n = 1 and n = 2 edges, then random sizes."""
    return [1, 2] + [int(v) for v in rng.integers(3, 60, size=count)]


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _split_hex(result):
    feat, thresh, score = result
    return int(feat), float(thresh).hex(), float(score).hex()


@pytest.fixture(params=["default", "one_cell"])
def block_cells(request, monkeypatch):
    """Run each comparison with the default k-NN blocks and with
    one-row blocks."""
    if request.param == "one_cell":
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 1)
    return request.param


@pytest.mark.parametrize("style", STYLES)
def test_split_kernels_match_loops(style):
    rng = np.random.default_rng(10 + STYLES.index(style))
    for n in _sizes(rng, 25):
        X = _features(rng, n, int(rng.integers(1, 6)), style)
        labels = (rng.random(n) < 0.4).astype(np.float64)
        assert _split_hex(gini_split(X, labels)) == _split_hex(
            loop_best_split_gini(X, labels)
        )
        values = np.round(rng.normal(size=n), 1)
        assert _split_hex(var_split(X, values)) == _split_hex(
            loop_best_split_var(X, values)
        )


def test_split_separable_feature_matches_loop():
    # A separable feature makes every cut up to the best one a new running
    # minimum, so the acceptance scan sees many records.
    rng = np.random.default_rng(20)
    x = np.sort(rng.normal(size=200))
    X = np.column_stack([rng.normal(size=200), x])
    y = (x > 0.3).astype(np.float64)
    assert _split_hex(gini_split(X, y)) == _split_hex(
        loop_best_split_gini(X, y)
    )
    assert _split_hex(var_split(X, x)) == _split_hex(
        loop_best_split_var(X, x)
    )


def test_split_signed_zero_labels_match_loop():
    # The loops start their sums from +0.0 and np.cumsum from the first
    # label, so labels of -0.0 give sums of opposite sign; the scores
    # must still agree.
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([-0.0, -0.0, -0.0])
    for kernel, loop in ((gini_split, loop_best_split_gini),
                         (var_split, loop_best_split_var)):
        assert _split_hex(kernel(X, y)) == _split_hex(loop(X, y))


def test_split_rule_skips_record_within_tolerance():
    # Two features with the same best partition score the same up to
    # rounding.  Find a case where the later feature comes out a few ulps
    # lower: a strict running minimum that the 1e-12 rule must reject.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        side = np.repeat([0.0, 1.0], 6)
        X = np.column_stack([side, side + rng.permutation(12) * 1e-3])
        y = rng.normal(size=12)
        s0 = var_split(X[:, :1], y)[2]
        s1 = var_split(X[:, 1:], y)[2]
        if s0 - 1e-12 <= s1 < s0:
            break
    else:
        pytest.fail("no case with a lower score on the second feature")
    result = var_split(X, y)
    assert result[0] == 0
    assert _split_hex(result) == _split_hex(loop_best_split_var(X, y))


@pytest.mark.parametrize("style", STYLES)
def test_knn_scores_match_loop(style, block_cells):
    rng = np.random.default_rng(30 + STYLES.index(style))
    for n_train in _sizes(rng, 12):
        dim = int(rng.integers(1, 5))
        train_X = _features(rng, n_train, dim, style)
        test_X = _features(rng, int(rng.integers(0, 15)), dim, style)
        train_y = np.round(rng.random(n_train), 1)
        k = int(rng.integers(1, 70))  # often more than n_train
        assert _hex(kernels.knn_scores(train_X, train_y, test_X, k)) == _hex(
            loop_knn_scores(train_X, train_y, test_X, k)
        )


@pytest.mark.parametrize("style", STYLES)
def test_knn_loo_fold_errors_match_loop(style, block_cells):
    rng = np.random.default_rng(40 + STYLES.index(style))
    for n in _sizes(rng, 12):
        X = _features(rng, n, int(rng.integers(1, 5)), style)
        y = (rng.random(n) < 0.5).astype(np.float64)
        n_folds = int(rng.integers(1, 6))  # one fold: no row has neighbours
        fold = rng.permutation(n) % n_folds
        k = int(rng.integers(1, 70))
        assert _hex(kernels.knn_loo_fold_errors(X, y, fold, k)) == _hex(
            loop_knn_loo_fold_errors(X, y, fold, k)
        )


# ---------------------------------------------------------------------------
# The screened k-NN search against the loops, on the inputs where a screen
# could go wrong: ties, duplicate and all-equal rows, a large offset,
# queries whose squares overflow or whose z-scores are infinite, and the
# edges (one column, one fold, k above the rows, no query rows).


@st.composite
def _knn_rows(draw, n_rows):
    """(rows, pool, rng): ``n_rows`` feature rows of a drawn style, a
    function that draws more rows alike, and the generator behind both."""
    dim = draw(st.integers(1, 4), label="dim")
    style = draw(st.sampled_from(
        [*STYLES, "duplicates", "all_equal"]), label="style")
    offset = draw(st.sampled_from([0.0, 1e8]), label="offset")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    base = _features(rng, 3, dim, "normal")

    def pool(count):
        if style == "duplicates":
            rows = base[rng.integers(0, 3, size=count)]
        elif style == "all_equal":
            rows = np.repeat(base[:1], count, axis=0)
        else:
            rows = _features(rng, count, dim, style)
        return rows + offset

    return pool(n_rows), pool, rng


_HUGE = (1e160, 1e300, 1.7e308, np.inf)


def _blow_up(draw, rows, rng, values):
    """``rows`` with a few cells set to ± one of ``values``, as drawn."""
    huge = draw(st.sampled_from((None, *values)), label="huge")
    if huge is None or rows.size == 0:
        return rows
    rows = rows.copy()
    cells = rng.random(rows.shape) < 0.3
    rows[cells] = np.where(rng.random(rows.shape) < 0.5, huge, -huge)[cells]
    return rows


@pytest.mark.parametrize("cells", [None, 1], ids=["default_blocks", "one_cell"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_knn_scores_screen_matches_loop(cells, data):
    n_train = data.draw(st.integers(1, 24), label="n_train")
    train_X, pool, rng = data.draw(_knn_rows(n_train))
    test_X = _blow_up(data.draw, pool(data.draw(st.integers(0, 12))), rng, _HUGE)
    train_y = np.round(rng.normal(size=n_train), 1)  # ties, and -0.0
    k = data.draw(st.integers(1, n_train + 5), label="k")
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        if cells is not None:
            mp.setattr(kernels, "_BLOCK_CELLS", cells)
        assert _hex(kernels.knn_scores(train_X, train_y, test_X, k)) == _hex(
            loop_knn_scores(train_X, train_y, test_X, k))


@pytest.mark.parametrize("cells", [None, 1], ids=["default_blocks", "one_cell"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_knn_loo_fold_errors_screen_matches_loop(cells, data):
    n = data.draw(st.integers(1, 24), label="n")
    X, _, rng = data.draw(_knn_rows(n))
    X = _blow_up(data.draw, X, rng, _HUGE[:-1])
    y = (rng.random(n) < 0.5).astype(np.float64)
    n_folds = data.draw(st.integers(1, 6), label="folds")
    fold = rng.permutation(n) % n_folds
    k = data.draw(st.integers(1, n + 5), label="k")
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        if cells is not None:
            mp.setattr(kernels, "_BLOCK_CELLS", cells)
        assert _hex(kernels.knn_loo_fold_errors(X, y, fold, k)) == _hex(
            loop_knn_loo_fold_errors(X, y, fold, k))


def _count_exact_pairs(monkeypatch):
    """Record (pairs, features) of every call of the exact-distance pass."""
    calls = []
    exact = kernels._pair_sq_dists

    def counted(queries, refs, qi, ri):
        calls.append((qi.size, queries.shape[1]))
        return exact(queries, refs, qi, ri)

    monkeypatch.setattr(kernels, "_pair_sq_dists", counted)
    return calls


def test_screen_passes_about_k_candidates_per_row_on_distinct_rows(monkeypatch):
    # Distinct rows have no ties at the k-th distance, so the screen should
    # pass little more than the k nearest; 2 k per row allows for rows
    # that fall within the rounding bound of the k-th.
    calls = _count_exact_pairs(monkeypatch)
    rng = np.random.default_rng(60)
    X = rng.normal(size=(2000, 8))
    y = (rng.random(2000) < 0.5).astype(np.float64)
    kernels.knn_loo_fold_errors(X, y, rng.permutation(2000) % 5, 5)
    assert sum(pairs for pairs, _ in calls) / 2000 <= 2 * 5
    calls.clear()
    kernels.knn_scores(X[:1500], y[:1500], X[1500:], 5)
    assert sum(pairs for pairs, _ in calls) / 500 <= 2 * 5


def test_exact_pass_on_all_equal_rows_stays_within_the_cell_budget(monkeypatch):
    # Every row ties with every other, so every cell is a candidate, and
    # the exact pass must take them a budget's worth at a time.
    calls = _count_exact_pairs(monkeypatch)
    X = np.full((150, 8), 2.5)
    y = np.arange(150) % 2.0
    fold = np.arange(150) % 3
    assert _hex(kernels.knn_loo_fold_errors(X, y, fold, 7)) == _hex(
        loop_knn_loo_fold_errors(X, y, fold, 7))
    assert sum(pairs for pairs, _ in calls) == 150 * 100
    assert _hex(kernels.knn_scores(X, y, X[:40], 7)) == _hex(
        loop_knn_scores(X, y, X[:40], 7))
    assert sum(pairs for pairs, _ in calls) == 150 * 100 + 40 * 150
    # Each kernel ran one block, and split its exact pass into several.
    assert len(calls) > 2
    assert all(pairs * dim <= kernels._BLOCK_CELLS for pairs, dim in calls)


# Run alike in this process and in one whose BLAS has a single thread: the
# k-NN outputs, as hex, on continuous and on tie-heavy rows.
_BLAS_CASE = """
import numpy as np
from fairaudit import kernels

def outputs():
    rng = np.random.default_rng(70)
    out = []
    for X in (rng.normal(size=(600, 37)),
              rng.integers(0, 2, size=(600, 10)).astype(np.float64)):
        y = (rng.random(600) < 0.5).astype(np.float64)
        fold = rng.permutation(600) % 5
        out += kernels.knn_loo_fold_errors(X, y, fold, 5).tolist()
        out += kernels.knn_scores(X[:400], y[:400], X[400:], 15).tolist()
    return [v.hex() for v in out]
"""


def test_knn_outputs_do_not_depend_on_blas_threads():
    import json
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(kernels.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c",
         _BLAS_CASE + "import json; print(json.dumps(outputs()))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    here = {}
    exec(_BLAS_CASE, here)
    assert json.loads(done.stdout) == here["outputs"]()


# ---------------------------------------------------------------------------
# Only the cuts between distinct values are scored: nodes with no such cut,
# one such cut, signed zeros, and the all-distinct case where every cut is.


def _assert_both_kernels_match(X, labels, values):
    assert _split_hex(gini_split(X, labels)) == _split_hex(
        loop_best_split_gini(X, labels)
    )
    assert _split_hex(var_split(X, values)) == _split_hex(
        loop_best_split_var(X, values)
    )


def test_split_node_with_every_feature_constant():
    rng = np.random.default_rng(50)
    for n, dim in ((2, 1), (5, 3), (300, 10)):
        X = np.tile(rng.normal(size=dim), (n, 1))
        labels = (np.arange(n) % 2).astype(np.float64)
        values = rng.normal(size=n)
        assert gini_split(X, labels)[0] == -1
        assert var_split(X, values)[0] == -1
        _assert_both_kernels_match(X, labels, values)
    # Signed zeros compare equal, so a column of 0.0 and -0.0 has no cut.
    X = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    _assert_both_kernels_match(X, np.array([0.0, 1.0, 0.0, 1.0]), rng.normal(size=4))
    assert gini_split(X, np.array([0.0, 1.0, 0.0, 1.0]))[0] == -1


def test_split_node_with_exactly_one_valid_cut():
    rng = np.random.default_rng(51)
    for n, dim, feat in ((2, 1, 0), (9, 4, 2), (200, 10, 9)):
        X = np.tile(rng.normal(size=dim), (n, 1))
        side = rng.permutation(n) < max(1, n // 3)
        X[side, feat] += 1.5
        labels = (rng.random(n) < 0.5).astype(np.float64)
        labels[0], labels[1] = 0.0, 1.0  # not pure
        values = np.round(rng.normal(size=n), 2)
        result = gini_split(X, labels)
        assert result[0] == feat
        _assert_both_kernels_match(X, labels, values)


def test_split_signed_zero_runs_next_to_other_values():
    rng = np.random.default_rng(52)
    cells = np.array([-0.0, 0.0, -1.0, 1.0, 0.5, -0.5])
    for _ in range(40):
        n = int(rng.integers(2, 40))
        X = cells[rng.integers(0, cells.size, size=(n, int(rng.integers(1, 5))))]
        # Runs: sort a random block of rows so equal values sit together.
        X[: n // 2] = np.sort(X[: n // 2], axis=0)
        labels = (rng.random(n) < 0.5).astype(np.float64)
        values = np.round(rng.normal(size=n), 1)
        _assert_both_kernels_match(X, labels, values)


@pytest.mark.parametrize("n, dim", [(2, 1), (3, 2), (50, 3), (800, 10)])
def test_split_all_distinct_normal_columns(n, dim):
    rng = np.random.default_rng(53 + n)
    X = rng.normal(size=(n, dim))
    assert all(np.unique(X[:, j]).size == n for j in range(dim))
    labels = (rng.random(n) < 0.4).astype(np.float64)
    values = rng.normal(size=n)
    _assert_both_kernels_match(X, labels, values)


def test_split_onehot_node_800_by_10():
    rng = np.random.default_rng(54)
    X = rng.integers(0, 2, size=(800, 10)).astype(np.float64)
    X[:, 3] = 1.0  # one constant column among them
    labels = ((X[:, 0] + X[:, 5] + rng.random(800)) > 1.4).astype(np.float64)
    values = np.round(X[:, 5] * 2.0 + rng.normal(size=800), 2)
    _assert_both_kernels_match(X, labels, values)


# ---------------------------------------------------------------------------
# Split search on a bin table: any rows and columns of a table's codes split
# as the values do alone, whether the Gini kernel counts into a table over
# every key or densifies the keys first, and whether a row is repeated or
# counted once with its multiplicity as weight.

NEXT_TO_ONE = float(np.nextafter(1.0, 2.0))
CELLS = (-1.5, -0.0, 0.0, 0.5, 1.0, NEXT_TO_ONE, 1e308, 1.7e308)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_split_kernels_on_a_table_match_the_kernels_alone(data):
    n = data.draw(st.integers(1, 10), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    cell = st.sampled_from(CELLS)
    X = np.array(data.draw(st.lists(cell, min_size=n * k, max_size=n * k)))
    X = X.reshape(n, k)
    codes, bins = kernels.bin_table(X)
    rows = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    cols = np.array(sorted(data.draw(
        st.sets(st.integers(0, k - 1), min_size=1), label="cols")))
    row_labels = np.array(data.draw(st.lists(
        st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)))
    labels = row_labels[rows]
    values = np.array(data.draw(st.lists(
        st.sampled_from((-2.0, 0.0, 0.25, 3.0)),
        min_size=rows.size, max_size=rows.size)))
    node = codes[np.ix_(rows, cols)]
    alone = X[np.ix_(rows, cols)]
    distinct, weight = np.unique(rows, return_counts=True)
    want = _split_hex(gini_split(alone, labels))
    for per_cell in (kernels._TABLE_PER_CELL, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TABLE_PER_CELL", per_cell)
            assert _split_hex(gini_codes(node, labels, bins)) == want
            found = kernels.best_splits_gini(
                codes[np.ix_(distinct, cols)], row_labels[distinct], bins,
                np.zeros(distinct.size, dtype=np.intp), weight.astype(np.float64))
            assert _split_hex(
                (found.feature[0], found.threshold[0], found.score[0])) == want
            if found.feature[0] >= 0:
                goes_left = alone[:, found.feature[0]] < found.threshold[0]
                assert found.n_left[0] == goes_left.sum()
                assert found.pos_left[0] == labels[goes_left].sum()
    assert _split_hex(var_codes(node, values, bins)) == _split_hex(
        var_split(alone, values))


@pytest.mark.parametrize("style", STYLES)
def test_var_level_matches_the_loop_node_by_node(style):
    # One call searches a level whose nodes differ in size (1 and 2 rows,
    # then up to 60), in random order, on the nodes' own table or on one
    # that also bins other rows.
    rng = np.random.default_rng(60 + STYLES.index(style))
    for trial in range(12):
        sizes = _sizes(rng, int(rng.integers(1, 8)))
        rng.shuffle(sizes)
        k = int(rng.integers(1, 5))
        X = _features(rng, sum(sizes), k, style)
        y = np.round(rng.normal(size=sum(sizes)), 1)
        node = np.repeat(np.arange(len(sizes)), sizes)
        extra = _features(rng, 20, k, style)
        own_codes, own_bins = kernels.bin_table(X)
        codes, bins = kernels.bin_table(np.vstack([X, extra]))
        for found in (kernels.best_splits_var(own_codes, y, own_bins, node),
                      kernels.best_splits_var(codes[:node.size], y, bins, node)):
            for j in range(len(sizes)):
                want = loop_best_split_var(X[node == j], y[node == j])
                assert _split_hex((found.feature[j], found.threshold[j],
                                   found.score[j])) == _split_hex(want)


def test_var_level_pads_nodes_in_groups_of_similar_length(monkeypatch):
    # A level of one long node and many short ones is padded in groups, so
    # the padded arrays hold at most twice the level's cells; each node
    # still gets its own loop's split.
    widths = []
    real = kernels._padded_groups

    def recording(length):
        for nodes, width in real(length):
            widths.append((length[nodes].sum(), nodes.size * width))
            yield nodes, width

    monkeypatch.setattr(kernels, "_padded_groups", recording)
    rng = np.random.default_rng(65)
    sizes = [400] + [3] * 50 + [40] * 5
    X = np.round(rng.normal(size=(sum(sizes), 2)), 1)
    y = rng.normal(size=X.shape[0])
    node = np.repeat(np.arange(len(sizes)), sizes)
    codes, bins = kernels.bin_table(X)
    found = kernels.best_splits_var(codes, y, bins, node)
    assert len(widths) > 1
    assert all(padded <= 2 * rows for rows, padded in widths)
    for j in range(len(sizes)):
        want = loop_best_split_var(X[node == j], y[node == j])
        assert _split_hex((found.feature[j], found.threshold[j],
                           found.score[j])) == _split_hex(want)


# Scores a few ulps or well within 1e-12 of each other, NaN, and ties: a
# level's scan per node must keep what a scan over that node alone keeps.
NEAR_SCORES = (0.0, 0.5, 0.5 + 1e-13, 0.5 - 1e-13, 0.5 + 3e-12,
               float(np.nextafter(0.5, 1.0)), 1.0, 1.0 - 5e-13, np.nan)


def loop_scan(scores):
    """The split loops' acceptance rule: the index of the cut they keep."""
    best_at, best = -1, np.inf
    for at, s in enumerate(scores):
        if s < best - 1e-12:
            best_at, best = at, s
    return best_at


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(NEAR_SCORES), max_size=8),
                min_size=1, max_size=6))
def test_first_best_per_node_matches_the_loop_rule(nodes):
    score = np.array([s for cuts in nodes for s in cuts], dtype=np.float64)
    seg = np.repeat(np.arange(len(nodes)), [len(cuts) for cuts in nodes])
    got = kernels._first_best(score, seg, len(nodes)).tolist()
    start = 0
    for j, cuts in enumerate(nodes):
        want = loop_scan(cuts)
        if cuts:
            assert kernels._scan(np.array(cuts)) == want
        assert got[j] == (-1 if want < 0 else start + want)
        start += len(cuts)


@pytest.mark.parametrize("lo, hi", [(1.0, NEXT_TO_ONE), (1e308, 1.7e308)])
def test_split_threshold_between_adjacent_or_huge_values(lo, hi):
    # The midpoint rounds onto lo, or overflows to inf; either would send
    # every row to one side, so the threshold is hi.
    X = np.array([[lo], [hi], [lo], [hi]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    for kernel, loop in ((gini_split, loop_best_split_gini),
                         (var_split, loop_best_split_var)):
        feat, thresh, _ = kernel(X, y)
        assert (feat, thresh) == (0, hi)
        assert _split_hex(kernel(X, y)) == _split_hex(loop(X, y))


def test_bin_table_numbers_distinct_values_column_by_column():
    X = np.array([[2.0, -0.0], [1.0, 5.0], [2.0, 0.0], [-3.0, 5.0]])
    codes, bins = kernels.bin_table(X)
    assert bins.values.tolist() == [-3.0, 1.0, 2.0, 0.0, 5.0]
    assert bins.feature.tolist() == [0, 0, 0, 1, 1]
    assert codes.tolist() == [[2, 3], [1, 4], [2, 3], [0, 4]]
    # Rows 1 and 3 of the second column use only the bin of 5.0, by a
    # table over the span or by sorting.
    for span in (bins.values.size, 100):
        dense, used = kernels.densify(codes[[1, 3], 1], span)
        assert dense.tolist() == [0, 0] and used.tolist() == [4]


def argsort_bin_table(X):
    """Reference: the bin table of one argsort per column, each column's
    codes scattered through its order and each bin's value the first of
    its run in that order."""
    n, k = X.shape
    columns = np.ascontiguousarray(X.T)
    order = columns.argsort(axis=1)
    xs = columns.ravel()[order + np.arange(0, n * k, n)[:, None]]
    first = np.empty((k, n), dtype=bool)
    first[:, :1] = True
    np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
    first = first.ravel()
    rank = first.cumsum() - 1
    codes = np.empty(n * k, dtype=np.intp)
    codes[(order * k + np.arange(k)[:, None]).ravel()] = rank
    starts = first.nonzero()[0]
    return codes.reshape(n, k), kernels.Bins(xs.ravel()[starts], starts // n)


def _bin_column(draw, n):
    style = draw(st.sampled_from(
        ["skewed", "balanced", "distinct", "zeros", "huge", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if style == "skewed":  # mostly one value, as a one-hot column
        return (rng.random(n) < 0.1).astype(np.float64)
    if style == "balanced":
        return rng.integers(0, 2, size=n).astype(np.float64)
    if style == "distinct":
        return rng.normal(size=n)
    if style == "zeros":  # 0.0 and -0.0, alone or beside another value
        return rng.choice(draw(st.sampled_from(
            [[0.0, -0.0], [-0.0, 1.0], [0.0, -0.0, 1.0], [-0.0], [0.0]])), n)
    if style == "huge":
        return rng.choice(draw(st.sampled_from(
            [[1e308, -1e308], [1e308, 1.7e308], [-1e308, 0.0, 1e308]])), n)
    return np.full(n, draw(st.sampled_from([0.0, -0.0, 3.5, -1e308])))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bin_table_equals_one_argsort_per_column(data):
    # Codes and table byte-equal to the argsort's, whichever columns take
    # the comparison: one- and two-valued ones, one-row ones, a bin of
    # 0.0 and -0.0 (valued as the argsort orders it), huge values.
    n = data.draw(st.sampled_from([1, 2, 3, 17, 200]))
    k = data.draw(st.integers(1, 5))
    X = np.column_stack([_bin_column(data.draw, n) for _ in range(k)])
    codes, bins = kernels.bin_table(X)
    want_codes, want = argsort_bin_table(X)
    assert codes.dtype == want_codes.dtype and codes.shape == want_codes.shape
    assert codes.tobytes() == want_codes.tobytes()
    assert bins.values.tobytes() == want.values.tobytes()
    assert bins.feature.tobytes() == want.feature.tobytes()


# ---------------------------------------------------------------------------
# Reference oracle: the z-scoring that the k-NN learner and the noise
# bounds each spelled out before `kernels.zscore` held it.


def loop_zscore(X):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def test_zscore_matches_loop_with_constant_columns():
    rng = np.random.default_rng(31)
    for n, k in ((1, 3), (2, 1), (7, 4), (50, 6)):
        X = rng.normal(size=(n, k)) * rng.uniform(0.1, 100.0, size=k)
        X[:, 0] = 3.5  # constant column: scale 1, centred to zero
        if k > 2:
            X[:, 2] = 0.0
        got, want = kernels.zscore(X), loop_zscore(X)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert got[2][0] == 1.0 and not got[0][:, 0].any()


@pytest.mark.parametrize("big", [1e308, 1e200])
def test_zscore_rejects_a_column_whose_mean_or_deviation_overflows(big):
    # 1e308 overflows the column's sum, 1e200 the squares of its
    # deviations; either would leave Z all NaN or all zero.
    X = np.column_stack([np.linspace(-1.0, 1.0, 6), np.tile([big, big / 2], 3)])
    with pytest.raises(AnalysisError, match="feature column 1"):
        kernels.zscore(X)
