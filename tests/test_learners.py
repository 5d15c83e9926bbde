import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    AnalysisError,
    DataError,
    Dataset,
    LearnerKind,
    LearnerSpec,
    Task,
    apply_threshold,
    train,
)
from fairaudit.learners import threshold_cells
from test_kernels import loop_best_split_gini, loop_best_split_var


def test_logistic_learns_separable():
    rng = np.random.default_rng(0)
    n = 300
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] > 0).astype(np.float64)
    d = Dataset(
        features=x, group=np.zeros(n, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=("a", "b"),
    )
    model = train(LearnerSpec(kind=LearnerKind.LOGISTIC), d)
    acc = (apply_threshold(model.predict_scores(x)) == y).mean()
    assert acc > 0.95


def test_logistic_l1_sparsifies():
    rng = np.random.default_rng(1)
    n = 400
    x = rng.normal(size=(n, 5))
    y = (x[:, 0] > 0).astype(np.float64)
    d = Dataset(
        features=x, group=np.zeros(n, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=tuple("abcde"),
    )
    dense = train(LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.0), d)
    sparse = train(
        LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.05, penalty="l1"), d
    )
    assert np.sum(np.abs(sparse.weights) < 1e-8) >= np.sum(
        np.abs(dense.weights) < 1e-8
    )
    # the signal feature survives the penalty, the nuisance ones shrink
    assert np.abs(sparse.weights[0]) > 0.5
    assert np.abs(sparse.weights[1:]).max() < np.abs(sparse.weights[0])


def test_ridge_exact_on_linear_data():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 3.0
    d = Dataset(
        features=x, group=np.zeros(100, dtype=np.int64), outcome=y,
        task=Task.REGRESSION, column_names=("a", "b", "c"),
    )
    model = train(LearnerSpec(kind=LearnerKind.RIDGE, lam=0.0), d)
    np.testing.assert_allclose(model.weights, [1.0, -2.0, 0.5], atol=1e-8)
    assert model.intercept == pytest.approx(3.0, abs=1e-8)


def test_ridge_shrinks_with_lambda():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 2))
    y = x[:, 0] * 5.0 + rng.normal(0, 0.1, 60)
    d = Dataset(
        features=x, group=np.zeros(60, dtype=np.int64), outcome=y,
        task=Task.REGRESSION, column_names=("a", "b"),
    )
    free = train(LearnerSpec(kind=LearnerKind.RIDGE, lam=0.0), d)
    shrunk = train(LearnerSpec(kind=LearnerKind.RIDGE, lam=1000.0), d)
    assert np.linalg.norm(shrunk.weights) < np.linalg.norm(free.weights)


def test_knn_scores_in_unit_interval(binary_dataset):
    model = train(LearnerSpec(kind=LearnerKind.KNN, k=7), binary_dataset)
    s = model.predict_scores(binary_dataset.features)
    assert np.all((s >= 0) & (s <= 1))
    # k=1 on training points reproduces training labels (continuous features)
    m1 = train(LearnerSpec(kind=LearnerKind.KNN, k=1), binary_dataset)
    np.testing.assert_array_equal(
        m1.predict_scores(binary_dataset.features), binary_dataset.outcome
    )


def test_tree_fits_axis_aligned_rule():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = ((x[:, 0] >= 0.2) & (x[:, 1] >= -0.5)).astype(np.float64)
    d = Dataset(
        features=x, group=np.zeros(200, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=("a", "b"),
    )
    model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=3), d)
    pred = apply_threshold(model.predict_scores(x))
    assert (pred == y).mean() > 0.98


def test_tree_depth_limit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 1))
    y = (rng.random(100) < 0.5).astype(np.float64)
    d = Dataset(
        features=x, group=np.zeros(100, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=("a",),
    )
    model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=1), d)
    # depth 1: at most 3 nodes (root + 2 leaves)
    assert model.node_feature.size <= 3


@pytest.mark.parametrize("spec", [
    LearnerSpec(kind=LearnerKind.TREE, max_depth=1),
    LearnerSpec(kind=LearnerKind.TREE, max_depth=3),
    LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=3, max_depth=1),
    LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=3, max_depth=3,
                bootstrap=False),
])
def test_trees_on_negative_zero_labels_have_no_negative_zero_node(spec):
    # A leaf of -0.0 labels, at the depth limit or pure above it, is a node
    # of the class 0.  Its value is +0.0 whether it comes from a sum of the
    # labels (numpy's sum of -0.0s is +0.0) or from its rows' weighted
    # counts, as every binary tree's nodes do.
    x = np.repeat([0.0, 1.0, 2.0], 5)[:, None]
    y = np.array([-0.0] * 5 + [1.0, -0.0] * 2 + [1.0] + [-0.0] * 5)
    d = Dataset(features=x, group=np.zeros(15, dtype=np.int64), outcome=y,
                task=Task.BINARY, column_names=("a",))
    model = train(spec, d)
    if spec.kind is LearnerKind.TREE:
        wants = [loop_grow_tree(x, y, Task.BINARY, spec.max_depth)]
    else:
        wants = list(reference_forest(spec, x, y, Task.BINARY))
    assert len(model.roots) == len(wants)
    for i, want in enumerate(wants):
        tree = walk_tree(model, i)
        value = tree[4]
        assert (value == 0.0).any()
        assert not np.signbit(value).any()
        assert _tree_arrays(tree) == _tree_arrays(want)


def test_bagged_trees_deterministic(binary_dataset):
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=5, seed=11)
    a = train(spec, binary_dataset).predict_scores(binary_dataset.features)
    b = train(spec, binary_dataset).predict_scores(binary_dataset.features)
    np.testing.assert_array_equal(a, b)
    c = train(
        LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=5, seed=12),
        binary_dataset,
    ).predict_scores(binary_dataset.features)
    assert not np.array_equal(a, c)


def test_bagged_feature_fraction(binary_dataset):
    spec = LearnerSpec(
        kind=LearnerKind.BAGGED_TREES, n_trees=4, feature_fraction=0.4
    )
    model = train(spec, binary_dataset)
    assert len(model.roots) == 4
    for i in range(4):
        feature = walk_tree(model, i)[0]
        used = set(feature[feature >= 0].tolist())
        assert len(used) <= math.ceil(0.4 * binary_dataset.k)


def test_task_checks(binary_dataset, regression_dataset):
    with pytest.raises(AnalysisError):
        train(LearnerSpec(kind=LearnerKind.LOGISTIC), regression_dataset)
    with pytest.raises(AnalysisError):
        train(LearnerSpec(kind=LearnerKind.RIDGE), binary_dataset)


def test_spec_validation():
    with pytest.raises(AnalysisError):
        LearnerSpec(kind=LearnerKind.KNN, k=0)
    with pytest.raises(AnalysisError):
        LearnerSpec(kind=LearnerKind.LOGISTIC, penalty="l3")
    with pytest.raises(AnalysisError):
        LearnerSpec(kind=LearnerKind.BAGGED_TREES, feature_fraction=0.0)


def test_binary_scores_outside_unit_interval_raise():
    # A ridge model labelled binary can score outside [0, 1]; the check is
    # a real one, not an assert that ``python -O`` removes.
    from fairaudit.learners import RidgeModel

    model = RidgeModel(
        kind=LearnerKind.RIDGE, task=Task.BINARY, n_features=1,
        weights=np.array([2.0]), intercept=0.0,
    )
    assert model.predict_scores(np.array([[0.25]]))[0] == 0.5
    with pytest.raises(AnalysisError, match=r"\[0, 1\]"):
        model.predict_scores(np.array([[1.0]]))
    # The end points pass, no rows pass, and a NaN score fails.
    assert model.predict_scores(np.array([[0.0], [0.5]])).tolist() == [0.0, 1.0]
    assert model.predict_scores(np.empty((0, 1))).shape == (0,)
    for bad in ([[-0.25], [0.25]], [[0.25], [np.nan]], [[np.inf]]):
        with pytest.raises(AnalysisError, match=r"\[0, 1\]"):
            model.predict_scores(np.array(bad))


# ---------------------------------------------------------------------------
# Reference oracle: a recursive tree grower that indexes X[rows] and y[rows]
# anew for each use at a node and searches each node with the per-row loops
# of test_kernels, so it shares no code with the kernels it checks.  Every
# grower must build the same node arrays byte for byte.


def loop_grow_tree(X, y, task, max_depth):
    feature, threshold, left, right, value = [], [], [], [], []

    def build(rows, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        ys = y[rows]
        if depth >= max_depth or rows.size < 2 or np.all(ys == ys[0]):
            return node
        if task is Task.BINARY:
            feat, thresh, _ = loop_best_split_gini(X[rows], ys)
        else:
            feat, thresh, _ = loop_best_split_var(X[rows], ys)
        if feat < 0:
            return node
        go_right = X[rows, feat] >= thresh
        feature[node] = int(feat)
        threshold[node] = float(thresh)
        left[node] = build(rows[~go_right], depth + 1)
        right[node] = build(rows[go_right], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value),
    )


def reference_forest(spec, X, y, task):
    """The reference's trees of a bagged forest, each grown on its own copy
    of the rows and columns it draws, its features named as columns of X."""
    from fairaudit.data import derive_seed

    n, k = X.shape
    n_feats = min(k, max(1, math.ceil(spec.feature_fraction * k)))
    for t in range(spec.n_trees):
        rng = np.random.default_rng(derive_seed(spec.seed, "bagged-tree", t))
        rows = rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
        cols = np.sort(rng.choice(k, size=n_feats, replace=False))
        feature, *rest = loop_grow_tree(X[np.ix_(rows, cols)], y[rows], task,
                                        spec.max_depth)
        yield (np.append(cols, -1)[feature], *rest)


def walk_tree(model, i):
    """Tree ``i`` of a tree model, walked from ``model.roots[i]`` into node
    arrays (feature, threshold, left, right, value) numbered in preorder, as
    ``loop_grow_tree`` numbers them."""
    order = []

    def visit(node):
        order.append(node)
        if model.node_feature[node] >= 0:
            visit(model.node_left[node])
            visit(model.node_right[node])

    visit(model.roots[i])
    order = np.asarray(order, dtype=np.int64)
    at = np.full(model.node_feature.size, -1, dtype=np.int64)
    at[order] = np.arange(order.size)
    inner = model.node_feature[order] >= 0
    return (
        model.node_feature[order],
        model.node_threshold[order],
        np.where(inner, at[model.node_left[order]], -1),
        np.where(inner, at[model.node_right[order]], -1),
        model.node_value[order],
    )


def _tree_arrays(arrays):
    """The bytes of node arrays (feature, threshold, left, right, value)."""
    return tuple(np.asarray(a).tobytes() for a in arrays)


def _dataset(X, y, task):
    """A one-group dataset of the feature matrix X and the labels y."""
    return Dataset(features=X, group=np.zeros(X.shape[0], dtype=np.int64),
                   outcome=y, task=task,
                   column_names=tuple(f"x{j}" for j in range(X.shape[1])))


@pytest.mark.parametrize("max_depth", [1, 3, 8])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
def test_grow_tree_matches_reference(task, max_depth):
    rng = np.random.default_rng(80 + max_depth)
    for trial in range(6):
        n = int(rng.integers(2, 400))
        style = trial % 3
        if style == 0:  # tied one-hot columns
            X = rng.integers(0, 2, size=(n, 6)).astype(np.float64)
        elif style == 1:  # rounded normals: ties and signed zeros
            X = np.round(rng.normal(size=(n, 4)), 1)
        else:  # all-distinct columns
            X = rng.normal(size=(n, 3))
        signal = X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.5, n)
        if task is Task.BINARY:
            y = (signal > 0.4).astype(np.float64)
        else:
            y = np.round(signal, 2)
        model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=max_depth),
                      _dataset(X, y, task))
        assert model.kind is LearnerKind.TREE and model.roots == (0,)
        assert (_tree_arrays(walk_tree(model, 0))
                == _tree_arrays(loop_grow_tree(X, y, task, max_depth)))


def test_tree_calls_the_gini_kernel_once_per_level(monkeypatch):
    # A single tree grows level by level: one Gini call per depth at which
    # the reference searches a node (two or more rows of mixed labels above
    # the depth limit), holding exactly the nodes it searches there.  The
    # grower looks the kernel up on the module, so a wrapper installed
    # there sees each call.
    from fairaudit import kernels

    calls = []
    real = kernels.best_splits_gini

    def counting(codes, y, bins, node, weight):
        calls.append(int(node.max()) + 1)
        return real(codes, y, bins, node, weight)

    monkeypatch.setattr(kernels, "best_splits_gini", counting)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 2, size=(200, 5)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1] + 2.0 * rng.random(200)) > 1.5).astype(np.float64)
    model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=4),
                  _dataset(X, y, Task.BINARY))
    want = loop_grow_tree(X, y, Task.BINARY, 4)
    assert _tree_arrays(walk_tree(model, 0)) == _tree_arrays(want)
    # The nodes the reference searches at each depth, found by sending the
    # rows down its tree.
    feature, threshold, left, right, _ = want
    searched = {}
    stack = [(0, 0, np.arange(y.size))]
    while stack:
        node, depth, rows = stack.pop()
        if depth < 4 and rows.size >= 2 and (y[rows] != y[rows[0]]).any():
            searched[depth] = searched.get(depth, 0) + 1
        if feature[node] >= 0:
            go = X[rows, feature[node]] >= threshold[node]
            stack += [(left[node], depth + 1, rows[~go]),
                      (right[node], depth + 1, rows[go])]
    assert sorted(searched) == list(range(len(searched)))
    assert len(calls) > 1
    assert calls == [searched[depth] for depth in range(len(searched))]


@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
@pytest.mark.parametrize("lo, hi", [
    (1.0, float(np.nextafter(1.0, 2.0))),  # the midpoint rounds onto lo
    (1e308, 1.7e308),  # the midpoint's sum overflows
])
def test_tree_splits_between_adjacent_or_huge_values(task, lo, hi):
    # A threshold that sent every row to one side would grow an empty
    # child with a NaN value, again at each depth, and fit nothing.
    X = np.array([[lo], [hi]] * 4)
    y = np.array([0.0, 1.0] * 4)
    d = Dataset(features=X, group=np.zeros(8, dtype=np.int64), outcome=y,
                task=task, column_names=("x",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=4), d)
        scores = model.predict_scores(X)
    assert not np.isnan(model.node_value).any()
    assert model.node_feature.tolist() == [0, -1, -1]
    assert scores.tolist() == y.tolist()


def _bagged_dataset(task, n=300, k=6):
    rng = np.random.default_rng(70)
    X = np.column_stack([
        rng.integers(0, 2, size=(n, 2)).astype(np.float64),  # tied one-hot
        np.round(rng.normal(size=(n, 2)), 1),  # ties and signed zeros
        rng.normal(size=(n, k - 4)),  # all distinct
    ])
    signal = X[:, 0] + X[:, 2] + 0.5 * X[:, 4] + rng.normal(0, 0.5, n)
    y = (signal > 0.6).astype(np.float64) if task is Task.BINARY else np.round(signal, 2)
    return Dataset(features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
                   task=task, column_names=tuple(f"x{j}" for j in range(k)))


@pytest.mark.parametrize("feature_fraction", [0.5, 1.0])
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
def test_bagged_trees_equal_trees_grown_one_at_a_time(task, bootstrap,
                                                     feature_fraction):
    # One bin table serves the forest; each tree must still be the one the
    # reference grows on its own copy of its rows and columns.  A tree with
    # every column skips the column draw, which is its last.
    d = _bagged_dataset(task)
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=6, max_depth=5,
                       feature_fraction=feature_fraction, bootstrap=bootstrap,
                       seed=9)
    model = train(spec, d)
    wants = list(reference_forest(spec, d.features, d.outcome, task))
    assert len(model.roots) == len(wants)
    for i, want in enumerate(wants):
        assert _tree_arrays(walk_tree(model, i)) == _tree_arrays(want)


@pytest.mark.parametrize("feature_fraction", [1.0, 0.3])
def test_gini_search_scans_no_more_bins_than_node_cells(monkeypatch, feature_fraction):
    # On all-distinct columns the forest's table has a bin per cell, and a
    # deep level has many nodes: a table over every (node, bin, label) key
    # would grow with nodes times bins.  No count table of a level may
    # hold more than _TABLE_PER_CELL entries per cell it counts, so past
    # that the keys are densified; with 2 trees and with 20.
    from fairaudit import kernels

    sizes, densified = [], []
    real_bincount, real_densify = np.bincount, kernels.densify

    def recording(x, weights=None, minlength=0):
        out = real_bincount(x, weights, minlength)
        sizes.append((out.size, x.size))
        return out

    def counted(key, span):
        densified.append(span)
        return real_densify(key, span)

    monkeypatch.setattr(np, "bincount", recording)
    monkeypatch.setattr(kernels, "densify", counted)
    rng = np.random.default_rng(71)
    n, k = 500, 10
    X = rng.normal(size=(n, k))
    y = ((X[:, 0] + X[:, 1] + rng.normal(0, 0.7, n)) > 0).astype(np.float64)
    d = Dataset(features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
                task=Task.BINARY, column_names=tuple(f"x{j}" for j in range(k)))
    for n_trees in (2, 20):
        sizes.clear()
        densified.clear()
        model = train(LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=n_trees,
                                  max_depth=8, feature_fraction=feature_fraction), d)
        assert max(walk_tree(model, i)[0].size
                   for i in range(n_trees)) > 50
        assert len(sizes) > 8 and len(densified) > 0
        assert all(entries <= kernels._TABLE_PER_CELL * cells
                   for entries, cells in sizes)


def test_forest_grown_one_tree_per_group_is_byte_equal(monkeypatch):
    # Each tree's arithmetic is its own, so how many trees grow together
    # cannot change any node array.
    from fairaudit import learners

    d = _bagged_dataset(Task.BINARY, n=400)
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=12, max_depth=6,
                       feature_fraction=0.5, seed=4)
    grouped = train(spec, d)
    assert 400 * 3 * 12 <= learners._GROUP_CELLS  # one group by default
    monkeypatch.setattr(learners, "_GROUP_CELLS", 1)
    alone = train(spec, d)
    assert len(grouped.roots) == len(alone.roots) == 12
    for i in range(12):
        assert (_tree_arrays(walk_tree(grouped, i))
                == _tree_arrays(walk_tree(alone, i)))


def _layout_forests(monkeypatch):
    """(forest, its reference trees): a binary forest grown in one group,
    the same forest grown one tree per group, and a regression forest."""
    from fairaudit import learners

    out = []
    for task in (Task.BINARY, Task.REGRESSION):
        d = _bagged_dataset(task, n=200)
        spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=5,
                           max_depth=4, feature_fraction=0.5, seed=6)
        want = list(reference_forest(spec, d.features, d.outcome, task))
        out.append((train(spec, d), want))
        if task is Task.BINARY:
            with monkeypatch.context() as patch:
                patch.setattr(learners, "_GROUP_CELLS", 1)
                out.append((train(spec, d), want))
    return out


def test_forest_node_table_layout(monkeypatch):
    # Walked from the roots, the trees cover the table: every node once, no
    # node shared and none orphaned; every link points to a later node.
    for model, want in _layout_forests(monkeypatch):
        size = model.node_feature.size
        assert len(model.roots) == len(want)
        assert size == sum(tree[0].size for tree in want)
        for name in ("node_threshold", "node_left", "node_right", "node_value"):
            assert getattr(model, name).shape == (size,)
        seen = []
        stack = list(model.roots)
        while stack:
            node = stack.pop()
            seen.append(node)
            if model.node_feature[node] >= 0:
                stack += [model.node_left[node], model.node_right[node]]
        assert sorted(seen) == list(range(size))
        inner = np.flatnonzero(model.node_feature >= 0)
        assert (model.node_left[inner] > inner).all()
        assert (model.node_right[inner] > inner).all()
        leaves = model.node_feature < 0
        assert (model.node_left[leaves] == -1).all()
        assert (model.node_right[leaves] == -1).all()


@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
def test_forest_roots_take_the_size_of_their_own_draw(task):
    # Draws shorter and longer than the rows of the codes, and draws that
    # repeat rows: each tree is the one the reference grows on its rows.
    from fairaudit import kernels
    from fairaudit.learners import _forest_draws, _grow_forest

    d = _bagged_dataset(task, n=120)
    X, y = d.features, d.outcome
    codes, bins = kernels.bin_table(X)
    rng = np.random.default_rng(12)
    samples = [np.arange(40), rng.integers(0, 120, size=300),
               np.repeat(np.arange(30), 3), np.arange(120)]
    for cols in ([np.arange(X.shape[1])] * 4,
                 [np.array(c) for c in ([0, 2, 4], [1, 3, 5], [0, 1, 2],
                                        [3, 4, 5])]):
        draws = list(zip(samples, cols))
        forest = _grow_forest(codes, bins, y,
                              _forest_draws([draws], codes, bins, y, task)[0],
                              5, task)
        assert len(forest.roots) == len(draws)
        for i, (rows, c) in enumerate(draws):
            feature, *rest = loop_grow_tree(X[np.ix_(rows, c)], y[rows], task, 5)
            want = (np.append(c, -1)[feature], *rest)
            assert _tree_arrays(walk_tree(forest, i)) == _tree_arrays(want)


def _tied_rows(task, n=300):
    """Rows that repeat: three 0/1 columns and one of -0.0, 0.0 and 2.5,
    labels that differ between equal rows."""
    rng = np.random.default_rng(21)
    X = np.column_stack([rng.integers(0, 2, size=(n, 3)).astype(np.float64),
                         rng.choice([-0.0, 0.0, 2.5], size=n)])
    signal = X[:, 0] - X[:, 1] + rng.normal(0, 0.7, n)
    y = ((signal > 0.2).astype(np.float64) if task is Task.BINARY
         else np.round(signal, 1))
    return Dataset(features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
                   task=task, column_names=("a", "b", "c", "z"))


def _first_search_rows(monkeypatch, name, spec, d):
    """The rows of the first call of the split kernel ``name`` when
    ``spec`` trains on ``d``."""
    from fairaudit import kernels

    rows = []
    search = getattr(kernels, name)

    def counted(codes, *args, **kwargs):
        rows.append(codes.shape[0])
        return search(codes, *args, **kwargs)

    monkeypatch.setattr(kernels, name, counted)
    train(spec, d)
    return rows[0]


@pytest.mark.parametrize("feature_fraction", [0.5, 1.0])
def test_binary_forest_searches_each_distinct_row_of_a_tree_once(
        monkeypatch, feature_fraction):
    # A tree's drawn rows merge by (codes row, label), whatever columns it
    # drew: the root level gets one row per distinct triple.
    from fairaudit.learners import _draws

    d = _tied_rows(Task.BINARY)
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=8, max_depth=3,
                       feature_fraction=feature_fraction, seed=4)
    got = _first_search_rows(monkeypatch, "best_splits_gini", spec, d)
    # 0.0 and -0.0 share a bin: adding 0.0 makes them one key.
    triples = {(t, tuple((d.features[r] + 0.0).tolist()), d.outcome[r])
               for t, (drawn, _) in enumerate(_draws(spec, np.arange(d.n), d.k))
               for r in drawn.tolist()}
    assert got == len(triples)


def test_regression_forest_searches_every_drawn_row(monkeypatch):
    # Regression rows stay as drawn, repeats included.
    d = _tied_rows(Task.REGRESSION)
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=8, max_depth=3,
                       seed=4)
    got = _first_search_rows(monkeypatch, "best_splits_var", spec, d)
    assert got == 8 * d.n


def test_node_sums_equal_numpy_sum_of_each_node():
    # Pairwise summation makes a node's sum depend on its length, which is
    # why nodes are summed in matrices of one length.
    from fairaudit.learners import _node_sums

    rng = np.random.default_rng(13)
    length = rng.integers(1, 300, size=200)
    length[:3] = (1, 129, 129)
    y = rng.normal(size=length.sum()) * 10.0 ** rng.integers(-8, 8, length.sum())
    got = _node_sums(y, length)
    ends = np.cumsum(length)
    want = [y[e - n:e].sum() for n, e in zip(length, ends)]
    assert got.tobytes() == np.array(want).tobytes()


def test_regression_forest_without_feature_columns():
    # Every tree is one leaf, whose feature -1 names no column.
    d = Dataset(features=np.empty((5, 0)), group=np.zeros(5, dtype=np.int64),
                outcome=np.arange(5.0), task=Task.REGRESSION, column_names=())
    model = train(LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=3,
                              bootstrap=False), d)
    assert model.roots == (0, 1, 2)
    assert model.node_feature.tolist() == [-1, -1, -1]
    assert model.predict_scores(np.empty((2, 0))).tolist() == [2.0, 2.0]


ADJACENT = float(np.nextafter(1.0, 2.0))
FOREST_CELLS = (-1.0, -0.0, 0.0, 1.0, ADJACENT, 1e308, 1.7e308)
FOREST_LABELS = (-2.5, -0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 7.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_forest_trees_equal_the_reference_grown_one_at_a_time(data):
    # Tied one-hot columns, signed zeros, adjacent doubles, 1e308-scale
    # values and all-distinct columns, binary labels and real ones whose
    # sums round: every tree grown level by level with its forest must be
    # the tree the reference grows on its own rows and columns.
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(0, 5), label="k")
    kinds = data.draw(st.lists(
        st.sampled_from(("onehot", "cells", "distinct")), min_size=k,
        max_size=k), label="columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, k))
    for j, kind in enumerate(kinds):
        if kind == "onehot":
            X[:, j] = rng.integers(0, 2, size=n)
        elif kind == "cells":
            X[:, j] = rng.choice(FOREST_CELLS, size=n)
        else:
            X[:, j] = rng.permutation(n) * 0.5 - 3.0
    task = data.draw(st.sampled_from((Task.BINARY, Task.REGRESSION)), label="task")
    if task is Task.BINARY:
        # Negative labels spelled 0.0 or -0.0.
        y = np.where(rng.random(n) < data.draw(st.floats(0.0, 1.0)), 1.0,
                     rng.choice((0.0, -0.0), size=n))
    else:
        y = rng.choice(FOREST_LABELS, size=n)
    spec = LearnerSpec(
        kind=LearnerKind.BAGGED_TREES,
        n_trees=data.draw(st.integers(1, 6), label="n_trees"),
        max_depth=data.draw(st.integers(1, 8), label="max_depth"),
        feature_fraction=data.draw(st.sampled_from((0.3, 0.5, 1.0))),
        bootstrap=data.draw(st.booleans(), label="bootstrap"),
        seed=data.draw(st.integers(0, 1000)),
    )
    d = Dataset(features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
                task=task, column_names=tuple(f"x{j}" for j in range(k)))
    model = train(spec, d)
    wants = list(reference_forest(spec, X, y, task))
    assert len(model.roots) == len(wants)
    for i, want in enumerate(wants):
        assert _tree_arrays(walk_tree(model, i)) == _tree_arrays(want)


# ---------------------------------------------------------------------------
# Reference oracle for tree evaluation: each row descends from the root on
# its own.  The evaluator that pushes index sets down the tree must give the
# same scores byte for byte.


def loop_tree_scores(tree, X, root=0):
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = root
        while tree.node_feature[node] >= 0:
            if X[i, tree.node_feature[node]] >= tree.node_threshold[node]:
                node = tree.node_right[node]
            else:
                node = tree.node_left[node]
        out[i] = tree.node_value[node]
    return out


def _tree_model(feature, threshold, left, right, value, n_features):
    from fairaudit.learners import TreeModel

    return TreeModel(
        kind=LearnerKind.TREE, task=Task.REGRESSION, n_features=n_features,
        node_feature=np.asarray(feature, dtype=np.int64),
        node_threshold=np.asarray(threshold, dtype=np.float64),
        node_left=np.asarray(left, dtype=np.int64),
        node_right=np.asarray(right, dtype=np.int64),
        node_value=np.asarray(value, dtype=np.float64),
    )


def _assert_scores_match_loop(tree, X):
    X = np.ascontiguousarray(X, dtype=np.float64)
    got = tree._scores(X)
    assert got.shape == (X.shape[0],)
    assert got.tobytes() == loop_tree_scores(tree, X).tobytes()


@pytest.mark.parametrize("max_depth", [1, 2, 3, 8])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
def test_tree_scores_match_per_row_descent(task, max_depth):
    rng = np.random.default_rng(90 + max_depth)
    for trial in range(6):
        n = int(rng.integers(2, 400))
        style = trial % 3
        if style == 0:  # tied one-hot columns
            X = rng.integers(0, 2, size=(n, 6)).astype(np.float64)
        elif style == 1:  # rounded normals: rows on the thresholds
            X = np.round(rng.normal(size=(n, 4)), 1)
        else:  # all-distinct columns
            X = rng.normal(size=(n, 3))
        signal = X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.5, n)
        if task is Task.BINARY:
            y = (signal > 0.4).astype(np.float64)
        else:
            y = np.round(signal, 2)
        tree = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=max_depth),
                     _dataset(X, y, task))
        assert tree.roots == (0,) and tree.node_feature[0] >= 0
        # Training rows, fresh rows drawn like them, and a strided view.
        fresh = np.round(rng.normal(size=(500, X.shape[1])), 1)
        for rows in (X, fresh, np.hstack([fresh, fresh])[:, ::2]):
            _assert_scores_match_loop(tree, rows)


def test_tree_scores_single_leaf():
    tree = _tree_model([-1], [0.0], [-1], [-1], [0.375], 2)
    X = np.arange(10.0).reshape(5, 2)
    _assert_scores_match_loop(tree, X)
    assert np.all(tree._scores(X) == 0.375)


def test_tree_scores_rows_on_a_threshold_go_right():
    # Root on feature 1 at 0.5; its left child is a leaf pair on feature 0
    # at -1.0, and its right child a leaf.
    tree = _tree_model(
        [1, 0, -1, -1, -1], [0.5, -1.0, 0.0, 0.0, 0.0],
        [1, 2, -1, -1, -1], [4, 3, -1, -1, -1],
        [0.0, 0.0, 0.25, 0.5, 0.75], 2,
    )
    X = np.array([[-1.0, 0.5], [-1.0, 0.4], [-1.5, 0.4], [9.0, 0.5],
                  [np.nextafter(-1.0, 0.0), -3.0]])
    _assert_scores_match_loop(tree, X)
    assert tree._scores(X).tolist() == [0.75, 0.5, 0.25, 0.75, 0.5]


def test_tree_scores_node_whose_rows_all_go_one_way():
    # Every row goes left at the root, so the right subtree sees no row;
    # at node 1 every row goes right.
    tree = _tree_model(
        [0, 0, -1, -1, 1, -1, -1], [5.0, -5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1, 2, -1, -1, 5, -1, -1], [4, 3, -1, -1, 6, -1, -1],
        [0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0], 2,
    )
    X = np.array([[0.0, 9.0], [1.0, -9.0], [4.5, 0.0]])
    _assert_scores_match_loop(tree, X)
    assert tree._scores(X).tolist() == [2.0, 2.0, 2.0]
    # A root with one leaf child: every row reaches the leaf, or every row
    # reaches the inner child and overwrites the leaf's value.
    tree = _tree_model(
        [0, -1, 1, -1, -1], [0.0, 0.0, 0.0, 0.0, 0.0],
        [1, -1, 3, -1, -1], [2, -1, 4, -1, -1],
        [0.0, 1.0, 0.0, 2.0, 3.0], 2,
    )
    for X, want in ((-np.ones((3, 2)), 1.0), (np.ones((3, 2)), 3.0)):
        _assert_scores_match_loop(tree, X)
        assert tree._scores(X).tolist() == [want] * 3


@pytest.mark.parametrize("max_depth", [1, 3])
def test_tree_scores_zero_rows(max_depth, regression_dataset):
    tree = train(
        LearnerSpec(kind=LearnerKind.TREE, max_depth=max_depth),
        regression_dataset,
    )
    empty = np.empty((0, regression_dataset.k))
    _assert_scores_match_loop(tree, empty)
    assert tree.predict_scores(empty).shape == (0,)


def test_bagged_scores_match_per_tree_copies(binary_dataset):
    spec = LearnerSpec(
        kind=LearnerKind.BAGGED_TREES, n_trees=7, feature_fraction=0.5,
        max_depth=4, seed=5,
    )
    model = train(spec, binary_dataset)
    X = binary_dataset.features
    want = np.zeros(X.shape[0])
    for i in range(len(model.roots)):
        tree = _tree_model(*walk_tree(model, i), X.shape[1])
        feature = tree.node_feature
        assert len(set(feature[feature >= 0].tolist())) < X.shape[1]
        want += tree._scores(np.ascontiguousarray(X))
    want /= len(model.roots)
    assert model.predict_scores(X).tobytes() == want.tobytes()


def test_forest_scores_are_the_mean_of_per_row_descents():
    # Three hand-built trees in one table, their roots out of node order:
    # tree 0 a leaf at node 4, tree 1 a split at node 0 whose children
    # follow tree 2's root, and tree 2 a split on column 0 at node 1.
    from fairaudit.learners import TreeModel

    model = TreeModel(
        kind=LearnerKind.BAGGED_TREES, task=Task.REGRESSION, n_features=2,
        node_feature=np.array([1, 0, -1, -1, -1, -1, -1]),
        node_threshold=np.array([0.5, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        node_left=np.array([2, 5, -1, -1, -1, -1, -1]),
        node_right=np.array([3, 6, -1, -1, -1, -1, -1]),
        node_value=np.array([0.0, 0.0, 0.2, -0.0, 0.1, 0.3, 0.7]),
        roots=(4, 0, 1),
    )
    X = np.array([[-1.0, 0.4], [-2.0, 0.4], [0.0, -0.0], [np.nan, 9.0]])
    per_tree = [loop_tree_scores(model, X, root) for root in model.roots]
    want = np.zeros(X.shape[0])
    for scores in per_tree:
        want += scores
    want /= len(model.roots)
    # The order of the sum shows in the bytes: 0.1 + 0.2 + 0.7 is not
    # 0.7 + 0.2 + 0.1.
    assert want.tobytes() != (sum(per_tree[::-1], np.zeros(4)) / 3).tobytes()
    assert model.predict_scores(X).tobytes() == want.tobytes()
    assert model.predict_scores(np.asfortranarray(X)).tobytes() == want.tobytes()


def test_tree_model_scores_a_negative_zero_leaf_as_positive_zero():
    # A tree model's score is 0.0 plus its leaf's value, as a forest's is,
    # so a leaf of -0.0 scores +0.0; no report reads the sign of a score.
    tree = _tree_model([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1],
                       [2, -1, -1], [0.0, -0.0, 0.25], 1)
    scores = tree.predict_scores(np.array([[-1.0], [1.0]]))
    assert scores.tolist() == [0.0, 0.25] and not np.signbit(scores).any()
    leaf = _tree_model([-1], [0.0], [-1], [-1], [-0.0], 1)
    assert not np.signbit(leaf.predict_scores(np.zeros((3, 1)))).any()
    # A grown leaf is -0.0 when a negative denormal mean underflows.
    d = Dataset(features=np.zeros((3, 1)), group=np.zeros(3, dtype=np.int64),
                outcome=np.array([-5e-324, 0.0, 0.0]), task=Task.REGRESSION,
                column_names=("x",))
    model = train(LearnerSpec(kind=LearnerKind.TREE, max_depth=2), d)
    assert np.signbit(model.node_value).tolist() == [True]
    assert not np.signbit(model.predict_scores(d.features)).any()


def test_knn_model_z_scores_like_kernels_zscore():
    from fairaudit import kernels

    rng = np.random.default_rng(32)
    X = rng.normal(size=(30, 3))
    X[:, 1] = -2.0  # constant column
    d = Dataset(
        features=X, group=np.zeros(30, dtype=np.int64),
        outcome=(rng.random(30) < 0.5).astype(float), task=Task.BINARY,
        column_names=("a", "b", "c"),
    )
    model = train(LearnerSpec(kind=LearnerKind.KNN, k=3), d)
    Z, mean, scale = kernels.zscore(d.features)
    assert model.train_features.tobytes() == Z.tobytes()
    assert model.mean.tobytes() == mean.tobytes()
    assert model.scale.tobytes() == scale.tobytes()
    assert scale[1] == 1.0


# ---------------------------------------------------------------------------
# Logistic regression.  The objective is the mean log-loss plus lam/2 |w|^2
# (l2) or lam |w|_1 (l1), with the intercept unpenalized; damped Newton must
# reach its minimum whatever the feature scale.  The sigmoid keeps the
# masked form below byte for byte.


def loop_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_data(seed, n=1000, scale=1e5, separable=False):
    """Three normal columns, the first times ``scale``, and a 4-level
    one-hot block, whose columns sum to the intercept column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    onehot = np.eye(4)[rng.integers(0, 4, n)]
    logit = x @ [1.0, -0.5, 0.3] + onehot @ [0.2, -0.4, 0.1, 0.5]
    if separable:
        y = (logit > 0).astype(np.float64)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    X = np.hstack([x * [scale, 1.0, 1.0], onehot])
    return Dataset(
        features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=tuple(f"c{j}" for j in range(7)),
    )


def _l2_objective(X, y, w, b, lam):
    z = X @ w + b
    return np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * (w @ w)


def _l2_gradient(X, y, w, b, lam):
    r = (loop_sigmoid(X @ w + b) - y) / y.size
    return np.append(X.T @ r + lam * w, r.sum())


def _l1_objective(X, y, w, b, lam):
    z = X @ w + b
    return np.mean(np.logaddexp(0.0, z) - y * z) + lam * np.abs(w).sum()


def _l1_optimality_gap(X, y, w, b, lam):
    """The largest distance of 0 from the subdifferential of the l1
    objective: |g_j + lam sign(w_j)| where w_j != 0, max(|g_j| - lam, 0)
    where w_j = 0, and |g| for the intercept."""
    g = _l2_gradient(X, y, w, b, 0.0)
    gw = g[:-1]
    return max(float(np.where(w != 0.0, np.abs(gw + lam * np.sign(w)),
                              np.maximum(np.abs(gw) - lam, 0.0)).max()),
               abs(float(g[-1])))


def test_sigmoid_matches_masked_form_bitwise():
    from fairaudit.learners import _sigmoid

    rng = np.random.default_rng(30)
    z = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7, 745.2],
        rng.normal(0.0, 5.0, 8000),
        rng.normal(0.0, 300.0, 500),
    ])
    assert _sigmoid(z).tobytes() == loop_sigmoid(z).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_logistic_l2_reaches_a_zero_gradient_at_any_scale(lam):
    d = _logistic_data(31)
    model = train(LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam), d)
    grad = _l2_gradient(d.features, d.outcome, model.weights,
                        model.intercept, lam)
    assert np.abs(grad).max() <= 1e-8


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_logistic_l2_objective_matches_scipy(lam):
    from scipy.optimize import minimize

    d = _logistic_data(32, scale=1.0)
    X, y = d.features, d.outcome
    k = X.shape[1]
    model = train(LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam), d)
    res = minimize(
        lambda v: _l2_objective(X, y, v[:k], v[k], lam),
        np.zeros(k + 1),
        jac=lambda v: _l2_gradient(X, y, v[:k], v[k], lam),
        method="BFGS", options={"gtol": 1e-11, "maxiter": 10_000},
    )
    ours = _l2_objective(X, y, model.weights, model.intercept, lam)
    assert abs(ours - res.fun) <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e5])
def test_logistic_l2_separable_stops_before_the_cap(scale, monkeypatch):
    from fairaudit import learners

    d = _logistic_data(33, n=300, scale=scale, separable=True)
    fits = []
    for cap in (200, 500):
        monkeypatch.setattr(learners, "_MAX_NEWTON_STEPS", cap)
        fits.append(train(LearnerSpec(kind=LearnerKind.LOGISTIC), d))
    # The same bytes under both caps: the solver stopped on its own.
    assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
    assert fits[0].intercept == fits[1].intercept
    assert np.all(np.isfinite(fits[0].weights))
    margin = d.features @ fits[0].weights + fits[0].intercept
    assert np.array_equal(margin >= 0, d.outcome == 1.0)


@pytest.mark.parametrize("lam", [0.001, 0.01, 0.1])
def test_logistic_l1_is_subgradient_optimal_at_raw_scale(lam):
    # A column of about 1e5 and a one-hot block that sums to the intercept
    # column.
    d = _logistic_data(34, scale=1e5)
    model = train(
        LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam, penalty="l1"), d
    )
    gap = _l1_optimality_gap(d.features, d.outcome, model.weights,
                             model.intercept, lam)
    assert gap <= 1e-8


@pytest.mark.parametrize("lam", [0.001, 0.01, 0.1])
def test_logistic_l1_on_a_column_far_from_zero(lam):
    # Column 0 near 1e7 puts the intercept near -1e7 w_0.  One float64 step
    # of it moves the raw column-0 gradient by about 3e-5, so the raw gap
    # of the test above would measure that spacing, not the solver.  Held
    # instead: the intercept is within one step of its optimum, and the
    # weights are optimal on the centered columns.  An intercept eliminated
    # through H_ww - h h^T / h_bb loses 14 digits of the column's curvature
    # here and misses both, by up to 2 steps and 1e-6.
    d = _logistic_data(34, scale=1.0)
    X = d.features + np.eye(7)[0] * 1e7
    y = d.outcome
    train_set = Dataset(features=X, group=d.group, outcome=y, task=Task.BINARY,
                        column_names=d.column_names)
    model = train(
        LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam, penalty="l1"),
        train_set,
    )
    w, b = model.weights, model.intercept
    p = loop_sigmoid(X @ w + b)
    r = (p - y) / y.size
    assert abs(r.sum()) <= np.mean(p * (1.0 - p)) * np.spacing(abs(b))
    gw = (X - X.mean(axis=0)).T @ r
    gap = np.where(w != 0.0, np.abs(gw + lam * np.sign(w)),
                   np.maximum(np.abs(gw) - lam, 0.0)).max()
    assert gap <= 1e-9


def test_logistic_l1_with_a_zero_and_a_constant_column():
    # Neither column can move the fit: the zero column has no curvature,
    # and the constant one none beyond the intercept's.
    d = _logistic_data(37)
    X = np.hstack([d.features, np.zeros((d.n, 1)), np.full((d.n, 1), 37.0)])
    d = Dataset(features=X, group=d.group, outcome=d.outcome, task=Task.BINARY,
                column_names=tuple(f"c{j}" for j in range(9)))
    model = train(
        LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.01, penalty="l1"), d
    )
    assert model.weights[-2:].tolist() == [0.0, 0.0]
    assert _l1_optimality_gap(X, d.outcome, model.weights, model.intercept,
                              0.01) <= 1e-8


@pytest.mark.parametrize("lam", [0.001, 0.01, 0.1])
def test_logistic_l1_objective_no_worse_than_scipy(lam):
    # L-BFGS-B on w = u - v, u, v >= 0.  It can stop short of the minimum
    # on raw-scale columns, so only a fit above it fails.
    from scipy.optimize import minimize

    d = _logistic_data(35, scale=1e5)
    X, y = d.features, d.outcome
    k = X.shape[1]

    def fun(v):
        w, b = v[:k] - v[k:2 * k], v[2 * k]
        g = _l2_gradient(X, y, w, b, 0.0)
        return (_l1_objective(X, y, w, b, lam),
                np.concatenate([g[:k] + lam, lam - g[:k], g[k:]]))

    res = minimize(fun, np.zeros(2 * k + 1), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * k) + [(None, None)],
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    model = train(
        LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam, penalty="l1"), d
    )
    ours = _l1_objective(X, y, model.weights, model.intercept, lam)
    assert ours <= res.fun + 1e-9


def test_every_learner_field_is_read():
    # A LearnerSpec field that no learner reads would be an option that
    # parses and does nothing.
    from dataclasses import fields

    from fairaudit.learners import FIELDS_READ

    read = {name for names in FIELDS_READ.values() for name in names}
    assert set(FIELDS_READ) == set(LearnerKind)
    assert read == {f.name for f in fields(LearnerSpec)} - {"kind", "seed"}


LAYOUT_SPECS = [
    LearnerSpec(kind=LearnerKind.TREE, max_depth=5),
    LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=5, max_depth=4,
                feature_fraction=0.5, seed=3),
    LearnerSpec(kind=LearnerKind.KNN, k=7),
    LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.01, penalty="l2"),
    LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.01, penalty="l1"),
    LearnerSpec(kind=LearnerKind.RIDGE, lam=0.1),
]


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=lambda s: s.kind.value)
def test_predict_scores_do_not_depend_on_memory_layout(spec):
    # Tree ensembles are scored on a column-major copy; a matrix-vector
    # product gives other bits on one, so the linear models read rows.
    rng = np.random.default_rng(33)
    n, k = 600, 9
    X = rng.normal(size=(n, k)) * rng.uniform(0.1, 50.0, size=k)
    regression = spec.kind is LearnerKind.RIDGE
    signal = X @ rng.normal(size=k)
    y = signal if regression else (signal > 0).astype(np.float64)
    d = Dataset(
        features=X, group=np.zeros(n, dtype=np.int64), outcome=y,
        task=Task.REGRESSION if regression else Task.BINARY,
        column_names=tuple(f"x{j}" for j in range(k)),
    )
    model = train(spec, d)
    queries = rng.normal(size=(n, k)) * 20.0
    want = model.predict_scores(np.ascontiguousarray(queries)).tobytes()
    strided_rows = np.repeat(queries, 2, axis=0)[::2]
    strided_cols = np.asfortranarray(np.hstack([queries, queries]))[:, :k]
    for layout in (np.asfortranarray(queries), strided_rows, strided_cols):
        assert model.predict_scores(layout).tobytes() == want


# ---------------------------------------------------------------------------
# Cells of a tree ensemble's split grid (`learners.threshold_cells`).

# Values with ties, both zeros and cuts between adjacent grid points.
CELL_GRID = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])


def _splits_of(model):
    """(column, threshold) of every split of every tree of a tree model."""
    inner = model.node_feature >= 0
    return list(zip(model.node_feature[inner].tolist(),
                    model.node_threshold[inner].tolist()))


def _cell_case(seed):
    """Tree models trained on grid data, and evaluation rows that hold
    their thresholds exactly, grid values, NaN and continuous values."""
    rng = np.random.default_rng(seed)
    n, k = 80, int(rng.integers(1, 5))
    task = Task.BINARY if rng.random() < 0.5 else Task.REGRESSION
    models = []
    for _ in range(int(rng.integers(1, 4))):
        x = rng.choice(CELL_GRID, size=(n, k))
        x[rng.random((n, k)) < 0.2] = 0.25
        signal = x @ rng.normal(size=k) + rng.normal(scale=0.5, size=n)
        y = (signal > 0).astype(np.float64) if task is Task.BINARY else signal
        d = Dataset(features=x, group=np.zeros(n, dtype=np.int64), outcome=y,
                    task=task, column_names=tuple(f"x{j}" for j in range(k)))
        kind = LearnerKind.TREE if rng.random() < 0.5 else LearnerKind.BAGGED_TREES
        models.append(train(LearnerSpec(
            kind=kind, max_depth=int(rng.integers(1, 5)), n_trees=3,
            feature_fraction=float(rng.choice([0.5, 1.0])),
            seed=int(rng.integers(1000)),
        ), d))
    thresholds = [t for m in models for _, t in _splits_of(m)] or [0.0]
    pool = np.concatenate([CELL_GRID, thresholds, [np.nan]])
    m = int(rng.integers(0, 60))
    X = rng.choice(pool, size=(m, k))
    X[rng.random((m, k)) < 0.2] = 0.1  # between grid points
    return X, models


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_threshold_cells_rows_of_a_cell_take_every_split_alike(seed):
    X, models = _cell_case(seed)
    cells, rows = threshold_cells(X, models)
    m = X.shape[0]
    assert cells.shape == (m,) and set(cells.tolist()) == set(range(rows.size))
    assert (cells[rows] == np.arange(rows.size)).all()
    splits = [s for model in models for s in _splits_of(model)]
    for col, thr in splits:
        side = X[:, col] >= thr
        assert (side == side[rows][cells]).all()
    distinct = {}
    for col, thr in splits:
        distinct.setdefault(col, set()).add(thr)
    bound = math.prod(len(ts) + 1 for ts in distinct.values())
    assert rows.size <= min(m, bound)
    # Hence each model scores a cell's row as each of its rows, bit for bit.
    for model in models:
        whole = model.predict_scores(X)
        assert whole.tobytes() == model.predict_scores(X[rows])[cells].tobytes()


def test_threshold_cells_checks_kind_and_width(binary_dataset):
    X = binary_dataset.features
    knn = train(LearnerSpec(kind=LearnerKind.KNN), binary_dataset)
    with pytest.raises(AnalysisError, match="no split thresholds"):
        threshold_cells(X, [knn])
    tree = train(LearnerSpec(kind=LearnerKind.TREE), binary_dataset)
    with pytest.raises(DataError, match="feature columns"):
        threshold_cells(X[:, :2], [tree])
    # No model, or no split: every row in one cell.
    for models in ([], [_tree_model([-1], [0.0], [-1], [-1], [0.3], 3)]):
        cells, rows = threshold_cells(X, models)
        assert rows.size == 1 and not cells.any()
    cells, rows = threshold_cells(X[:0], [tree])
    assert cells.size == 0 and rows.size == 0


def test_threshold_cells_merge_signed_zero_cuts_and_rank_nan_lowest():
    # Cuts at -0.0 and 0.0 are one cut: x >= -0.0 and x >= 0.0 agree for
    # every x.  NaN fails both, as -1 does.
    trees = [_tree_model([0, -1, -1], [t, 0.0, 0.0], [1, -1, -1],
                         [2, -1, -1], [0.0, 1.0, 2.0], 1)
             for t in (-0.0, 0.0)]
    X = np.array([[-0.0], [0.0], [1.0], [-1.0], [np.nan]])
    cells, rows = threshold_cells(X, trees)
    assert cells.tolist() == [1, 1, 1, 0, 0] and rows.size == 2
    for tree in trees:
        assert (tree.predict_scores(X)
                == tree.predict_scores(X[rows])[cells]).all()


def searchsorted_cells(X, models):
    """Each row's cell under the rank rule ``searchsorted(cuts, x,
    side="right")`` on every split column (NaN ranked 0), the cells
    numbered in lexicographic order of the rank vectors."""
    splits = {s for model in models for s in _splits_of(model)}
    ranks = []
    for col in sorted({c for c, _ in splits}):
        cuts = np.sort([t for c, t in splits if c == col])
        rank = np.searchsorted(cuts, X[:, col], side="right")
        rank[np.isnan(X[:, col])] = 0
        ranks.append(rank)
    _, cells = np.unique(np.column_stack(ranks), axis=0, return_inverse=True)
    return cells.ravel()


def test_threshold_cells_of_one_cut_columns_follow_the_rank_rule():
    # Columns with one cut compare x >= t; one column with two cuts keeps
    # the searchsorted rank.  NaN, signed zeros, infinities and the
    # neighbours of each cut land in the cells of the rank rule.
    tiny = 5e-324
    cuts = [(0, 0.0), (1, -0.0), (2, 1.0), (2, 2.0), (3, np.inf),
            (4, -np.inf), (5, tiny)]
    trees = [_tree_model([c, -1, -1], [t, 0.0, 0.0], [1, -1, -1],
                         [2, -1, -1], [0.0, 1.0, 2.0], 6) for c, t in cuts]
    pool = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 1.0,
                     float(np.nextafter(1.0, 0.0)), 2.0, 3.0, -1.0])
    X = np.random.default_rng(14).choice(pool, size=(400, 6))
    X[:pool.size] = pool[:, None]
    cells, rows = threshold_cells(X, trees)
    assert cells.tolist() == searchsorted_cells(X, trees).tolist()
    for tree in trees:
        assert (tree.predict_scores(X)
                == tree.predict_scores(X[rows])[cells]).all()
