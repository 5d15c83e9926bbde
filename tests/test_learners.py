import numpy as np
import pytest

from fairaudit import (
    AnalysisError,
    Dataset,
    LearnerKind,
    LearnerSpec,
    Task,
    apply_threshold,
    train,
)


def test_logistic_learns_separable():
    rng = np.random.default_rng(0)
    n = 300
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] > 0).astype(np.float64)
    d = Dataset(
        features=x, group=np.zeros(n, dtype=np.int64), outcome=y,
        task=Task.BINARY, column_names=("a", "b"),
    )
    model = train(LearnerSpec(kind=LearnerKind.LOGISTIC, epochs=300), d)
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
    for cols in model.feature_subsets:
        assert cols.size == int(np.ceil(0.4 * binary_dataset.k))


def test_task_checks(binary_dataset, regression_dataset):
    with pytest.raises(AnalysisError):
        train(LearnerSpec(kind=LearnerKind.LOGISTIC), regression_dataset)
    with pytest.raises(AnalysisError):
        train(LearnerSpec(kind=LearnerKind.RIDGE), binary_dataset)


def test_include_group_changes_fit(binary_dataset):
    spec = LearnerSpec(kind=LearnerKind.TREE, max_depth=4)
    without = train(spec, binary_dataset)
    with_g = train(spec, binary_dataset, include_group=True)
    assert with_g.n_features == binary_dataset.k + binary_dataset.n_groups
    assert without.n_features == binary_dataset.k


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


# ---------------------------------------------------------------------------
# Reference oracle: the tree grower that indexed X[rows] and y[rows] anew
# for each use at a node.  The grower that slices each node once must build
# the same node arrays byte for byte.


def loop_grow_tree(X, y, task, max_depth):
    from fairaudit import kernels

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
            feat, thresh, _ = kernels.best_split_gini(X[rows], ys)
        else:
            feat, thresh, _ = kernels.best_split_var(X[rows], ys)
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


def _tree_arrays(model):
    return tuple(
        getattr(model, name).tobytes()
        for name in ("node_feature", "node_threshold", "node_left",
                     "node_right", "node_value")
    )


@pytest.mark.parametrize("max_depth", [1, 3, 8])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
def test_grow_tree_matches_reference(task, max_depth):
    from fairaudit.learners import _grow_tree

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
        got = _tree_arrays(_grow_tree(X, y, task, max_depth))
        want = tuple(a.tobytes() for a in loop_grow_tree(X, y, task, max_depth))
        assert got == want


def test_grow_tree_calls_the_kernel_once_per_split_search(monkeypatch):
    # The grower looks the kernel up on the module at every node, so a
    # wrapper installed there sees each call, as many as the reference makes.
    from fairaudit import kernels
    from fairaudit.learners import _grow_tree

    calls = []
    real = kernels.best_split_gini

    def counting(X, y):
        calls.append(X.shape)
        return real(X, y)

    monkeypatch.setattr(kernels, "best_split_gini", counting)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 2, size=(200, 5)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1] + 2.0 * rng.random(200)) > 1.5).astype(np.float64)
    _grow_tree(X, y, Task.BINARY, 4)
    got = list(calls)
    calls.clear()
    loop_grow_tree(X, y, Task.BINARY, 4)
    assert len(got) > 1 and got == calls


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
