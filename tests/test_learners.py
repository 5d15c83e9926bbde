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


# ---------------------------------------------------------------------------
# Reference oracle for tree evaluation: each row descends from the root on
# its own.  The evaluator that pushes index sets down the tree must give the
# same scores byte for byte.


def loop_tree_scores(tree, X):
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = 0
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
    from fairaudit.learners import _grow_tree

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
        tree = _grow_tree(X, y, task, max_depth)
        assert tree.node_feature[0] >= 0
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
    for tree, cols in zip(model.trees, model.feature_subsets):
        assert cols.size < X.shape[1]
        want += tree._scores(np.ascontiguousarray(X[:, cols]))
    want /= len(model.trees)
    assert model.predict_scores(X).tobytes() == want.tobytes()


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
# Logistic regression.  The l2 objective is the mean log-loss plus
# lam/2 |w|^2 with the intercept unpenalized; damped Newton must reach its
# minimum whatever the feature scale.  The l1 path keeps the proximal
# gradient loop below, and the sigmoid the masked form below, byte for byte.


def loop_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loop_train_logistic_l1(X, y, lam, epochs, step_size):
    n, k = X.shape
    w = np.zeros(k)
    b = 0.0
    for t in range(1, epochs + 1):
        lr = step_size / np.sqrt(t)
        margin = X @ w + b
        grad_common = loop_sigmoid(margin) - y
        grad_w = X.T @ grad_common / n
        grad_b = float(grad_common.mean())
        w = w - lr * grad_w
        w = np.sign(w) * np.maximum(np.abs(w) - lr * lam, 0.0)
        b = b - lr * grad_b
    return w, b


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
def test_logistic_l2_separable_stops_before_the_cap(scale):
    d = _logistic_data(33, n=300, scale=scale, separable=True)
    fits = [
        train(LearnerSpec(kind=LearnerKind.LOGISTIC, epochs=e), d)
        for e in (200, 500)
    ]
    # The same bytes under both caps: the solver stopped on its own.
    assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
    assert fits[0].intercept == fits[1].intercept
    assert np.all(np.isfinite(fits[0].weights))
    margin = d.features @ fits[0].weights + fits[0].intercept
    assert np.array_equal(margin >= 0, d.outcome == 1.0)


@pytest.mark.parametrize("scale,lam", [(1.0, 0.0), (1.0, 0.05), (1e5, 0.01)])
def test_logistic_l1_matches_reference_bitwise(scale, lam):
    d = _logistic_data(34, n=400, scale=scale)
    spec = LearnerSpec(kind=LearnerKind.LOGISTIC, lam=lam, penalty="l1",
                       epochs=200, step_size=0.2)
    model = train(spec, d)
    w, b = loop_train_logistic_l1(d.features, d.outcome, lam, 200, 0.2)
    assert model.weights.tobytes() == w.tobytes()
    assert float.hex(float(model.intercept)) == float.hex(float(b))
