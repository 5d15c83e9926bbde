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
