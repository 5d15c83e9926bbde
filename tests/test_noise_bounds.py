import json

import numpy as np
import pytest

from fairaudit import (
    BoundMethod,
    Dataset,
    Task,
    all_bounds,
    cover_hart_lower,
    mahalanobis_upper,
    nn_bounds,
)
from fairaudit.cli import run_cli
from fairaudit.errors import AnalysisError


def gaussian_mixture(n, delta, seed, k=2):
    """Two spherical Gaussians separated by delta along the first axis."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.float64)
    x = rng.normal(size=(n, k))
    x[:, 0] += y * delta
    return Dataset(
        features=x,
        group=np.zeros(n, dtype=np.int64),
        outcome=y,
        task=Task.BINARY,
        column_names=tuple(f"f{i}" for i in range(k)),
    )


def analytic_bayes_error(delta):
    # equal priors, unit variance: error = Phi(-delta/2)
    from math import erf, sqrt

    return 0.5 * (1.0 + erf(-delta / 2.0 / sqrt(2.0)))


def test_cover_hart_values():
    # frozen from the closed form (1 - sqrt(1 - 2 eps)) / 2
    assert cover_hart_lower(0.19) == pytest.approx(0.1062996063, abs=1e-9)
    assert cover_hart_lower(0.07) == pytest.approx(0.0363190752, abs=1e-9)
    assert cover_hart_lower(0.0) == 0.0
    assert cover_hart_lower(0.5) == 0.5
    assert cover_hart_lower(0.7) == 0.5  # clamped
    with pytest.raises(AnalysisError):
        cover_hart_lower(-0.1)


def test_mahalanobis_separable_goes_to_zero():
    near = mahalanobis_upper(gaussian_mixture(4000, 0.1, 0), 0)
    far = mahalanobis_upper(gaussian_mixture(4000, 10.0, 0), 0)
    assert far.e_up < 0.05 < near.e_up
    assert near.e_up <= 0.5 + 1e-9


def test_mahalanobis_matches_formula():
    d = gaussian_mixture(2000, 2.0, 1)
    est = mahalanobis_upper(d, 0)
    p1, p2 = est.priors
    delta = est.auxiliary["delta"]
    assert est.e_up == pytest.approx(2 * p1 * p2 / (1 + p1 * p2 * delta))


def test_mahalanobis_bounds_the_gaussian_bayes_error():
    for delta in (1.0, 2.0, 3.0):
        d = gaussian_mixture(60_000, delta, 3)
        assert mahalanobis_upper(d, 0).e_up >= analytic_bayes_error(delta)


def test_noise_bounds_the_exact_bayes_error_of_the_discrete_source(tmp_path):
    # The README's noise path: synth reports each group's exact Bayes error.
    data, synth_out, out = (tmp_path / n for n in ("d.csv", "synth", "noise"))
    assert run_cli(["synth", "--synth-kind", "discrete", "--n", "8000",
                    "--seed", "5", "--data", str(data),
                    "--out", str(synth_out)]) == 0
    schema = tmp_path / "schema.txt"
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    assert run_cli(["noise", "--k", "5", "--folds", "5", "--seed", "5",
                    "--data", str(data), "--schema", str(schema),
                    "--out", str(out)]) == 0
    exact = json.loads((synth_out / "report.json").read_text())[
        "results"]["exact_bayes"]["noise"]
    block = json.loads((out / "report.json").read_text())[
        "results"]["noise_bounds"]
    assert set(block) == {f"{m}.group{a}" for a in (0, 1)
                          for m in ("mahalanobis", "nearest_neighbor")}
    for a, bayes in enumerate(exact):
        assert block[f"mahalanobis.group{a}"]["e_up"] >= bayes


def test_nn_bounds_bracket_bayes_error():
    d = gaussian_mixture(4000, 2.0, 4)
    est = nn_bounds(d, 0, k=5, folds=5, seed=0)
    bayes = analytic_bayes_error(2.0)  # ~0.1587
    assert est.e_low <= bayes <= est.auxiliary["cv_error"] + 0.03
    assert est.method is BoundMethod.NEAREST_NEIGHBOR


def test_nn_bounds_deterministic_and_subsampled():
    d = gaussian_mixture(3000, 1.5, 5)
    a = nn_bounds(d, 0, seed=7, max_samples=800)
    b = nn_bounds(d, 0, seed=7, max_samples=800)
    assert a.e_up == b.e_up and a.e_low == b.e_low
    assert a.auxiliary["n_used"] == 800


@pytest.mark.parametrize(
    "n_used,folds", [(6, 5), (10, 5), (11, 5), (20, 3), (7, 7), (40, 2)]
)
def test_nn_bounds_k_at_most_the_rows_each_fold_trains_on(n_used, folds):
    # The largest fold holds ceil(n / folds) rows and votes from the rest.
    d = gaussian_mixture(300, 1.5, 6)
    largest = -(-n_used // folds)
    k = n_used - largest
    kw = dict(folds=folds, seed=3, max_samples=n_used)
    assert nn_bounds(d, 0, k=k, **kw).auxiliary["k"] == k
    with pytest.raises(AnalysisError) as info:
        nn_bounds(d, 0, k=k + 1, **kw)
    assert str(info.value) == (
        f"group 0: k={k + 1} exceeds the {k} rows a fold trains on "
        f"({n_used} rows used, {folds} folds)"
    )


def test_degenerate_one_hot_features_handled():
    # rank-deficient one-hot features: regularization must keep the
    # covariance invertible
    rng = np.random.default_rng(6)
    x_idx = rng.integers(0, 3, size=400)
    onehot = np.zeros((400, 3))
    onehot[np.arange(400), x_idx] = 1.0
    y = (rng.random(400) < np.array([0.2, 0.5, 0.8])[x_idx]).astype(float)
    d = Dataset(
        features=onehot,
        group=np.zeros(400, dtype=np.int64),
        outcome=y,
        task=Task.BINARY,
        column_names=("a", "b", "c"),
    )
    assert np.isfinite(mahalanobis_upper(d, 0).e_up)


def test_all_bounds_covers_groups_and_methods(binary_dataset):
    out = all_bounds(binary_dataset, seed=1)
    keys = {(e.method, e.group) for e in out}
    assert len(keys) == 2 * binary_dataset.n_groups


def test_requires_both_classes():
    d = Dataset(
        features=np.random.default_rng(0).normal(size=(20, 2)),
        group=np.zeros(20, dtype=np.int64),
        outcome=np.ones(20),
        task=Task.BINARY,
        column_names=("a", "b"),
    )
    with pytest.raises(AnalysisError, match="each class"):
        mahalanobis_upper(d, 0)


def test_estimate_rejects_lower_bound_above_upper():
    from fairaudit.noise_bounds import NoiseBoundEstimate

    with pytest.raises(AnalysisError, match="e_low <= e_up"):
        NoiseBoundEstimate(
            method=BoundMethod.NEAREST_NEIGHBOR, group=0, e_low=0.3,
            e_up=0.1, priors=(0.5, 0.5), auxiliary={},
        )


# ---------------------------------------------------------------------------
# Reference oracle: the Mahalanobis bound's ridge-regularized pooled
# covariance, written out step by step.


def _loop_class_stats(d, a):
    rows = d.group_indices(a)
    X = d.features[rows]
    y = d.outcome[rows]
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    X = (X - mean) / scale
    return X[y == 0.0], X[y == 1.0]


def loop_mahalanobis(d, a):
    neg, pos = _loop_class_stats(d, a)
    n1, n2 = neg.shape[0], pos.shape[0]
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    pooled = (
        (n1 - 1) * np.atleast_2d(np.cov(neg, rowvar=False, ddof=1))
        + (n2 - 1) * np.atleast_2d(np.cov(pos, rowvar=False, ddof=1))
    ) / (n1 + n2 - 2)
    k = pooled.shape[0]
    lam = 1e-3 * np.trace(pooled) / k
    if lam <= 0:
        lam = 1e-6
    pooled = pooled + lam * np.eye(k)
    return float(lam).hex(), float(diff @ np.linalg.solve(pooled, diff)).hex()


def test_regularization_matches_the_inline_formulas():
    rng = np.random.default_rng(41)
    cases = [gaussian_mixture(60, 1.5, seed, k=k) for seed, k in ((1, 1), (2, 3))]
    # All-constant features: zero trace, so lam falls back to 1e-6.
    cases.append(Dataset(
        features=np.ones((12, 2)), group=np.zeros(12, dtype=np.int64),
        outcome=np.tile([0.0, 1.0], 6), task=Task.BINARY, column_names=("a", "b"),
    ))
    # One-hot columns with a constant one: rank-deficient covariances.
    onehot = np.eye(3)[rng.integers(0, 3, size=40)]
    cases.append(Dataset(
        features=np.column_stack([onehot, np.zeros(40)]),
        group=np.zeros(40, dtype=np.int64),
        outcome=np.tile([0.0, 1.0], 20), task=Task.BINARY,
        column_names=("a", "b", "c", "d"),
    ))
    fallback = 0
    for d in cases:
        est = mahalanobis_upper(d, 0)
        lam_hex, delta_hex = loop_mahalanobis(d, 0)
        assert float(est.auxiliary["regularization"]).hex() == lam_hex
        assert est.auxiliary["delta"].hex() == delta_hex
        fallback += est.auxiliary["regularization"] == 1e-6
    assert fallback == 1
