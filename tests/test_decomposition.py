from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    Dataset,
    EnsemblePredictions,
    LearnerKind,
    LearnerSpec,
    Loss,
    Task,
    class_conditional_decomposition,
    compare_models_bias_variance,
    default_discrete_spec,
    ensemble_train,
    gamma_bar,
    gen_discrete,
    gen_regression,
    group_decomposition,
    point_decomposition,
    RegressionSynthSpec,
    apply_threshold,
    bootstrap_resample,
    derive_seed,
    train,
)
from fairaudit.decomposition import GroupDecomposition, PointDecomposition
from fairaudit.errors import AnalysisError, DataError
from fairaudit.stats import two_tailed_normal_p
from fairaudit.learners import LearnerSpec as LS
from fairaudit.synth import ConditionalOutcomeModel


def make_ensemble(preds):
    return EnsemblePredictions(table=np.asarray(preds, dtype=np.float64))


def tiny_binary(n, probs, groups):
    onehot = np.eye(n)
    d = Dataset(
        features=onehot,
        group=np.asarray(groups, dtype=np.int64),
        outcome=np.zeros(n),
        task=Task.BINARY,
        column_names=tuple(f"x{i}" for i in range(n)),
    )
    probs = np.asarray(probs, dtype=np.float64)

    om = ConditionalOutcomeModel(
        task=Task.BINARY, _prob=lambda X, a: probs[np.argmax(X, axis=1)]
    )
    return d, om


def tiny_regression(mean, var):
    """One-hot points with tabulated E[Y|x] and Var[Y|x]."""
    n = len(mean)
    d = Dataset(
        features=np.eye(n),
        group=np.zeros(n, dtype=np.int64),
        outcome=np.zeros(n),
        task=Task.REGRESSION,
        column_names=tuple(f"x{i}" for i in range(n)),
    )
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    om = ConditionalOutcomeModel(
        task=Task.REGRESSION,
        _mean=lambda X, a: mean[np.argmax(X, axis=1)],
        _var=lambda X, a: var[np.argmax(X, axis=1)],
    )
    return d, om


def test_point_terms_by_hand():
    # 3 points, 4 models
    d, om = tiny_binary(3, [0.9, 0.2, 0.5], [0, 0, 1])
    e = make_ensemble([[1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 0, 1]])
    p0 = point_decomposition(e, 0, d, om, Loss.ZERO_ONE)
    assert p0.y_star == 1.0 and p0.noise == pytest.approx(0.1)
    assert p0.y_main == 1.0 and p0.bias == 0.0
    assert p0.variance == 0.25 and p0.c_v == 1.0
    assert p0.c_n == pytest.approx(2 * 0.75 - 1)
    # tie in p -> y* = 0
    p2 = point_decomposition(e, 2, d, om, Loss.ZERO_ONE)
    assert p2.y_star == 0.0
    # tie in votes (2/4) -> y_main = 0
    assert p2.y_main == 0.0


def test_pointwise_identity_random_ensembles():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t, n = rng.integers(2, 9), rng.integers(1, 6)
        preds = (rng.random((t, n)) < rng.random()).astype(float)
        probs = rng.random(n)
        d, om = tiny_binary(n, probs, [0] * n)
        e = make_ensemble(preds)
        for i in range(n):
            p = point_decomposition(e, i, d, om, Loss.ZERO_ONE)
            col = preds[:, i]
            expected = np.mean(
                probs[i] * (col != 1.0) + (1 - probs[i]) * (col != 0.0)
            )
            assert abs(expected - p.expected_loss) < 1e-12


def test_squared_identity_random():
    rng = np.random.default_rng(1)
    preds = rng.normal(size=(6, 4))
    mean = rng.normal(size=4)
    var = rng.random(4)
    d, om = tiny_regression(mean, var)
    e = make_ensemble(preds)
    for i in range(4):
        p = point_decomposition(e, i, d, om, Loss.SQUARED)
        # E over models and Y of (yhat - Y)^2 = mean over models of
        # (yhat - mean)^2 plus the conditional variance
        expected = np.mean((preds[:, i] - mean[i]) ** 2) + var[i]
        assert abs(expected - p.expected_loss) < 1e-12
        assert p.c_n == 1.0 and p.c_v == 1.0


def test_group_additivity_known_mode():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 300, seed=2)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 8, 150, d, seed=3
    )
    for a in (0, 1):
        g = group_decomposition(e, d, om, Loss.ZERO_ONE, a)
        assert g.mode == "known"
        assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12


def test_unknown_mode_residual():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 300, seed=4)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 8, 150, d, seed=5
    )
    g = group_decomposition(e, d, None, Loss.ZERO_ONE, 0)
    assert g.mode == "unknown"
    assert g.noise is None and g.bias is None
    assert g.bias_noise_residual == pytest.approx(g.cost - g.variance_raw)
    assert g.variance_raw >= 0.0


def test_class_conditional_additivity():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 300, seed=6)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 8, 150, d, seed=7
    )
    for a in (0, 1):
        for y in (0, 1):
            g = class_conditional_decomposition(e, d, om, a, y)
            assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12


def test_class_conditional_unknown_mode():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 300, seed=8)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 6, 150, d, seed=9
    )
    g = class_conditional_decomposition(e, d, None, 0, 1)
    # unknown-mode FNR cost equals the plain mean error vs the fixed class
    rows = np.flatnonzero((d.group == 0) & (d.outcome == 1.0))
    expected = float(np.mean(e.predictions[:, rows] != 1.0))
    assert g.cost == pytest.approx(expected)


def test_main_prediction_rules():
    labels, om = tiny_binary(1, [0.3], [0])
    assert point_decomposition(
        make_ensemble([[1], [1], [0]]), 0, labels, om, Loss.ZERO_ONE
    ).y_main == 1.0
    reals, om_r = tiny_regression([0.0], [1.0])
    assert point_decomposition(
        make_ensemble([[0.2], [0.4], [0.9]]), 0, reals, om_r, Loss.SQUARED
    ).y_main == pytest.approx(0.5)
    tie = make_ensemble([[1], [0]])
    # ties toward 0
    assert point_decomposition(tie, 0, labels, om, Loss.ZERO_ONE).y_main == 0.0


def test_gamma_bar():
    from fairaudit.decomposition import GroupDecomposition

    decs = {
        0: GroupDecomposition(group=0, cost=0.3, mode="unknown"),
        1: GroupDecomposition(group=1, cost=0.1, mode="unknown"),
        2: GroupDecomposition(group=2, cost=0.25, mode="unknown"),
    }
    assert gamma_bar(decs) == pytest.approx(0.2)
    with pytest.raises(AnalysisError):
        gamma_bar({0: decs[0]})


def test_ensemble_train_order_independent():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 200, seed=10)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    lspec = LS(kind=LearnerKind.TREE, max_depth=2)
    e5 = ensemble_train(lspec, sampler, 5, 100, d, seed=11)
    e3 = ensemble_train(lspec, sampler, 3, 100, d, seed=11)
    # first 3 members agree: per-trial seeds depend only on (seed, trial)
    np.testing.assert_array_equal(e5.predictions[:3], e3.predictions)


def test_compare_models_identical_p1():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 300, seed=12)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 5, 150, d, seed=13
    )
    res = compare_models_bias_variance(e, e, d, Loss.ZERO_ONE)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.reject


def test_compare_models_detects_difference():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 2000, seed=14)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    good = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=4), sampler, 5, 1500, d, seed=15
    )
    # constant-0 predictor as the bad model
    bad = EnsemblePredictions(table=np.zeros((5, d.n)))
    res = compare_models_bias_variance(good, bad, d, Loss.ZERO_ONE)
    assert res.p_value < 0.05


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_identity_property_squared(seed):
    rng = np.random.default_rng(seed)
    t, n = 4, 3
    preds = rng.normal(size=(t, n))
    mean = rng.normal(size=n)
    var = rng.random(n) + 0.01
    d, om = tiny_regression(mean, var)
    g = group_decomposition(make_ensemble(preds), d, om, Loss.SQUARED, 0)
    assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-10


# Reference oracle: the per-point loop that the decomposition ran before
# its terms became array operations, with one outcome-model query per row.
# group_decomposition must agree with it bit for bit; the class-conditional
# weighted sums may add in another order, so they are held to 1e-12.


def loop_point_terms_zero_one(column, p1):
    y_star = 1.0 if p1 > 0.5 else 0.0  # ties toward 0
    noise = min(p1, 1.0 - p1)
    frac1 = float(column.mean())
    y_main = 1.0 if frac1 > 0.5 else 0.0
    bias = 1.0 if y_main != y_star else 0.0
    variance = float(np.mean(column != y_main))
    c_v = 1.0 if y_main == y_star else -1.0
    c_n = 2.0 * float(np.mean(column == y_star)) - 1.0
    return PointDecomposition(
        y_star=y_star, y_main=y_main, noise=noise, bias=bias,
        variance=variance, c_n=c_n, c_v=c_v,
    )


def loop_point_terms_squared(column, mean, var):
    y_main = float(column.mean())
    bias = (y_main - mean) ** 2
    variance = float(np.mean((column - y_main) ** 2))
    return PointDecomposition(
        y_star=mean, y_main=y_main, noise=var, bias=bias,
        variance=variance, c_n=1.0, c_v=1.0,
    )


def loop_point(e, i, eval_set, om, loss):
    x = eval_set.features[i]
    a = int(eval_set.group[i])
    column = e.predictions[:, i]
    if loss is Loss.ZERO_ONE:
        return loop_point_terms_zero_one(column, om.prob(x, a))
    return loop_point_terms_squared(column, om.mean(x, a), om.var(x, a))


def loop_group_decomposition(e, eval_set, om, loss, a):
    rows = eval_set.group_indices(a)
    points = [loop_point(e, int(i), eval_set, om, loss) for i in rows]
    return GroupDecomposition(
        group=a,
        cost=float(np.mean([p.expected_loss for p in points])),
        mode="known",
        noise=float(np.mean([p.c_n * p.noise for p in points])),
        bias=float(np.mean([p.bias for p in points])),
        variance=float(np.mean([p.c_v * p.variance for p in points])),
        variance_raw=float(np.mean([p.variance for p in points])),
        n_points=rows.size,
    )


def loop_class_conditional(e, eval_set, om, a, y):
    rows = eval_set.group_indices(a)
    weights = np.array(
        [om.prob(eval_set.features[i], a) for i in rows], dtype=np.float64
    )
    if y == 0:
        weights = 1.0 - weights
    weights = weights / weights.sum()
    noise = bias = variance = cost = 0.0
    for w, i in zip(weights, rows):
        p = loop_point(e, int(i), eval_set, om, Loss.ZERO_ONE)
        column = e.predictions[:, int(i)]
        noise += w * p.c_n * (1.0 if p.y_star != float(y) else 0.0)
        bias += w * p.bias
        variance += w * p.c_v * p.variance
        cost += w * float(np.mean(column != float(y)))
    return dict(cost=cost, noise=noise, bias=bias, variance=variance)


GROUP_FIELDS = ("cost", "noise", "bias", "variance", "variance_raw")


def assert_same_bits(got, want):
    for name in GROUP_FIELDS:
        assert float.hex(getattr(got, name)) == float.hex(getattr(want, name)), name
    assert (got.group, got.mode, got.n_points) == (
        want.group, want.mode, want.n_points
    )


def assert_matches_loop(e, eval_set, om, loss):
    for a in sorted(set(eval_set.group.tolist())):
        assert_same_bits(
            group_decomposition(e, eval_set, om, loss, a),
            loop_group_decomposition(e, eval_set, om, loss, a),
        )
    for i in range(eval_set.n):
        got = point_decomposition(e, i, eval_set, om, loss)
        want = loop_point(e, i, eval_set, om, loss)
        assert [float.hex(v) for v in vars(got).values()] == [
            float.hex(v) for v in vars(want).values()
        ]


def random_binary_case(rng, t, groups):
    """Random labels with forced vote ties and p in {0, 0.5, 1} entries."""
    n = len(groups)
    preds = (rng.random((t, n)) < rng.random()).astype(np.float64)
    if t % 2 == 0:
        preds[:, 0] = [1.0] * (t // 2) + [0.0] * (t // 2)
    probs = rng.random(n)
    probs[: min(n, 3)] = [0.5, 0.0, 1.0][: min(n, 3)]
    d, om = tiny_binary(n, probs, groups)
    return make_ensemble(preds), d, om


@pytest.mark.parametrize("t", [2, 3, 4, 7, 10])
def test_group_decomposition_matches_loop_zero_one_random(t):
    rng = np.random.default_rng(20 + t)
    for n in (1, 2, 5, 23):
        # the last point forms a one-point group
        e, d, om = random_binary_case(rng, t, [0] * (n - 1) + [1])
        assert_matches_loop(e, d, om, Loss.ZERO_ONE)


def test_group_decomposition_matches_loop_zero_one_trees():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 3000, seed=30)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 8, 100, d, seed=31
    )
    assert_matches_loop(e, d, om, Loss.ZERO_ONE)


@pytest.mark.parametrize("homoskedastic", [False, True])
@pytest.mark.parametrize("kind", [LearnerKind.TREE, LearnerKind.RIDGE])
def test_group_decomposition_matches_loop_squared(homoskedastic, kind):
    rspec = RegressionSynthSpec(sigma_eps=0.7, homoskedastic=homoskedastic)
    d, om = gen_regression(rspec, 4000, seed=40)
    sampler = lambda n, s: gen_regression(rspec, n, s)[0]
    # T >= 8, where numpy's pairwise column sum differs from a running sum
    e = ensemble_train(LS(kind=kind, max_depth=3), sampler, 12, 150, d, seed=41)
    assert_matches_loop(e, d, om, Loss.SQUARED)


@pytest.mark.parametrize("t", [2, 5, 16, 50])
def test_group_decomposition_matches_loop_squared_random(t):
    rng = np.random.default_rng(50 + t)
    n = 30
    d, om = tiny_regression(rng.normal(size=n), rng.random(n))
    d = Dataset(
        features=d.features,
        group=np.array([0] * (n - 1) + [1]),
        outcome=d.outcome,
        task=d.task,
        column_names=d.column_names,
    )
    assert_matches_loop(make_ensemble(rng.normal(size=(t, n))), d, om, Loss.SQUARED)


def test_group_cost_both_sides_of_identity():
    rng = np.random.default_rng(60)
    for t in (2, 4, 9):
        e, d, om = random_binary_case(rng, t, [0] * 40)
        g = group_decomposition(e, d, om, Loss.ZERO_ONE, 0)
        p1 = om.prob(d.features, 0)
        preds = e.predictions
        direct = np.mean(
            np.mean(p1 * (preds != 1.0) + (1.0 - p1) * (preds != 0.0), axis=0)
        )
        assert abs(g.cost - direct) < 1e-12
        assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12
    mean, var = rng.normal(size=40), rng.random(40)
    d, om = tiny_regression(mean, var)
    preds = rng.normal(size=(5, 40))
    g = group_decomposition(make_ensemble(preds), d, om, Loss.SQUARED, 0)
    direct = np.mean(np.mean((preds - mean) ** 2, axis=0) + var)
    assert abs(g.cost - direct) < 1e-12
    assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12


def test_class_conditional_matches_loop():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 2000, seed=70)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    e = ensemble_train(
        LS(kind=LearnerKind.TREE, max_depth=2), sampler, 6, 100, d, seed=71
    )
    rng = np.random.default_rng(72)
    cases = [(e, d, om), random_binary_case(rng, 4, [0] * 12 + [1])]
    for e, d, om in cases:
        for a in (0, 1):
            for y in (0, 1):
                got = class_conditional_decomposition(e, d, om, a, y)
                want = loop_class_conditional(e, d, om, a, y)
                for name, value in want.items():
                    assert abs(getattr(got, name) - value) < 1e-12, name


# ---------------------------------------------------------------------------
# Reference oracle: the z-test body of `compare_models_bias_variance` as it
# read before `stats.two_sample_z` held it.


def loop_compare_models_bias_variance(e1, e2, eval_set, loss, groups=(0, 1)):
    g0, g1 = groups
    y = eval_set.outcome

    def point_losses(e):
        if loss is Loss.ZERO_ONE:
            return np.mean(e.predictions != y, axis=0)
        return np.mean((e.predictions - y) ** 2, axis=0)

    u = point_losses(e1) - point_losses(e2)
    rows0 = eval_set.group_indices(g0)
    rows1 = eval_set.group_indices(g1)
    stat = float(u[rows0].mean() - u[rows1].mean())
    var = (u[rows0].var(ddof=1) / rows0.size if rows0.size > 1 else 0.0) + (
        u[rows1].var(ddof=1) / rows1.size if rows1.size > 1 else 0.0
    )
    if var == 0.0:
        p = 1.0 if stat == 0.0 else 0.0
    else:
        p = two_tailed_normal_p(stat / np.sqrt(var))
    return stat.hex(), float(p).hex(), (rows0.size, rows1.size)


def test_compare_models_matches_the_loop_body():
    rng = np.random.default_rng(90)
    for trial in range(40):
        # Groups of one row give a zero variance term.
        m0, m1 = (1, 1) if trial == 0 else rng.integers(1, 30, size=2)
        n = int(m0 + m1)
        binary = trial % 2 == 0
        task = Task.BINARY if binary else Task.REGRESSION
        y = (rng.random(n) < 0.5).astype(float) if binary else rng.normal(size=n)
        d = Dataset(
            features=np.zeros((n, 1)),
            group=np.repeat([0, 1], [int(m0), int(m1)]),
            outcome=y,
            task=task,
            column_names=("x",),
        )
        loss = Loss.ZERO_ONE if binary else Loss.SQUARED
        draw = (
            (lambda: (rng.random((4, n)) < 0.5).astype(float))
            if binary else (lambda: np.round(rng.normal(size=(4, n)), 2))
        )
        e1, e2 = make_ensemble(draw()), make_ensemble(draw())
        for a, b in ((e1, e2), (e2, e1), (e1, e1)):
            res = compare_models_bias_variance(a, b, d, loss)
            assert (
                res.statistic.hex(), res.p_value.hex(), res.detail["counts"]
            ) == loop_compare_models_bias_variance(a, b, d, loss)


# ---------------------------------------------------------------------------
# Zero-one terms come from per-point vote counts.  The references below
# count mismatch flags point by point, as the (T, m) flag means did.


def loop_unknown_mode_zero_one(preds, labels):
    """(cost, variance_raw) from per-point mismatch counts over T * m."""
    t, m = preds.shape
    cost = variance = 0
    for i in range(m):
        column = preds[:, i]
        y_main = 1.0 if column.mean() > 0.5 else 0.0
        cost += int(np.count_nonzero(column != labels[i]))
        variance += int(np.count_nonzero(column != y_main))
    return cost / (t * m), variance / (t * m)


def loop_class_conditional_known(e, eval_set, om, a, y):
    """The known-mode class-conditional sums over per-point loop terms, in
    the weighted-sum order of the array code."""
    rows = eval_set.group_indices(a)
    p1 = om.prob(eval_set.features[rows], a)
    weights = p1 if y == 1 else 1.0 - p1
    weights = weights / weights.sum()
    points = [loop_point(e, int(i), eval_set, om, Loss.ZERO_ONE) for i in rows]
    noise = [p.c_n * (1.0 if p.y_star != y else 0.0) for p in points]
    costs = [float(np.mean(e.predictions[:, int(i)] != y)) for i in rows]
    return dict(
        cost=float(weights @ np.array(costs)),
        noise=float(weights @ np.array(noise)),
        bias=float(weights @ np.array([p.bias for p in points])),
        variance=float(weights @ np.array([p.c_v * p.variance for p in points])),
    )


def labelled_binary_case(rng, t, groups):
    """``random_binary_case`` with random observed 0/1 outcomes."""
    e, d, om = random_binary_case(rng, t, groups)
    d = Dataset(
        features=d.features, group=d.group,
        outcome=(rng.random(d.n) < 0.5).astype(np.float64),
        task=Task.BINARY, column_names=d.column_names,
    )
    return e, d, om


def assert_unknown_matches_loop(got, preds, labels):
    cost, variance = loop_unknown_mode_zero_one(preds, labels)
    assert (got.mode, got.n_points) == ("unknown", preds.shape[1])
    assert got.cost.hex() == cost.hex()
    assert got.variance_raw.hex() == variance.hex()
    assert got.bias_noise_residual.hex() == (cost - variance).hex()


@pytest.mark.parametrize("t", [2, 3, 4, 7, 10, 50])
def test_zero_one_unknown_mode_matches_loop(t):
    rng = np.random.default_rng(100 + t)
    for n in (1, 2, 9, 40):
        e, d, _ = labelled_binary_case(rng, t, [0] * (n - 1) + [1])
        for a in (0, 1):
            rows = d.group_indices(a)
            if rows.size == 0:
                continue
            got = group_decomposition(e, d, None, Loss.ZERO_ONE, a)
            assert_unknown_matches_loop(
                got, e.predictions[:, rows], d.outcome[rows]
            )
            for y in (0, 1):
                sub = rows[d.outcome[rows] == y]
                if sub.size == 0:
                    continue
                got = class_conditional_decomposition(e, d, None, a, y)
                assert_unknown_matches_loop(
                    got, e.predictions[:, sub], np.full(sub.size, float(y))
                )


@pytest.mark.parametrize("t", [2, 3, 4, 7, 10])
def test_class_conditional_known_mode_matches_loop_bitwise(t):
    rng = np.random.default_rng(110 + t)
    for n in (2, 9, 40):
        e, d, om = random_binary_case(rng, t, [0] * (n - 1) + [1])
        for a in (0, 1):
            p1 = om.prob(d.features[d.group_indices(a)], a)
            for y in (0, 1):
                if (p1 if y == 1 else 1.0 - p1).sum() == 0.0:
                    continue  # no mass on class y
                got = class_conditional_decomposition(e, d, om, a, y)
                want = loop_class_conditional_known(e, d, om, a, y)
                for name, value in want.items():
                    assert getattr(got, name).hex() == value.hex(), name
                assert got.variance_raw.hex() == want["variance"].hex()


@pytest.mark.parametrize("t1,t2", [(2, 4), (3, 3), (4, 10), (7, 2)])
def test_compare_models_zero_one_matches_the_loop_body_with_ties(t1, t2):
    rng = np.random.default_rng(120 + t1 + t2)
    n = 31
    d = Dataset(
        features=np.zeros((n, 1)),
        group=np.repeat([0, 1], [13, n - 13]),
        outcome=(rng.random(n) < 0.5).astype(np.float64),
        task=Task.BINARY,
        column_names=("x",),
    )
    ensembles = []
    for t in (t1, t2):
        preds = (rng.random((t, n)) < 0.5).astype(np.float64)
        if t % 2 == 0:  # a vote tie at every fifth point
            preds[:, ::5] = np.repeat([1.0, 0.0], t // 2)[:, None]
        ensembles.append(make_ensemble(preds))
    e1, e2 = ensembles
    for e in ensembles:
        if e.n_models % 2 == 0:
            tied = 2 * e.predictions.sum(axis=0) == e.n_models
            assert tied[::5].all()
    res = compare_models_bias_variance(e1, e2, d, Loss.ZERO_ONE)
    assert (
        res.statistic.hex(), res.p_value.hex(), res.detail["counts"]
    ) == loop_compare_models_bias_variance(e1, e2, d, Loss.ZERO_ONE)


def _zero_one_calls(e, d, om):
    return [
        lambda: group_decomposition(e, d, om, Loss.ZERO_ONE, 0),
        lambda: group_decomposition(e, d, None, Loss.ZERO_ONE, 0),
        lambda: point_decomposition(e, 0, d, om, Loss.ZERO_ONE),
        lambda: class_conditional_decomposition(e, d, om, 0, 1),
        lambda: class_conditional_decomposition(e, d, None, 0, 0),
        lambda: compare_models_bias_variance(e, e, d, Loss.ZERO_ONE),
    ]


@pytest.mark.parametrize("call", range(6))
def test_zero_one_rejects_a_prediction_that_is_not_a_label(call):
    d, om = tiny_binary(3, [0.9, 0.2, 0.5], [0, 0, 1])
    preds = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    for bad in (0.5, np.nan, 2.0, -1.0):
        broken = preds.copy()
        broken[1, 0] = bad
        with pytest.raises(AnalysisError, match="0/1 predictions"):
            _zero_one_calls(make_ensemble(broken), d, om)[call]()
    # -0.0 is a 0 label.
    ok = preds.copy()
    ok[1, 0] = -0.0
    _zero_one_calls(make_ensemble(ok), d, om)[call]()


def test_zero_one_unknown_mode_rejects_labels_that_are_not_0_1():
    d = Dataset(
        features=np.eye(3), group=np.zeros(3, dtype=np.int64),
        outcome=np.array([0.0, 1.0, 0.5]), task=Task.REGRESSION,
        column_names=("a", "b", "c"),
    )
    e = make_ensemble([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(AnalysisError, match="0/1 labels"):
        group_decomposition(e, d, None, Loss.ZERO_ONE, 0)
    with pytest.raises(AnalysisError, match="0/1 labels"):
        compare_models_bias_variance(e, e, d, Loss.ZERO_ONE, groups=(0, 0))


# ---------------------------------------------------------------------------
# Per-cell scoring of tree ensembles.  The reference trains each trial as
# `ensemble_train` documents and scores every evaluation row with the
# model's own `predict_scores`; the ensemble must equal it byte for byte.

# Training values on a grid whose cuts lie at 0.0 (between -1 and 1), 1.5
# and 2.5; the evaluation rows hold those cuts exactly, and -0.0.
GRID = np.array([-1.0, 1.0, 2.0, 3.0])
EVAL_VALUES = np.array([-1.0, 1.0, 2.0, 3.0, 0.0, -0.0, 1.5, 2.5, -2.0, 0.7])


def _grid_dataset(n, seed, task, k=4, constant=False):
    rng = np.random.default_rng(seed)
    x = rng.choice(GRID, size=(n, k))
    signal = x[:, 0] + (x[:, 1] >= 1.5) - 0.5 * x[:, 2]
    if task is Task.BINARY:
        y = (signal + rng.normal(size=n) > 0.5).astype(np.float64)
    else:
        y = signal + rng.normal(scale=0.3, size=n)
    if constant:
        y[:] = y[0]
    return Dataset(
        features=x, group=(rng.random(n) < 0.5).astype(np.int64), outcome=y,
        task=task, column_names=tuple(f"x{j}" for j in range(k)),
    )


def _grid_eval(task, k=4, n=300):
    d = _grid_dataset(n, 99, task, k)
    x = np.random.default_rng(98).choice(EVAL_VALUES, size=(n, k))
    x[:EVAL_VALUES.size] = EVAL_VALUES[:, None]  # every value in every column
    return Dataset(features=x, group=d.group, outcome=d.outcome, task=task,
                   column_names=d.column_names)


def reference_ensemble(spec, source, t_models, n_train, eval_set, seed,
                       threshold=0.5):
    """Each trial's model, and its predictions on every evaluation row."""
    models, rows = [], []
    for t in range(t_models):
        trial_seed = derive_seed(seed, "ensemble", t)
        if callable(source):
            train_set = source(n_train, trial_seed)
        else:
            train_set = bootstrap_resample(source, n_train, trial_seed)
        model = train(replace(spec, seed=trial_seed), train_set)
        scores = model.predict_scores(eval_set.features)
        if eval_set.task is Task.BINARY:
            scores = apply_threshold(scores, threshold)
        models.append(model)
        rows.append(scores)
    return models, np.array(rows)


def split_thresholds(model):
    """{column: set of thresholds} over every split of a tree model."""
    inner = model.node_feature >= 0
    out = {}
    for f, t in zip(model.node_feature[inner].tolist(),
                    model.node_threshold[inner].tolist()):
        out.setdefault(f, set()).add(t)
    return out


def _all_thresholds(models):
    merged = {}
    for model in models:
        for f, ts in split_thresholds(model).items():
            merged.setdefault(f, set()).update(ts)
    return merged


TREE_KIND_LIST = [LearnerKind.TREE, LearnerKind.BAGGED_TREES]


@pytest.mark.parametrize("feature_fraction", [0.5, 1.0])
@pytest.mark.parametrize("fresh", [False, True], ids=["bootstrap", "fresh"])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
@pytest.mark.parametrize("kind", TREE_KIND_LIST)
def test_ensemble_train_matches_per_row_scoring(kind, task, fresh,
                                                feature_fraction):
    spec = LS(kind=kind, max_depth=3, n_trees=4,
              feature_fraction=feature_fraction)
    if fresh:
        source = lambda n, s: _grid_dataset(n, s, task)
    else:
        source = _grid_dataset(400, 5, task)
    eval_set = _grid_eval(task)
    e = ensemble_train(spec, source, 6, 150, eval_set, seed=17)
    models, want = reference_ensemble(spec, source, 6, 150, eval_set, 17)
    assert e.predictions.tobytes() == want.tobytes()
    # The edge cases are reached: a split at 0.0, which the evaluation
    # rows meet as 0.0 and -0.0, and another they meet exactly.
    thresholds = set().union(*_all_thresholds(models).values())
    assert 0.0 in thresholds
    assert thresholds & {1.5, 2.5}


def loop_ensemble_train(spec, source, t_models, n_train, eval_set, seed,
                        threshold=0.5):
    """(table, cells) as a tree ensemble was built model by model: each
    trial's model trained on its own dataset, the cells of all their splits,
    and each model's scores on one row per cell."""
    from fairaudit.learners import threshold_cells

    models, _ = reference_ensemble(spec, source, t_models, n_train,
                                   eval_set.take(np.arange(1)), seed)
    cells, rows = threshold_cells(eval_set.features, models)
    table = np.empty((t_models, rows.size))
    for t, model in enumerate(models):
        scores = model.predict_scores(eval_set.features[rows])
        if eval_set.task is Task.BINARY:
            scores = apply_threshold(scores, threshold)
        table[t] = scores
    return table, cells


@pytest.mark.parametrize("fresh", [False, True], ids=["bootstrap", "fresh"])
@pytest.mark.parametrize("task", [Task.BINARY, Task.REGRESSION])
@pytest.mark.parametrize("kind", TREE_KIND_LIST)
def test_ensemble_train_matches_the_model_by_model_loop(kind, task, fresh,
                                                       monkeypatch):
    # The models grow together, in groups of whole models or one model's
    # trees per group; the table and the cells are the loop's.
    from fairaudit import learners

    spec = LS(kind=kind, max_depth=4, n_trees=3, feature_fraction=0.5)
    if fresh:
        source = lambda n, s: _grid_dataset(n, s, task, k=6)
    else:
        source = _grid_dataset(500, 6, task, k=6)
    eval_set = _grid_eval(task, k=6)
    want_table, want_cells = loop_ensemble_train(spec, source, 7, 120,
                                                 eval_set, 21)
    for cells in (learners._GROUP_CELLS, 120 * 6, 1):
        monkeypatch.setattr(learners, "_GROUP_CELLS", cells)
        e = ensemble_train(spec, source, 7, 120, eval_set, seed=21)
        assert [v.hex() for v in e.table.ravel().tolist()] == [
            v.hex() for v in want_table.ravel().tolist()]
        assert e.cells.tolist() == want_cells.tolist()


@pytest.mark.parametrize("kind", TREE_KIND_LIST)
def test_ensemble_train_with_models_that_never_split(kind):
    spec = LS(kind=kind, max_depth=3, n_trees=3)
    eval_set = _grid_eval(Task.REGRESSION)
    # Every model a single leaf: one cell.
    flat = lambda n, s: _grid_dataset(n, s, Task.REGRESSION, constant=True)
    e = ensemble_train(spec, flat, 4, 100, eval_set, seed=3)
    models, want = reference_ensemble(spec, flat, 4, 100, eval_set, 3)
    assert _all_thresholds(models) == {}
    assert e.predictions.tobytes() == want.tobytes()
    # Leaf-only models beside models that split.
    mixed = lambda n, s: _grid_dataset(
        n, s, Task.REGRESSION, constant=s % 2 == 0)
    e = ensemble_train(spec, mixed, 8, 100, eval_set, seed=3)
    models, want = reference_ensemble(spec, mixed, 8, 100, eval_set, 3)
    assert {bool(split_thresholds(m)) for m in models} == {False, True}
    assert e.predictions.tobytes() == want.tobytes()


def test_ensemble_train_re_densifies_wide_cell_keys(monkeypatch):
    from fairaudit import kernels

    k = 16

    def source(n, s):
        rng = np.random.default_rng(s)
        x = rng.normal(size=(n, k))
        return Dataset(
            features=x, group=np.zeros(n, dtype=np.int64),
            outcome=x.sum(axis=1) + rng.normal(size=n), task=Task.REGRESSION,
            column_names=tuple(f"x{j}" for j in range(k)),
        )

    eval_set = source(500, 1)
    spec = LS(kind=LearnerKind.BAGGED_TREES, max_depth=6, n_trees=8,
              feature_fraction=0.5)
    densified = []
    real = kernels.densify

    def counted(key, span):
        densified.append(span)
        return real(key, span)

    monkeypatch.setattr(kernels, "densify", counted)
    e = ensemble_train(spec, source, 3, 300, eval_set, seed=5)
    models, want = reference_ensemble(spec, source, 3, 300, eval_set, 5)
    radix_product = 1
    for ts in _all_thresholds(models).values():
        radix_product *= len(ts) + 1
    assert radix_product > 2**62
    # At least once before a column would overflow the key, then at the end.
    assert len(densified) >= 2
    assert e.predictions.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [LearnerKind.KNN, LearnerKind.LOGISTIC])
def test_non_tree_ensembles_score_every_row(kind, monkeypatch):
    from fairaudit import decomposition, learners

    def forbidden(*args):
        raise AssertionError("threshold_cells called for a non-tree kind")

    monkeypatch.setattr(learners, "threshold_cells", forbidden)
    monkeypatch.setattr(decomposition, "threshold_cells", forbidden)
    spec = LS(kind=kind, k=7)
    source = lambda n, s: _grid_dataset(n, s, Task.BINARY)
    eval_set = _grid_eval(Task.BINARY)
    e = ensemble_train(spec, source, 4, 120, eval_set, seed=8)
    _, want = reference_ensemble(spec, source, 4, 120, eval_set, 8)
    assert e.predictions.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# An ensemble keeps one table column per cell.  Every entry point must give
# the bits of an ensemble with a column per row, built from the (T, n)
# matrix that the cells expand to.


def _bits(value):
    """A result with every float replaced by its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return _bits(vars(value))
    return value


def _outcome(call):
    try:
        return _bits(call())
    except AnalysisError as exc:
        return repr(exc)


@st.composite
def cell_cases(draw):
    t = draw(st.integers(2, 8))  # even T gives vote ties
    c = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    cells = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    binary = draw(st.booleans())
    if binary:
        values = st.sampled_from([0.0, 1.0])
        probs = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        row_draws = (probs, st.sampled_from([0.0, 1.0]))
    else:
        values = st.floats(-1e3, 1e3)
        row_draws = (st.floats(-1e3, 1e3), st.floats(0.0, 10.0),
                     st.floats(-1e3, 1e3))
    tables = [
        np.array(draw(st.lists(values, min_size=t * c, max_size=t * c)))
        .reshape(t, c)
        for _ in range(2)
    ]
    rows = [draw(st.lists(s, min_size=n, max_size=n)) for s in row_draws]
    return binary, tables, np.array(cells), np.array(groups), rows


def _row_case(binary, groups, rows):
    """The evaluation set and outcome model of a drawn case: one one-hot
    row per point, so the model's per-row values are a lookup."""
    n = groups.size
    outcome = np.array(rows[-1])
    d = Dataset(
        features=np.eye(n), group=groups, outcome=outcome,
        task=Task.BINARY if binary else Task.REGRESSION,
        column_names=tuple(f"x{i}" for i in range(n)),
    )
    lookup = lambda values: (lambda X, a: np.asarray(values)[np.argmax(X, axis=1)])
    if binary:
        om = ConditionalOutcomeModel(task=Task.BINARY, _prob=lookup(rows[0]))
    else:
        om = ConditionalOutcomeModel(
            task=Task.REGRESSION, _mean=lookup(rows[0]), _var=lookup(rows[1]))
    return d, om


def _entry_points(e, other, d, om, binary):
    loss = Loss.ZERO_ONE if binary else Loss.SQUARED
    calls = [lambda: compare_models_bias_variance(e, other, d, loss)]
    for a in (0, 1):
        calls += [lambda a=a: group_decomposition(e, d, om, loss, a),
                  lambda a=a: group_decomposition(e, d, None, loss, a)]
        if binary:
            calls += [
                lambda a=a, y=y, m=m: class_conditional_decomposition(e, d, m, a, y)
                for y in (0, 1) for m in (om, None)
            ]
    calls += [lambda i=i: point_decomposition(e, i, d, om, loss)
              for i in range(d.n)]
    return [_outcome(call) for call in calls]


def _table_ensemble(table, cells=None):
    return EnsemblePredictions(table=table, cells=cells)


@settings(max_examples=200, deadline=None)
@given(cell_cases())
def test_cell_tables_match_their_expanded_matrix_bitwise(case):
    binary, tables, cells, groups, rows = case
    d, om = _row_case(binary, groups, rows)
    by_cell = [_table_ensemble(table, cells) for table in tables]
    by_row = [make_ensemble(e.predictions) for e in by_cell]
    assert by_row[0].table.shape == (tables[0].shape[0], cells.size)
    assert _entry_points(*by_cell, d, om, binary) == _entry_points(
        *by_row, d, om, binary)
    if not binary:  # no loop reference covers the unknown squared cost
        for a in (0, 1):
            rows = d.group_indices(a)
            if rows.size:
                got = group_decomposition(by_cell[0], d, None, Loss.SQUARED, a)
                sq = (by_row[0].table[:, rows] - d.outcome[rows]) ** 2
                assert got.cost.hex() == float(sq.mean()).hex()


def test_ensemble_cells_must_index_the_table():
    table = np.zeros((3, 2))
    for bad in ([0, 2], [-1, 0], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(DataError, match="cells"):
            _table_ensemble(table, np.array(bad))
    e = _table_ensemble(table, np.array([1, 1, 0]))
    assert e.n_points == 3 and e.predictions.shape == (3, 3)
    with pytest.raises(ValueError):
        e.predictions[0, 0] = 1.0  # read-only: the table is the state


def test_tree_ensemble_never_holds_a_row_by_model_matrix():
    import tracemalloc

    spec = default_discrete_spec()
    t, n = 50, 40_000
    eval_set, om = gen_discrete(spec, n, seed=1)
    sampler = lambda m, s: gen_discrete(spec, m, s)[0]
    tracemalloc.start()
    try:
        e = ensemble_train(LS(kind=LearnerKind.TREE, max_depth=3), sampler,
                           t, 200, eval_set, seed=2)
        for a in (0, 1):
            group_decomposition(e, eval_set, om, Loss.ZERO_ONE, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bytes of one (T, n) float64 matrix.
    assert peak < t * n * 8
