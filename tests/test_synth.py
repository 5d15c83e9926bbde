import numpy as np
import pytest

from fairaudit import (
    DiscreteSynthSpec,
    RegressionSynthSpec,
    Task,
    default_discrete_spec,
    exact_bayes,
    gen_discrete,
    gen_regression,
)
from fairaudit.errors import AnalysisError
from fairaudit.synth import ConditionalOutcomeModel, gaussian_fourth_moment


def test_gaussian_fourth_moment():
    # Monte Carlo oracle
    rng = np.random.default_rng(0)
    for mu, sigma in [(0.0, 1.0), (1.0, 2.0), (-0.5, 0.3)]:
        x = rng.normal(mu, sigma, size=2_000_000)
        mc = float(np.mean(x**4))
        exact = gaussian_fourth_moment(mu, sigma)
        assert abs(mc - exact) / exact < 0.02
    # standard normal: E[X^4] = 3 exactly
    assert gaussian_fourth_moment(0.0, 1.0) == 3.0
    assert gaussian_fourth_moment(1.0, 2.0) == 1 + 6 * 4 + 3 * 16


def test_regression_generation_moments():
    spec = RegressionSynthSpec(sigma_eps=0.5)
    d, om = gen_regression(spec, 200_000, seed=1)
    assert d.task is Task.REGRESSION
    for g, mu, sigma in [(0, 0.0, 1.0), (1, 1.0, 2.0)]:
        x = d.features[d.group == g, 0]
        assert abs(x.mean() - mu) < 0.03
        assert abs(x.std() - sigma) < 0.05
    # conditional model matches the generator formula
    assert om.mean(np.array([2.0]), 0) == pytest.approx(2 * 4 - 4 + 0.1)
    assert om.var(np.array([2.0]), 0) == pytest.approx(0.25 * 16)
    # group fraction
    assert abs((d.group == 1).mean() - 0.3) < 0.01


def test_regression_homoskedastic_variant():
    spec = RegressionSynthSpec(sigma_eps=0.5, homoskedastic=True)
    _, om = gen_regression(spec, 10, seed=0)
    assert om.var(np.array([3.0]), 0) == 0.25
    assert om.var(np.array([0.1]), 1) == 0.25


def test_regression_residual_variance_tracks_x4():
    spec = RegressionSynthSpec(sigma_eps=0.3)
    d, om = gen_regression(spec, 400_000, seed=2)
    x = d.features[:, 0]
    resid = d.outcome - (2 * x * x - 2 * x + 0.1)
    # bucket x around 1.0: conditional variance should be near 0.09 * x^4
    mask = np.abs(x - 1.0) < 0.05
    v = resid[mask].var()
    assert abs(v - 0.09) / 0.09 < 0.15


def test_discrete_spec_validation():
    with pytest.raises(AnalysisError):
        DiscreteSynthSpec(
            p_x_given_a=np.array([[0.5, 0.4]]),  # does not sum to 1
            p_y_given_xa=np.array([[0.5, 0.5]]),
            p_a=np.array([1.0]),
        )
    with pytest.raises(AnalysisError):
        DiscreteSynthSpec(
            p_x_given_a=np.array([[0.5, 0.5]]),
            p_y_given_xa=np.array([[0.5, 1.5]]),
            p_a=np.array([1.0]),
        )


def test_discrete_generation_frequencies():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 300_000, seed=3)
    assert d.task is Task.BINARY
    assert abs((d.group == 0).mean() - 0.6) < 0.005
    # one-hot feature rows
    np.testing.assert_array_equal(d.features.sum(axis=1), np.ones(d.n))
    # conditional outcome frequency matches the table at a probable cell
    for g in (0, 1):
        x_val = 4
        rows = (d.group == g) & (d.features[:, x_val] == 1.0)
        freq = d.outcome[rows].mean()
        assert abs(freq - spec.p_y_given_xa[g, x_val]) < 0.02
    xv = np.zeros(spec.n_values)
    xv[7] = 1.0
    assert om.prob(xv, 1) == spec.p_y_given_xa[1, 7]


def test_exact_bayes_discrete_oracle():
    spec = default_discrete_spec()
    out = exact_bayes(spec)
    # independent recomputation
    for g in (0, 1):
        p = spec.p_y_given_xa[g]
        expected = float(np.sum(spec.p_x_given_a[g] * np.minimum(p, 1 - p)))
        assert out["noise"][g] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_array_equal(
        out["y_star"], (spec.p_y_given_xa > 0.5).astype(float)
    )


def test_exact_bayes_regression():
    spec = RegressionSynthSpec(sigma_eps=0.2)
    out = exact_bayes(spec)
    assert out["noise"][0] == pytest.approx(0.04 * 3.0)
    assert out["noise"][1] == pytest.approx(0.04 * 73.0)
    homo = exact_bayes(RegressionSynthSpec(sigma_eps=0.2, homoskedastic=True))
    assert homo["noise"] == (pytest.approx(0.04), pytest.approx(0.04))


def test_generation_deterministic():
    spec = default_discrete_spec()
    d1, _ = gen_discrete(spec, 100, seed=5)
    d2, _ = gen_discrete(spec, 100, seed=5)
    np.testing.assert_array_equal(d1.outcome, d2.outcome)
    d3, _ = gen_discrete(spec, 100, seed=6)
    assert not np.array_equal(d1.outcome, d3.outcome)


def test_generators_declare_every_group_of_the_spec():
    # A one-row draw holds one group, yet the dataset declares both.
    for gen, spec in ((gen_discrete, default_discrete_spec()),
                      (gen_regression, RegressionSynthSpec())):
        drawn = set()
        for seed in range(10):
            d, _ = gen(spec, 1, seed=seed)
            assert d.group_names == ("0", "1")
            drawn.add(int(d.group[0]))
        assert drawn == {0, 1}


@pytest.mark.parametrize("homoskedastic", [False, True])
def test_regression_oracle_batch_matches_scalar_formulas(homoskedastic):
    spec = RegressionSynthSpec(sigma_eps=0.7, homoskedastic=homoskedastic)
    d, om = gen_regression(spec, 200_000, seed=5)
    x = d.features[:, 0].tolist()
    mean = om.mean(d.features, 0)
    var = om.var(d.features, 0)
    assert mean.shape == var.shape == (d.n,)
    # Python float arithmetic, ``**`` included, is the reference: numpy's
    # vectorized power differs from it in the last bit on some inputs.
    want_mean = [2.0 * v * v - 2.0 * v + 0.1 for v in x]
    want_var = [
        spec.sigma_eps**2 if homoskedastic else spec.sigma_eps**2 * v**4
        for v in x
    ]
    assert [float.hex(v) for v in mean.tolist()] == [float.hex(v) for v in want_mean]
    assert [float.hex(v) for v in var.tolist()] == [float.hex(v) for v in want_var]
    # a 1-D row is a one-row batch and gives a float
    assert om.var(d.features[3], 1) == want_var[3]
    assert isinstance(om.mean(d.features[3], 1), float)


def test_discrete_oracle_batch_matches_table():
    spec = default_discrete_spec()
    d, om = gen_discrete(spec, 5000, seed=6)
    x = np.argmax(d.features, axis=1)
    for g in (0, 1):
        np.testing.assert_array_equal(
            om.prob(d.features, g), spec.p_y_given_xa[g, x]
        )
    assert om.prob(d.features[0], 1) == spec.p_y_given_xa[1, x[0]]


def _batch_model(task, values):
    """An outcome model whose callables return ``values`` for any batch."""
    fn = lambda X, a: values
    if task is Task.BINARY:
        return ConditionalOutcomeModel(task=task, _prob=fn)
    return ConditionalOutcomeModel(task=task, _mean=fn, _var=fn)


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_oracle_rejects_prob_outside_unit_interval(bad):
    om = _batch_model(Task.BINARY, np.array([0.2, bad, 0.7]))
    with pytest.raises(AnalysisError, match=r"outside \[0, 1\]"):
        om.prob(np.eye(3), 0)


def test_oracle_rejects_negative_variance():
    om = _batch_model(Task.REGRESSION, np.array([0.5, 0.0, -1e-300]))
    with pytest.raises(AnalysisError, match="negative variance"):
        om.var(np.eye(3), 0)
    # the mean may be negative
    assert om.mean(np.eye(3), 0)[2] == -1e-300


def test_oracle_rejects_result_of_wrong_shape():
    # a per-row callable returns one scalar for the whole batch
    per_row = ConditionalOutcomeModel(
        task=Task.BINARY, _prob=lambda x, a: 0.25 * float(np.argmax(x) % 2)
    )
    with pytest.raises(AnalysisError, match="one value per row"):
        per_row.prob(np.eye(4), 0)
    with pytest.raises(AnalysisError, match="one value per row"):
        per_row.prob(np.eye(4)[1], 0)
    with pytest.raises(AnalysisError, match="one value per row"):
        _batch_model(Task.REGRESSION, np.zeros(2)).mean(np.eye(3), 0)
