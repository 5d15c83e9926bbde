from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    CostKind,
    LearnerKind,
    LearnerSpec,
    PowerLawFit,
    Schema,
    derive_seed,
    extrapolate_gamma,
    fit_curve_experiment,
    fit_power_law,
    kernels,
    load_dataset,
    power_law_critical_point,
    power_law_crossings,
    run_curve_experiment,
    split,
    subsample,
    train,
)
from fairaudit.cli import run_cli
from fairaudit.costs import group_losses
from fairaudit.curves import BETA_MAX, BETA_MIN, HOLDOUT_FRACTION, _fit_batch
from fairaudit.errors import AnalysisError
from fairaudit.learners import score_predictions
from fairaudit.synth import (
    RegressionSynthSpec,
    default_discrete_spec,
    gen_discrete,
    gen_regression,
)


def curve(alpha, beta, delta, ns):
    return [(n, alpha * n ** (-beta) + delta) for n in ns]


def test_fit_recovers_noiseless_parameters():
    ns = [50, 100, 200, 400, 800, 1600]
    for alpha, beta, delta in [(5.0, 0.7, 0.1), (0.8, 0.31, 0.02), (12.0, 1.4, 0.3)]:
        fit = fit_power_law(curve(alpha, beta, delta, ns))
        assert abs(fit.alpha - alpha) / alpha < 0.01
        assert abs(fit.beta - beta) / beta < 0.01
        assert abs(fit.delta - delta) / max(delta, 1e-9) < 0.01


def test_fit_nonnegative_constraints():
    # decreasing toward a negative asymptote would want delta < 0
    ns = [10, 20, 40, 80]
    pts = [(n, 1.0 / n - 0.5) for n in ns]
    fit = fit_power_law(pts)
    assert fit.delta >= 0.0 and fit.alpha >= 0.0


def test_fit_flat_data():
    pts = [(10, 0.2), (20, 0.2), (40, 0.2)]
    fit = fit_power_law(pts)
    assert fit(1000) == pytest.approx(0.2, abs=1e-6)


def test_fit_requires_three_distinct_sizes():
    with pytest.raises(AnalysisError):
        fit_power_law([(10, 0.5), (20, 0.4)])
    with pytest.raises(AnalysisError):
        fit_power_law([(10, 0.5), (10, 0.4), (20, 0.3)])


def test_fit_evaluation_and_infinity():
    fit = PowerLawFit(alpha=2.0, beta=1.0, delta=0.1, rss=0.0, n_min=10, n_max=100)
    assert fit(10) == pytest.approx(0.3)
    assert fit(np.inf) == 0.1


def _loop_solve_linear(n, y, w, beta):
    """Reference: one beta's weighted least squares, scalar Python."""
    basis = n ** (-beta)
    sw = w.sum()
    candidates = []
    # Unconstrained 2-parameter solve.
    a11 = float((w * basis * basis).sum())
    a12 = float((w * basis).sum())
    a22 = sw
    b1 = float((w * basis * y).sum())
    b2 = float((w * y).sum())
    det = a11 * a22 - a12 * a12
    if det > 1e-300:
        alpha = (b1 * a22 - b2 * a12) / det
        delta = (a11 * b2 - a12 * b1) / det
        if alpha >= 0.0 and delta >= 0.0:
            candidates.append((alpha, delta))
    # delta clamped to 0.
    if a11 > 0:
        alpha = max(0.0, b1 / a11)
        candidates.append((alpha, 0.0))
    # alpha clamped to 0 (flat curve).
    candidates.append((0.0, max(0.0, b2 / sw)))
    best = None
    for alpha, delta in candidates:
        rss = float((w * (y - alpha * basis - delta) ** 2).sum())
        if best is None or rss < best[2]:
            best = (alpha, delta, rss)
    return best


def loop_fit_power_law(points) -> PowerLawFit:
    """Reference: the fit one curve and one beta at a time, scalar Python."""
    pts = [tuple(p) for p in points]
    if len(pts) < 3:
        raise AnalysisError("need at least 3 points to fit a power law")
    n = np.array([p[0] for p in pts], dtype=np.float64)
    y = np.array([p[1] for p in pts], dtype=np.float64)
    w = np.array(
        [p[2] if len(p) > 2 else 1.0 for p in pts], dtype=np.float64
    )
    if len(set(n.tolist())) < 3:
        raise AnalysisError("need at least 3 distinct n values")
    if np.any(n <= 0) or np.any(w <= 0):
        raise AnalysisError("sizes and weights must be positive")

    def rss_at(beta):
        return _loop_solve_linear(n, y, w, beta)[2]

    betas = np.geomspace(BETA_MIN, BETA_MAX, 200)
    rss_values = [rss_at(b) for b in betas]
    best_idx = int(np.argmin(rss_values))
    lo = betas[max(0, best_idx - 1)]
    hi = betas[min(len(betas) - 1, best_idx + 1)]
    # Golden-section refinement on [lo, hi].
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_b, b_b = float(lo), float(hi)
    c = b_b - invphi * (b_b - a_b)
    dpt = a_b + invphi * (b_b - a_b)
    fc, fd = rss_at(c), rss_at(dpt)
    for _ in range(80):
        if fc < fd:
            b_b, dpt, fd = dpt, c, fc
            c = b_b - invphi * (b_b - a_b)
            fc = rss_at(c)
        else:
            a_b, c, fc = c, dpt, fd
            dpt = a_b + invphi * (b_b - a_b)
            fd = rss_at(dpt)
    beta = 0.5 * (a_b + b_b)
    if rss_at(beta) > min(rss_values):
        beta = float(betas[best_idx])
    alpha, delta, rss = _loop_solve_linear(n, y, w, beta)
    # Sanity floor: never worse than the flat fit.
    flat_delta = float((w * y).sum() / w.sum())
    flat_rss = float((w * (y - flat_delta) ** 2).sum())
    if rss > flat_rss:
        alpha, beta, delta, rss = 0.0, BETA_MIN, max(0.0, flat_delta), flat_rss
    return PowerLawFit(
        alpha=float(alpha),
        beta=float(beta),
        delta=float(delta),
        rss=float(rss),
        n_min=int(n.min()),
        n_max=int(n.max()),
    )


def _fit_hex(fit):
    return (fit.alpha.hex(), fit.beta.hex(), fit.delta.hex(), fit.rss.hex(),
            fit.n_min, fit.n_max)


def _reference_curves():
    """Seeded point sets of 3-20 points with integer weights, in five
    shapes: flat, rising, falling, a pure power law with a negative offset
    (delta = 0 wins) and noise around a constant (alpha = 0 wins)."""
    rng = np.random.default_rng(20)
    shapes = ("flat", "rising", "falling", "no_offset", "noisy_flat")
    out = []
    for m in range(3, 21):
        for shape in shapes:
            for _ in range(2):
                ns = np.sort(rng.choice(np.arange(5, 3000), m, replace=False))
                alpha = rng.uniform(0.5, 20.0)
                beta = rng.uniform(0.05, 2.0)
                noise = rng.normal(0.0, rng.choice([0.0, 1e-3, 0.02]), m)
                if shape == "flat":
                    ys = np.full(m, rng.uniform(0.0, 0.5))
                elif shape == "rising":
                    ys = 0.5 - alpha * ns ** (-beta) + noise
                elif shape == "falling":
                    ys = alpha * ns ** (-beta) + rng.uniform(0.0, 0.3) + noise
                elif shape == "no_offset":
                    ys = alpha * ns ** (-beta) - 0.01 + noise
                else:
                    ys = 0.2 + np.abs(noise)
                ws = rng.integers(1, 6, m)
                out.append([(int(a), float(b), int(c))
                            for a, b, c in zip(ns, ys, ws)])
    return out


REFERENCE_CURVES = _reference_curves()


@pytest.fixture(scope="module")
def reference_fits():
    return [loop_fit_power_law(pts) for pts in REFERENCE_CURVES]


def test_fit_equals_the_loop_reference_one_curve_at_a_time(reference_fits):
    fits = [fit_power_law(pts) for pts in REFERENCE_CURVES]
    assert [_fit_hex(f) for f in fits] == [_fit_hex(f) for f in reference_fits]
    # The cases reach every candidate of the solve and the flat floor.
    assert any(f.alpha == 0.0 for f in reference_fits)
    assert any(f.delta == 0.0 and f.alpha > 0.0 for f in reference_fits)
    assert any(f.delta > 0.0 and f.alpha > 0.0 for f in reference_fits)
    assert any(f.beta == BETA_MIN for f in reference_fits)


def test_fit_of_a_batch_is_the_fit_of_each_curve_alone(reference_fits):
    # Curves with as many points fit as one batch, in a shuffled order
    # that mixes their shapes; each fit is the loop's, whatever its
    # batch-mates.
    rng = np.random.default_rng(21)
    by_length = {}
    for i in rng.permutation(len(REFERENCE_CURVES)):
        by_length.setdefault(len(REFERENCE_CURVES[i]), []).append(i)
    for keys in by_length.values():
        batch = _fit_batch([REFERENCE_CURVES[i] for i in keys])
        got = [_fit_hex(f) for f in batch]
        assert got == [_fit_hex(reference_fits[i]) for i in keys]


@pytest.mark.parametrize("points", [
    [(100, np.nan), (200, 0.3), (400, 0.2)],
    [(100, 0.5, np.nan), (200, 0.3, 1), (400, 0.2, 1)],
    [(100, np.inf), (200, 0.3), (400, 0.2)],
    [(100, 0.5), (200, 0.3), (2e308, 0.2)],
], ids=["nan_cost", "nan_weight", "inf_cost", "inf_size"])
def test_fit_rejects_non_finite_points(points):
    with pytest.raises(AnalysisError, match="finite"):
        fit_power_law(points)


def test_run_curve_experiment_shapes_and_determinism():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 600, seed=0)
    lspec = LearnerSpec(kind=LearnerKind.TREE, max_depth=2)
    exp1 = run_curve_experiment(lspec, d, [50, 100, 200], 3, seed=1)
    exp2 = run_curve_experiment(lspec, d, [50, 100, 200], 3, seed=1)
    assert exp1.cells == exp2.cells
    assert len(exp1.cells) == 3 * 3 * 2  # sizes x trials x groups
    means = exp1.mean_costs(0, CostKind.ZERO_ONE)
    assert [m[0] for m in means] == [50, 100, 200]


def test_curve_experiment_budget_guard():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 200, seed=2)
    lspec = LearnerSpec(kind=LearnerKind.TREE)
    with pytest.raises(AnalysisError, match="budget"):
        run_curve_experiment(lspec, d, [190], 2, seed=0)


def loop_run_curve_experiment(spec, d, n_grid, trials, seed, cost_kinds,
                              threshold=0.5):
    """Reference: the per-trial loop, one (size, trial) at a time: split,
    subsample, train, score.  The cells as (size, trial, group, kind, the
    cost's float.hex or None)."""
    cells = []
    for n_train in sorted(n_grid):
        for trial in range(trials):
            trial_seed = derive_seed(seed, "curve", n_train, trial)
            ds = split(d, HOLDOUT_FRACTION, trial_seed)
            sub = subsample(ds.train, n_train, derive_seed(trial_seed, "sub"))
            model = train(replace(spec, seed=trial_seed), sub)
            preds = score_predictions(
                model.predict_scores(ds.test.features), d.task, threshold)
            for kind in cost_kinds:
                samples, _ = group_losses(preds, ds.test, kind)
                for a in range(d.n_groups):
                    cost = float(samples[a].mean()) if a in samples else None
                    cells.append((n_train, trial, a, kind,
                                  None if cost is None else cost.hex()))
    return cells


def _tied_onehot(n, seed):
    """Discrete-source rows with a rare group: one-hot columns, so the
    rows tie, and small test splits that lack a group's class."""
    d, _ = gen_discrete(default_discrete_spec(), n, seed=seed)
    keep = np.flatnonzero((d.group == 0) | (np.arange(n) % 10 == 0))
    return d.take(keep)


BINARY_KINDS = (CostKind.ZERO_ONE, CostKind.FPR, CostKind.FNR)
CURVE_CASES = [
    ("bagged", LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=7,
                           max_depth=5, feature_fraction=0.5), BINARY_KINDS),
    ("bagged_no_bootstrap",
     LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=5, max_depth=3,
                 feature_fraction=0.5, bootstrap=False), BINARY_KINDS),
    ("tree", LearnerSpec(kind=LearnerKind.TREE, max_depth=4), BINARY_KINDS),
    ("logistic", LearnerSpec(kind=LearnerKind.LOGISTIC, lam=0.1),
     BINARY_KINDS),
    ("tree_mse", LearnerSpec(kind=LearnerKind.TREE, max_depth=5),
     (CostKind.MSE,)),
]


@pytest.mark.parametrize("name, spec, kinds", CURVE_CASES,
                         ids=[c[0] for c in CURVE_CASES])
def test_curve_experiment_equals_the_per_trial_loop(name, spec, kinds):
    # Tree kinds train every (size, trial) model in one call; each model's
    # costs are the loop's, bit for bit, and so are its missing cells.
    if name == "tree_mse":
        d, _ = gen_regression(RegressionSynthSpec(), 300, seed=8)
        grid = [20, 60, 150, 240]
    else:
        d = _tied_onehot(400, seed=5)
        grid = [8, 30, 90, 200]
    exp = run_curve_experiment(spec, d, grid, 3, seed=9, cost_kinds=kinds)
    got = [(c.n_train, c.trial, c.group, c.cost_kind,
            None if c.cost is None else c.cost.hex()) for c in exp.cells]
    want = loop_run_curve_experiment(spec, d, grid, 3, 9, kinds)
    assert got == want
    if name != "tree_mse":
        assert any(c[-1] is None for c in want)


def _discrete_csv(tmp_path, n):
    data, schema = tmp_path / "d.csv", tmp_path / "schema.txt"
    assert run_cli(["synth", "--synth-kind", "discrete", "--n", str(n),
                    "--seed", "11", "--data", str(data),
                    "--out", str(tmp_path / "synth")]) == 0
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    return load_dataset(data, Schema.from_file(schema))


def test_curve_experiment_grows_its_forests_in_one_call_per_level(
        monkeypatch, tmp_path):
    # The README's curve: 9 bagged models of 20 trees, whose merged rows
    # fit one group, so each level is one Gini call.
    d = _discrete_csv(tmp_path, 1000)
    calls = []
    search = kernels.best_splits_gini

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(kernels, "best_splits_gini", counted)
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES)
    run_curve_experiment(spec, d, [100, 200, 400], 3, seed=3)
    assert 1 <= len(calls) <= spec.max_depth


def test_fit_curve_experiment_and_extrapolation():
    spec = default_discrete_spec()
    d, _ = gen_discrete(spec, 900, seed=3)
    lspec = LearnerSpec(kind=LearnerKind.TREE, max_depth=3)
    exp = run_curve_experiment(lspec, d, [50, 100, 200, 400], 4, seed=4)
    fits = fit_curve_experiment(exp)
    assert set(fits) == {(0, CostKind.ZERO_ONE), (1, CostKind.ZERO_ONE)}
    f0, f1 = fits[(0, CostKind.ZERO_ONE)], fits[(1, CostKind.ZERO_ONE)]
    gap_inf = extrapolate_gamma([f0, f1], np.inf)
    assert gap_inf == pytest.approx(abs(f0.delta - f1.delta))


def test_extrapolate_gamma_spans_every_fit_of_one_kind():
    from dataclasses import replace

    fits = [
        PowerLawFit(alpha=a, beta=b, delta=c, rss=0, n_min=10, n_max=100,
                    cost_kind=CostKind.ZERO_ONE, group=g)
        for g, (a, b, c) in enumerate([(2.0, 0.5, 0.1), (1.0, 1.0, 0.3),
                                       (4.0, 0.8, 0.2)])
    ]
    at = [fit(100.0) for fit in fits]
    assert extrapolate_gamma(fits, 100.0) == max(at) - min(at)
    assert extrapolate_gamma(fits, np.inf) == 0.3 - 0.1
    # A fit without a cost kind joins any kind.
    assert extrapolate_gamma(fits[:2] + [replace(fits[2], cost_kind=None)],
                             np.inf) == 0.3 - 0.1
    with pytest.raises(AnalysisError, match="different cost kinds"):
        extrapolate_gamma(fits[:2] + [replace(fits[2], cost_kind=CostKind.FPR)],
                          100.0)


def test_critical_point_formula():
    f = PowerLawFit(alpha=100.0, beta=2.0, delta=1.0, rss=0, n_min=1, n_max=100)
    g = PowerLawFit(alpha=50.0, beta=1.0, delta=0.0, rss=0, n_min=1, n_max=100)
    # (b a / (d e))^{1/(b-e)} = (200/50)^1 = 4
    assert power_law_critical_point(f, g) == pytest.approx(4.0, abs=1e-12)


def test_critical_point_equal_exponents():
    f = PowerLawFit(alpha=2.0, beta=1.0, delta=0.5, rss=0, n_min=1, n_max=10)
    g = PowerLawFit(alpha=1.0, beta=1.0, delta=0.6, rss=0, n_min=1, n_max=10)
    # diff = 1/x - 0.1 -> zero at x = 10
    assert power_law_critical_point(f, g) == pytest.approx(10.0)
    same = PowerLawFit(alpha=2.0, beta=1.0, delta=0.5, rss=0, n_min=1, n_max=10)
    h = PowerLawFit(alpha=2.0, beta=1.0, delta=0.7, rss=0, n_min=1, n_max=10)
    assert power_law_critical_point(same, h) is None


def test_crossings_quadratic_oracle():
    # f - g = 0 reduces to n^2 - 50 n + 100 = 0, roots 25 +- sqrt(525)
    f = PowerLawFit(alpha=100.0, beta=2.0, delta=1.0, rss=0, n_min=1, n_max=100)
    g = PowerLawFit(alpha=50.0, beta=1.0, delta=0.0, rss=0, n_min=1, n_max=100)
    roots = power_law_crossings(f, g, (0.5, 1000.0))
    exact = sorted([25.0 - np.sqrt(525.0), 25.0 + np.sqrt(525.0)])
    assert len(roots) == 2
    assert roots[0] == pytest.approx(exact[0], abs=1e-6)
    assert roots[1] == pytest.approx(exact[1], abs=1e-6)


def test_crossings_degenerate_identical():
    f = PowerLawFit(alpha=1.0, beta=0.5, delta=0.1, rss=0, n_min=1, n_max=10)
    assert power_law_crossings(f, f, (1.0, 100.0)) == []


def test_crossings_invalid_domain():
    f = PowerLawFit(alpha=1.0, beta=0.5, delta=0.1, rss=0, n_min=1, n_max=10)
    with pytest.raises(AnalysisError):
        power_law_crossings(f, f, (10.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_at_most_two_crossings_property(seed):
    rng = np.random.default_rng(seed)
    f = PowerLawFit(
        alpha=float(rng.uniform(0.01, 100)),
        beta=float(rng.uniform(0.01, 3)),
        delta=float(rng.uniform(0, 1)),
        rss=0.0, n_min=1, n_max=100,
    )
    g = PowerLawFit(
        alpha=float(rng.uniform(0.01, 100)),
        beta=float(rng.uniform(0.01, 3)),
        delta=float(rng.uniform(0, 1)),
        rss=0.0, n_min=1, n_max=100,
    )
    domain = (0.1, 10_000.0)
    roots = power_law_crossings(f, g, domain)
    assert len(roots) <= 2
    for r in roots:
        scale = max(abs(f(r)), abs(g(r)), 1e-12)
        assert abs(f(r) - g(r)) < 1e-6 * max(1.0, scale)
    # every sign change on a dense grid is matched by a reported root
    xs = np.geomspace(*domain, 2000)
    diff = np.array([f(x) - g(x) for x in xs])
    sign_changes = int(np.sum(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0))
    assert sign_changes <= 2
    assert len(roots) >= sign_changes
