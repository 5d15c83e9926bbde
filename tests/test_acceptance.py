"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test prints one PASS line on success.  Checks that need the prepared
Adult census CSV (path in FAIRAUDIT_ADULT_CSV, produced by
`fairaudit prepare-adult`) skip with an explicit reason when the file is
not available.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from fairaudit import (
    CostKind,
    EnsemblePredictions,
    LearnerKind,
    LearnerSpec,
    Loss,
    PowerLawFit,
    PredictionSet,
    RegressionSynthSpec,
    anova_f,
    apply_threshold,
    class_conditional_decomposition,
    default_discrete_spec,
    discrimination_level,
    ensemble_train,
    exact_bayes,
    fit_power_law,
    gamma_z_test,
    gen_discrete,
    gen_regression,
    group_decomposition,
    point_decomposition,
    power_law_critical_point,
    power_law_crossings,
    split,
    train,
)
from fairaudit.adult import ADULT_ENV_VAR, load_adult
from fairaudit.curves import run_curve_experiment
from fairaudit.data import Dataset, Task
from fairaudit.decomposition import homoskedastic_noise_gap
from fairaudit.noise_bounds import cover_hart_lower, nn_bounds
from fairaudit.synth import ConditionalOutcomeModel

ADULT_AVAILABLE = bool(os.environ.get(ADULT_ENV_VAR))
needs_adult = pytest.mark.skipif(
    not ADULT_AVAILABLE,
    reason=(
        f"{ADULT_ENV_VAR} is not set: the Adult census file cannot be "
        "downloaded in this environment; run `fairaudit prepare-adult` on "
        "the raw UCI file and point the variable at the result"
    ),
)


def _discrete_ensemble(seed, t_models=50, n_train=200, eval_size=500):
    spec = default_discrete_spec()
    eval_set, om = gen_discrete(spec, eval_size, seed=seed)
    sampler = lambda n, s: gen_discrete(spec, n, s)[0]
    ensemble = ensemble_train(
        LearnerSpec(kind=LearnerKind.TREE, max_depth=3),
        sampler,
        t_models,
        n_train,
        eval_set,
        seed=seed + 1,
    )
    return ensemble, eval_set, om


def test_criterion_1_zero_one_identity():
    ensemble, eval_set, om = _discrete_ensemble(seed=100)
    # pointwise: expected loss over models and outcomes equals the
    # signed noise + bias + signed variance sum
    worst = 0.0
    for i in range(eval_set.n):
        p = point_decomposition(ensemble, i, eval_set, om, Loss.ZERO_ONE)
        col = ensemble.predictions[:, i]
        p1 = om.prob(eval_set.features[i], int(eval_set.group[i]))
        direct = float(np.mean(p1 * (col != 1.0) + (1 - p1) * (col != 0.0)))
        worst = max(worst, abs(direct - p.expected_loss))
    assert worst < 1e-12
    # group-level additivity
    for a in (0, 1):
        g = group_decomposition(ensemble, eval_set, om, Loss.ZERO_ONE, a)
        assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12
    print("\n[criterion 1] zero-one decomposition identity to 1e-12: PASS")


def test_criterion_2_squared_and_class_conditional_identity():
    # squared loss on the regression synthetic
    rspec = RegressionSynthSpec(sigma_eps=0.5)
    eval_set, om = gen_regression(rspec, 500, seed=200)
    sampler = lambda n, s: gen_regression(rspec, n, s)[0]
    ensemble = ensemble_train(
        LearnerSpec(kind=LearnerKind.RIDGE),
        sampler, 50, 200, eval_set, seed=201,
    )
    worst = 0.0
    for i in range(eval_set.n):
        p = point_decomposition(ensemble, i, eval_set, om, Loss.SQUARED)
        col = ensemble.predictions[:, i]
        mean = om.mean(eval_set.features[i], int(eval_set.group[i]))
        var = om.var(eval_set.features[i], int(eval_set.group[i]))
        direct = float(np.mean((col - mean) ** 2) + var)
        worst = max(worst, abs(direct - p.expected_loss))
    assert worst < 1e-12
    for a in (0, 1):
        g = group_decomposition(ensemble, eval_set, om, Loss.SQUARED, a)
        assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12
    # class-conditional (FNR: y=1, FPR: y=0) on the discrete synthetic
    ensemble_d, eval_d, om_d = _discrete_ensemble(seed=202)
    for a in (0, 1):
        for y in (0, 1):
            g = class_conditional_decomposition(ensemble_d, eval_d, om_d, a, y)
            assert abs(g.cost - (g.noise + g.bias + g.variance)) < 1e-12
    print("\n[criterion 2] squared + class-conditional identities: PASS")


def test_criterion_3_zero_noise_gap_and_bayes_optimal():
    # homoskedastic regression: analytic noise gap is exactly 0
    rspec = RegressionSynthSpec(sigma_eps=0.7, homoskedastic=True)
    eval_set, om = gen_regression(rspec, 400, seed=300)
    assert homoskedastic_noise_gap(om, eval_set) == 0.0
    # an ensemble of exact Bayes predictors has zero bias and variance
    spec = default_discrete_spec()
    eval_d, om_d = gen_discrete(spec, 500, seed=301)
    y_star = np.array(
        [
            1.0 if om_d.prob(eval_d.features[i], int(eval_d.group[i])) > 0.5 else 0.0
            for i in range(eval_d.n)
        ]
    )
    bayes = EnsemblePredictions(table=np.tile(y_star, (50, 1)))
    oracle = exact_bayes(spec)
    for a in (0, 1):
        g = group_decomposition(bayes, eval_d, om_d, Loss.ZERO_ONE, a)
        assert g.bias == 0.0 and g.variance == 0.0
        assert abs(g.cost - g.noise) < 1e-12
        # and the empirical-measure noise converges on the exact value
        assert abs(g.noise - oracle["noise"][a]) < 0.05
    print("\n[criterion 3] zero noise gap + Bayes-optimal ensemble: PASS")


def test_criterion_4_exact_noise_values():
    out = exact_bayes(RegressionSynthSpec(sigma_eps=0.01))
    assert abs(out["noise"][0] - 3.0e-4) < 1e-15
    assert abs(out["noise"][1] - 7.3e-3) < 1e-15
    print("\n[criterion 4] exact noise values 3.0e-4 / 7.3e-3: PASS")


@needs_adult
def test_criterion_5_adult_audit():
    d = load_adult()
    ds = split(d, 0.2, seed=500)
    model = train(
        LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=20, max_depth=8,
                    seed=501),
        ds.train,
    )
    scores = model.predict_scores(ds.test.features)
    preds = PredictionSet(scores=scores, labels=apply_threshold(scores, 0.5))
    zo = discrimination_level(preds, ds.test, CostKind.ZERO_ONE)
    assert 0.016 <= zo.gap <= 0.154
    # group 0 = Female, 1 = Male (lexicographic)
    fpr = discrimination_level(preds, ds.test, CostKind.FPR)
    fnr = discrimination_level(preds, ds.test, CostKind.FNR)
    fpr_by = dict(zip(fpr.groups, fpr.costs))
    fnr_by = dict(zip(fnr.groups, fnr.costs))
    assert fpr_by[1] > fpr_by[0]  # men's FPR exceeds women's
    assert fnr_by[0] > fnr_by[1]  # women's FNR exceeds men's
    print("\n[criterion 5] Adult audit gaps and directions: PASS")


@needs_adult
def test_criterion_6_adult_noise_bounds():
    d = load_adult()
    expect = {1: (0.106, 0.19, 0.05), 0: (0.036, 0.07, 0.03)}
    for a, (low_ref, up_ref, tol) in expect.items():
        est = nn_bounds(d, a, k=5, folds=5, seed=600, max_samples=8000)
        assert abs(est.e_low - low_ref) <= tol
        assert abs(est.auxiliary["cv_error"] - up_ref) <= tol
    print("\n[criterion 6] Adult nearest-neighbor noise bounds: PASS")


@needs_adult
def test_criterion_7_adult_learning_curve_trend():
    d = load_adult()
    spec = LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=10, max_depth=8)
    exp = run_curve_experiment(
        spec, d, [1000, 10_000], 25, seed=700, cost_kinds=(CostKind.FNR,)
    )
    gaps = {}
    for n in (1000, 10_000):
        per_trial = []
        for t in range(25):
            cells = {
                c.group: c.cost
                for c in exp.cells
                if c.n_train == n and c.trial == t and c.cost is not None
            }
            if len(cells) == 2:
                per_trial.append(abs(cells[0] - cells[1]))
        gaps[n] = float(np.mean(per_trial))
    assert gaps[10_000] <= 0.8 * gaps[1000]
    print("\n[criterion 7] Adult FNR gap shrinks with training size: PASS")


def test_criterion_8_power_law_machinery():
    # parameter recovery within 1% on noiseless curves
    ns = [64, 128, 256, 512, 1024]
    for alpha, beta, delta in [(3.0, 0.5, 0.05), (20.0, 1.2, 0.4)]:
        pts = [(n, alpha * n ** (-beta) + delta) for n in ns]
        fit = fit_power_law(pts)
        assert abs(fit.alpha - alpha) / alpha < 0.01
        assert abs(fit.beta - beta) / beta < 0.01
        assert abs(fit.delta - delta) / delta < 0.01
    # crossings and critical point of (100,2,1) vs (50,1,0):
    # the difference reduces to n^2 - 50 n + 100 = 0 with roots
    # 25 -+ sqrt(525) (displayed as 2.0871 and 47.9129)
    f = PowerLawFit(alpha=100.0, beta=2.0, delta=1.0, rss=0, n_min=1, n_max=100)
    g = PowerLawFit(alpha=50.0, beta=1.0, delta=0.0, rss=0, n_min=1, n_max=100)
    roots = power_law_crossings(f, g, (0.5, 1000.0))
    assert len(roots) == 2
    assert abs(roots[0] - (25.0 - np.sqrt(525.0))) < 1e-6
    assert abs(roots[1] - (25.0 + np.sqrt(525.0))) < 1e-6
    assert abs(power_law_critical_point(f, g) - 4.0) < 1e-9
    # at most two crossings over 1000 random positive-parameter pairs
    rng = np.random.default_rng(800)
    for _ in range(1000):
        f = PowerLawFit(
            alpha=float(rng.uniform(0.01, 50)), beta=float(rng.uniform(0.01, 3)),
            delta=float(rng.uniform(0, 1)), rss=0, n_min=1, n_max=100,
        )
        g = PowerLawFit(
            alpha=float(rng.uniform(0.01, 50)), beta=float(rng.uniform(0.01, 3)),
            delta=float(rng.uniform(0, 1)), rss=0, n_min=1, n_max=100,
        )
        assert len(power_law_crossings(f, g, (0.1, 10_000.0))) <= 2
    print("\n[criterion 8] power-law fit, crossings, critical point: PASS")


def test_criterion_9_cover_hart_inversion():
    assert abs(cover_hart_lower(0.19) - 0.1063) < 1e-4
    assert abs(cover_hart_lower(0.07) - 0.0363) < 1e-4
    print("\n[criterion 9] Cover-Hart inversion values: PASS")


def test_criterion_10_statistical_suite():
    # z-test p-values against a high-precision normal oracle
    rng = np.random.default_rng(1000)
    for _ in range(20):
        m = 300
        y0 = (rng.random(m) < 0.3).astype(float)
        y1 = (rng.random(m) < 0.4).astype(float)
        d = Dataset(
            features=np.zeros((2 * m, 1)),
            group=np.repeat([0, 1], m),
            outcome=np.concatenate([y0, y1]),
            task=Task.BINARY,
            column_names=("x",),
        )
        preds = PredictionSet(labels=np.zeros(2 * m))
        res = gamma_z_test(preds, d, CostKind.ZERO_ONE)
        se = np.sqrt(y0.var(ddof=1) / m + y1.var(ddof=1) / m)
        z = (y0.mean() - y1.mean()) / se
        assert abs(res.p_value - 2 * sps.norm.sf(abs(z))) < 1e-6
    # identical models: p = 1
    from fairaudit import compare_discrimination_test

    res = compare_discrimination_test(preds, preds, d, CostKind.ZERO_ONE)
    assert res.p_value == 1.0
    # rejection rate under a simulated true null: 5% +- 2% over 2000 trials
    rng = np.random.default_rng(1001)
    m = 400
    rejections = 0
    for _ in range(2000):
        l0 = (rng.random(m) < 0.3).astype(float)
        l1 = (rng.random(m) < 0.3).astype(float)
        se = np.sqrt(l0.var(ddof=1) / m + l1.var(ddof=1) / m)
        z = (l0.mean() - l1.mean()) / se
        # same statistic the z-test computes; avoids 2000 Dataset builds
        from fairaudit.stats import two_tailed_normal_p

        if two_tailed_normal_p(z) < 0.05:
            rejections += 1
    rate = rejections / 2000
    assert 0.03 <= rate <= 0.07
    # F = t^2 identity for two groups
    x = rng.normal(0, 1, 80)
    y = rng.normal(0.3, 1, 60)
    res_f = anova_f([x, y])
    sp2 = ((x.size - 1) * x.var(ddof=1) + (y.size - 1) * y.var(ddof=1)) / (
        x.size + y.size - 2
    )
    t = (x.mean() - y.mean()) / np.sqrt(sp2 * (1 / x.size + 1 / y.size))
    assert abs(res_f.statistic - t * t) < 1e-9
    print("\n[criterion 10] statistical suite oracles and calibration: PASS")


@needs_adult
def test_criterion_11_adult_subgroup_localization():
    from fairaudit import Clustering, ClusteringKind, per_sample_losses

    d = load_adult()
    ds = split(d, 0.2, seed=1100)
    model = train(
        LearnerSpec(kind=LearnerKind.BAGGED_TREES, n_trees=20, max_depth=8,
                    seed=1101),
        ds.train,
    )
    scores = model.predict_scores(ds.test.features)
    preds = PredictionSet(scores=scores, labels=apply_threshold(scores, 0.5))
    col = ds.test.column_names.index("occupation=Exec-managerial")
    assignment = (ds.test.features[:, col] == 1.0).astype(np.int64)
    gaps = {}
    for c in (0, 1):
        rows = np.flatnonzero(assignment == c)
        sub = ds.test.take(rows)
        sub_preds = PredictionSet(
            scores=scores[rows], labels=preds.labels[rows]
        )
        fnr = {
            a: float(per_sample_losses(sub_preds, sub, CostKind.FNR, a).mean())
            for a in (0, 1)
        }
        gaps[c] = abs(fnr[0] - fnr[1])
    assert gaps[1] > gaps[0]
    assert gaps[1] > 0.1
    print("\n[criterion 11] managerial cluster concentrates the FNR gap: PASS")


def test_criterion_12_cli_determinism(tmp_path):
    data = tmp_path / "d.csv"
    schema = tmp_path / "schema.txt"
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    base = [sys.executable, "-m", "fairaudit.cli"]
    gen = base + [
        "synth", "--seed", "11", "--synth-kind", "discrete", "--n", "400",
        "--data", str(data), "--out", str(tmp_path / "g"),
    ]
    assert subprocess.run(gen, capture_output=True).returncode == 0
    bodies = []
    for out in ("r1", "r2"):
        cmd = base + [
            "audit", "--seed", "12", "--data", str(data),
            "--schema", str(schema), "--learner", "bagged_trees:n_trees=5",
            "--kind", "zero_one,fnr", "--out", str(tmp_path / out),
        ]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        bodies.append((tmp_path / out / "report.json").read_bytes())
    assert bodies[0] == bodies[1]
    json.loads(bodies[0])  # well-formed
    print("\n[criterion 12] byte-identical CLI reports: PASS")
