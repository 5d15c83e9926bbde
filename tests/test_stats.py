import math

import numpy as np
import pytest
from scipy import stats as sps

from fairaudit import (
    CostKind,
    Dataset,
    PredictionSet,
    Task,
    anova_f,
    bootstrap_gamma_ci,
    compare_discrimination_test,
    gamma_z_test,
    pairwise_welch_holm,
    welch_t,
)
from fairaudit import stats as stats_mod
from fairaudit.costs import per_sample_losses
from fairaudit.errors import AnalysisError
from fairaudit.stats import (
    f_sf,
    normal_cdf,
    reg_inc_beta,
    t_sf,
    two_sample_z,
    two_tailed_normal_p,
    two_tailed_t_p,
)


def loss_dataset(y0, y1):
    """Two groups with given outcomes; constant-0 predictions make the
    zero-one losses equal the outcomes."""
    y = np.concatenate([y0, y1])
    n = y.size
    d = Dataset(
        features=np.zeros((n, 1)),
        group=np.concatenate(
            [np.zeros(len(y0), dtype=np.int64), np.ones(len(y1), dtype=np.int64)]
        ),
        outcome=y.astype(np.float64),
        task=Task.BINARY,
        column_names=("x",),
    )
    return d, PredictionSet(labels=np.zeros(n))


def test_distribution_functions_vs_scipy():
    for z in (-3.1, -0.4, 0.0, 1.7, 4.2):
        assert normal_cdf(z) == pytest.approx(sps.norm.cdf(z), abs=1e-12)
        assert two_tailed_normal_p(z) == pytest.approx(
            2 * sps.norm.sf(abs(z)), abs=1e-12
        )
    for a, b, x in [(2.0, 3.0, 0.4), (0.5, 0.5, 0.1), (10.0, 2.0, 0.9)]:
        from scipy.special import betainc

        assert reg_inc_beta(a, b, x) == pytest.approx(
            betainc(a, b, x), abs=1e-12
        )
    for f, d1, d2 in [(2.5, 3, 40), (0.7, 1, 10), (8.0, 5, 5)]:
        assert f_sf(f, d1, d2) == pytest.approx(sps.f.sf(f, d1, d2), abs=1e-10)
    for t, df in [(1.3, 7.0), (-2.2, 30.0), (0.0, 1.0)]:
        assert t_sf(t, df) == pytest.approx(sps.t.sf(t, df), abs=1e-12)


def test_gamma_z_test_matches_oracle():
    rng = np.random.default_rng(0)
    y0 = (rng.random(200) < 0.3).astype(float)
    y1 = (rng.random(150) < 0.45).astype(float)
    d, preds = loss_dataset(y0, y1)
    res = gamma_z_test(preds, d, CostKind.ZERO_ONE)
    se = np.sqrt(y0.var(ddof=1) / 200 + y1.var(ddof=1) / 150)
    z = (y0.mean() - y1.mean()) / se
    assert res.statistic == pytest.approx(z, abs=1e-12)
    assert res.p_value == pytest.approx(2 * sps.norm.sf(abs(z)), abs=1e-12)


def test_gamma_z_test_small_sample_warning():
    d, preds = loss_dataset(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 1.0]))
    res = gamma_z_test(preds, d, CostKind.ZERO_ONE)
    assert any("small sample" in w for w in res.detail["warnings"])


def test_gamma_z_test_degenerate_se():
    d, preds = loss_dataset(np.zeros(40), np.zeros(40))
    res = gamma_z_test(preds, d, CostKind.ZERO_ONE)
    assert res.p_value == 1.0 and not res.reject


def test_compare_identical_models_p_one():
    rng = np.random.default_rng(1)
    y0 = (rng.random(100) < 0.4).astype(float)
    y1 = (rng.random(100) < 0.6).astype(float)
    d, preds = loss_dataset(y0, y1)
    res = compare_discrimination_test(preds, preds, d, CostKind.ZERO_ONE)
    assert res.p_value == 1.0
    assert res.statistic == 0.0
    assert not res.reject


def test_compare_opposite_sign_gaps_not_rejected():
    # model A: errors concentrated on group 0; model B mirror image.
    # |gap_A| == |gap_B| so the intersection test must not reject.
    n = 200
    y = np.zeros(2 * n)
    d = Dataset(
        features=np.zeros((2 * n, 1)),
        group=np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]),
        outcome=y,
        task=Task.BINARY,
        column_names=("x",),
    )
    rng = np.random.default_rng(2)
    noise = (rng.random(n) < 0.3).astype(float)
    a_labels = np.concatenate([noise, np.zeros(n)])
    b_labels = np.concatenate([np.zeros(n), noise])
    res = compare_discrimination_test(
        PredictionSet(labels=a_labels), PredictionSet(labels=b_labels),
        d, CostKind.ZERO_ONE,
    )
    assert not res.reject
    assert res.detail["gap_a"] == pytest.approx(-res.detail["gap_b"])


def test_compare_detects_larger_discrimination():
    rng = np.random.default_rng(3)
    n = 500
    y = np.zeros(2 * n)
    d = Dataset(
        features=np.zeros((2 * n, 1)),
        group=np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]),
        outcome=y,
        task=Task.BINARY,
        column_names=("x",),
    )
    fair = PredictionSet(labels=(rng.random(2 * n) < 0.2).astype(float))
    unfair = PredictionSet(
        labels=np.concatenate(
            [(rng.random(n) < 0.45).astype(float), (rng.random(n) < 0.05).astype(float)]
        )
    )
    res = compare_discrimination_test(fair, unfair, d, CostKind.ZERO_ONE)
    assert res.reject


def test_bootstrap_ci_brackets_gamma():
    rng = np.random.default_rng(4)
    y0 = (rng.random(400) < 0.2).astype(float)
    y1 = (rng.random(400) < 0.4).astype(float)
    d, preds = loss_dataset(y0, y1)
    lo, hi = bootstrap_gamma_ci(preds, d, CostKind.ZERO_ONE, reps=400, seed=5)
    gamma = abs(y0.mean() - y1.mean())
    assert lo <= gamma <= hi
    assert 0.0 <= lo < hi
    # deterministic given the seed
    assert (lo, hi) == bootstrap_gamma_ci(
        preds, d, CostKind.ZERO_ONE, reps=400, seed=5
    )
    with pytest.raises(AnalysisError):
        bootstrap_gamma_ci(preds, d, CostKind.ZERO_ONE, reps=50, seed=5)


def test_anova_matches_scipy():
    rng = np.random.default_rng(6)
    groups = [rng.normal(loc, 1.0, size=80) for loc in (0.0, 0.3, 0.1)]
    res = anova_f(groups)
    f_ref, p_ref = sps.f_oneway(*groups)
    assert res.statistic == pytest.approx(f_ref, abs=1e-9)
    assert res.p_value == pytest.approx(p_ref, abs=1e-9)


def test_anova_f_equals_t_squared_two_groups():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, 60)
    y = rng.normal(0.4, 1, 45)
    res = anova_f([x, y])
    # pooled-variance two-sample t
    sp2 = ((x.size - 1) * x.var(ddof=1) + (y.size - 1) * y.var(ddof=1)) / (
        x.size + y.size - 2
    )
    t = (x.mean() - y.mean()) / np.sqrt(sp2 * (1 / x.size + 1 / y.size))
    assert res.statistic == pytest.approx(t**2, abs=1e-9)


def test_welch_matches_scipy():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, 50)
    y = rng.normal(0.5, 2, 70)
    stat, df, p = welch_t(x, y)
    ref = sps.ttest_ind(x, y, equal_var=False)
    assert stat == pytest.approx(ref.statistic, abs=1e-10)
    assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_welch_exact_gap_follows_the_z_test_rule():
    # With no variance in either sample the gap is exact: both tests give
    # the same statistic, signed as mean(x) - mean(y), and p-value.
    for x, y in [(np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(2)),
                 (np.full(2, 0.5), np.full(4, 0.5))]:
        stat, df, p = welch_t(x, y)
        assert (stat, p) == two_sample_z(x, y)[2:]
        assert df == x.size + y.size - 2
    assert welch_t(np.zeros(3), np.ones(3))[0] == -math.inf



def loop_welch_t(x, y):
    """``welch_t`` as it read before it took its statistic and exact-gap
    case from ``two_sample_z``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    vx = x.var(ddof=1) / x.size
    vy = y.var(ddof=1) / y.size
    if vx + vy == 0.0:
        gap = float(x.mean() - y.mean())
        stat = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
        return stat, float(x.size + y.size - 2), 1.0 if gap == 0.0 else 0.0
    stat = float((x.mean() - y.mean()) / math.sqrt(vx + vy))
    df = (vx + vy) ** 2 / (vx**2 / (x.size - 1) + vy**2 / (y.size - 1))
    return stat, float(df), two_tailed_t_p(stat, df)


def test_welch_t_matches_its_loop_reference_bit_for_bit():
    rng = np.random.default_rng(27)
    cases = [(np.zeros(3), np.ones(3)), (np.full(2, 0.5), np.full(4, 0.5)),
             (np.full(5, 0.25), rng.normal(size=6))]
    for _ in range(300):
        m, k = rng.integers(2, 40, size=2)
        scale = 10.0 ** rng.integers(-60, 60)
        cases += [
            (rng.normal(size=m), rng.normal(1.0, 3.0, size=k)),
            (rng.integers(0, 2, m) * 1.0, rng.integers(0, 2, k) * 1.0),
            (rng.normal(size=m) * scale, rng.normal(size=k) * scale),
        ]
    for x, y in cases:
        got = [value.hex() for value in welch_t(x, y)]
        assert got == [float(value).hex() for value in loop_welch_t(x, y)]


def test_holm_adjustment_properties():
    rng = np.random.default_rng(9)
    groups = [rng.normal(loc, 1.0, 60) for loc in (0.0, 0.0, 1.0)]
    results = pairwise_welch_holm(dict(enumerate(groups)))
    assert set(results) == {(0, 1), (0, 2), (1, 2)}
    for pair, res in results.items():
        assert res.p_value >= res.detail["p_raw"]  # adjustment never shrinks
        assert res.p_value <= 1.0
    # Holm monotonicity: adjusted order respects raw order
    ordered = sorted(results.items(), key=lambda kv: kv[1].detail["p_raw"])
    adj = [r.p_value for _, r in ordered]
    assert adj == sorted(adj)
    # the separated pairs reject, the null pair does not
    assert results[(0, 2)].reject and results[(1, 2)].reject
    assert not results[(0, 1)].reject


def test_null_rejection_rate_calibrated():
    # simulated true null: both groups share the same Bernoulli loss law
    rng = np.random.default_rng(10)
    m = 400
    rejections = 0
    trials = 500
    for _ in range(trials):
        y0 = (rng.random(m) < 0.3).astype(float)
        y1 = (rng.random(m) < 0.3).astype(float)
        d, preds = loss_dataset(y0, y1)
        if gamma_z_test(preds, d, CostKind.ZERO_ONE).reject:
            rejections += 1
    rate = rejections / trials
    assert 0.02 < rate < 0.09


def test_result_rejects_p_value_outside_unit_interval():
    from fairaudit.stats import TestResult

    with pytest.raises(AnalysisError, match="outside"):
        TestResult(name="t", statistic=0.0, p_value=1.7, level=0.05,
                   reject=False)


def test_result_rejects_reject_flag_contradicting_p_value():
    from fairaudit.stats import TestResult

    with pytest.raises(AnalysisError, match="contradicts"):
        TestResult(name="t", statistic=0.0, p_value=0.01, level=0.05,
                   reject=False)


# ---------------------------------------------------------------------------
# Reference oracle: the bootstrap loop that built a resampled Dataset and
# PredictionSet per replicate.  `bootstrap_gamma_ci` must give the same
# interval bit for bit and skip the same replicates.


def loop_bootstrap_gamma_ci(preds, d, kind, reps=1000, level=0.05, seed=0):
    if reps < 100:
        raise AnalysisError("reps must be >= 100")
    rng = np.random.default_rng(seed)
    groups = sorted(set(d.group.tolist()))
    gammas = []
    skipped = 0
    for _ in range(reps):
        idx = rng.integers(0, d.n, size=d.n)
        db = d.take(idx)
        pb = PredictionSet(
            scores=None if preds.scores is None else preds.scores[idx],
            labels=None if preds.labels is None else preds.labels[idx],
        )
        costs = []
        for a in groups:
            try:
                costs.append(per_sample_losses(pb, db, kind, a).mean())
            except AnalysisError:
                continue
        if len(costs) < 2:
            skipped += 1
            continue
        gammas.append(max(costs) - min(costs))
    if skipped > 0.1 * reps:
        raise AnalysisError(
            f"{skipped}/{reps} bootstrap replicates lacked 2 evaluable groups"
        )
    lo = float(np.percentile(gammas, 100.0 * level / 2.0))
    hi = float(np.percentile(gammas, 100.0 * (1.0 - level / 2.0)))
    return lo, hi


def _ci_or_error(fn, *args, **kwargs):
    try:
        lo, hi = fn(*args, **kwargs)
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"
    return lo.hex(), hi.hex()


def _bootstrap_case(seed, sizes, task=Task.BINARY, with_labels=True):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    group = np.repeat(np.arange(len(sizes)), sizes)
    if task is Task.BINARY:
        y = (rng.random(n) < 0.4).astype(float)
        scores = np.round(rng.random(n), 2)
    else:
        y = np.round(rng.normal(size=n), 2)
        scores = np.round(y + rng.normal(size=n), 2)
    d = Dataset(
        features=rng.normal(size=(n, 1)), group=group, outcome=y, task=task,
        column_names=("x",),
    )
    labels = None
    if with_labels and task is Task.BINARY:
        labels = (rng.random(n) < 0.5).astype(float)
    return d, PredictionSet(scores=scores, labels=labels)


@pytest.mark.parametrize("kind", list(CostKind))
@pytest.mark.parametrize("sizes", [(60, 90), (50, 40, 70), (80, 3, 70)],
                         ids=["2groups", "3groups", "tiny_group"])
def test_bootstrap_matches_loop(kind, sizes):
    task = kind.task
    for seed, level in ((0, 0.05), (1, 0.2)):
        for with_labels in (True, False):
            d, preds = _bootstrap_case(seed, sizes, task, with_labels)
            args = (preds, d, kind)
            kw = dict(reps=200, level=level, seed=seed)
            assert _ci_or_error(bootstrap_gamma_ci, *args, **kw) == (
                _ci_or_error(loop_bootstrap_gamma_ci, *args, **kw)
            )


def test_bootstrap_tiny_group_vanishes_from_some_replicates():
    # A 3-row group in 153 rows is missing from about 5% of replicates;
    # with two other groups those replicates still count.
    d, preds = _bootstrap_case(1, (80, 3, 70))
    rng = np.random.default_rng(0)
    missing = sum(
        not np.isin(1, d.group[rng.integers(0, d.n, size=d.n)])
        for _ in range(200)
    )
    assert missing > 0
    got = bootstrap_gamma_ci(preds, d, CostKind.FPR, reps=200, seed=0)
    assert got == loop_bootstrap_gamma_ci(preds, d, CostKind.FPR, reps=200, seed=0)


def test_bootstrap_out_of_range_score_voids_its_group_per_replicate():
    # One score above 1 in group 1 leaves that group's cost undefined in
    # exactly the replicates that draw it; the other two groups carry on.
    d, preds = _bootstrap_case(2, (50, 40, 70), with_labels=False)
    scores = preds.scores.copy()
    scores[60] = 1.5
    preds = PredictionSet(scores=scores)
    for kind in (CostKind.BRIER, CostKind.GENERALIZED_ZERO_ONE):
        got = bootstrap_gamma_ci(preds, d, kind, reps=300, seed=4)
        assert got == loop_bootstrap_gamma_ci(preds, d, kind, reps=300, seed=4)


@pytest.mark.parametrize("case", ["tiny_second_group", "wrong_task", "no_scores"])
def test_bootstrap_skip_error_matches_loop(case):
    if case == "tiny_second_group":
        # The 1-row group is drawn in only ~63% of replicates.
        d, preds = _bootstrap_case(3, (120, 1))
        kind = CostKind.ZERO_ONE
    elif case == "wrong_task":
        d, preds = _bootstrap_case(3, (60, 60))
        kind = CostKind.MSE
    else:
        d, preds = _bootstrap_case(3, (60, 60))
        preds = PredictionSet(labels=preds.labels)
        kind = CostKind.BRIER
    want = _ci_or_error(loop_bootstrap_gamma_ci, preds, d, kind, reps=200, seed=1)
    assert want.startswith("AnalysisError:") and "lacked 2 evaluable" in want
    assert _ci_or_error(bootstrap_gamma_ci, preds, d, kind, reps=200, seed=1) == want


@pytest.mark.parametrize("n", [1, 2, 3, 199, 2001])
def test_block_draw_equals_successive_draws(n):
    # The counted bootstrap draws m replicates at once; its intervals equal
    # the loop's only while this holds for the installed numpy.
    block, rows = np.random.default_rng(n), np.random.default_rng(n)
    drawn = block.integers(0, n, size=(5, n)).ravel()
    want = np.concatenate([rows.integers(0, n, size=n) for _ in range(5)])
    assert drawn.tobytes() == want.tobytes()
    assert block.bit_generator.state == rows.bit_generator.state


def _zero_one_loss_cases():
    """(preds, dataset, kind) cases whose every loss is 0 or 1, one with
    out-of-range scores that void a group in the replicates that draw
    them."""
    for sizes in ((60, 90), (80, 3, 70)):
        for kind in (CostKind.ZERO_ONE, CostKind.FPR, CostKind.FNR):
            d, preds = _bootstrap_case(0, sizes)
            yield preds, d, kind
    d, preds = _bootstrap_case(1, (50, 40, 70), with_labels=False)
    rng = np.random.default_rng(1)
    scores = (rng.random(d.n) < 0.5).astype(float)
    scores[60] = 2.0 if d.outcome[60] == 1.0 else -1.0
    yield PredictionSet(scores=scores), d, CostKind.BRIER
    d, preds = _bootstrap_case(2, (70, 80), task=Task.REGRESSION)
    d = Dataset(features=d.features, group=d.group, outcome=np.round(d.outcome),
                task=Task.REGRESSION, column_names=d.column_names)
    scores = d.outcome + rng.integers(-1, 2, d.n)
    yield PredictionSet(scores=scores), d, CostKind.MSE


@pytest.mark.parametrize("block_draws", [1, 7 * 150, None],
                         ids=["1_row_blocks", "7_row_blocks", "default_blocks"])
def test_bootstrap_counted_blocks_match_loop(monkeypatch, block_draws):
    if block_draws is not None:
        monkeypatch.setattr(stats_mod, "_BLOCK_DRAWS", block_draws)
    calls = []
    counted = stats_mod._counted_gammas
    monkeypatch.setattr(stats_mod, "_counted_gammas",
                        lambda *a: calls.append(1) or counted(*a))
    cases = list(_zero_one_loss_cases())
    for preds, d, kind in cases:
        kw = dict(reps=150, level=0.1, seed=7)
        assert _ci_or_error(bootstrap_gamma_ci, preds, d, kind, **kw) == (
            _ci_or_error(loop_bootstrap_gamma_ci, preds, d, kind, **kw)
        )
    assert len(calls) == len(cases)


# ---------------------------------------------------------------------------
# Reference oracles: the two z-test bodies that `two_sample_z` now holds
# once, as they read before it did.


def loop_gamma_z_test(preds, d, kind, groups=(0, 1)):
    g0, g1 = groups
    l0 = per_sample_losses(preds, d, kind, g0)
    l1 = per_sample_losses(preds, d, kind, g1)
    m0, m1 = l0.size, l1.size
    gap = float(l0.mean() - l1.mean())
    var0 = float(l0.var(ddof=1)) if m0 > 1 else 0.0
    var1 = float(l1.var(ddof=1)) if m1 > 1 else 0.0
    se = math.sqrt(var0 / m0 + var1 / m1)
    if se == 0.0:
        z = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
        p = 1.0 if gap == 0.0 else 0.0
    else:
        z = gap / se
        p = two_tailed_normal_p(z)
    return z, p, gap, se, (m0, m1), (var0, var1)


def loop_compare_discrimination_test(preds_a, preds_b, d, kind, groups=(0, 1)):
    g0, g1 = groups
    la0 = per_sample_losses(preds_a, d, kind, g0)
    la1 = per_sample_losses(preds_a, d, kind, g1)
    lb0 = per_sample_losses(preds_b, d, kind, g0)
    lb1 = per_sample_losses(preds_b, d, kind, g1)
    p_values = []
    z_values = []
    for alpha in (+1.0, -1.0):
        u0 = alpha * la0 - lb0
        u1 = alpha * la1 - lb1
        gap = float(u0.mean() - u1.mean())
        var = (u0.var(ddof=1) / u0.size if u0.size > 1 else 0.0) + (
            u1.var(ddof=1) / u1.size if u1.size > 1 else 0.0
        )
        se = math.sqrt(var)
        if se == 0.0:
            z_stat = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
            p = 1.0 if gap == 0.0 else 0.0
        else:
            z_stat = gap / se
            p = two_tailed_normal_p(z_stat)
        p_values.append(p)
        z_values.append(z_stat)
    gap_a = float(la0.mean() - la1.mean())
    gap_b = float(lb0.mean() - lb1.mean())
    return (
        max(p_values), abs(abs(gap_a) - abs(gap_b)),
        z_values[0], z_values[1], p_values[0], p_values[1], gap_a, gap_b,
    )


def _hexed(value):
    if isinstance(value, tuple):
        return tuple(_hexed(v) for v in value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def _z_outcome(fn):
    try:
        return _hexed(fn())
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def _z_case(rng, m0, m1, task):
    n = m0 + m1
    if task is Task.BINARY:
        y = (rng.random(n) < rng.random()).astype(float)
        scores = np.round(rng.random(n), 2)
    else:
        y = np.round(rng.normal(size=n), 2)
        scores = np.round(rng.normal(size=n), 2)
    d = Dataset(
        features=np.zeros((n, 1)),
        group=np.repeat([0, 1], [m0, m1]),
        outcome=y,
        task=task,
        column_names=("x",),
    )
    return d, PredictionSet(scores=scores)


def _gamma_z_fields(res):
    detail = res.detail
    return (res.statistic, res.p_value, detail["gap"], detail["se"],
            detail["counts"], detail["variances"])


def _compare_fields(res):
    detail = res.detail
    return (res.p_value, res.statistic, detail["z_plus"], detail["z_minus"],
            detail["p_plus"], detail["p_minus"], detail["gap_a"], detail["gap_b"])


def _z_test_cases():
    rng = np.random.default_rng(80)
    for trial in range(60):
        # Sizes of 1 give a zero variance term for that group.
        m0, m1 = (1, 1) if trial == 0 else rng.integers(1, 40, size=2)
        task = Task.REGRESSION if trial % 5 == 0 else Task.BINARY
        d, preds = _z_case(rng, int(m0), int(m1), task)
        other = PredictionSet(scores=np.round(rng.permutation(preds.scores), 2))
        yield d, preds, other
    # se == 0: constant losses in both groups, with a zero and a non-zero gap.
    for y0, y1 in ((np.zeros(30), np.zeros(20)), (np.ones(30), np.zeros(20)),
                   (np.zeros(1), np.ones(1))):
        d, preds = loss_dataset(y0, y1)
        yield d, preds, PredictionSet(labels=np.ones(d.n))


@pytest.mark.parametrize("kind", list(CostKind))
def test_z_tests_match_the_loop_bodies(kind):
    for d, preds, other in _z_test_cases():
        if kind.task is not d.task:
            continue
        assert _z_outcome(
            lambda: _gamma_z_fields(gamma_z_test(preds, d, kind))
        ) == _z_outcome(lambda: loop_gamma_z_test(preds, d, kind))
        for a, b in ((preds, preds), (preds, other), (other, preds)):
            assert _z_outcome(
                lambda: _compare_fields(compare_discrimination_test(a, b, d, kind))
            ) == _z_outcome(lambda: loop_compare_discrimination_test(a, b, d, kind))


def test_compare_discrimination_reports_z_scores_not_gaps():
    rng = np.random.default_rng(5)
    d, preds = loss_dataset((rng.random(80) < 0.3).astype(float),
                            (rng.random(60) < 0.5).astype(float))
    other = PredictionSet(labels=(rng.random(d.n) < 0.5).astype(float))
    kind = CostKind.ZERO_ONE
    la0, la1, lb0, lb1 = (per_sample_losses(p, d, kind, a)
                          for p in (preds, other) for a in (0, 1))
    detail = compare_discrimination_test(preds, other, d, kind).detail
    z_plus = two_sample_z(la0 - lb0, la1 - lb1)[2]
    z_minus = two_sample_z(-la0 - lb0, -la1 - lb1)[2]
    assert detail["z_plus"].hex() == z_plus.hex()
    assert detail["z_minus"].hex() == z_minus.hex()
    # A z-score, not the paired mean difference it scales.
    assert z_plus != two_sample_z(la0 - lb0, la1 - lb1)[0]


def test_two_sample_z_degenerate_cases():
    assert two_sample_z(np.zeros(3), np.zeros(1)) == (0.0, 0.0, 0.0, 1.0)
    assert two_sample_z(np.ones(1), np.zeros(4)) == (1.0, 0.0, math.inf, 0.0)
    assert two_sample_z(np.zeros(2), np.ones(2)) == (-1.0, 0.0, -math.inf, 0.0)
