import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fairaudit import (
    AnalysisError,
    CostKind,
    Dataset,
    PredictionSet,
    Task,
    discrimination_level,
    group_cost,
    per_sample_losses,
)
from fairaudit.costs import brier_score, generalized_zero_one, group_losses
from fairaudit.errors import DataError


def small_binary():
    # group 0: y = [0,0,1,1]; group 1: y = [0,1,1]
    return Dataset(
        features=np.zeros((7, 1)),
        group=np.array([0, 0, 0, 0, 1, 1, 1]),
        outcome=np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
    )


def test_zero_one_by_hand():
    d = small_binary()
    preds = PredictionSet(labels=np.array([0, 1, 1, 0, 1, 1, 0], dtype=float))
    # group 0 errors: rows 1 and 3 -> 2/4; group 1 errors: rows 4 and 6 -> 2/3
    c0, m0, _ = group_cost(preds, d, CostKind.ZERO_ONE, 0)
    c1, m1, _ = group_cost(preds, d, CostKind.ZERO_ONE, 1)
    assert (c0, m0) == (0.5, 4)
    assert (c1, m1) == (pytest.approx(2 / 3), 3)


def test_fpr_fnr_by_hand():
    d = small_binary()
    preds = PredictionSet(labels=np.array([0, 1, 1, 0, 1, 1, 0], dtype=float))
    # group 0 FPR: among y=0 rows (0,1) predictions [0,1] -> 0.5
    assert per_sample_losses(preds, d, CostKind.FPR, 0).mean() == 0.5
    # group 0 FNR: among y=1 rows (2,3) predictions [1,0] -> 0.5
    assert per_sample_losses(preds, d, CostKind.FNR, 0).mean() == 0.5
    # group 1 FPR: y=0 row 4 predicted 1 -> 1.0
    assert per_sample_losses(preds, d, CostKind.FPR, 1).mean() == 1.0


def test_fpr_undefined_without_negatives():
    d = Dataset(
        features=np.zeros((4, 1)),
        group=np.array([0, 0, 1, 1]),
        outcome=np.array([1.0, 1.0, 0.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
    )
    preds = PredictionSet(labels=np.zeros(4))
    with pytest.raises(AnalysisError, match="no Y=0"):
        per_sample_losses(preds, d, CostKind.FPR, 0)


def test_generalized_zero_one_and_brier():
    d = small_binary()
    s = np.array([0.1, 0.9, 0.8, 0.4, 0.7, 0.6, 0.2])
    preds = PredictionSet(scores=s)
    y = d.outcome
    expected = y * (1 - s) + (1 - y) * s
    got = per_sample_losses(preds, d, CostKind.GENERALIZED_ZERO_ONE, 0)
    np.testing.assert_allclose(got, expected[:4])
    assert brier_score(s, d, 1) == pytest.approx(np.mean((s[4:] - y[4:]) ** 2))
    assert generalized_zero_one(s, d, 1) == pytest.approx(expected[4:].mean())


def test_scores_out_of_range_rejected():
    d = small_binary()
    preds = PredictionSet(scores=np.full(7, 1.5))
    with pytest.raises(AnalysisError, match="outside"):
        per_sample_losses(preds, d, CostKind.BRIER, 0)


def test_mse(regression_dataset):
    d = regression_dataset
    preds = PredictionSet(scores=np.zeros(d.n))
    losses = per_sample_losses(preds, d, CostKind.MSE, 0)
    np.testing.assert_allclose(losses, d.outcome[d.group == 0] ** 2)


def test_task_mismatch():
    d = small_binary()
    with pytest.raises(AnalysisError, match="regression"):
        per_sample_losses(PredictionSet(labels=np.zeros(7)), d, CostKind.MSE, 0)


def test_discrimination_level_two_groups():
    d = small_binary()
    preds = PredictionSet(labels=np.array([0, 1, 1, 0, 1, 1, 0], dtype=float))
    rep = discrimination_level(preds, d, CostKind.ZERO_ONE)
    assert rep.gap == pytest.approx(abs(0.5 - 2 / 3))
    assert rep.groups == (0, 1)


def test_discrimination_level_skips_unevaluable_group():
    # three groups; group 2 has no Y=0 rows so FPR skips it
    d = Dataset(
        features=np.zeros((6, 1)),
        group=np.array([0, 0, 1, 1, 2, 2]),
        outcome=np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
    )
    preds = PredictionSet(labels=np.array([1, 0, 0, 1, 0, 1], dtype=float))
    rep = discrimination_level(preds, d, CostKind.FPR)
    assert rep.skipped_groups == (2,)
    assert len(rep.warnings) == 1


def test_discrimination_level_skips_a_declared_group_without_rows():
    # Group 2 is declared by the full dataset but has no rows in the subset;
    # the top group is skipped with a warning, as a middle group would be.
    d = Dataset(
        features=np.zeros((6, 1)),
        group=np.array([0, 0, 1, 1, 2, 2]),
        outcome=np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
    )
    sub = d.take(np.arange(4))
    assert sub.n_groups == 3
    preds = PredictionSet(labels=np.array([1, 0, 0, 0], dtype=float))
    rep = discrimination_level(preds, sub, CostKind.ZERO_ONE)
    assert rep.groups == (0, 1)
    assert rep.skipped_groups == (2,)
    assert rep.warnings == (
        "group 2 skipped: group 2 has no rows in the evaluation set",
    )


def test_gap_is_max_minus_min():
    d = Dataset(
        features=np.zeros((6, 1)),
        group=np.array([0, 0, 1, 1, 2, 2]),
        outcome=np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
    )
    preds = PredictionSet(labels=np.array([1, 1, 0, 1, 1, 0], dtype=float))
    rep = discrimination_level(preds, d, CostKind.ZERO_ONE)
    # costs: group0 = 0.5, group1 = 0.0, group2 = 1.0
    assert rep.gap == 1.0


def test_hard_threshold_convention():
    preds = PredictionSet(scores=np.array([0.5, 0.49]))
    np.testing.assert_array_equal(preds.hard(), [1.0, 0.0])


# ---------------------------------------------------------------------------
# Reference oracles: the per-kind branches that `row_losses` now holds
# once, and the stand-alone Brier and generalized zero-one formulas that
# became wrappers over `per_sample_losses`.


def loop_per_sample_losses(preds, d, kind, a):
    if preds.n != d.n:
        raise DataError(f"predictions have {preds.n} rows but dataset has {d.n}")
    if kind.task is not d.task:
        raise AnalysisError(
            f"cost kind {kind.value} requires a {kind.task.value} task"
        )
    # Missing scores make the kind inapplicable to every group, so they are
    # reported before an empty group.
    if kind.needs_scores and preds.scores is None:
        raise AnalysisError(f"cost kind {kind.value} requires scores")
    rows = d.group_indices(a)
    if rows.size == 0:
        raise AnalysisError(f"group {a} has no rows in the evaluation set")
    y = d.outcome[rows]
    if kind is CostKind.MSE:
        pred = (preds.scores if preds.scores is not None else preds.labels)[rows]
        return (pred - y) ** 2
    if kind.needs_scores:
        s = preds.scores[rows]
        if np.any((s < 0.0) | (s > 1.0)):
            raise AnalysisError("scores outside [0,1]")
        if kind is CostKind.BRIER:
            return (s - y) ** 2
        return y * (1.0 - s) + (1.0 - y) * s
    yhat = preds.hard()[rows]
    if kind is CostKind.ZERO_ONE:
        return (yhat != y).astype(np.float64)
    if kind is CostKind.FPR:
        negatives = y == 0.0
        if not negatives.any():
            raise AnalysisError(f"group {a} has no Y=0 rows; FPR undefined")
        return yhat[negatives].astype(np.float64)
    positives = y == 1.0
    if not positives.any():
        raise AnalysisError(f"group {a} has no Y=1 rows; FNR undefined")
    return (1.0 - yhat[positives]).astype(np.float64)


def _losses_or_error(fn, *args):
    try:
        return [v.hex() for v in fn(*args).tolist()]
    except (AnalysisError, DataError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cost_case(rng, n, task, n_groups=3):
    group = rng.integers(0, n_groups, size=n)
    if task is Task.BINARY:
        y = (rng.random(n) < rng.random()).astype(float)
    else:
        y = np.round(rng.normal(size=n), 2)
    return Dataset(
        features=np.zeros((n, 1)), group=group, outcome=y, task=task,
        column_names=("x",),
    )


@pytest.mark.parametrize("kind", list(CostKind))
def test_per_sample_losses_match_loop(kind):
    rng = np.random.default_rng(60 + list(CostKind).index(kind))
    for trial in range(40):
        n = int(rng.integers(1, 12))
        task = Task.BINARY if trial % 4 else Task.REGRESSION
        d = _cost_case(rng, n, task)
        scores = np.round(rng.uniform(-0.1, 1.1, size=n), 2)
        labels = (rng.random(n) < 0.5).astype(float)
        for preds in (
            PredictionSet(scores=scores),
            PredictionSet(labels=labels),
            PredictionSet(scores=scores, labels=labels),
            PredictionSet(scores=np.clip(scores, 0.0, 1.0)),
            PredictionSet(scores=np.append(scores, 0.5)),  # misaligned
        ):
            for a in range(4):
                assert _losses_or_error(per_sample_losses, preds, d, kind, a) == (
                    _losses_or_error(loop_per_sample_losses, preds, d, kind, a)
                )


def test_brier_and_generalized_zero_one_match_formulas():
    rng = np.random.default_rng(70)
    for _ in range(30):
        d = _cost_case(rng, int(rng.integers(2, 40)), Task.BINARY, n_groups=2)
        s = np.round(rng.random(d.n), 3)
        for a in range(2):
            rows = d.group_indices(a)
            if rows.size == 0:
                continue
            y = d.outcome[rows]
            assert brier_score(s, d, a).hex() == float(
                np.mean((s[rows] - y) ** 2)
            ).hex()
            assert generalized_zero_one(s, d, a).hex() == float(
                np.mean(y * (1.0 - s[rows]) + (1.0 - y) * s[rows])
            ).hex()


# ---------------------------------------------------------------------------
# ``group_losses`` is ``per_sample_losses`` for every declared group at once.


@st.composite
def group_loss_cases(draw):
    """Predictions and a dataset of up to 4 declared groups, some of them
    empty, a group without one of the classes, scores outside [0, 1]."""
    n = draw(st.integers(1, 10))
    n_groups = draw(st.integers(1, 4))
    task = draw(st.sampled_from(list(Task)))
    rows = st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)
    values = [0.0, 1.0] if task is Task.BINARY else [-1.5, 0.0, 0.25, 2.0]
    d = Dataset(
        features=np.zeros((n, 1)),
        group=np.array(draw(rows)),
        outcome=np.array(draw(st.lists(st.sampled_from(values),
                                       min_size=n, max_size=n))),
        task=task,
        column_names=("x",),
        group_names=tuple(str(a) for a in range(n_groups)),
    )
    scores = np.array(draw(st.lists(
        st.sampled_from([-0.25, 0.0, 0.5, 0.75, 1.0, 1.5]),
        min_size=n, max_size=n)))
    labels = (scores >= 0.5).astype(float)
    preds = draw(st.sampled_from([
        PredictionSet(scores=scores),
        PredictionSet(labels=labels),
        PredictionSet(scores=scores, labels=labels),
    ]))
    return preds, d, draw(st.sampled_from(list(CostKind)))


@settings(max_examples=400, deadline=None)
@given(group_loss_cases())
def test_group_losses_match_per_sample_losses(case):
    preds, d, kind = case
    try:
        samples, errors = group_losses(preds, d, kind)
    except AnalysisError as exc:
        # A kind the data cannot take: every group's cost raises alike.
        event("kind does not apply")
        for a in range(d.n_groups):
            with pytest.raises(AnalysisError) as one:
                per_sample_losses(preds, d, kind, a)
            assert str(one.value) == str(exc)
        return
    assert list(samples) == sorted(samples) and list(errors) == sorted(errors)
    assert sorted([*samples, *errors]) == list(range(d.n_groups))
    for a in range(d.n_groups):
        try:
            expected = per_sample_losses(preds, d, kind, a)
        except AnalysisError as exc:
            event(str(exc).replace(f"group {a} ", ""))
            assert str(errors[a]) == str(exc)
            continue
        assert samples[a].dtype == expected.dtype
        assert samples[a].tobytes() == expected.tobytes()
