import numpy as np
import pytest

from fairaudit import (
    Clustering,
    ClusteringKind,
    CostKind,
    Dataset,
    PredictionSet,
    Task,
    rank_clusters,
    threshold_clusterings,
    weighted_group_error,
)
from fairaudit.errors import AnalysisError, DataError
from fairaudit.costs import per_sample_losses, row_losses
from fairaudit.subgroups import cluster_cost, load_membership, outcome_enrichment


def build(n=12):
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.normal(size=(n, 2)),
        group=np.tile([0, 1], n // 2),
        outcome=(rng.random(n) < 0.5).astype(float),
        task=Task.BINARY,
        column_names=("a", "b"),
    )


def test_threshold_clusterings_split_at_mean():
    d = build()
    cls = threshold_clusterings(d)
    assert len(cls) == d.k
    for j, cl in enumerate(cls):
        mean = d.features[:, j].mean()
        np.testing.assert_array_equal(
            cl.assignment, (d.features[:, j] >= mean).astype(np.int64)
        )
        assert not cl.degenerate


def test_constant_feature_flagged_degenerate():
    d = Dataset(
        features=np.column_stack([np.ones(6), np.arange(6.0)]),
        group=np.tile([0, 1], 3),
        outcome=np.tile([0.0, 1.0], 3),
        task=Task.BINARY,
        column_names=("const", "var"),
    )
    cls = threshold_clusterings(d)
    assert cls[0].degenerate and not cls[1].degenerate


def test_cluster_cost_by_hand():
    d = build()
    cl = threshold_clusterings(d)[0]
    preds = PredictionSet(labels=np.zeros(d.n))
    rows = (cl.assignment == 1) & (d.group == 0)
    expected = d.outcome[rows].mean()  # constant-0 predictor: loss = y
    assert cluster_cost(preds, d, cl, CostKind.ZERO_ONE, 0, 1) == pytest.approx(
        expected
    )


def test_weighted_group_error_formula():
    # soft membership, hand-computed weighted error
    y = np.array([0.0, 1.0, 1.0, 0.0])
    q = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    d = Dataset(
        features=np.zeros((4, 1)),
        group=np.array([0, 0, 1, 1]),
        outcome=y,
        task=Task.BINARY,
        column_names=("x",),
    )
    cl = Clustering(kind=ClusteringKind.SOFT, membership=q)
    preds = PredictionSet(labels=np.array([0.0, 0.0, 1.0, 1.0]))
    errors = (preds.labels != y).astype(float)  # [0, 1, 0, 1]
    for a in (0, 1):
        for c in (0, 1):
            in_g = (d.group == a).astype(float)
            expected = (errors * in_g * q[:, c]).sum() / (in_g * q[:, c]).sum()
            got = weighted_group_error(preds, d, cl, a, c)
            assert got == pytest.approx(expected)


def test_membership_rows_must_sum_to_one():
    with pytest.raises(DataError, match="sum to 1"):
        Clustering(
            kind=ClusteringKind.SOFT,
            membership=np.array([[0.5, 0.4]]),
        )
    # small drift renormalized
    cl = Clustering(
        kind=ClusteringKind.SOFT,
        membership=np.array([[0.5 + 2e-8, 0.5]]),
    )
    assert cl.membership.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_must_be_finite(bad):
    # nan passes both the sign test and the row-sum test on its own.
    with pytest.raises(DataError, match="finite"):
        Clustering(
            kind=ClusteringKind.SOFT,
            membership=np.array([[0.5, 0.5], [bad, 1.0]]),
        )


def test_load_membership_names_the_line_of_a_non_finite_cell(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("t0,t1\n0.2,0.8\n\n0.5, inf\nnan,1.0\n")
    with pytest.raises(DataError, match=r"q\.csv:4: non-finite membership value 'inf'"):
        load_membership(path)


def test_outcome_enrichment():
    d = build()
    cl = threshold_clusterings(d)[1]
    for c in (0, 1):
        rows = cl.assignment == c
        assert outcome_enrichment(d, cl, c) == pytest.approx(
            d.outcome[rows].mean()
        )


def test_rank_clusters_orders_by_variance():
    # construct clusters with controlled gaps
    n = 80
    group = np.tile([0, 1], n // 2)
    assignment = np.repeat([0, 1], n // 2).astype(np.int64)
    y = np.zeros(n)
    labels = np.zeros(n)
    # cluster 1: group-0 rows get errors, gap large; cluster 0: no errors
    mask = (assignment == 1) & (group == 0)
    y[mask] = 1.0  # predicted 0 -> error
    d = Dataset(
        features=np.zeros((n, 1)),
        group=group,
        outcome=y,
        task=Task.BINARY,
        column_names=("x",),
    )
    cl = Clustering(kind=ClusteringKind.HARD, assignment=assignment)
    rep = rank_clusters(PredictionSet(labels=labels), d, cl, CostKind.ZERO_ONE)
    assert rep.clusters[0] == 1
    assert rep.gaps[1] == pytest.approx(1.0)
    assert rep.gaps[0] == 0.0
    assert rep.variances[1] > rep.variances[0]


def test_rank_clusters_flags_thin_cells():
    n = 24
    group = np.array([0] * 22 + [1] * 2)  # group 1 thin everywhere
    assignment = np.tile([0, 1], 12).astype(np.int64)
    d = Dataset(
        features=np.zeros((n, 1)),
        group=group,
        outcome=np.zeros(n),
        task=Task.BINARY,
        column_names=("x",),
    )
    cl = Clustering(kind=ClusteringKind.HARD, assignment=assignment)
    rep = rank_clusters(PredictionSet(labels=np.zeros(n)), d, cl, CostKind.ZERO_ONE)
    assert any(a == 1 for (_, a) in rep.unreliable_cells)
    assert any("mass threshold" in w for w in rep.warnings)


def test_soft_ranking_topic_semantics():
    # three "topics"; topic 2 concentrates group-0 errors
    rng = np.random.default_rng(1)
    n = 300
    group = (rng.random(n) < 0.5).astype(np.int64)
    q = rng.dirichlet([1.0, 1.0, 1.0], size=n)
    y = np.zeros(n)
    labels = np.zeros(n)
    hot = (q[:, 2] > 0.5) & (group == 0)
    y[hot] = 1.0
    d = Dataset(
        features=np.zeros((n, 1)),
        group=group,
        outcome=y,
        task=Task.BINARY,
        column_names=("x",),
    )
    cl = Clustering(kind=ClusteringKind.SOFT, membership=q)
    rep = rank_clusters(PredictionSet(labels=labels), d, cl, CostKind.ZERO_ONE)
    assert rep.clusters[0] == 2
    # enrichment mirrors where the positives live
    assert rep.enrichment[2] > rep.enrichment[0]


def test_soft_requires_zero_one():
    d = build()
    q = np.full((d.n, 2), 0.5)
    cl = Clustering(kind=ClusteringKind.SOFT, membership=q)
    with pytest.raises(AnalysisError, match="zero-one"):
        rank_clusters(
            PredictionSet(labels=np.zeros(d.n)), d, cl, CostKind.FPR
        )


def test_load_membership_roundtrip(tmp_path):
    q = np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]])
    path = tmp_path / "q.csv"
    path.write_text("t0,t1\n0.2,0.8\n0.6,0.4\n1.0,0.0\n")
    cl = load_membership(path, n_expected=3)
    np.testing.assert_allclose(cl.membership, q)
    assert cl.descriptors == ("t0", "t1")
    with pytest.raises(DataError, match="rows"):
        load_membership(path, n_expected=5)
    # A byte-order mark is not part of the first descriptor.
    path.write_text(path.read_text(), encoding="utf-8-sig")
    assert load_membership(path, n_expected=3).descriptors == ("t0", "t1")


def _value_or_error(fn, *args):
    try:
        return fn(*args).hex()
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def test_cell_wrappers_match_the_formulas_bit_for_bit():
    # cluster_cost and weighted_group_error are thin wrappers over the
    # cell cost that rank_clusters uses; their values and errors stay.
    rng = np.random.default_rng(9)
    n = 40
    d = Dataset(
        features=rng.normal(size=(n, 1)),
        group=rng.integers(0, 2, size=n),
        outcome=(rng.random(n) < 0.5).astype(float),
        task=Task.BINARY,
        column_names=("x",),
    )
    preds = PredictionSet(scores=np.round(rng.random(n), 2))
    hard = Clustering(kind=ClusteringKind.HARD, assignment=rng.integers(0, 3, size=n))
    for kind in CostKind:
        if kind is CostKind.MSE:
            continue
        for a in (0, 1):
            for c in range(3):
                rows = np.flatnonzero((hard.assignment == c) & (d.group == a))
                assert _value_or_error(cluster_cost, preds, d, hard, kind, a, c) == (
                    _value_or_error(lambda: float(per_sample_losses(
                        PredictionSet(scores=preds.scores[rows]), d.take(rows),
                        kind, a,
                    ).mean()))
                )
    q = rng.random((n, 3))
    soft = Clustering(kind=ClusteringKind.SOFT, membership=q / q.sum(axis=1)[:, None])
    errors = (preds.hard() != d.outcome).astype(np.float64)
    for a in (0, 1):
        in_group = (d.group == a).astype(np.float64)
        for c in range(3):
            qc = soft.membership[:, c]
            want = float((errors * in_group * qc).sum() / float((in_group * qc).sum()))
            assert weighted_group_error(preds, d, soft, a, c).hex() == want.hex()


def test_cell_wrapper_errors():
    d = build()
    preds = PredictionSet(labels=np.zeros(d.n))
    empty = Clustering(
        kind=ClusteringKind.HARD, assignment=np.zeros(d.n, dtype=np.int64)
    )
    with pytest.raises(AnalysisError, match="cluster 1 x group 0 cell is empty"):
        cluster_cost(preds, d, empty, CostKind.ZERO_ONE, 0, 1)
    q = np.zeros((d.n, 2))
    q[:, 0] = 1.0
    soft = Clustering(kind=ClusteringKind.SOFT, membership=q)
    with pytest.raises(AnalysisError, match="zero membership mass for group 1"):
        weighted_group_error(preds, d, soft, 1, 1)
    with pytest.raises(AnalysisError, match="zero-one kind only"):
        rank_clusters(preds, d, soft, CostKind.FPR)
    short = Clustering(kind=ClusteringKind.HARD, assignment=np.arange(d.n - 1) % 2)
    for call in (
        lambda: rank_clusters(preds, d, short),
        lambda: cluster_cost(preds, d, short, CostKind.ZERO_ONE, 0, 1),
        lambda: weighted_group_error(
            preds, d, Clustering(kind=ClusteringKind.SOFT, membership=q[1:]), 0, 0
        ),
    ):
        with pytest.raises(DataError, match="not aligned"):
            call()


# ---------------------------------------------------------------------------
# Reference oracle: the cell cost as it read before the cells indexed one
# `row_losses` pass.  A hard cell rebuilt its rows as a Dataset and a
# PredictionSet; a soft cell computed its own zero-one errors.


def loop_cell_cost(preds, d, cl, kind, a, c):
    if cl.n != d.n:
        raise DataError("clustering not aligned with dataset")
    if cl.kind is ClusteringKind.HARD:
        rows = np.flatnonzero((cl.assignment == c) & (d.group == a))
        if rows.size == 0:
            raise AnalysisError(f"cluster {c} x group {a} cell is empty")
        sub = d.take(rows)
        sub_preds = PredictionSet(
            scores=None if preds.scores is None else preds.scores[rows],
            labels=None if preds.labels is None else preds.labels[rows],
        )
        cost = float(per_sample_losses(sub_preds, sub, kind, a).mean())
        return cost, float(rows.size)
    q = cl.membership[:, c]
    in_group = (d.group == a).astype(np.float64)
    mass = float((in_group * q).sum())
    if mass <= 0.0:
        raise AnalysisError(f"zero membership mass for group {a}, cluster {c}")
    errors = (preds.hard() != d.outcome).astype(np.float64)
    return float((errors * in_group * q).sum() / mass), mass


def _cell_outcome(fn):
    try:
        value = fn()
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"
    if isinstance(value, tuple):
        return tuple(v.hex() for v in value)
    return value.hex()


def _cell_cases():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(4, 40))
        task = Task.REGRESSION if trial % 3 == 0 else Task.BINARY
        if task is Task.BINARY:
            y = (rng.random(n) < rng.random()).astype(float)
        else:
            y = np.round(rng.normal(size=n), 2)
        d = Dataset(
            features=np.zeros((n, 1)),
            group=rng.integers(0, 2, size=n),
            outcome=y,
            task=task,
            column_names=("x",),
        )
        scores = np.round(rng.uniform(-0.1, 1.1, size=n), 2)
        labels = (rng.random(n) < 0.5).astype(float)
        hard = Clustering(
            kind=ClusteringKind.HARD, assignment=rng.integers(0, 3, size=n)
        )
        q = rng.random((n, 3)) * (rng.random((n, 3)) < 0.7)
        q[:, 0] += 1e-3
        soft = Clustering(kind=ClusteringKind.SOFT, membership=q / q.sum(axis=1)[:, None])
        for preds in (
            PredictionSet(scores=scores),
            PredictionSet(scores=np.clip(scores, 0.0, 1.0)),
            PredictionSet(labels=labels),
            PredictionSet(scores=scores, labels=labels),
        ):
            yield d, preds, hard, soft


@pytest.mark.parametrize("kind", list(CostKind))
def test_cells_match_the_take_and_rebuild_loop(kind):
    seen = set()
    for d, preds, hard, soft in _cell_cases():
        groups = sorted(set(d.group.tolist()))
        upfront = _cell_outcome(lambda: row_losses(preds, d, kind)[0].sum())
        want = {
            (c, a): _cell_outcome(lambda: loop_cell_cost(preds, d, hard, kind, a, c))
            for c in range(hard.n_clusters) for a in groups
        }
        seen.update(w for w in [upfront, *want.values()] if isinstance(w, str))
        if upfront.startswith("AnalysisError"):
            # Every cell was undefined before; the shared pass now reports
            # why once, ahead of any empty-cell error.
            assert all(w.startswith("AnalysisError") for w in want.values())
            for (c, a) in want:
                assert _cell_outcome(
                    lambda: cluster_cost(preds, d, hard, kind, a, c)
                ) == upfront
            for cl in (hard, soft) if kind is CostKind.ZERO_ONE else (hard,):
                with pytest.raises(AnalysisError) as info:
                    rank_clusters(preds, d, cl, kind)
                assert f"AnalysisError: {info.value}" == upfront
            if kind is CostKind.ZERO_ONE:
                # A soft cell on a regression task was a zero-one cost of
                # real outcomes; it is now refused with the task error.
                assert _cell_outcome(
                    lambda: weighted_group_error(preds, d, soft, 0, 0)
                ) == upfront
            continue
        for (c, a), w in want.items():
            assert _cell_outcome(
                lambda: cluster_cost(preds, d, hard, kind, a, c)
            ) == (w if isinstance(w, str) else w[0])
        computable = {key: w for key, w in want.items() if isinstance(w, tuple)}
        if not computable:
            with pytest.raises(AnalysisError, match="no cluster has a computable"):
                rank_clusters(preds, d, hard, kind)
            continue
        rep = rank_clusters(preds, d, hard, kind)
        assert {k: v.hex() for k, v in rep.costs.items()} == {
            k: w[0] for k, w in computable.items()
        }
        assert {k: v.hex() for k, v in rep.masses.items()} == {
            k: w[1] for k, w in computable.items()
        }
        if kind is not CostKind.ZERO_ONE:
            continue
        # Soft cells weigh the zero-one losses, for a binary task only.
        want = {
            (c, a): _cell_outcome(lambda: loop_cell_cost(preds, d, soft, kind, a, c))
            for c in range(soft.n_clusters) for a in groups
        }
        for (c, a), w in want.items():
            assert _cell_outcome(
                lambda: weighted_group_error(preds, d, soft, a, c)
            ) == (w if isinstance(w, str) else w[0])
        rep = rank_clusters(preds, d, soft, kind)
        assert {k: (v.hex(), rep.masses[k].hex()) for k, v in rep.costs.items()} == {
            k: w for k, w in want.items() if isinstance(w, tuple)
        }
    # The cases reach every way a cell can be undefined.
    assert any("cell is empty" in s for s in seen)
    assert any(f"requires a {kind.task.value} task" in s for s in seen)
    if kind is CostKind.FPR:
        assert any("has no Y=0 rows" in s for s in seen)
    if kind.needs_scores:
        assert any("scores outside" in s for s in seen)
        assert any("requires scores" in s for s in seen)
