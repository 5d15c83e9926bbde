"""Localizing discrimination to subgroups.

Hard clusterings split rows by a single feature's mean; soft clusterings
are externally produced membership matrices (rows summing to 1, e.g.
topic proportions).  Cluster-level cost gaps across protected groups
identify where discrimination is concentrated.  Every cell reads one
``costs.row_losses`` pass over the evaluation rows, and
``costs.cost_losses`` decides which of a hard cell's rows its cost counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .costs import CostKind, PredictionSet, cost_gap, cost_losses, row_losses
from .data import Dataset, numeric_columns, read_csv_table, read_text
from .errors import AnalysisError, DataError

MIN_CELL_MASS = 10.0


class ClusteringKind(enum.Enum):
    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class Clustering:
    kind: ClusteringKind
    # Hard: length-n integer assignment; Soft: n x C membership matrix.
    assignment: np.ndarray | None = None
    membership: np.ndarray | None = None
    descriptors: tuple[str, ...] = ()
    degenerate: bool = False

    def __post_init__(self):
        if self.kind is ClusteringKind.HARD:
            if self.assignment is None:
                raise DataError("hard clustering needs an assignment vector")
            arr = np.ascontiguousarray(self.assignment, dtype=np.int64)
            if arr.min() < 0:
                raise DataError("negative cluster index")
            object.__setattr__(self, "assignment", arr)
        else:
            if self.membership is None:
                raise DataError("soft clustering needs a membership matrix")
            q = np.ascontiguousarray(self.membership, dtype=np.float64)
            if q.ndim != 2 or not np.isfinite(q).all() or np.any(q < 0):
                raise DataError(
                    "membership must be a finite nonnegative n x C matrix"
                )
            sums = q.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-6):
                raise DataError("membership rows must sum to 1 (tol 1e-6)")
            if np.any(np.abs(sums - 1.0) > 1e-9):
                q = q / sums[:, None]
            object.__setattr__(self, "membership", q)

    @property
    def n(self) -> int:
        if self.kind is ClusteringKind.HARD:
            return self.assignment.shape[0]
        return self.membership.shape[0]

    @property
    def n_clusters(self) -> int:
        if self.kind is ClusteringKind.HARD:
            return int(self.assignment.max()) + 1
        return self.membership.shape[1]


@dataclass(frozen=True)
class ClusterReport:
    cost_kind: CostKind
    clusters: tuple[int, ...]  # ordered by the ranking
    # Keyed by (cluster, group):
    costs: dict
    masses: dict
    gaps: dict  # per cluster: max-min over groups
    variances: dict  # per cluster: population variance of group costs
    enrichment: dict  # per cluster: weighted outcome mean
    unreliable_cells: tuple = ()
    warnings: tuple[str, ...] = ()


def threshold_clusterings(d: Dataset) -> list[Clustering]:
    """One 2-cluster hard clustering per feature: rows at or above the
    feature mean go to cluster 1.  Constant features are flagged."""
    out = []
    for j in range(d.k):
        column = d.features[:, j]
        mean = float(column.mean())
        assignment = (column >= mean).astype(np.int64)
        degenerate = assignment.min() == assignment.max()
        name = d.column_names[j] if j < len(d.column_names) else f"feature_{j}"
        out.append(
            Clustering(
                kind=ClusteringKind.HARD,
                assignment=assignment,
                descriptors=(
                    f"{name} below mean ({mean:g})",
                    f"{name} at or above mean ({mean:g})",
                ),
                degenerate=bool(degenerate),
            )
        )
    return out


def cluster_cost(
    preds: PredictionSet,
    d: Dataset,
    cl: Clustering,
    kind: CostKind,
    a: int,
    c: int,
) -> float:
    """Cost of kind restricted to rows in group a and hard cluster c."""
    if cl.kind is not ClusteringKind.HARD:
        raise AnalysisError("cluster_cost requires a hard clustering")
    return _cell_cost_and_mass(row_losses(preds, d, kind), d, cl, kind, a, c)[0]


def weighted_group_error(
    preds: PredictionSet,
    d: Dataset,
    cl: Clustering,
    a: int,
    c: int,
) -> float:
    """Membership-weighted error rate
    sum_i 1[y_i != yhat_i] 1[a_i = a] q_ic / sum_i 1[a_i = a] q_ic."""
    if cl.kind is not ClusteringKind.SOFT:
        raise AnalysisError("weighted_group_error requires a soft clustering")
    kind = CostKind.ZERO_ONE
    return _cell_cost_and_mass(row_losses(preds, d, kind), d, cl, kind, a, c)[0]


def outcome_enrichment(d: Dataset, cl: Clustering, c: int) -> float:
    """Membership-weighted outcome mean: sum_i y_i q_ic / sum_i q_ic."""
    if cl.kind is ClusteringKind.SOFT:
        q = cl.membership[:, c]
    else:
        q = (cl.assignment == c).astype(np.float64)
    total = float(q.sum())
    if total <= 0.0:
        raise AnalysisError(f"cluster {c} has zero mass")
    return float((d.outcome * q).sum() / total)


def _cell_cost_and_mass(losses, d, cl, kind, a, c):
    """Cost of ``kind`` over the rows of group ``a`` in cluster ``c``, and
    the cell's mass: its row count, or for a soft clustering its membership
    weight.  ``losses`` is the ``row_losses`` result for ``kind``; a soft
    cell weighs the zero-one losses, so callers check ``kind``.  Raises
    AnalysisError when the cost is undefined."""
    if cl.n != d.n:
        raise DataError("clustering not aligned with dataset")
    if cl.kind is ClusteringKind.HARD:
        rows = np.flatnonzero((cl.assignment == c) & (d.group == a))
        if rows.size == 0:
            raise AnalysisError(f"cluster {c} x group {a} cell is empty")
        return float(cost_losses(losses, rows, kind, a).mean()), float(rows.size)
    q = cl.membership[:, c]
    in_group = (d.group == a).astype(np.float64)
    mass = float((in_group * q).sum())
    if mass <= 0.0:
        raise AnalysisError(f"zero membership mass for group {a}, cluster {c}")
    return float((losses[0] * in_group * q).sum() / mass), mass


def rank_clusters(
    preds: PredictionSet,
    d: Dataset,
    cl: Clustering,
    kind: CostKind = CostKind.ZERO_ONE,
) -> ClusterReport:
    """Per-(cluster, group) costs ranked by cross-group variance of costs,
    ties broken by max-min gap, then cluster index; a cell of mass below
    ``MIN_CELL_MASS`` is flagged.  A cluster with computable cells in
    fewer than 2 groups has no gap and is left out of the ranking."""
    costs, masses = {}, {}
    gaps, variances, enrichment = {}, {}, {}
    unreliable = []
    warnings = []
    usable = []
    if cl.kind is ClusteringKind.SOFT and kind is not CostKind.ZERO_ONE:
        raise AnalysisError("soft clusterings support the zero-one kind only")
    losses = row_losses(preds, d, kind)
    for c in range(cl.n_clusters):
        cell_costs = []
        for a in range(d.n_groups):
            try:
                cost, mass = _cell_cost_and_mass(losses, d, cl, kind, a, c)
            except AnalysisError:
                continue
            costs[(c, a)] = cost
            masses[(c, a)] = mass
            cell_costs.append(cost)
            if mass < MIN_CELL_MASS:
                unreliable.append((c, a))
        if len(cell_costs) < 2:
            # A gap compares groups; one group's cells have none to show.
            warnings.append(
                f"cluster {c} dropped: computable cells in {len(cell_costs)} "
                "group(s), a gap needs 2"
            )
            continue
        gaps[c] = cost_gap(cell_costs)
        variances[c] = float(np.var(cell_costs))
        enrichment[c] = outcome_enrichment(d, cl, c)
        usable.append(c)
    if not usable:
        raise AnalysisError("no cluster has computable cells in 2 groups")
    order = sorted(usable, key=lambda c: (-variances[c], -gaps[c], c))
    if unreliable:
        warnings.append(
            f"{len(unreliable)} cell(s) below mass threshold {MIN_CELL_MASS}"
        )
    return ClusterReport(
        cost_kind=kind,
        clusters=tuple(order),
        costs=costs,
        masses=masses,
        gaps=gaps,
        variances=variances,
        enrichment=enrichment,
        unreliable_cells=tuple(unreliable),
        warnings=tuple(warnings),
    )


def load_membership(path, n_expected: int | None = None) -> Clustering:
    """Load a soft membership matrix from a CSV file (columns
    q_0..q_{C-1}) under the dataset rules of ``data.read_csv_table``;
    every cell must be a finite number."""
    text, origin = read_text(path, "membership file"), str(path)
    header, columns, linenos = read_csv_table(text, origin)
    q = np.column_stack(numeric_columns(columns, linenos, origin, "membership"))
    if n_expected is not None and q.shape[0] != n_expected:
        raise DataError(
            f"{path}: {q.shape[0]} rows but dataset has {n_expected}"
        )
    return Clustering(
        kind=ClusteringKind.SOFT,
        membership=q,
        descriptors=tuple(header),
    )
