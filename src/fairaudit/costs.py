"""Group-conditional cost functions and the discrimination level.

Costs are empirical means of per-sample losses over a protected group,
optionally conditioned on the true class (FPR conditions on Y=0, FNR on
Y=1).  The discrimination level is the max-min gap across groups, which
reduces to the absolute two-group difference when G=2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Task
from .errors import AnalysisError, DataError


class CostKind(enum.Enum):
    ZERO_ONE = "zero_one"
    FPR = "fpr"
    FNR = "fnr"
    MSE = "mse"
    GENERALIZED_ZERO_ONE = "generalized_zero_one"
    BRIER = "brier"

    @property
    def task(self) -> Task:
        return Task.REGRESSION if self is CostKind.MSE else Task.BINARY

    @property
    def needs_scores(self) -> bool:
        return self in (CostKind.GENERALIZED_ZERO_ONE, CostKind.BRIER)


def apply_threshold(scores: np.ndarray, t: float = 0.5) -> np.ndarray:
    """Hard labels by the >= convention."""
    if not 0.0 <= t <= 1.0:
        raise AnalysisError(f"threshold {t} not in [0,1]")
    return (np.asarray(scores) >= t).astype(np.float64)


@dataclass(frozen=True)
class PredictionSet:
    """One model's output on an evaluation set: scores and/or hard labels.

    For regression, ``scores`` holds the real-valued predictions.
    """

    scores: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.scores is None and self.labels is None:
            raise DataError("PredictionSet needs scores or labels")
        for name in ("scores", "labels"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(
                    self, name, np.ascontiguousarray(arr, dtype=np.float64)
                )

    @property
    def n(self) -> int:
        arr = self.scores if self.scores is not None else self.labels
        return arr.shape[0]

    def hard(self, threshold: float = 0.5) -> np.ndarray:
        """Hard labels, thresholding scores at ``threshold`` if needed."""
        if self.labels is not None:
            return self.labels
        return apply_threshold(self.scores, threshold)


@dataclass(frozen=True)
class GroupCostReport:
    cost_kind: CostKind
    groups: tuple[int, ...]
    costs: tuple[float, ...]
    counts: tuple[int, ...]
    variances: tuple[float, ...]
    gap: float
    skipped_groups: tuple[int, ...] = ()
    warnings: tuple[str, ...] = field(default=())


def row_losses(
    preds: PredictionSet, d: Dataset, kind: CostKind
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Each row's loss under ``kind``.

    Returns (losses, counted, outside): ``counted`` masks the rows the cost
    counts (None when it counts all; FPR counts Y=0 rows, FNR Y=1 rows) and
    ``outside`` the rows whose score lies outside [0, 1] (None for a kind
    that reads no scores).  Raises when ``kind`` does not apply to the
    predictions and dataset.
    """
    if preds.n != d.n:
        raise DataError(
            f"predictions have {preds.n} rows but dataset has {d.n}"
        )
    if kind.task is not d.task:
        raise AnalysisError(
            f"cost kind {kind.value} requires a {kind.task.value} task"
        )
    y = d.outcome
    if kind is CostKind.MSE:
        pred = preds.scores if preds.scores is not None else preds.labels
        return (pred - y) ** 2, None, None
    if kind.needs_scores:
        if preds.scores is None:
            raise AnalysisError(f"cost kind {kind.value} requires scores")
        s = preds.scores
        outside = (s < 0.0) | (s > 1.0)
        if kind is CostKind.BRIER:
            return (s - y) ** 2, None, outside
        # Generalized zero-one: expected zero-one loss of a randomized
        # classifier that accepts with probability s.
        return y * (1.0 - s) + (1.0 - y) * s, None, outside
    yhat = preds.hard()
    if kind is CostKind.ZERO_ONE:
        return (yhat != y).astype(np.float64), None, None
    if kind is CostKind.FPR:
        return yhat.astype(np.float64), y == 0.0, None
    if kind is CostKind.FNR:
        return (1.0 - yhat).astype(np.float64), y == 1.0, None
    raise AnalysisError(f"unhandled cost kind {kind}")


def empty_group_error(a: int) -> AnalysisError:
    """The error for declared group ``a`` when it has no evaluation rows;
    a per-group report block that leaves the group out warns with it."""
    return AnalysisError(f"group {a} has no rows in the evaluation set")


def cost_losses(losses: tuple, rows, kind: CostKind, a: int) -> np.ndarray:
    """The losses that the cost of group ``a`` counts among ``rows``, an
    index array into ``losses``, a ``row_losses`` result.  Raises
    AnalysisError when the cost is undefined: ``rows`` is empty, a score
    among them lies outside [0, 1], or no row has the class that FPR or
    FNR conditions on."""
    if rows.size == 0:
        raise empty_group_error(a)
    values, counted, outside = losses
    if outside is not None and outside[rows].any():
        raise AnalysisError("scores outside [0,1]")
    if counted is None:
        return values[rows]
    keep = counted[rows]
    if not keep.any():
        label = 0 if kind is CostKind.FPR else 1
        raise AnalysisError(
            f"group {a} has no Y={label} rows; {kind.value.upper()} undefined"
        )
    return values[rows][keep]


def per_sample_losses(
    preds: PredictionSet, d: Dataset, kind: CostKind, a: int
) -> np.ndarray:
    """Per-sample losses over the subset of group ``a`` relevant to ``kind``.

    The cost is their mean; their unbiased variance feeds the normal
    approximations of the significance tests.
    """
    return cost_losses(row_losses(preds, d, kind), d.group_indices(a), kind, a)


def sample_variance(losses: np.ndarray) -> float:
    """Unbiased variance of ``losses``; 0.0 for a single value."""
    return float(losses.var(ddof=1)) if losses.size > 1 else 0.0


def group_cost(
    preds: PredictionSet, d: Dataset, kind: CostKind, a: int
) -> tuple[float, int, float]:
    """Return (cost, m_a, unbiased per-sample loss variance) for group a."""
    losses = per_sample_losses(preds, d, kind, a)
    return float(losses.mean()), losses.size, sample_variance(losses)


def cost_gap(costs) -> float:
    """Gamma: the largest of ``costs`` minus the smallest."""
    return float(max(costs) - min(costs))


def discrimination_level(
    preds: PredictionSet, d: Dataset, kind: CostKind
) -> GroupCostReport:
    """Per-group costs and the gap Gamma = max cost - min cost.

    A declared group with no rows, or whose cost is undefined, is excluded
    and reported in ``skipped_groups`` with a warning.
    """
    groups, costs, counts, variances = [], [], [], []
    skipped, warnings = [], []
    for a in range(d.n_groups):
        try:
            cost, m, var = group_cost(preds, d, kind, a)
        except AnalysisError as exc:
            skipped.append(a)
            warnings.append(f"group {a} skipped: {exc}")
            continue
        groups.append(a)
        costs.append(cost)
        counts.append(m)
        variances.append(var)
    if len(groups) < 2:
        raise AnalysisError(
            f"fewer than 2 evaluable groups for {kind.value}"
        )
    gap = cost_gap(costs)
    return GroupCostReport(
        cost_kind=kind,
        groups=tuple(groups),
        costs=tuple(costs),
        counts=tuple(counts),
        variances=tuple(variances),
        gap=gap,
        skipped_groups=tuple(skipped),
        warnings=tuple(warnings),
    )


def brier_score(scores: np.ndarray, d: Dataset, a: int) -> float:
    """Mean squared difference between score and binary outcome in group a."""
    preds = PredictionSet(scores=scores)
    return float(per_sample_losses(preds, d, CostKind.BRIER, a).mean())


def generalized_zero_one(scores: np.ndarray, d: Dataset, a: int) -> float:
    """Expected zero-one cost of score-as-probability randomization."""
    preds = PredictionSet(scores=scores)
    return float(
        per_sample_losses(preds, d, CostKind.GENERALIZED_ZERO_ONE, a).mean()
    )
