"""Significance machinery: z-test for the discrimination level, paired
comparison of two models' discrimination, bootstrap confidence intervals,
one-way ANOVA, and pairwise Welch tests with Holm correction.  The gap
test and both model comparisons (here and in ``decomposition``) share one
two-sample z-test, ``two_sample_z``.

Distribution functions (normal, Student t, F) are implemented internally
via the error function and the regularized incomplete beta function; no
external statistics dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostKind, PredictionSet, cost_gap, per_sample_losses, row_losses,
    sample_variance,
)
from .data import Dataset
from .errors import AnalysisError, DataError

# Most row draws (replicates x rows) a counted bootstrap block holds at
# once; one block of int64 indices is 256 KiB.
_BLOCK_DRAWS = 1 << 15


# ---------------------------------------------------------------------------
# Distribution functions


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def two_tailed_normal_p(z: float) -> float:
    return min(1.0, 2.0 * normal_sf(abs(z)))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (Lentz's method).
    max_iter = 500
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise AnalysisError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise AnalysisError(f"x={x} outside [0,1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail of the F distribution."""
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


def t_sf(t: float, df: float) -> float:
    """Upper tail of the Student t distribution."""
    if df <= 0:
        raise AnalysisError("degrees of freedom must be positive")
    x = df / (df + t * t)
    p = 0.5 * reg_inc_beta(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def two_tailed_t_p(t: float, df: float) -> float:
    return min(1.0, 2.0 * t_sf(abs(t), df))


def _exact_gap(gap: float) -> tuple[float, float]:
    """(statistic, p) of a two-sample test whose standard error is 0: the
    gap is exact, so the statistic is 0 or +-inf with the gap's sign, and
    p is 1 for a zero gap, else 0."""
    if gap == 0.0:
        return 0.0, 1.0
    return math.copysign(math.inf, gap), 0.0


def two_sample_z(x0: np.ndarray, x1: np.ndarray) -> tuple[float, float, float, float]:
    """Two-tailed normal z-test of mean(x0) - mean(x1): (gap, se, z, p) with
    se = sqrt(var0 / m0 + var1 / m1) from ``sample_variance``; when se == 0,
    (z, p) is ``_exact_gap(gap)``.
    """
    gap = float(x0.mean() - x1.mean())
    se = math.sqrt(
        sample_variance(x0) / x0.size + sample_variance(x1) / x1.size
    )
    if se == 0.0:
        return (gap, se, *_exact_gap(gap))
    z = gap / se
    return gap, se, z, two_tailed_normal_p(z)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    level: float
    reject: bool
    detail: dict = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise AnalysisError(f"p-value {self.p_value} is outside [0, 1]")
        if self.reject != (self.p_value < self.level):
            raise AnalysisError(
                f"reject={self.reject} contradicts p-value {self.p_value} "
                f"at level {self.level}"
            )


# ---------------------------------------------------------------------------
# Tests


def gamma_z_test(
    preds: PredictionSet,
    d: Dataset,
    kind: CostKind,
    level: float = 0.05,
    groups: tuple[int, int] = (0, 1),
) -> TestResult:
    """Two-tailed z-test for the gap between two groups' costs.

    Uses the normal approximation gamma_a ~ N(mu_a, sigma_a^2 / m_a).
    """
    g0, g1 = groups
    l0 = per_sample_losses(preds, d, kind, g0)
    l1 = per_sample_losses(preds, d, kind, g1)
    m0, m1 = l0.size, l1.size
    warnings = []
    if min(m0, m1) < 30:
        warnings.append(
            f"small sample ({min(m0, m1)} < 30): normal approximation weak"
        )
    gap, se, z, p = two_sample_z(l0, l1)
    return TestResult(
        name=f"gamma_z_test[{kind.value}]",
        statistic=z,
        p_value=p,
        level=level,
        reject=p < level,
        detail={
            "gap": gap,
            "se": se,
            "groups": groups,
            "counts": (m0, m1),
            "variances": (sample_variance(l0), sample_variance(l1)),
            "warnings": warnings,
        },
    )


def compare_discrimination_test(
    preds_a: PredictionSet,
    preds_b: PredictionSet,
    d: Dataset,
    kind: CostKind,
    level: float = 0.05,
    groups: tuple[int, int] = (0, 1),
) -> TestResult:
    """Test H0: the discrimination levels of two models are equal.

    |Gamma - Gamma'| = min over alpha in {-1,+1} of |Z_alpha|, where each
    Z_alpha is normal; H0 is rejected only when both Z_alpha are unlikely.
    Standard errors use paired per-sample loss contributions, since both
    models are evaluated on the same sample.
    """
    g0, g1 = groups
    la0 = per_sample_losses(preds_a, d, kind, g0)
    la1 = per_sample_losses(preds_a, d, kind, g1)
    lb0 = per_sample_losses(preds_b, d, kind, g0)
    lb1 = per_sample_losses(preds_b, d, kind, g1)
    if la0.size != lb0.size or la1.size != lb1.size:
        raise DataError("conditioning subsets differ between models")

    p_values = []
    z_values = []
    for alpha in (+1.0, -1.0):
        # Z_alpha = alpha*(gamma0^A - gamma1^A) - (gamma0^B - gamma1^B);
        # grouping per-sample terms keeps the pairing.
        _, _, z_stat, p = two_sample_z(alpha * la0 - lb0, alpha * la1 - lb1)
        p_values.append(p)
        z_values.append(z_stat)
    # Intersection test: both must be unlikely.
    p = max(p_values)
    gap_a = float(la0.mean() - la1.mean())
    gap_b = float(lb0.mean() - lb1.mean())
    statistic = abs(abs(gap_a) - abs(gap_b))
    return TestResult(
        name=f"compare_discrimination[{kind.value}]",
        statistic=statistic,
        p_value=p,
        level=level,
        reject=p < level,
        detail={
            "z_plus": z_values[0],
            "z_minus": z_values[1],
            "p_plus": p_values[0],
            "p_minus": p_values[1],
            "gap_a": gap_a,
            "gap_b": gap_b,
        },
    )


def bootstrap_gamma_ci(
    preds: PredictionSet,
    d: Dataset,
    kind: CostKind,
    reps: int = 1000,
    level: float = 0.05,
    seed: int = 0,
    groups: list[int] | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the discrimination level Gamma
    over ``groups`` (default: every declared group).

    Resamples the evaluation rows; replicates where fewer than 2 groups are
    evaluable are skipped (error if more than 10% skip).
    """
    if reps < 100:
        raise AnalysisError("reps must be >= 100")
    rng = np.random.default_rng(seed)
    # Per group: the rows its cost counts, and for a score kind the rows
    # whose out-of-range score leaves it undefined.  A replicate's cost is
    # the mean loss of its counted draws in draw order: the same values, in
    # the same order, as per_sample_losses gives on the resampled rows.
    cells = []
    try:
        losses, counted, outside = row_losses(preds, d, kind)
    except AnalysisError:
        pass  # the cost is undefined for every group in every replicate
    else:
        for a in range(d.n_groups) if groups is None else groups:
            member = d.group == a
            cells.append((
                member if counted is None else member & counted,
                None if outside is None else member & outside,
            ))
    if cells and np.all((losses == 0.0) | (losses == 1.0)):
        gammas = _counted_gammas(rng, losses == 1.0, cells, d.n, reps)
    else:
        gammas = []
        for _ in range(reps):
            idx = rng.integers(0, d.n, size=d.n)
            costs = []
            for counted_a, outside_a in cells:
                drawn = idx[counted_a[idx]]
                if drawn.size == 0:
                    continue
                if outside_a is not None and outside_a[idx].any():
                    continue
                costs.append(losses[drawn].mean())
            if len(costs) >= 2:
                gammas.append(cost_gap(costs))
    skipped = reps - len(gammas)
    if skipped > 0.1 * reps:
        raise AnalysisError(
            f"{skipped}/{reps} bootstrap replicates lacked 2 evaluable groups"
        )
    lo = float(np.percentile(gammas, 100.0 * level / 2.0))
    hi = float(np.percentile(gammas, 100.0 * (1.0 - level / 2.0)))
    return lo, hi


def _counted_gammas(rng, ones, cells, n, reps) -> np.ndarray:
    """The gaps of the replicates that ``bootstrap_gamma_ci`` keeps when
    every loss is 0 or 1 (``ones`` masks the 1s), drawn in blocks of
    replicates.

    One ``(m, n)`` draw gives the same indices, and leaves the generator in
    the same state, as m draws of n.  A group's cost in a replicate is its
    count of counted draws with loss 1 over its count of counted draws:
    the mean of those losses, bit for bit, since a sum of 0s and 1s is
    exact in any order.
    """
    gammas = []
    rows = max(1, _BLOCK_DRAWS // n)
    for start in range(0, reps, rows):
        idx = rng.integers(0, n, size=(min(rows, reps - start), n))
        drawn_ones = ones[idx]
        high = np.full(idx.shape[0], -np.inf)
        low = np.full(idx.shape[0], np.inf)
        evaluable = np.zeros(idx.shape[0], dtype=np.int64)
        for counted_a, outside_a in cells:
            hits = counted_a[idx]
            size = hits.sum(axis=1)
            ok = size > 0
            if outside_a is not None:
                ok &= ~outside_a[idx].any(axis=1)
            cost = (drawn_ones & hits).sum(axis=1)[ok] / size[ok]
            high[ok] = np.maximum(high[ok], cost)
            low[ok] = np.minimum(low[ok], cost)
            evaluable += ok
        kept = evaluable >= 2
        gammas.append(high[kept] - low[kept])
    return np.concatenate(gammas)


def anova_f(group_losses: list[np.ndarray], level: float = 0.05) -> TestResult:
    """One-way ANOVA F-test over per-group loss samples."""
    samples = [np.asarray(g, dtype=np.float64) for g in group_losses]
    if len(samples) < 2:
        raise AnalysisError("ANOVA needs at least 2 groups")
    if any(s.size < 2 for s in samples):
        raise AnalysisError("every group needs at least 2 samples")
    n_total = sum(s.size for s in samples)
    grand = sum(s.sum() for s in samples) / n_total
    ss_between = sum(s.size * (s.mean() - grand) ** 2 for s in samples)
    ss_within = sum(((s - s.mean()) ** 2).sum() for s in samples)
    df_between = len(samples) - 1
    df_within = n_total - len(samples)
    if ss_within == 0.0:
        if ss_between == 0.0:
            f_stat, p = 0.0, 1.0
        else:
            f_stat, p = math.inf, 0.0
    else:
        f_stat = (ss_between / df_between) / (ss_within / df_within)
        p = f_sf(f_stat, df_between, df_within)
    return TestResult(
        name="anova_f",
        statistic=f_stat,
        p_value=p,
        level=level,
        reject=p < level,
        detail={
            "df": (df_between, df_within),
            "group_means": tuple(float(s.mean()) for s in samples),
            "group_counts": tuple(int(s.size) for s in samples),
        },
    )


def welch_t(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Welch two-sample t statistic of mean(x) - mean(y),
    Welch-Satterthwaite df, and p-value.  The statistic is
    ``two_sample_z``'s z, and so is the whole result of an exact gap (no
    variance in either sample), with df m_x + m_y - 2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise AnalysisError("Welch test needs >= 2 samples per group")
    _, se, stat, p = two_sample_z(x, y)
    if se == 0.0:
        return stat, float(x.size + y.size - 2), p
    vx = x.var(ddof=1) / x.size
    vy = y.var(ddof=1) / y.size
    df = (vx + vy) ** 2 / (vx**2 / (x.size - 1) + vy**2 / (y.size - 1))
    return stat, float(df), two_tailed_t_p(stat, df)


def pairwise_welch_holm(
    group_losses: dict, level: float = 0.05
) -> dict[tuple[int, int], TestResult]:
    """All pairwise Welch t-tests with Holm step-down correction.

    ``group_losses`` maps each group id to its loss sample.  Results are
    keyed by (id, id) pairs in key order.  Substitute for a
    studentized-range test: conservative, and needs no range-distribution
    tables.
    """
    samples = {
        g: np.asarray(v, dtype=np.float64) for g, v in group_losses.items()
    }
    if len(samples) < 2:
        raise AnalysisError("need at least 2 groups")
    ids = list(samples)
    pairs = [(g, h) for i, g in enumerate(ids) for h in ids[i + 1:]]
    raw = {}
    for i, j in pairs:
        stat, df, p = welch_t(samples[i], samples[j])
        raw[(i, j)] = (stat, df, p)
    # Holm step-down adjustment.
    order = sorted(pairs, key=lambda pr: raw[pr][2])
    m = len(pairs)
    adjusted = {}
    running_max = 0.0
    for rank, pair in enumerate(order):
        adj = min(1.0, (m - rank) * raw[pair][2])
        running_max = max(running_max, adj)
        adjusted[pair] = running_max
    results = {}
    for pair in pairs:
        stat, df, p = raw[pair]
        p_adj = adjusted[pair]
        results[pair] = TestResult(
            name=f"welch_holm[{pair[0]},{pair[1]}]",
            statistic=stat,
            p_value=p_adj,
            level=level,
            reject=p_adj < level,
            detail={"df": df, "p_raw": p},
        )
    return results
