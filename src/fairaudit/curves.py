"""Learning-curve experiments, inverse power-law fitting, extrapolation
of the discrimination level, and crossing analysis of two fitted curves.

The curve family is cost(n) = alpha * n^(-beta) + delta with alpha >= 0,
beta in [0.01, 3], delta >= 0.  Fitting profiles beta: for fixed beta the
model is linear in (alpha, delta), so a global grid search over beta with
golden-section refinement avoids the flat-valley instability of joint
nonlinear optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import data, learners
from .costs import CostKind, cost_gap, group_losses
from .data import Dataset, derive_seed, split
from .errors import AnalysisError, DataError
from .learners import TREE_KINDS, LearnerSpec, score_predictions

BETA_MIN = 0.01
BETA_MAX = 3.0
# Share of the rows each trial of a curve experiment holds out for testing.
HOLDOUT_FRACTION = 0.2
# Bisection stops once its bracket is this narrow relative to max(1, |x|),
# or after this many halvings.
_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class CurveCell:
    n_train: int
    trial: int
    group: int
    cost_kind: CostKind
    cost: float | None  # None when the group/class was absent in the split


@dataclass(frozen=True)
class CurveExperiment:
    spec: LearnerSpec
    cost_kinds: tuple[CostKind, ...]
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    n_groups: int
    cells: tuple[CurveCell, ...]

    @cached_property
    def trial_costs(self) -> dict[tuple[int, CostKind, int], list[float]]:
        """The cells' costs other than None, in trial order, keyed by
        (group, cost kind, grid size)."""
        out = {}
        for c in self.cells:
            if c.cost is not None:
                out.setdefault((c.group, c.cost_kind, c.n_train), []).append(c.cost)
        return out

    def mean_costs(
        self, group: int, kind: CostKind
    ) -> list[tuple[int, float, int]]:
        """Per grid size: (n, mean cost, #trials with a value)."""
        out = []
        for n in self.n_grid:
            values = self.trial_costs.get((group, kind, n))
            if values:
                out.append((n, float(np.mean(values)), len(values)))
        return out


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    beta: float
    delta: float
    rss: float
    n_min: int
    n_max: int
    group: int | None = None
    cost_kind: CostKind | None = None

    def __call__(self, n) -> float:
        if np.isinf(n):
            return self.delta
        return self.alpha * float(n) ** (-self.beta) + self.delta


def run_curve_experiment(
    spec: LearnerSpec,
    d: Dataset,
    n_grid,
    trials: int,
    seed: int,
    cost_kinds=(CostKind.ZERO_ONE,),
    threshold: float = 0.5,
) -> CurveExperiment:
    """Repeated sample splitting: per (size, trial) hold out a test split
    of ``HOLDOUT_FRACTION`` of the rows, subsample the training rows,
    train, and record each group cost.

    Tree kinds train every (size, trial) model at once
    (``learners.train_tree_models``), each on its trial's rows of ``d`` in
    draw order; other kinds train one model at a time.  Missing
    group/class cells are recorded as None, not failures; a cost kind the
    task cannot take raises (``costs.group_losses``).
    """
    n_grid = tuple(sorted(int(n) for n in n_grid))
    if trials < 1:
        raise AnalysisError("trials must be >= 1")
    budget = int(np.floor(d.n * (1.0 - HOLDOUT_FRACTION)))
    if max(n_grid) > budget:
        raise AnalysisError(
            f"grid size {max(n_grid)} exceeds the training budget {budget}"
        )
    runs = [(n_train, trial) for n_train in n_grid for trial in range(trials)]
    seeds = [derive_seed(seed, "curve", n_train, trial)
             for n_train, trial in runs]

    def drawn(n_train, trial_seed):
        """The rows of ``d`` a trial trains on, in draw order, and its test
        split."""
        ds = split(d, HOLDOUT_FRACTION, trial_seed)
        rows = data.subsample_indices(ds.train.n, n_train,
                                      derive_seed(trial_seed, "sub"))
        return ds.train_indices[rows], ds.test

    if spec.kind in TREE_KINDS:
        trial_rows, tests = zip(*(drawn(n_train, s)
                                  for (n_train, _), s in zip(runs, seeds)))
        models, _ = learners.train_tree_models(
            spec, seeds, d.features, d.outcome, d.task, trial_rows)
        fitted = zip(models, tests)
    else:
        def one_at_a_time():
            for (n_train, _), s in zip(runs, seeds):
                rows, test = drawn(n_train, s)
                yield learners.train(replace(spec, seed=s), d.take(rows)), test

        fitted = one_at_a_time()
    cells = []
    for (n_train, trial), (model, test) in zip(runs, fitted):
        preds = score_predictions(
            model.predict_scores(test.features), d.task, threshold
        )
        for kind in cost_kinds:
            samples, _ = group_losses(preds, test, kind)
            for a in range(d.n_groups):
                cost = float(samples[a].mean()) if a in samples else None
                cells.append(
                    CurveCell(
                        n_train=n_train,
                        trial=trial,
                        group=a,
                        cost_kind=kind,
                        cost=cost,
                    )
                )
    return CurveExperiment(
        spec=spec,
        cost_kinds=tuple(cost_kinds),
        n_grid=n_grid,
        trials=trials,
        seed=seed,
        n_groups=d.n_groups,
        cells=tuple(cells),
    )


def _solve_linear(n, y, w, beta, flat):
    """Weighted least squares for (alpha, delta) of B curves of m points
    (the rows of the (B, m) arrays n, y, w) at each of K fixed betas (a
    (B, K) array), with nonnegativity enforced by comparing the clamped
    alternatives: unconstrained, then delta = 0, then alpha = 0, the first
    with the least rss winning.  ``flat`` holds what no beta changes, each
    (B, 1): sum(w), sum(w * y), and the flat candidate's delta and rss.
    Returns (alpha, delta, rss), each (B, K)."""
    sw, b2, flat_delta, flat_rss = flat
    y, w = y[:, None, :], w[:, None, :]
    basis = n[:, None, :] ** -beta[:, :, None]
    wb = w * basis
    a11 = np.add.reduce(wb * basis, axis=2)
    a12 = np.add.reduce(wb, axis=2)
    b1 = np.add.reduce(wb * y, axis=2)
    # Unconstrained 2-parameter solve.
    det = a11 * sw - a12 * a12
    solved = det > 1e-300
    alpha = np.divide(b1 * sw - b2 * a12, det, out=np.zeros_like(det),
                      where=solved)
    delta = np.divide(a11 * b2 - a12 * b1, det, out=np.zeros_like(det),
                      where=solved)
    solved &= (alpha >= 0.0) & (delta >= 0.0)
    rss = np.add.reduce(
        w * (y - alpha[:, :, None] * basis - delta[:, :, None]) ** 2, axis=2)
    # delta clamped to 0.
    clamped = a11 > 0
    alpha_c = np.divide(b1, a11, out=np.zeros_like(a11), where=clamped)
    alpha_c = np.where(alpha_c > 0.0, alpha_c, 0.0)
    rss_c = np.add.reduce(w * (y - alpha_c[:, :, None] * basis) ** 2, axis=2)
    take = clamped & (~solved | (rss_c < rss))
    alpha = np.where(take, alpha_c, alpha)
    delta = np.where(take, 0.0, delta)
    rss = np.where(take, rss_c, rss)
    # alpha clamped to 0 (flat curve): 0 * basis is exactly 0, so its rss
    # is the same at every beta.
    take = ~(solved | clamped) | (flat_rss < rss)
    return (np.where(take, 0.0, alpha), np.where(take, flat_delta, delta),
            np.where(take, flat_rss, rss))


def _fit_batch(curves) -> list[PowerLawFit]:
    """Fit cost(n) = alpha * n^(-beta) + delta to each of B equal-length
    lists of (n, mean cost[, weight]) tuples by profiled least squares over
    beta: a 200-point grid for every curve in one pass, then golden-section
    refinement run in lockstep across the batch.  Fewer than 3 distinct
    sizes, a non-finite value, or a size or weight <= 0 raise
    AnalysisError."""
    n, y, w = (
        np.array([[p[i] if i < len(p) else 1.0 for p in pts]
                  for pts in curves], dtype=np.float64)
        for i in range(3)
    )
    if n.shape[1] < 3:
        raise AnalysisError("need at least 3 points to fit a power law")
    if not all(np.isfinite(v).all() for v in (n, y, w)):
        raise AnalysisError("sizes, costs and weights must be finite")
    ordered = np.sort(n, axis=1)
    if np.any(np.count_nonzero(np.diff(ordered, axis=1), axis=1) < 2):
        raise AnalysisError("need at least 3 distinct n values")
    if np.any(n <= 0) or np.any(w <= 0):
        raise AnalysisError("sizes and weights must be positive")
    sw = np.add.reduce(w, axis=1)
    b2 = np.add.reduce(w * y, axis=1)
    mean = b2 / sw
    flat_delta = np.where(mean > 0.0, mean, 0.0)
    mean_rss = np.add.reduce(w * (y - mean[:, None]) ** 2, axis=1)
    flat = (sw[:, None], b2[:, None], flat_delta[:, None],
            np.add.reduce(w * (y - flat_delta[:, None]) ** 2, axis=1)[:, None])

    def solve(beta):
        return _solve_linear(n, y, w, beta, flat)

    betas = np.geomspace(BETA_MIN, BETA_MAX, 200)
    rss_grid = solve(np.broadcast_to(betas, (len(n), len(betas))))[2]
    best = np.argmin(rss_grid, axis=1)
    # Golden-section refinement on the grid neighbours of each minimum.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo = betas[np.maximum(best - 1, 0)]
    hi = betas[np.minimum(best + 1, len(betas) - 1)]
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = solve(np.stack([c, d], axis=1))[2].T
    for _ in range(80):
        left = fc < fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        beta = np.where(left, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        f = solve(beta[:, None])[2][:, 0]
        c, d = np.where(left, beta, d), np.where(left, c, beta)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    beta = 0.5 * (lo + hi)
    worse = solve(beta[:, None])[2][:, 0] > rss_grid.min(axis=1)
    beta = np.where(worse, betas[best], beta)
    alpha, delta, rss = (v[:, 0] for v in solve(beta[:, None]))
    # Sanity floor: never worse than the flat fit.
    floor = rss > mean_rss
    fits = zip(
        np.where(floor, 0.0, alpha).tolist(),
        np.where(floor, BETA_MIN, beta).tolist(),
        np.where(floor, flat_delta, delta).tolist(),
        np.where(floor, mean_rss, rss).tolist(),
        n.min(axis=1).tolist(),
        n.max(axis=1).tolist(),
    )
    return [PowerLawFit(alpha=a, beta=b, delta=dl, rss=r, n_min=int(first),
                        n_max=int(last))
            for a, b, dl, r, first, last in fits]


def fit_power_law(points) -> PowerLawFit:
    """Fit cost(n) = alpha * n^(-beta) + delta to (n, mean cost[, weight])
    tuples by profiled least squares over beta: a batch of one."""
    return _fit_batch([[tuple(p) for p in points]])[0]


def fit_curve_experiment(
    exp: CurveExperiment,
) -> dict[tuple[int, CostKind], PowerLawFit]:
    """One fit per (group, cost kind) with at least 3 grid sizes, weighted
    by trial counts; the curves with as many points fit as one batch."""
    curves = {}
    for kind in exp.cost_kinds:
        for a in range(exp.n_groups):
            pts = exp.mean_costs(a, kind)
            if len(pts) >= 3:
                curves[(a, kind)] = pts
    batches = {}
    for key, pts in curves.items():
        batches.setdefault(len(pts), []).append(key)
    fits = {}
    for keys in batches.values():
        batch = _fit_batch([curves[key] for key in keys])
        for (a, kind), fit in zip(keys, batch):
            fits[(a, kind)] = replace(fit, group=a, cost_kind=kind)
    return {key: fits[key] for key in curves}


def extrapolate_gamma(fits, n) -> float:
    """The gap of the groups' fitted costs at training size n, the largest
    of ``fits`` at n minus the smallest; n = inf gives the gap of their
    asymptotes.  Every fit that names a cost kind must name the same one."""
    kinds = {fit.cost_kind for fit in fits} - {None}
    if len(kinds) > 1:
        raise AnalysisError("fits have different cost kinds")
    return cost_gap([fit(n) for fit in fits])


def power_law_critical_point(
    f: PowerLawFit, g: PowerLawFit
) -> float | None:
    """The unique positive stationary point of f - g, or the single zero
    when the exponents coincide; None when no positive solution exists."""
    a, b, c = f.alpha, f.beta, f.delta
    d, e, h = g.alpha, g.beta, g.delta
    if a <= 0 or d <= 0:
        raise AnalysisError("both curves need positive leading coefficients")
    if b != e:
        # log-space guard: for nearly equal exponents the exponent
        # 1/(b - e) explodes and the stationary point leaves any usable
        # domain; treat that as no critical point
        log_x = np.log(b * a / (d * e)) / (b - e)
        if abs(log_x) > 600.0:
            return None
        return float(np.exp(log_x))
    c_tilde = c - h
    if d == a or c_tilde == 0.0:
        return None
    ratio = c_tilde / (d - a)
    if ratio <= 0.0:
        return None
    return float(ratio ** (-1.0 / b))


def _bisect(func, lo, hi):
    flo = func(lo)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0 or (hi - lo) <= _BISECT_TOL * max(1.0, abs(mid)):
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def power_law_crossings(
    f: PowerLawFit, g: PowerLawFit, domain: tuple[float, float]
) -> list[float]:
    """Roots of f - g on the domain (at most 2; the difference of two
    power-law curves has a single stationary point for x > 0)."""
    x_lo, x_hi = domain
    if not 0.0 < x_lo < x_hi:
        raise AnalysisError(f"invalid domain {domain}")

    def diff(x):
        return f(x) - g(x)

    if f.alpha == g.alpha and f.beta == g.beta and f.delta == g.delta:
        return []  # degenerate: identically zero difference
    if f.alpha > 0 and g.alpha > 0:
        crit = power_law_critical_point(f, g)
    else:
        crit = None
    edges = [x_lo]
    if crit is not None and x_lo < crit < x_hi:
        edges.append(crit)
    edges.append(x_hi)
    roots = []
    for left, right in zip(edges[:-1], edges[1:]):
        f_left, f_right = diff(left), diff(right)
        if f_left == 0.0:
            roots.append(left)
            continue
        if (f_left < 0) != (f_right < 0):
            roots.append(_bisect(diff, left, right))
    if diff(x_hi) == 0.0:
        roots.append(x_hi)
    # Deduplicate segment endpoints found twice.
    unique = []
    for r in sorted(roots):
        if not unique or abs(r - unique[-1]) > 1e-9 * max(1.0, abs(r)):
            unique.append(float(r))
    return unique[:2]
