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


def _solve_linear(n, y, w, beta):
    """Weighted least squares for (alpha, delta) at fixed beta, with
    nonnegativity enforced by comparing the clamped alternatives."""
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


def fit_power_law(points) -> PowerLawFit:
    """Fit cost(n) = alpha * n^(-beta) + delta to (n, mean cost[, weight])
    tuples by profiled least squares over beta."""
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
        return _solve_linear(n, y, w, beta)[2]

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
    alpha, delta, rss = _solve_linear(n, y, w, beta)
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


def fit_curve_experiment(
    exp: CurveExperiment,
) -> dict[tuple[int, CostKind], PowerLawFit]:
    """One fit per (group, cost kind), weighted by trial counts."""
    fits = {}
    for kind in exp.cost_kinds:
        for a in range(exp.n_groups):
            pts = exp.mean_costs(a, kind)
            if len(pts) >= 3:
                fit = fit_power_law(pts)
                fits[(a, kind)] = replace(fit, group=a, cost_kind=kind)
    return fits


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
