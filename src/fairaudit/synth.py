"""Synthetic generators with exactly known Bayes quantities.

Two families: a heteroskedastic quadratic regression problem with
per-group Gaussian features, and a discrete classification problem with
tabulated outcome probabilities.  Both return a queryable conditional
outcome model so the decomposition machinery can be checked against exact
values.  The model answers a whole batch of feature rows per call, so the
decomposition queries it once per group rather than once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .data import Dataset, Task
from .errors import AnalysisError


@dataclass(frozen=True)
class ConditionalOutcomeModel:
    """Queryable map from (X, a) to the conditional outcome distribution.

    Classification: ``prob(X, a)`` returns p(Y=1|x,a).  Regression:
    ``mean(X, a)`` and ``var(X, a)`` return E[Y|x,a] and Var[Y|x,a].
    ``X`` is an (n, d) batch of feature rows of group ``a`` and the result
    is an (n,) float64 array; a 1-D row is a one-row batch and gives a
    float.  The ``_prob``/``_mean``/``_var`` callables always receive the
    2-D batch and must return one value per row.
    """

    task: Task
    _prob: callable = None
    _mean: callable = None
    _var: callable = None

    def prob(self, X, a: int):
        if self.task is not Task.BINARY:
            raise AnalysisError("prob() is only defined for binary outcomes")
        p = self._query("prob", self._prob, X, a)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise AnalysisError("prob() returned a value outside [0, 1]")
        return p

    def mean(self, X, a: int):
        if self.task is not Task.REGRESSION:
            raise AnalysisError("mean() is only defined for regression")
        return self._query("mean", self._mean, X, a)

    def var(self, X, a: int):
        if self.task is not Task.REGRESSION:
            raise AnalysisError("var() is only defined for regression")
        v = self._query("var", self._var, X, a)
        if not np.all(v >= 0.0):
            raise AnalysisError("var() returned a negative variance")
        return v

    @staticmethod
    def _query(name, fn, X, a):
        X = np.asarray(X, dtype=np.float64)
        row = X.ndim == 1
        batch = X[None, :] if row else X
        if batch.ndim != 2:
            raise AnalysisError(f"{name}() takes a feature row or an (n, d) batch")
        values = np.asarray(fn(batch, a), dtype=np.float64)
        # A per-row callable returns a scalar on a batch, which would
        # broadcast silently; demand exactly one value per row.
        if values.shape != (batch.shape[0],):
            raise AnalysisError(
                f"{name}() returned shape {values.shape} for "
                f"{batch.shape[0]} rows; expected one value per row"
            )
        return float(values[0]) if row else values


@dataclass(frozen=True)
class RegressionSynthSpec:
    """Per-group Gaussian feature X, quadratic outcome with heteroskedastic
    noise: Y = 2X^2 - 2X + 0.1 + eps * X^2, eps ~ Normal(0, sigma_eps^2).
    """

    p_group1: float = 0.3
    mu: tuple[float, float] = (0.0, 1.0)
    sigma: tuple[float, float] = (1.0, 2.0)
    sigma_eps: float = 1.0
    homoskedastic: bool = False  # noise term becomes eps alone (no X^2 factor)

    def __post_init__(self):
        if not 0.0 < self.p_group1 < 1.0:
            raise AnalysisError("p_group1 must be in (0,1)")
        if min(self.sigma) <= 0 or self.sigma_eps <= 0:
            raise AnalysisError("scales must be positive")

    def conditional_mean(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * x * x - 2.0 * x + 0.1

    def conditional_var(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.homoskedastic:
            return np.full(x.shape, self.sigma_eps**2)
        # libm pow, as Python's float ** calls it, not numpy's vectorized
        # power, which differs from it in the last bit on some inputs.
        fourth = np.fromiter(
            map(math.pow, x.ravel().tolist(), repeat(4.0)), np.float64, x.size
        ).reshape(x.shape)
        return self.sigma_eps**2 * fourth


@dataclass(frozen=True)
class DiscreteSynthSpec:
    """Finite feature alphabet with per-group feature distributions and a
    tabulated outcome probability p(Y=1|x,a)."""

    p_x_given_a: np.ndarray  # (G, m)
    p_y_given_xa: np.ndarray  # (G, m)
    p_a: np.ndarray  # (G,)

    def __post_init__(self):
        p_x = np.asarray(self.p_x_given_a, dtype=np.float64)
        p_y = np.asarray(self.p_y_given_xa, dtype=np.float64)
        p_a = np.asarray(self.p_a, dtype=np.float64)
        object.__setattr__(self, "p_x_given_a", p_x)
        object.__setattr__(self, "p_y_given_xa", p_y)
        object.__setattr__(self, "p_a", p_a)
        if p_x.shape != p_y.shape or p_x.shape[0] != p_a.shape[0]:
            raise AnalysisError("inconsistent table shapes")
        if np.any(p_x < 0) or np.any((p_y < 0) | (p_y > 1)) or np.any(p_a < 0):
            raise AnalysisError("probabilities out of range")
        if not np.allclose(p_x.sum(axis=1), 1.0, atol=1e-12):
            raise AnalysisError("p(x|a) rows must sum to 1")
        if not np.isclose(p_a.sum(), 1.0, atol=1e-12):
            raise AnalysisError("p(a) must sum to 1")

    @property
    def n_groups(self) -> int:
        return self.p_a.shape[0]

    @property
    def n_values(self) -> int:
        return self.p_x_given_a.shape[1]


def default_discrete_spec() -> DiscreteSynthSpec:
    """Two groups over 10 feature values, shifted supports and a
    heteroskedastic outcome table.  Chosen so noise, bias (for shallow
    trees), and variance (for small n) are all nonzero; exact values come
    from the table oracle."""
    m = 10
    vals = np.arange(m)
    w0 = np.exp(-0.5 * ((vals - 3.0) / 2.0) ** 2)
    w1 = np.exp(-0.5 * ((vals - 6.0) / 2.0) ** 2)
    p_x = np.vstack([w0 / w0.sum(), w1 / w1.sum()])
    base = np.array([0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.97])
    p_y = np.vstack([base, np.clip(base * 0.8 + 0.15, 0.0, 1.0)])
    return DiscreteSynthSpec(p_x_given_a=p_x, p_y_given_xa=p_y, p_a=np.array([0.6, 0.4]))


def gen_regression(
    spec: RegressionSynthSpec, n: int, seed: int
) -> tuple[Dataset, ConditionalOutcomeModel]:
    if n < 1:
        raise AnalysisError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < spec.p_group1).astype(np.int64)
    mu = np.asarray(spec.mu)[a]
    sigma = np.asarray(spec.sigma)[a]
    x = rng.normal(mu, sigma)
    eps = rng.normal(0.0, spec.sigma_eps, size=n)
    mean = spec.conditional_mean(x)
    y = mean + (eps if spec.homoskedastic else eps * x * x)
    d = Dataset(
        features=x[:, None],
        group=a,
        outcome=y,
        task=Task.REGRESSION,
        column_names=("x",),
        group_names=("0", "1"),
    )
    om = ConditionalOutcomeModel(
        task=Task.REGRESSION,
        _mean=lambda X, g: spec.conditional_mean(X[:, 0]),
        _var=lambda X, g: spec.conditional_var(X[:, 0]),
    )
    return d, om


def gen_discrete(
    spec: DiscreteSynthSpec, n: int, seed: int
) -> tuple[Dataset, ConditionalOutcomeModel]:
    if n < 1:
        raise AnalysisError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.choice(spec.n_groups, size=n, p=spec.p_a)
    x = np.empty(n, dtype=np.int64)
    for g in range(spec.n_groups):
        rows = a == g
        x[rows] = rng.choice(spec.n_values, size=int(rows.sum()), p=spec.p_x_given_a[g])
    y = (rng.random(n) < spec.p_y_given_xa[a, x]).astype(np.float64)
    onehot = np.zeros((n, spec.n_values))
    onehot[np.arange(n), x] = 1.0
    d = Dataset(
        features=onehot,
        group=a.astype(np.int64),
        outcome=y,
        task=Task.BINARY,
        column_names=tuple(f"x={v}" for v in range(spec.n_values)),
        group_names=tuple(str(g) for g in range(spec.n_groups)),
    )

    om = ConditionalOutcomeModel(
        task=Task.BINARY,
        _prob=lambda X, g: spec.p_y_given_xa[g, np.argmax(X, axis=1)],
    )
    return d, om


def gaussian_fourth_moment(mu: float, sigma: float) -> float:
    """E[X^4] for X ~ Normal(mu, sigma^2)."""
    return mu**4 + 6.0 * mu**2 * sigma**2 + 3.0 * sigma**4


def exact_bayes(spec) -> dict:
    """Exact per-group Bayes quantities.

    Regression specs: N_a = sigma_eps^2 * E[X^4 | A=a] (or sigma_eps^2 in
    the homoskedastic variant).  Discrete specs: N_a = sum_x p(x|a) *
    min(p, 1-p) together with the optimal label map y*(x, a).
    """
    if isinstance(spec, RegressionSynthSpec):
        noise = []
        for g in range(2):
            if spec.homoskedastic:
                noise.append(spec.sigma_eps**2)
            else:
                m4 = gaussian_fourth_moment(spec.mu[g], spec.sigma[g])
                noise.append(spec.sigma_eps**2 * m4)
        return {"noise": tuple(noise), "y_star": None}
    if isinstance(spec, DiscreteSynthSpec):
        p = spec.p_y_given_xa
        pointwise = np.minimum(p, 1.0 - p)
        noise = tuple(
            float(np.dot(spec.p_x_given_a[g], pointwise[g]))
            for g in range(spec.n_groups)
        )
        # Ties (p exactly 0.5) break toward label 0, consistent with the
        # decomposition module.
        y_star = (p > 0.5).astype(np.float64)
        return {"noise": noise, "y_star": y_star}
    raise AnalysisError(f"unknown synthetic spec type {type(spec)!r}")
