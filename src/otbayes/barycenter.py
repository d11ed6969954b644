"""Wasserstein barycenters by fixed-point descent and stochastic descent.

The deterministic driver iterates the averaged-map operator on a finitely
supported distribution over models; the stochastic driver consumes fresh
model draws in batches with a square-summable step schedule. Both exploit
the closed parameter-space updates of the supported families: averaged
quantiles on the line and for shared copulas, averaged radial profiles,
and the scatter fixed-point recursion for affine families.

Each per-iterate quantity is read from the iterate's row of the family
table in :mod:`transport` (``transport.family``). :func:`risk`,
:func:`_grad_norm_sq`, :func:`gk_step` and :func:`fixed_point_residual`
all take ``(mu, dist)`` and read ``dist.row(mu)``; a finite
``ModelDistribution`` keeps the row of the last iterate it was asked for,
so ``empirical_barycenter`` builds one row per iterate for its risk,
gradient norm and step, and the ``fixed_point_residual`` of the
barycenter it returns reuses the descent's last row. For
scatter-location models a row holds the cross terms (A0 S_m A0)^{1/2}
of one stacked eigendecomposition; for the other families it takes the
distances to the models and to the iterate's image under the averaged
map (the next iterate, whose distance is the gradient norm) in one
evaluation.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ScheduleError
from . import transport

# models in population_barycenter's frozen evaluation pool
EVAL_POOL_SIZE = 64


# ---------------------------------------------------------------------------
# Distributions over models
# ---------------------------------------------------------------------------


class ModelDistribution:
    """Finite support with weights, or a sampler of i.i.d. models.

    Finite mode represents an empirical measure over models; sampler mode
    represents a population only accessible through draws. A finite
    distribution keeps the family row of the last iterate :meth:`row`
    built; its support is a tuple and its weights are read-only, so that
    row cannot go stale.
    """

    def __init__(self, support=None, weights=None, sampler: Optional[Callable] = None):
        if (support is None) == (sampler is None):
            raise ValueError("provide either a finite support or a sampler, not both")
        if sampler is not None and weights is not None:
            raise ValueError("weights apply to a finite support, not to a sampler")
        self.sampler = sampler
        self._row = None
        if support is not None:
            support = tuple(support)
            if not support:
                raise ValueError("support must be non-empty")
            if weights is None:
                weights = np.full(len(support), 1.0 / len(support))
            weights = np.array(weights, dtype=float)
            weights.setflags(write=False)
            if weights.shape != (len(support),) or np.any(weights < 0.0):
                raise ValueError("weights must be a nonnegative vector matching the support")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
            transport.family(*support)
            self.support = support
            self.weights = weights
        else:
            self.support = None
            self.weights = None

    @property
    def is_finite(self) -> bool:
        return self.support is not None

    def finite_support(self) -> tuple:
        """The support; a sampler has none, and raises ``ValueError``."""
        if not self.is_finite:
            raise ValueError("a family row requires a finitely supported distribution")
        return self.support

    def row(self, mu):
        """The family row of ``mu`` against the :meth:`finite_support` (see
        :func:`transport.family`): the kept one when it was built at this
        very ``mu``, else a new one, which is then kept."""
        support = self.finite_support()
        row = self._row
        if row is None or row.mu is not mu:
            # the support was checked against itself when it was given
            row = transport.family(mu, support[0])(mu, support, self.weights)
            self._row = row
        return row

    def draw(self, rng: np.random.Generator):
        if self.is_finite:
            idx = rng.choice(len(self.support), p=self.weights)
            return self.support[idx]
        return self.sampler(rng)

    @classmethod
    def from_sampler(cls, sampler: Callable):
        return cls(sampler=sampler)


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSchedule:
    """Step sequence gamma_t = a / (t + c)^r.

    Stochastic descent requires a divergent step sum with convergent
    squares (Robbins-Monro); both hold exactly when r is in (1/2, 1].
    """

    a: float = 1.0
    c: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        if self.a <= 0.0 or self.c < 0.0:
            raise ScheduleError("a step schedule requires a > 0 and c >= 0")

    @property
    def sum_diverges(self) -> bool:
        return self.r <= 1.0

    @property
    def sq_sum_converges(self) -> bool:
        return self.r > 0.5

    def validate(self) -> "StepSchedule":
        if not self.sum_diverges:
            raise ScheduleError("step sum must diverge (r <= 1)")
        if not self.sq_sum_converges:
            raise ScheduleError("squared steps must be summable (r > 1/2)")
        return self

    def gamma(self, t: int) -> float:
        """Step at iteration t (1-based)."""
        if t < 1:
            raise ValueError("t must be >= 1")
        return self.a / (t + self.c) ** self.r

    @classmethod
    def harmonic(cls) -> "StepSchedule":
        """gamma_t = 1/t."""
        return cls(a=1.0, c=0.0, r=1.0)


# ---------------------------------------------------------------------------
# Descent traces
# ---------------------------------------------------------------------------


class DescentTrace:
    """Per-iteration record of step, risk and gradient-norm estimates."""

    def __init__(self):
        self.iterations: list[int] = []
        self.gammas: list[float] = []
        self.risk: list[float] = []
        self.grad_norm_sq: list[float] = []
        self.wall_ms: list[float] = []
        self.converged: bool = True

    def record(self, iteration, gamma, risk, grad_norm_sq, wall_ms):
        if risk is not None and risk < -1e-12:
            raise ValueError("risk estimates must be nonnegative")
        self.iterations.append(int(iteration))
        self.gammas.append(float(gamma))
        self.risk.append(float(risk) if risk is not None else math.nan)
        self.grad_norm_sq.append(float(grad_norm_sq) if grad_norm_sq is not None else math.nan)
        self.wall_ms.append(float(wall_ms))

    def __len__(self):
        return len(self.iterations)


@dataclass(frozen=True)
class StopRule:
    """Relative-risk stopping with an iteration cap."""

    rel_tol: float = 1e-4
    max_iter: int = 100


# ---------------------------------------------------------------------------
# Single descent steps
# ---------------------------------------------------------------------------


def gk_step(mu, dist: ModelDistribution, gamma: float):
    """One deterministic descent step: push mu through the lambda-averaged
    optimal map, damped by gamma. gamma = 1 is the plain fixed-point
    iteration (and the optimal choice); gamma = 0 is a no-op. The step
    reads ``dist.row(mu)``; a unit step is the row's ``image``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return mu
    row = dist.row(mu)
    return row.image if gamma == 1.0 else row.step(gamma)


def batch_sgd_step(mu, batch: Sequence, gamma: float):
    """One stochastic step toward the uniform average map of a batch."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return mu
    return transport.family(mu, *batch)(mu, batch).step(gamma)


# ---------------------------------------------------------------------------
# Risk and gradient-norm evaluation
# ---------------------------------------------------------------------------


def risk(mu, dist: ModelDistribution) -> float:
    """Half the weighted average squared W2 distance from mu to the
    finitely supported ``dist``; reads ``dist.row(mu)``."""
    row = dist.row(mu)
    return 0.5 * math.fsum(row.weights * row.w2_sq())


def _grad_norm_sq(mu, dist: ModelDistribution) -> float:
    """Squared L2(mu) norm of the averaged displacement toward ``dist``
    (for scatter-location models in closed form); reads ``dist.row(mu)``."""
    return dist.row(mu).grad_norm_sq()


def fixed_point_residual(mu_hat, dist: ModelDistribution) -> float:
    """Distance of the averaged optimal map from the identity at mu_hat.

    Zero exactly at a barycenter of the finitely supported ``dist``. For
    scatter-location models this is the Frobenius gap ``|avg A - I|_F`` of
    the averaged linear parts; for the other families it is the
    L2(mu_hat) norm of the averaged displacement, the W2 distance from
    mu_hat to its image under the averaged map. That image is the row's
    unit step, so the residual certifies a fixed point of the step, not
    that the step averages the right maps. To check a population
    barycenter, pass a finite sample of the population. It reads
    ``dist.row(mu_hat)``, so right after :func:`empirical_barycenter` it
    builds no row and, outside the scatter-location family, takes no
    distance.
    """
    return dist.row(mu_hat).residual()


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def empirical_barycenter(dist: ModelDistribution, stop: StopRule = StopRule()):
    """Barycenter of a finitely supported distribution over models.

    Iterates the averaged-map operator (unit steps of :func:`gk_step`)
    until the relative change of the risk falls below ``stop.rel_tol``.
    Each iterate's row (``dist.row``) serves its risk, gradient norm and
    step; ``dist`` keeps the last one, which the returned model's
    :func:`fixed_point_residual` then reads.
    Returns ``(model, trace)``; a run that hits ``stop.max_iter`` is
    returned with ``trace.converged = False``.
    """
    trace = DescentTrace()
    t0 = time.perf_counter()
    mu = dist.finite_support()[0]
    f_prev = risk(mu, dist)
    trace.record(0, 0.0, f_prev, _grad_norm_sq(mu, dist), 1e3 * (time.perf_counter() - t0))
    converged = False
    for it in range(1, stop.max_iter + 1):
        mu = gk_step(mu, dist, 1.0)
        f_cur = risk(mu, dist)
        trace.record(it, 1.0, f_cur, _grad_norm_sq(mu, dist), 1e3 * (time.perf_counter() - t0))
        if f_prev <= 1e-300:
            converged = True
            break
        if abs(f_cur - f_prev) / max(f_prev, 1e-300) < stop.rel_tol:
            converged = True
            break
        f_prev = f_cur
    trace.converged = converged
    if not converged:
        warnings.warn("barycenter descent hit max_iter before the stopping rule",
                      RuntimeWarning, stacklevel=2)
    return mu, trace


def _distinct(models):
    """The distinct ``models`` by identity, in order of first appearance,
    and each entry's index among them."""
    first = {}
    index = np.array([first.setdefault(id(m), len(first)) for m in models], dtype=int)
    return list({id(m): m for m in models}.values()), index


def population_barycenter(
    dist: ModelDistribution,
    schedule: StepSchedule,
    iterations: int,
    batch_size: int,
    mu0,
    rng: np.random.Generator,
    *,
    trace_every: int = 1,
):
    """Batch stochastic descent toward the population barycenter.

    Draws ``batch_size`` fresh models per step for ``iterations`` steps
    with steps from a validated schedule, each capped at 1. Risk and
    gradient norms along the trace are Monte Carlo estimates against a
    pool of ``EVAL_POOL_SIZE`` models frozen up front (comparable across
    iterations), recorded every ``trace_every`` steps and at the last;
    ``trace_every=0`` draws no pool and records NaN for both. The pool
    is a finite distribution over its distinct draws, weighted by their
    multiplicities, so each traced step builds one family row over it.
    """
    schedule.validate()
    if iterations < 1 or batch_size < 1:
        raise ValueError("iterations and batch_size must be >= 1")
    if trace_every:
        drawn, index = _distinct([dist.draw(rng) for _ in range(EVAL_POOL_SIZE)])
        pool = ModelDistribution(drawn, np.bincount(index) / EVAL_POOL_SIZE)
    trace = DescentTrace()
    mu = mu0
    t0 = time.perf_counter()
    for t in range(1, iterations + 1):
        gamma = min(schedule.gamma(t), 1.0)
        batch = [dist.draw(rng) for _ in range(batch_size)]
        mu = batch_sgd_step(mu, batch, gamma)
        if trace_every and (t % trace_every == 0 or t == iterations):
            trace.record(t, gamma, risk(mu, pool), _grad_norm_sq(mu, pool),
                         1e3 * (time.perf_counter() - t0))
        elif not trace_every:
            trace.record(t, gamma, None, None, 1e3 * (time.perf_counter() - t0))
    return mu, trace


def variance_of_gradient_estimator(
    mu,
    dist: ModelDistribution,
    batch_size: int,
    reps: int,
    rng: np.random.Generator,
    *,
    n_points: int = 1024,
) -> float:
    """Monte Carlo variance of the batch displacement estimator at mu.

    Each rep draws a fresh batch, forms the averaged displacement map and
    evaluates it on one shared sample from mu; the estimator variance is
    the functional sample variance across reps. Scales like 1/batch_size.

    Every batch is drawn before any map is formed (a finite support in
    one ``choice`` call, which reads the stream as ``reps * batch_size``
    draws would), and one family row over the distinct drawn models
    gives each rep's averaged map by index.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if reps < 200:
        warnings.warn("fewer than 200 reps gives an unstable variance estimate",
                      RuntimeWarning, stacklevel=2)
    x = np.asarray(mu.sample(n_points, rng), dtype=float)
    x2d = x.reshape(x.shape[0], -1)
    if dist.is_finite:
        picks = rng.choice(len(dist.support), size=reps * batch_size, p=dist.weights)
        drawn = [dist.support[i] for i in picks]
    else:
        drawn = [dist.sampler(rng) for _ in range(reps * batch_size)]
    models, index = _distinct(drawn)
    row = transport.family(mu, *models)(mu, models)
    disp = np.empty((reps, x2d.shape[0], x2d.shape[1]))
    for r, batch in enumerate(index.reshape(reps, batch_size)):
        tx = np.asarray(row.batch_map(batch)(x), dtype=float)
        disp[r] = tx.reshape(x2d.shape) - x2d
    dbar = disp.mean(axis=0)
    dev = disp - dbar
    return float(np.sum(dev * dev) / (reps - 1) / x2d.shape[0])
