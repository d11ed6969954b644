"""Wasserstein barycenters by fixed-point descent and stochastic descent.

The deterministic driver iterates the averaged-map operator on a finitely
supported distribution over models; the stochastic driver consumes fresh
model draws in batches with a square-summable step schedule. Both exploit
the closed parameter-space updates of the supported families: averaged
quantiles on the line and for shared copulas, averaged radial profiles,
and the scatter fixed-point recursion for affine families.

For scatter-location models every quantity of an iterate A0 against the
support reads the cross terms (A0 S_m A0)^{1/2} of all k models, taken
from one stacked eigendecomposition (:class:`transport.LsCrossTerms`).
``empirical_barycenter`` evaluates them once per iterate and shares them
between that iterate's risk and gradient norm and the step to the next
iterate; ``fixed_point_residual`` reads them for the averaged map.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CompatibilityError, ScheduleError
from .linalg import sqrtm_psd
from .measures import (
    CopulaModel,
    LocationScatterModel,
    RadialProfile,
    SphericalModel,
    UnivariateModel,
    mix_quantiles,
)
from . import transport


# ---------------------------------------------------------------------------
# Distributions over models
# ---------------------------------------------------------------------------


class ModelDistribution:
    """Finite support with weights, or a sampler of i.i.d. models.

    Finite mode represents an empirical measure over models; sampler mode
    represents a population only accessible through draws.
    """

    def __init__(self, support=None, weights=None, sampler: Optional[Callable] = None):
        if (support is None) == (sampler is None):
            raise ValueError("provide either a finite support or a sampler, not both")
        self.sampler = sampler
        if support is not None:
            support = list(support)
            if not support:
                raise ValueError("support must be non-empty")
            if weights is None:
                weights = np.full(len(support), 1.0 / len(support))
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(support),) or np.any(weights < 0.0):
                raise ValueError("weights must be a nonnegative vector matching the support")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
            _check_pairwise_compatible(support)
            self.support = support
            self.weights = weights
        else:
            self.support = None
            self.weights = None

    @property
    def is_finite(self) -> bool:
        return self.support is not None

    def draw(self, rng: np.random.Generator):
        if self.is_finite:
            idx = rng.choice(len(self.support), p=self.weights)
            return self.support[idx]
        return self.sampler(rng)

    @classmethod
    def point_mass(cls, model):
        return cls(support=[model], weights=np.array([1.0]))

    @classmethod
    def from_sampler(cls, sampler: Callable):
        return cls(sampler=sampler)


def _family_kind(model):
    if isinstance(model, UnivariateModel):
        return "univariate"
    if isinstance(model, LocationScatterModel):
        return "location_scatter"
    if isinstance(model, SphericalModel):
        return "spherical"
    if isinstance(model, CopulaModel):
        return "copula"
    raise CompatibilityError(f"unsupported model type {type(model).__name__}")


def _check_pairwise_compatible(models: Sequence) -> None:
    kind = _family_kind(models[0])
    for m in models[1:]:
        if _family_kind(m) != kind:
            raise CompatibilityError("support mixes model families")
    if kind in ("location_scatter", "spherical"):
        key = models[0].generator.spec_key()
        for m in models[1:]:
            if m.generator.spec_key() != key:
                raise CompatibilityError("support mixes generators")
    if kind == "copula":
        ident = models[0].copula.identifier()
        for m in models[1:]:
            if m.copula.identifier() != ident:
                raise CompatibilityError("support mixes copulas")


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSchedule:
    """Step sequence gamma_t = a / (t + c)^r, or an explicit sequence.

    Stochastic descent requires a divergent step sum with convergent
    squares; the rule form guarantees both exactly when r is in (1/2, 1].
    Explicit sequences must declare the two flags.
    """

    a: float = 1.0
    c: float = 0.0
    r: float = 1.0
    explicit: Optional[tuple] = None
    sum_diverges: bool = field(default=True)
    sq_sum_converges: bool = field(default=True)

    def __post_init__(self):
        if self.explicit is not None:
            object.__setattr__(self, "explicit", tuple(float(g) for g in self.explicit))
            if any(g <= 0.0 for g in self.explicit):
                raise ScheduleError("explicit steps must be positive")
        else:
            if self.a <= 0.0 or self.c < 0.0:
                raise ScheduleError("rule requires a > 0 and c >= 0")
            diverges = self.r <= 1.0
            sq_conv = self.r > 0.5
            object.__setattr__(self, "sum_diverges", diverges)
            object.__setattr__(self, "sq_sum_converges", sq_conv)

    def validate(self) -> "StepSchedule":
        if not self.sum_diverges:
            raise ScheduleError("step sum must diverge (r <= 1 for the rule form)")
        if not self.sq_sum_converges:
            raise ScheduleError("squared steps must be summable (r > 1/2 for the rule form)")
        return self

    def gamma(self, t: int) -> float:
        """Step at iteration t (1-based)."""
        if t < 1:
            raise ValueError("t must be >= 1")
        if self.explicit is not None:
            return self.explicit[min(t, len(self.explicit)) - 1]
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

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,gamma,F_est,gradnorm_est,wall_ms\n")
            for row in zip(self.iterations, self.gammas, self.risk, self.grad_norm_sq, self.wall_ms):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@dataclass(frozen=True)
class StopRule:
    """Relative-risk stopping with an iteration cap."""

    rel_tol: float = 1e-4
    max_iter: int = 100


# ---------------------------------------------------------------------------
# Single descent steps, per family
# ---------------------------------------------------------------------------


def _step_univariate(mu, models, lam, gamma):
    coeffs = np.concatenate([[1.0 - gamma], gamma * np.asarray(lam)])
    return mix_quantiles(coeffs, [mu, *models])


def _ls_cross(mu, models, weights, cross):
    """The iterate's cross terms against ``models``: ``cross`` when given."""
    if cross is None:
        return transport.LsCrossTerms(mu, models, weights)
    if cross.mu is not mu or cross.weights.shape != (len(models),):
        raise ValueError("cross terms were computed for another iterate or support")
    return cross


def _step_ls(mu: LocationScatterModel, cross: transport.LsCrossTerms, gamma):
    # A1^2 = A0^{-1} M^2 A0^{-1} with M = (1 - gamma) A0^2 + gamma sum lam C
    mid = (1.0 - gamma) * mu.scatter_sq + gamma * cross.cross_mean
    new_sq = cross.scatter_inv @ mid @ mid @ cross.scatter_inv
    new_sq = 0.5 * (new_sq + new_sq.T)
    b = (1.0 - gamma) * mu.location + gamma * cross.mean_location
    return LocationScatterModel(mu.generator, b, sqrtm_psd(new_sq, name="updated scatter"))


def _step_spherical(mu: SphericalModel, models, lam, gamma):
    radii = mu.alpha.radii
    for m in models:
        radii = np.union1d(radii, m.alpha.radii)
    vals = (1.0 - gamma) * mu.alpha(radii)
    for w, m in zip(lam, models):
        vals = vals + gamma * w * m.alpha(radii)
    return SphericalModel(mu.generator, RadialProfile(radii, vals))


def _step_copula(mu: CopulaModel, models, lam, gamma):
    marginals = []
    for j in range(mu.dimension):
        marginals.append(
            _step_univariate(mu.marginals[j], [m.marginals[j] for m in models], lam, gamma)
        )
    return CopulaModel(mu.copula, marginals)


_STEPS = {
    "univariate": _step_univariate,
    "spherical": _step_spherical,
    "copula": _step_copula,
}


def _averaged_map_step(mu, models, lam, gamma, cross=None):
    """Step from a compatibility-checked ``mu`` and ``models``."""
    kind = _family_kind(mu)
    if kind == "location_scatter":
        return _step_ls(mu, _ls_cross(mu, models, lam, cross), gamma)
    return _STEPS[kind](mu, models, lam, gamma)


def gk_step(mu, dist: ModelDistribution, gamma: float, *, cross=None):
    """One deterministic descent step: push mu through the lambda-averaged
    optimal map, damped by gamma. gamma = 1 is the plain fixed-point
    iteration (and the optimal choice); gamma = 0 is a no-op. ``cross``
    passes on the iterate's :class:`~otbayes.transport.LsCrossTerms`
    against the support when the caller already holds them."""
    if not dist.is_finite:
        raise ValueError("gk_step requires a finitely supported distribution")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return mu
    # the support was checked pairwise when the distribution was built
    _check_pairwise_compatible([mu, dist.support[0]])
    return _averaged_map_step(mu, dist.support, dist.weights, gamma, cross)


def sgd_step(mu, model, gamma: float):
    """One stochastic step toward a single sampled model."""
    return batch_sgd_step(mu, [model], gamma)


def batch_sgd_step(mu, batch: Sequence, gamma: float):
    """One stochastic step toward the uniform average map of a batch."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return mu
    lam = np.full(len(batch), 1.0 / len(batch))
    _check_pairwise_compatible([mu, *batch])
    return _averaged_map_step(mu, list(batch), lam, gamma)


# ---------------------------------------------------------------------------
# Risk and gradient-norm evaluation
# ---------------------------------------------------------------------------


def risk(mu, models, weights=None, *, cross=None) -> float:
    """Half the weighted average squared distance from mu to the models.

    ``cross``: the scatter-location iterate's cross terms, as for
    :func:`gk_step`."""
    if weights is None:
        weights = np.full(len(models), 1.0 / len(models))
    if isinstance(mu, LocationScatterModel):
        cross = _ls_cross(mu, models, weights, cross)
        return 0.5 * math.fsum(cross.weights * cross.w2_sq())
    return 0.5 * float(
        math.fsum(w * transport.w2(mu, m) ** 2 for w, m in zip(weights, models))
    )


def _grad_norm_sq(mu, models, weights=None, *, cross=None) -> float:
    """Squared norm of the averaged displacement, in the family parameters."""
    if weights is None:
        weights = np.full(len(models), 1.0 / len(models))
    kind = _family_kind(mu)
    if kind == "univariate":
        from .measures import default_levels

        u = default_levels(1024)
        qbar = np.zeros_like(u)
        for w, m in zip(weights, models):
            qbar += w * m.quantile(u)
        gap = qbar - mu.quantile(u)
        return float(np.mean(gap * gap))
    if kind == "location_scatter":
        cross = _ls_cross(mu, models, weights, cross)
        gap = cross.map_matrix - np.eye(mu.dimension)
        shift = cross.mean_location - mu.location
        return float(np.trace(gap @ mu.scatter_sq @ gap.T) + np.sum(shift * shift))
    if kind == "spherical":
        u = np.linspace(1e-4, 1.0 - 1e-4, 1024)
        r = mu.generator.radial_quantile(u)
        abar = np.zeros_like(r)
        for w, m in zip(weights, models):
            abar += w * m.alpha(r)
        gap = abar - mu.alpha(r)
        return float(np.mean(gap * gap))
    if kind == "copula":
        total = 0.0
        for j in range(mu.dimension):
            total += _grad_norm_sq(mu.marginals[j], [m.marginals[j] for m in models], weights)
        return total
    raise CompatibilityError(f"unsupported family {kind}")


def fixed_point_residual(mu_hat, dist: ModelDistribution, n_mc: int = 256,
                         rng: Optional[np.random.Generator] = None) -> float:
    """Distance of the averaged optimal map from the identity at mu_hat.

    Zero exactly at a barycenter. For scatter-location models this is the
    Frobenius gap ``|avg A - I|_F`` of the averaged linear parts; for the
    other families it is the L2(mu_hat) norm of the averaged displacement.
    Sampler-mode distributions are averaged over ``n_mc`` fresh draws.
    """
    if dist.is_finite:
        models, weights = dist.support, dist.weights
    else:
        if rng is None:
            raise ValueError("sampler-mode distributions need an rng")
        models = [dist.draw(rng) for _ in range(n_mc)]
        weights = np.full(n_mc, 1.0 / n_mc)

    if isinstance(mu_hat, LocationScatterModel):
        abar = transport.LsCrossTerms(mu_hat, models, weights).map_matrix
        return float(np.linalg.norm(abar - np.eye(mu_hat.dimension), ord="fro"))
    return math.sqrt(max(_grad_norm_sq(mu_hat, models, weights), 0.0))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def empirical_barycenter(
    dist: ModelDistribution,
    gamma: float = 1.0,
    stop: StopRule = StopRule(),
):
    """Barycenter of a finitely supported distribution over models.

    Iterates the damped averaged-map operator until the relative change
    of the risk falls below ``stop.rel_tol``. Returns ``(model, trace)``;
    a run that hits ``stop.max_iter`` is returned with
    ``trace.converged = False``.
    """
    if not dist.is_finite:
        raise ValueError("empirical_barycenter requires finite support")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    support, weights = dist.support, dist.weights
    # one stacked cross-term evaluation per scatter-location iterate
    ls = isinstance(support[0], LocationScatterModel)
    trace = DescentTrace()
    t0 = time.perf_counter()
    mu = support[0]
    cross = transport.LsCrossTerms(mu, support, weights) if ls else None
    f_prev = risk(mu, support, weights, cross=cross)
    trace.record(0, 0.0, f_prev, _grad_norm_sq(mu, support, weights, cross=cross),
                 1e3 * (time.perf_counter() - t0))
    converged = False
    for it in range(1, stop.max_iter + 1):
        mu = gk_step(mu, dist, gamma, cross=cross)
        cross = transport.LsCrossTerms(mu, support, weights) if ls else None
        f_cur = risk(mu, support, weights, cross=cross)
        trace.record(it, gamma, f_cur, _grad_norm_sq(mu, support, weights, cross=cross),
                     1e3 * (time.perf_counter() - t0))
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


def population_barycenter(
    dist: ModelDistribution,
    schedule: StepSchedule,
    iterations: int,
    batch_size: int,
    mu0,
    rng: np.random.Generator,
    *,
    eval_pool_size: int = 64,
    trace_every: int = 1,
):
    """Batch stochastic descent toward the population barycenter.

    Draws ``batch_size`` fresh models per step for ``iterations`` steps
    with steps from a validated schedule. Risk and gradient norms along
    the trace are Monte Carlo estimates against a pool of
    ``eval_pool_size`` models frozen up front (comparable across
    iterations); set ``trace_every=0`` to skip them.
    """
    schedule.validate()
    if iterations < 1 or batch_size < 1:
        raise ValueError("iterations and batch_size must be >= 1")
    pool = [dist.draw(rng) for _ in range(eval_pool_size)] if trace_every else []
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
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if reps < 200:
        warnings.warn("fewer than 200 reps gives an unstable variance estimate",
                      RuntimeWarning, stacklevel=2)
    x = np.asarray(mu.sample(n_points, rng), dtype=float)
    x2d = x.reshape(x.shape[0], -1)
    weights = np.full(batch_size, 1.0 / batch_size)
    disp = np.empty((reps, x2d.shape[0], x2d.shape[1]))
    for r in range(reps):
        batch = [dist.draw(rng) for _ in range(batch_size)]
        tx = np.asarray(transport.averaged_map(mu, batch, weights)(x), dtype=float)
        disp[r] = tx.reshape(x2d.shape) - x2d
    dbar = disp.mean(axis=0)
    dev = disp - dbar
    return float(np.sum(dev * dev) / (reps - 1) / x2d.shape[0])
