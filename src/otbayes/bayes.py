"""Bayesian layer: priors over scatter-location parameters, ensemble
Metropolis posterior sampling, the Bayesian model average and the
transport-barycenter estimator assembled on top of them.

The parametric model space is the scatter-location family with location b
and a cosine-kernel scatter driven by (eps, sigma, omega); the prior
factorizes as N(b|0,I) Exp(eps|.) Exp(sigma|.) Exp(1/omega|.). Posterior
draws feed either the deterministic barycenter of the empirical measure
over models or the batch stochastic descent, and are compared against
the mixture (the Bayesian model average).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .barycenter import (
    DescentTrace,
    ModelDistribution,
    StepSchedule,
    empirical_barycenter,
    fixed_point_residual,
    population_barycenter,
)
from .linalg import check_pd, sqrtm_psd
from .measures import (
    Generator,
    LocationScatterModel,
    Normal,
    cosine_kernel_roots,
    cosine_kernel_whitening,
    experiment_covariance,
)
from . import transport

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Prior, data, chain containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamPrior:
    """Independent prior over theta = (b, eps, sigma, 1/omega).

    ``b ~ N(0, I_q)``; ``eps ~ Exp(rate_eps)``; ``sigma ~ Exp(rate_sigma)``;
    the frequency enters through its inverse, ``1/omega ~
    Exp(rate_omega_inv)``, and all bookkeeping stays in the inverse
    coordinate. theta indexes the model with location b and covariance
    ``experiment_covariance(q, eps, sigma, omega)``. With
    ``fixed_covariance`` set, the scatter is frozen and theta = b (the
    conjugate-checkable case); a matrix that is not symmetric positive
    definite raises :class:`MatrixNotPDError`, and one that is not finite
    or not symmetric ``ValueError`` (:func:`linalg.check_pd`).
    """

    dimension: int
    rate_eps: float = 20.0
    rate_sigma: float = 1.0
    rate_omega_inv: float = 15.0
    fixed_covariance: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("rate_eps", "rate_sigma", "rate_omega_inv"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.fixed_covariance is not None:
            cov = np.asarray(self.fixed_covariance, dtype=float)
            if cov.shape != (self.dimension, self.dimension):
                raise ValueError("fixed_covariance shape must match dimension")
            # checked, not replaced: the symmetrised copy could move its bits
            check_pd(cov, name="fixed_covariance")
            object.__setattr__(self, "fixed_covariance", cov)

    @property
    def n_params(self) -> int:
        return self.dimension if self.fixed_covariance is not None else self.dimension + 3

    def log_densities(self, thetas: np.ndarray) -> np.ndarray:
        """Log prior density of each row of an (m, n_params) stack."""
        thetas = np.asarray(thetas, dtype=float)
        b = thetas[:, : self.dimension]
        out = -0.5 * np.sum(b * b, axis=1) - 0.5 * self.dimension * _LOG_2PI
        if self.fixed_covariance is None:
            tail = thetas[:, self.dimension:]
            rates = np.array([self.rate_eps, self.rate_sigma, self.rate_omega_inv])
            out += np.sum(np.log(rates) - rates * tail, axis=1)
            out[np.any(tail <= 0.0, axis=1)] = -math.inf
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        b = rng.normal(size=self.dimension)
        if self.fixed_covariance is not None:
            return b
        tail = np.array([
            rng.exponential(1.0 / self.rate_eps),
            rng.exponential(1.0 / self.rate_sigma),
            rng.exponential(1.0 / self.rate_omega_inv),
        ])
        return np.concatenate([b, tail])


@dataclass(frozen=True)
class Dataset:
    """n x q matrix of observations; n = 0 means the posterior is the prior."""

    observations: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.ndim != 2:
            raise ValueError("observations must be an n x q matrix")
        if obs.size and not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def dimension(self) -> int:
        return self.observations.shape[1]

    @classmethod
    def empty(cls, q: int) -> "Dataset":
        return cls(np.empty((0, q)))


@dataclass
class PosteriorChain:
    """Post burn-in, thinned ensemble draws with their log-posteriors."""

    draws: np.ndarray
    log_posterior: np.ndarray
    acceptance_rate: float

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        self.log_posterior = np.asarray(self.log_posterior, dtype=float)
        if not 0.0 < self.acceptance_rate < 1.0:
            raise ValueError("acceptance rate must lie strictly inside (0, 1)")
        if self.draws.shape[0] != self.log_posterior.shape[0]:
            raise ValueError("one log-posterior value per draw is required")

    def __len__(self):
        return self.draws.shape[0]


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


# Whitened data blocks hold at most about this many doubles (512 KB), so
# a batch stays in cache and peak memory does not grow with n or the
# ensemble size.
_BLOCK_DOUBLES = 1 << 16


def _whitening(covs: np.ndarray):
    """``(whiten, log_det_a)`` for an (m, q, q) stack of positive definite
    covariances: ``whiten = V diag(1/sqrt(lam)) V^T`` is A^{-1} for A the
    principal root."""
    vals, vecs = np.linalg.eigh(covs)
    root = np.sqrt(vals)
    whiten = (vecs / root[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return whiten, np.sum(np.log(root), axis=1)


# ---------------------------------------------------------------------------
# Ensemble Metropolis sampler
# ---------------------------------------------------------------------------


# The ensemble: at least this many walkers, 2 dim + 2 when that is more
_MIN_WALKERS = 16
# Goodman and Weare's stretch-move scale
_STRETCH_A = 2.0
# independence moves begin after twice this many sweeps
_ADAPT_WINDOW = 50
# an acceptance rate outside this range is warned about
_WARN_ACCEPT_RANGE = (0.05, 0.8)


@dataclass
class McmcConfig:
    """Posterior-sampler settings.

    The sampler runs affine-invariant stretch moves (Goodman and Weare
    2010, scale a = 2) over an ensemble of ``max(2 dim + 2, 16)`` walkers
    on the transformed target (positivity coordinates proposed in log
    space with the Jacobian folded in), which traverses the soft scale
    ridges of the cosine-kernel posterior without tuning.
    ``burn_sweeps`` (at least 0) and ``thin_sweeps`` (at least 1) count
    whole-ensemble updates.
    After 100 sweeps, every third sweep is an independence move against
    a Gaussian fitted to the other half of the ensemble. Each
    half-sweep's proposals are scored as one batch, whose whitened-data
    workspace is bounded (about 2^16 doubles) whatever n and the walker
    count.

    The walkers start near the best of a candidate set (prior draws with
    the location block at the sample mean, plus a frequency scan of the
    covariance kernel): walker i starts at eligible candidate
    ``(init_rank + i) mod m``, where the m eligible ones lie within 20
    nats of the best. On the desk harness's consistency chains m is
    mostly 1 (seed 123: 2 at n = 10, 1 at n = 50, 200 and 1000; seeds 1,
    2, 56 and 194: 1 almost everywhere), so there ``init_rank`` moves no
    start and every replication begins at one candidate (see the ROADMAP
    item "Chains that reach the posterior"). With an empty dataset every
    walker starts from a plain prior draw. An acceptance rate outside
    [0.05, 0.8] is warned about.
    """

    init_rank: int = 0  # rotates the walkers' starts among the eligible candidates
    burn_sweeps: int = 200
    thin_sweeps: int = 3

    def __post_init__(self):
        if self.burn_sweeps < 0:
            raise ValueError(f"burn_sweeps must be >= 0, got {self.burn_sweeps}")
        if self.thin_sweeps < 1:
            raise ValueError(f"thin_sweeps must be >= 1, got {self.thin_sweeps}")


class _TransformedTarget:
    """Log posterior in chain coordinates phi = (b, log eps, log sigma,
    log omega_inv); the exp-Jacobian keeps the pullback exact.

    ``log_densities`` scores an (m, dim) stack of states in one pass. A
    row is -inf exactly where its state is out of domain, has a non-PD
    covariance or a non-finite total, whatever the other rows hold.

    The cosine-kernel covariance ``Sigma = eps I + sigma B B^T`` (B is
    q x 2, see ``experiment_covariance``) is whitened in closed form,
    with no q x q eigendecomposition: ``W = Sigma^{-1/2} = scale I + U
    diag(h) U^T`` with ``U = B V`` from the 2 x 2 eigenpairs ``B^T B = V
    diag(lam) V^T`` (see ``cosine_kernel_whitening``); half the
    log-determinant is ``(q - 2)/2 log eps + 1/2 sum log(eps + sigma
    lam)``. A covariance counts as not PD when its smallest eigenvalue
    (eps for q > 2) is at most ``q 2^-52`` times its largest, where a
    double-precision ``eigh`` cannot tell it from 0. A fixed covariance
    is whitened once, by ``eigh``.

    The data are stored once, centred and coordinate-major: the mean
    ``xbar``, ``Xc = (X - xbar)^T`` (q x n, each row contiguous) and the
    scatter ``S = Xc Xc^T``. With ``d = xbar - b``, an observation
    whitens to ``W Xc + W d``. A normal coordinate j with location l and
    scale s then sums over the n observations, with w_j row j of W and
    ``c = w_j . d - l``, to

        -[w_j^T S w_j + c (2 w_j . t + n c)] / (2 s^2) - n (log(2 pi)/2 + log s),

    with no pass over the observations. ``t``, the row sums of Xc, would
    be 0 but for the rounding of xbar; that term keeps the sum as exact
    as the per-observation one when the data sit far from the origin.
    Nothing else cancels, because the data are centred. The other
    coordinates R are whitened per state by one product, ``[W_R | (W
    d)_R] [Xc ; 1]``, (|R| x (q + 1))((q + 1) x n); the rows ``[W_R | (W
    d)_R]`` of all states are stacked once per call, from the W and W d
    above, and a fixed covariance takes the same path with its one W.
    The products are made in blocks of at most about 2^16 doubles, into
    one workspace the target keeps, and
    ``Generator._total_log_density_in_place`` scores each block where it
    lies: each family's loc and scale are applied in place and its shape
    sums its log-density in one pass, with the constant taken out of the
    sum (``LocationScaleUnivariate._sum_logpdf0``). For t(nu) that pass
    takes ``log(nu + z^2)`` in place of ``log1p(z^2 / nu)``, a numerical
    shortcut: each term carries about 1e-16 more absolute error, the
    rounding of a log near ``log nu`` for small z.
    """

    def __init__(self, prior: ParamPrior, data: Dataset, gen: Generator):
        self.prior = prior
        self.data = data
        self.gen = gen
        self.q = q = prior.dimension
        self.has_cov_params = prior.fixed_covariance is None
        obs = data.observations
        self._mean = obs.mean(axis=0) if data.n else np.zeros(q)
        xc = np.ascontiguousarray((obs - self._mean).T)
        # [S | t]: the scatter and the row sums of Xc
        self._moments = np.column_stack([xc @ xc.T, xc.sum(axis=1)])
        normal = np.array([isinstance(c, Normal) for c in gen.coordinates])
        self._gauss, self._rest = np.flatnonzero(normal), np.flatnonzero(~normal)
        self._loc = np.array([gen.coordinates[j].loc for j in self._gauss])
        self._scale = np.array([gen.coordinates[j].scale for j in self._gauss])
        self._gauss_const = -data.n * np.sum(0.5 * _LOG_2PI + np.log(self._scale))
        self._rest_gen = Generator([gen.coordinates[j] for j in self._rest]) if self._rest.size else None
        self._xc1 = np.vstack([xc, np.ones(data.n)])
        # one block's workspace, reused by every call: a fresh one would be
        # mapped anew, page by page, on each
        step = max(1, _BLOCK_DOUBLES // max(1, data.n * self._rest.size))
        self._work = np.empty((step, self._rest.size, data.n))
        if not self.has_cov_params:
            whiten, log_det_a = _whitening(prior.fixed_covariance[None])
            # z = (x - b) @ whiten: coordinate j is whitened by row j of whiten^T
            self._fixed = (whiten[0].T, log_det_a[0])

    def to_theta(self, phi: np.ndarray) -> np.ndarray:
        if not self.has_cov_params:
            return phi.copy()
        return np.concatenate([phi[..., : self.q], np.exp(phi[..., self.q:])], axis=-1)

    def from_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.has_cov_params:
            return theta.copy()
        return np.concatenate([theta[..., : self.q], np.log(theta[..., self.q:])], axis=-1)

    def log_likelihoods(self, thetas: np.ndarray) -> np.ndarray:
        """Log-likelihood of each row of an (m, n_params) stack."""
        q, n = self.q, self.data.n
        out = np.full(thetas.shape[0], -math.inf)
        if n == 0:
            return np.zeros_like(out)
        if self.has_cov_params:
            eps, sigma, omega_inv = thetas[:, q:].T
            live = np.flatnonzero((eps > 0.0) & (sigma > 0.0))
            ok, scale, u, h, log_det_a = cosine_kernel_whitening(
                q, eps[live], sigma[live], 1.0 / omega_inv[live])
            live, scale, u, log_det_a = live[ok], scale[ok], u[ok], log_det_a[ok]
            w = (u * h[ok, None, :]) @ np.swapaxes(u, 1, 2)
            w.reshape(-1, q * q)[:, ::q + 1] += scale[:, None]  # the diagonals
        else:
            w, log_det_a = self._fixed
            live = np.arange(thetas.shape[0])
        # row j of w whitens coordinate j: z = w Xc + shift
        shift = (w @ (self._mean - thetas[live, :q])[..., None])[..., 0]
        w_g = w[..., self._gauss, :]
        moments = w_g @ self._moments
        c = shift[:, self._gauss] - self._loc
        quad = np.sum(moments[..., :q] * w_g, axis=-1) + c * (2.0 * moments[..., q] + n * c)
        total = self._gauss_const - n * log_det_a - 0.5 * np.sum(quad / self._scale**2, axis=1)
        if self._rest_gen is not None:
            # the rows [W | W d] of the coordinates R, one per state
            rows = np.empty((live.size, self._rest.size, q + 1))
            rows[..., :q] = w[..., self._rest, :]
            rows[..., q] = shift[:, self._rest]
            step = self._work.shape[0]
            for lo in range(0, live.size, step):
                blk = rows[lo:lo + step]
                z = np.matmul(blk, self._xc1, out=self._work[:len(blk)])
                total[lo:lo + step] += self._rest_gen._total_log_density_in_place(z)
        out[live] = total
        out[~np.isfinite(out)] = -math.inf
        return out

    def log_densities(self, phis: np.ndarray) -> np.ndarray:
        """Log posterior of each row of an (m, dim) stack of states."""
        phis = np.asarray(phis, dtype=float)
        thetas = self.to_theta(phis)
        lp = self.prior.log_densities(thetas)
        if self.has_cov_params:
            lp += np.sum(phis[:, self.q:], axis=1)  # d theta / d phi = exp(phi)
        live = np.isfinite(lp)
        lp[live] += self.log_likelihoods(thetas[live])
        lp[~np.isfinite(lp)] = -math.inf
        return lp


def _profile_candidates(prior: ParamPrior, data: Dataset, gen: Generator) -> list:
    """Frequency-scan start candidates for the cosine-kernel posterior.

    For each omega on a coarse grid, (eps, sigma) come from a linear
    least-squares fit of the kernel to the sample covariance whitened by
    the known generator variances (the sample covariance estimates
    A C A, not the scatter parameter A^2); the caller scores the
    resulting parameter points under the actual posterior.
    """
    if data.n < 3 or prior.fixed_covariance is not None:
        return []
    q = prior.dimension
    s_cov = np.atleast_2d(np.cov(data.observations, rowvar=False)).reshape(q, q)
    sd = np.sqrt(gen.variances())
    s_cov = s_cov / np.outer(sd, sd)  # exact correction for diagonal scatter
    b = data.observations.mean(axis=0)
    eye = np.eye(q).ravel()
    out = []
    for omega in np.geomspace(0.3, 30.0, 40):
        cos_part = experiment_covariance(q, 1.0, 1.0, omega) - np.eye(q)
        design = np.column_stack([eye, cos_part.ravel()])
        coef, *_ = np.linalg.lstsq(design, s_cov.ravel(), rcond=None)
        sigma = min(max(float(coef[1]), 1e-3), 20.0)
        for eps in (1e-2, 1e-1, max(min(float(coef[0]), 5.0), 1e-3)):
            out.append(np.concatenate([b, [eps, sigma, 1.0 / omega]]))
    return out


def _basin_candidates(target: _TransformedTarget, rng: np.random.Generator) -> list:
    """Start states ranked by posterior, restricted to the dominant basin.

    Candidates are prior draws with the location block at the sample mean
    plus the frequency-scan points; only those within a fixed
    log-posterior window of the best are eligible, which keeps
    overdispersed starts off spurious modes.
    """
    prior, data = target.prior, target.data
    candidates = []
    for _ in range(8):
        theta = prior.sample(rng)
        theta[: prior.dimension] = data.observations.mean(axis=0)
        candidates.append(theta)
    candidates.extend(_profile_candidates(prior, data, target.gen))
    phis = target.from_theta(np.asarray(candidates))
    scores = target.log_densities(phis)
    order = np.argsort(-scores)
    return [phis[int(i)] for i in order if scores[i] >= scores[order[0]] - 20.0]


def _walker_seeds(target: _TransformedTarget, rng: np.random.Generator,
                  mcmc: McmcConfig, n: int) -> np.ndarray:
    """Overdispersed within-basin start states for an ensemble; prior
    draws when there are no data."""
    prior = target.prior
    dim = prior.n_params
    if target.data.n == 0:
        return np.asarray([target.from_theta(prior.sample(rng)) for _ in range(n)])
    eligible = _basin_candidates(target, rng)
    out = np.empty((n, dim))
    for i in range(n):
        base = eligible[(mcmc.init_rank + i) % len(eligible)]
        # 0.05 * 0.2 rounds to 0.010000000000000002, not 0.01: every start reads it
        out[i] = base + 0.05 * 0.2 * rng.normal(size=dim)
    return out


def _ensemble_sample(target: _TransformedTarget, k: int, mcmc: McmcConfig,
                     rng: np.random.Generator):
    """Affine-invariant stretch-move ensemble (red-black sweep update)."""
    dim = target.prior.n_params
    n_walk = max(2 * dim + 2, _MIN_WALKERS)  # even
    a = _STRETCH_A
    walkers = _walker_seeds(target, rng, mcmc, n_walk)
    lps = target.log_densities(walkers)
    bad = ~np.isfinite(lps)
    if np.any(bad):
        best = int(np.argmax(lps))
        walkers[bad] = walkers[best] + 1e-3 * rng.normal(size=(int(bad.sum()), dim))
        lps[bad] = target.log_densities(walkers[bad])

    halves = (np.arange(n_walk) < n_walk // 2, np.arange(n_walk) >= n_walk // 2)
    n_snapshots = -(-k // n_walk)  # ceil
    total_sweeps = mcmc.burn_sweeps + n_snapshots * mcmc.thin_sweeps
    draws = np.empty((n_snapshots * n_walk, dim))
    logps = np.empty(n_snapshots * n_walk)
    accepted = 0
    filled = 0

    def _fit_gaussian(states):
        mean = states.mean(axis=0)
        cov = np.cov(states.T) * 1.5 + 1e-12 * np.eye(dim)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            return None
        inv_chol = np.linalg.inv(chol)
        logdet = float(np.sum(np.log(np.diag(chol))))
        return mean, chol, inv_chol, logdet

    def _log_q(fit, x):
        z = (x - fit[0]) @ fit[2].T
        return -0.5 * np.sum(z * z, axis=1) - fit[3]

    for sweep in range(1, total_sweeps + 1):
        # periodic independence moves against a Gaussian fitted to the
        # complementary half decorrelate the ensemble's collective drift
        independence = sweep > 2 * _ADAPT_WINDOW and sweep % 3 == 0
        for half, other in (halves, halves[::-1]):
            idx = np.where(half)[0]
            partners = np.where(other)[0]
            fit = _fit_gaussian(walkers[partners]) if independence else None
            picks = partners[rng.integers(partners.size, size=idx.size)]
            z = (1.0 + (a - 1.0) * rng.uniform(size=idx.size)) ** 2 / a
            log_u = np.log(rng.uniform(1e-300, 1.0, size=idx.size))
            current = walkers[idx]
            if fit is not None:
                # row i is the i-th walker's draw of the per-walker order
                proposals = fit[0] + rng.normal(size=(idx.size, dim)) @ fit[1].T
                log_hastings = _log_q(fit, current) - _log_q(fit, proposals)
            else:
                proposals = walkers[picks] + z[:, None] * (current - walkers[picks])
                log_hastings = (dim - 1) * np.log(z)
            # every proposal depends only on the other half: one batch
            with np.errstate(over="ignore", invalid="ignore"):
                lp_new = target.log_densities(proposals)
                take = log_u < log_hastings + lp_new - lps[idx]
            walkers[idx[take]] = proposals[take]
            lps[idx[take]] = lp_new[take]
            accepted += int(np.count_nonzero(take))
        if sweep > mcmc.burn_sweeps and (sweep - mcmc.burn_sweeps) % mcmc.thin_sweeps == 0:
            draws[filled:filled + n_walk] = walkers
            logps[filled:filled + n_walk] = lps
            filled += n_walk

    rate = accepted / (total_sweeps * n_walk)
    return draws[:k], logps[:k], rate


def metropolis_sample(
    prior: ParamPrior,
    data: Dataset,
    k: int,
    mcmc: Optional[McmcConfig] = None,
    rng: Optional[np.random.Generator] = None,
    gen: Optional[Generator] = None,
) -> PosteriorChain:
    """k approximately independent posterior draws from the ensemble
    sampler, after ``mcmc.burn_sweeps`` sweeps and thinned to every
    ``mcmc.thin_sweeps``-th sweep.

    An acceptance rate outside [0.05, 0.8] triggers a diagnostic
    warning, not a failure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mcmc = mcmc or McmcConfig()
    rng = rng if rng is not None else np.random.default_rng()
    gen = gen or Generator.standard_normal(prior.dimension)

    target = _TransformedTarget(prior, data, gen)
    draws_phi, logps, rate = _ensemble_sample(target, k, mcmc, rng)
    lo, hi = _WARN_ACCEPT_RANGE
    if not lo <= rate <= hi:
        warnings.warn(f"ensemble acceptance rate {rate:.3f} outside [{lo}, {hi}]",
                      RuntimeWarning, stacklevel=2)
    rate = min(max(rate, 1e-12), 1.0 - 1e-12)
    return PosteriorChain(target.to_theta(draws_phi), logps, rate)


def posterior_models(chain: PosteriorChain, gen: Generator,
                     prior: Optional[ParamPrior] = None) -> ModelDistribution:
    """Uniform empirical measure over the models indexed by the chain.

    Every scatter root is taken in one pass: the closed form of
    ``cosine_kernel_roots`` for the cosine-kernel prior, one shared
    ``sqrtm_psd`` for a fixed covariance. The roots are validated as one
    stack, by the constructor's rules. Draws out of the parameter domain,
    or whose root fails those rules, are dropped with a warning that
    counts them.
    """
    if len(chain) == 0:
        raise ValueError("chain is empty")
    q = gen.dimension
    if prior is None:
        if chain.draws.shape[1] != q + 3:
            raise ValueError("pass the prior used to build a fixed-covariance chain")
        prior = ParamPrior(q)
    draws = chain.draws
    roots = np.full((len(draws), q, q), np.nan)
    if prior.fixed_covariance is None:
        eps, sigma, omega_inv = draws[:, q:].T
        with np.errstate(divide="ignore"):
            omega = 1.0 / omega_inv
        live = np.isfinite(draws[:, q:]).all(axis=1) & np.isfinite(omega)
        live &= (eps > 0.0) & (sigma > 0.0)
        roots[live] = cosine_kernel_roots(q, eps[live], sigma[live], omega[live])
    else:
        roots[:] = sqrtm_psd(prior.fixed_covariance)
    models = LocationScatterModel._from_stack(gen, draws[:, :q], roots)
    rejected = len(draws) - len(models)
    if rejected:
        warnings.warn(f"{rejected} draws produced non-PD covariances and were dropped",
                      RuntimeWarning, stacklevel=2)
    if not models:
        raise ValueError("all chain draws were rejected")
    return ModelDistribution(support=models)


# ---------------------------------------------------------------------------
# The model average
# ---------------------------------------------------------------------------


class MixtureModel:
    """Posterior mixture: weighted vertical average of model densities."""

    __slots__ = ("components", "weights")

    def __init__(self, components: Sequence, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(components) or np.any(weights < 0.0):
            raise ValueError("weights must be a nonnegative vector matching components")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.components = tuple(components)
        self.weights = weights

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, self.dimension))
        for j in np.unique(idx):
            mask = idx == j
            out[mask] = self.components[j].sample(int(mask.sum()), rng)
        return out

    def mean(self) -> np.ndarray:
        out = self.weights[0] * self.components[0].mean()
        for w, comp in zip(self.weights[1:], self.components[1:]):
            out = out + w * comp.mean()
        return out

    def second_moment(self) -> float:
        return float(sum(w * c.second_moment() for w, c in zip(self.weights, self.components)))

    def covariance(self) -> np.ndarray:
        mu = self.mean()
        out = np.zeros((self.dimension, self.dimension))
        for w, comp in zip(self.weights, self.components):
            cm = comp.mean()
            out += w * (comp.covariance() + np.outer(cm, cm))
        return out - np.outer(mu, mu)


def model_average(dist: ModelDistribution) -> MixtureModel:
    """Bayesian model average of a finite distribution over models."""
    if not dist.is_finite:
        raise ValueError("model_average requires finite support")
    return MixtureModel(dist.support, dist.weights)


# ---------------------------------------------------------------------------
# The barycenter estimator
# ---------------------------------------------------------------------------


@dataclass
class BwbConfig:
    """Estimator assembly settings.

    ``mode='empirical'`` computes the barycenter of k posterior draws by
    plain fixed-point descent (unit steps, the default ``StopRule``);
    ``mode='sgd'`` streams ``iterations * batch_size`` chain draws through
    batch stochastic descent with steps 1/t, and ``multistart_check``
    repeats that descent from a second start and reports the gap.
    """

    k: int = 500
    mode: str = "empirical"  # or "sgd"
    iterations: int = 200
    batch_size: int = 10
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    multistart_check: bool = False


@dataclass
class BwbDiagnostics:
    residual: float
    trace: DescentTrace
    acceptance_rate: float
    converged: bool
    n_models: int
    multistart_gap: Optional[float] = None


def bwb_estimator(
    prior: ParamPrior,
    data: Dataset,
    cfg: Optional[BwbConfig] = None,
    rng: Optional[np.random.Generator] = None,
    gen: Optional[Generator] = None,
):
    """Posterior barycenter model plus convergence diagnostics.

    Samples the posterior over models, then minimizes the average squared
    transport cost over the family, by deterministic descent on the
    empirical posterior or by batch stochastic descent on the draw
    stream. Returns ``(model, BwbDiagnostics)``.
    """
    cfg = cfg or BwbConfig()
    if cfg.mode not in ("empirical", "sgd"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    rng = rng if rng is not None else np.random.default_rng()
    gen = gen or Generator.standard_normal(prior.dimension)

    need = cfg.k if cfg.mode == "empirical" else cfg.iterations * cfg.batch_size + 64
    chain = metropolis_sample(prior, data, need, cfg.mcmc, rng, gen)
    dist = posterior_models(chain, gen, prior)

    gap = None
    if cfg.mode == "empirical":
        model, trace = empirical_barycenter(dist)
    else:
        models = dist.support
        cursor = {"i": 0}

        def stream(_rng):
            m = models[cursor["i"] % len(models)]
            cursor["i"] += 1
            return m

        stream_dist = ModelDistribution.from_sampler(stream)
        steps = StepSchedule.harmonic()
        model, trace = population_barycenter(
            stream_dist, steps, cfg.iterations, cfg.batch_size, models[0], rng, trace_every=0)
        if cfg.multistart_check:
            cursor["i"] = 1
            model2, _ = population_barycenter(
                stream_dist, steps, cfg.iterations, cfg.batch_size, models[1], rng, trace_every=0)
            gap = transport.w2(model, model2)
            if gap > 0.1:
                warnings.warn(
                    f"two descent starts disagree by W2 = {gap:.3f}; "
                    "the fixed point may not be unique", RuntimeWarning, stacklevel=2)

    residual = fixed_point_residual(model, dist)
    diag = BwbDiagnostics(
        residual=residual,
        trace=trace,
        acceptance_rate=chain.acceptance_rate,
        converged=trace.converged,
        n_models=len(dist.support),
        multistart_gap=gap,
    )
    return model, diag
