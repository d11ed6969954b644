"""Closed-form optimal transport maps and Wasserstein distances.

One executable map type per family: monotone rearrangements on the line,
coordinatewise maps under a shared copula, radial maps for spherically
reprofiled models, and symmetric-PSD affine maps for scatter-location
models. An exact discrete solver (assignment for uniform weights, LP for
general weights, merge scan in one dimension) covers empirical clouds.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.integrate import tanhsinh
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.spatial.distance import cdist

from .errors import CompatibilityError, QuadratureError, SizeCapError
from .linalg import inv_psd, sqrtm_psd
from .measures import (
    CopulaModel,
    DiscreteMeasure,
    LocationScatterModel,
    RadialProfile,
    SphericalModel,
    UnivariateModel,
    gauss_legendre,
)

DEFAULT_ASSIGNMENT_CAP = 512
DEFAULT_LP_VARIABLE_CAP = 100_000

_U_LO = 1e-300


# ---------------------------------------------------------------------------
# Map types
# ---------------------------------------------------------------------------


class TransportMap:
    """Callable map x -> T(x); vectorized over leading axes."""

    def __call__(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(TransportMap):
    def __call__(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class MonotoneRearrangementMap(TransportMap):
    """T = Q_target o F_source on the line (nondecreasing by construction)."""

    source: UnivariateModel
    target: UnivariateModel

    def __call__(self, x):
        u = np.clip(self.source.cdf(x), 1e-15, 1.0 - 1e-15)
        return self.target.quantile(u)


@dataclass(frozen=True)
class CoordinatewiseMap(TransportMap):
    maps: tuple

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cols = [m(x[:, j]) for j, m in enumerate(self.maps)]
        return np.column_stack(cols)


@dataclass(frozen=True)
class RadialMap(TransportMap):
    """x -> profile(|x|) x / |x| with a nondecreasing profile."""

    profile: RadialProfile

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        r_safe = np.where(r == 0.0, 1.0, r)
        return (self.profile(r) / r_safe)[:, None] * x


class AffinePSDMap(TransportMap):
    """x -> A (x - b1) + b2 with A symmetric PSD within 1e-10."""

    __slots__ = ("matrix", "b1", "b2")

    def __init__(self, matrix, b1, b2):
        matrix = np.asarray(matrix, dtype=float)
        if not np.allclose(matrix, matrix.T, atol=1e-10, rtol=0.0):
            raise ValueError("affine map matrix must be symmetric within 1e-10")
        if np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0] < -1e-10:
            raise ValueError("affine map matrix must be PSD")
        self.matrix = 0.5 * (matrix + matrix.T)
        self.b1 = np.asarray(b1, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (x - self.b1) @ self.matrix + self.b2


class ConvexCombinationMap(TransportMap):
    """Pointwise convex combination of child maps (closure of each family)."""

    __slots__ = ("weights", "children")

    def __init__(self, weights, children: Sequence[TransportMap]):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("combination weights must be nonnegative and sum to 1")
        if weights.size != len(children):
            raise ValueError("one weight per child map is required")
        self.weights = weights
        self.children = tuple(children)

    def __call__(self, x):
        out = self.weights[0] * np.asarray(self.children[0](x), dtype=float)
        for w, child in zip(self.weights[1:], self.children[1:]):
            out = out + w * child(x)
        return out


@dataclass(frozen=True)
class CouplingPlan:
    """Sparse coupling between two discrete measures.

    Row sums must equal the source weights and column sums the target
    weights, each within 1e-9.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    plan: coo_matrix

    def __post_init__(self):
        plan = self.plan.tocoo()
        object.__setattr__(self, "plan", plan)
        if plan.shape != (self.source.size, self.target.size):
            raise ValueError("plan shape must be (source size, target size)")
        row = np.asarray(plan.sum(axis=1)).ravel()
        col = np.asarray(plan.sum(axis=0)).ravel()
        if np.max(np.abs(row - self.source.weights)) > 1e-9:
            raise ValueError("plan row sums do not match source weights within 1e-9")
        if np.max(np.abs(col - self.target.weights)) > 1e-9:
            raise ValueError("plan column sums do not match target weights within 1e-9")

    def cost(self, p: float = 2.0) -> float:
        plan = self.plan
        d = np.linalg.norm(
            self.source.points[plan.row] - self.target.points[plan.col], axis=1
        )
        return float(math.fsum(plan.data * d**p))

    def to_csv(self, path):
        """COO triplet export: one (row, col, mass) line per entry."""
        plan = self.plan
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("row,col,mass\n")
            for r, c, m in zip(plan.row, plan.col, plan.data):
                fh.write(f"{r},{c},{format(m, '.17g')}\n")


# ---------------------------------------------------------------------------
# Univariate maps and distances
# ---------------------------------------------------------------------------


def ot_map_univariate(src: UnivariateModel, dst: UnivariateModel) -> MonotoneRearrangementMap:
    """Monotone rearrangement Q_dst o F_src, optimal for every order p."""
    return MonotoneRearrangementMap(src, dst)


def _gauss_legendre_segments(f_vec, edges: np.ndarray, order: int = 12) -> float:
    nodes, weights = gauss_legendre(order)
    a = edges[:-1]
    h = np.diff(edges)
    u = (a[:, None] + 0.5 * h[:, None] * (nodes[None, :] + 1.0)).ravel()
    w = (0.5 * h[:, None] * weights[None, :]).ravel()
    return float(np.dot(w, f_vec(u)))


def wp_univariate(m1: UnivariateModel, m2: UnivariateModel, p: float = 2.0) -> float:
    """p-Wasserstein distance on the line via the quantile formula.

    ``W_p^p = integral_0^1 |Q_1(u) - Q_2(u)|^p du``. The lower tail is
    integrated in u over (0, a) and the upper tail in v = 1 - u over
    (0, b), through ``upper_quantile``, so both endpoint singularities sit
    at 0 where the levels keep full relative precision. Both tails go to
    one vectorized tanh-sinh call (Takahasi & Mori 1974), which evaluates
    every node of a level at once. Without breakpoints a = b = 1/2; grids
    contribute their knot levels as breakpoints, a is the first and b is 1
    minus the last, and the gap between them is integrated by 12-point
    Gauss-Legendre per segment. :class:`QuadratureError` is raised when
    the value is not finite, when a tail did not converge, or when the
    summed error estimate exceeds ``max(1e-9, 1e-6 |value|)``.
    """
    if p < 1.0:
        raise ValueError("order p must be >= 1")
    bp = np.unique(np.concatenate([m1.breakpoints(), m2.breakpoints()]))
    bp = bp[(bp > 0.0) & (bp < 1.0)]

    def tails(t, upper):
        # tanh-sinh may probe the endpoint 0 itself, with zero weight
        t = np.maximum(t, _U_LO)
        upper = np.broadcast_to(upper, t.shape) > 0.0
        lower = ~upper
        gap = np.empty_like(t)
        gap[lower] = m1.quantile(t[lower]) - m2.quantile(t[lower])
        gap[upper] = m1.upper_quantile(t[upper]) - m2.upper_quantile(t[upper])
        return np.abs(gap) ** p

    if bp.size == 0:
        ends, core = [0.5, 0.5], 0.0
    else:
        ends = [bp[0], 1.0 - bp[-1]]
        core = _gauss_legendre_segments(lambda u: tails(u, 0.0), bp) if bp.size > 1 else 0.0
    res = tanhsinh(tails, 0.0, ends, args=(np.array([0.0, 1.0]),), atol=1e-13, rtol=1e-11)
    val = core + float(np.sum(res.integral))
    err = float(np.sum(np.where(res.success, res.error, np.inf)))

    if not np.isfinite(val):
        raise QuadratureError("quantile integral did not converge", achieved_tolerance=err)
    if err > max(1e-9, 1e-6 * abs(val)):
        raise QuadratureError("quantile integral tolerance not reached", achieved_tolerance=err)
    return max(val, 0.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Scatter-location maps and distances
# ---------------------------------------------------------------------------


def _check_same_generator(m1, m2):
    if m1.generator.spec_key() != m2.generator.spec_key():
        raise CompatibilityError("models are built on different generators")


class LsCrossTerms:
    """Cross terms of one scatter-location model against k others.

    For ``mu = L(A0 x + b0)`` and models ``L(A_m x + b_m)`` with
    ``S_m = A_m^2``, the cross terms ``C_m = (A0 S_m A0)^{1/2}`` come from
    one stacked :func:`sqrtm_psd` over the (k, q, q) array of
    ``A0 S_m A0``, checked matrix by matrix. Distances, the averaged map
    and the descent step all read that one result: ``cross_traces`` holds
    ``tr C_m`` and ``cross_mean`` holds ``sum_m w_m C_m``.
    """

    def __init__(self, mu: LocationScatterModel, models: Sequence, weights):
        for m in models:
            if not isinstance(m, LocationScatterModel):
                raise CompatibilityError(f"{type(m).__name__} is not a scatter-location model")
            _check_same_generator(mu, m)
        a0 = mu.scatter
        sq = np.stack([m.scatter_sq for m in models])
        self.sq_traces = np.trace(sq, axis1=1, axis2=2)
        roots = sqrtm_psd(np.matmul(a0 @ sq, a0, out=sq), name="cross term")
        self.mu = mu
        self.weights = np.asarray(weights, dtype=float)
        self.locations = np.stack([m.location for m in models])
        self.cross_traces = np.trace(roots, axis1=1, axis2=2)
        # summed model by model, in support order
        roots *= self.weights[:, None, None]
        self.cross_mean = np.sum(roots, axis=0)

    def w2_sq(self) -> np.ndarray:
        """Per-model ``|b0 - b_m|^2 + tr(S0 + S_m - 2 C_m)``, floored at 0."""
        gap = self.locations - self.mu.location
        d2 = np.sum(gap * gap, axis=1)
        d2 += np.trace(self.mu.scatter_sq) + self.sq_traces - 2.0 * self.cross_traces
        return np.maximum(d2, 0.0)

    @cached_property
    def scatter_inv(self) -> np.ndarray:
        return inv_psd(self.mu.scatter)

    @cached_property
    def map_matrix(self) -> np.ndarray:
        """Linear part ``A0^{-1} (sum_m w_m C_m) A0^{-1}`` of the averaged map."""
        return ls_map_matrix(self.scatter_inv, self.cross_mean)

    @cached_property
    def mean_location(self) -> np.ndarray:
        return self.weights @ self.locations


def ls_map_matrix(a1_inv: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Linear part ``A1^{-1} C A1^{-1}`` of the optimal affine map out of
    ``L(A1 x + b1)``, from ``A1^{-1}`` and the cross term
    ``C = (A1 S2 A1)^{1/2}``; a weighted sum of cross terms gives the
    weighted average of the maps."""
    m = a1_inv @ cross @ a1_inv
    return 0.5 * (m + m.T)


def ot_map_ls(m1: LocationScatterModel, m2: LocationScatterModel) -> AffinePSDMap:
    """Optimal affine map between scatter-location models with one generator."""
    return AffinePSDMap(LsCrossTerms(m1, [m2], [1.0]).map_matrix, m1.location, m2.location)


def w2_ls(m1: LocationScatterModel, m2: LocationScatterModel) -> float:
    """2-Wasserstein distance between scatter-location models.

    ``W_2^2 = |b1 - b2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})``
    in the scatter parameters; exact when the shared generator is
    standardized, a documented parameter-space approximation otherwise.
    """
    return math.sqrt(LsCrossTerms(m1, [m2], [1.0]).w2_sq()[0])


# ---------------------------------------------------------------------------
# Copula and spherical families
# ---------------------------------------------------------------------------


def ot_map_copula(m1: CopulaModel, m2: CopulaModel) -> CoordinatewiseMap:
    """Coordinatewise monotone rearrangement of the marginals.

    Only valid when both models carry the same copula; then the total cost
    splits as the sum of marginal costs.
    """
    if m1.copula.identifier() != m2.copula.identifier():
        raise CompatibilityError("copula models do not share the same copula")
    if m1.dimension != m2.dimension:
        raise CompatibilityError("copula models have different dimensions")
    maps = tuple(
        ot_map_univariate(a, b) for a, b in zip(m1.marginals, m2.marginals)
    )
    return CoordinatewiseMap(maps)


def wp_copula(m1: CopulaModel, m2: CopulaModel, p: float = 2.0) -> float:
    if m1.copula.identifier() != m2.copula.identifier():
        raise CompatibilityError("copula models do not share the same copula")
    total = math.fsum(
        wp_univariate(a, b, p) ** p for a, b in zip(m1.marginals, m2.marginals)
    )
    return total ** (1.0 / p)


def ot_map_spherical(m1: SphericalModel, m2: SphericalModel) -> RadialMap:
    """Radial map with profile alpha2 o alpha1^{-1}.

    Flat segments of alpha1 are merged (1e-12 tolerance) before inversion;
    a profile flat over the whole support is rejected.
    """
    _check_same_generator(m1, m2)
    a1, a2 = m1.alpha, m2.alpha
    radii = np.unique(np.concatenate([a1.radii, a2.radii]))
    v1 = a1(radii)
    v2 = a2(radii)
    keep = np.concatenate([[True], np.diff(v1) > 1e-12])
    if keep.sum() < 2:
        raise ValueError("source profile is not invertible on the support")
    return RadialMap(RadialProfile(v1[keep], v2[keep]))


def w2_spherical(m1: SphericalModel, m2: SphericalModel) -> float:
    """L2 gap between profiles under the generator's radial law."""
    _check_same_generator(m1, m2)
    nodes, weights = gauss_legendre(512)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    lo, hi = 1e-6, 1.0 - 1e-6
    nodes = lo + (hi - lo) * nodes
    weights = (hi - lo) * weights
    r = m1.generator.radial_quantile(nodes)
    gap = m1.alpha(r) - m2.alpha(r)
    return math.sqrt(max(float(np.dot(weights, gap * gap)), 0.0))


# ---------------------------------------------------------------------------
# Exact discrete solver
# ---------------------------------------------------------------------------


def _monotone_1d_plan(src: DiscreteMeasure, dst: DiscreteMeasure, p: float):
    """Merge scan over sorted supports; optimal for convex costs on the line."""
    xo = np.argsort(src.points[:, 0], kind="stable")
    yo = np.argsort(dst.points[:, 0], kind="stable")
    xs, ys = src.points[xo, 0], dst.points[yo, 0]
    ws, wt = src.weights[xo].copy(), dst.weights[yo].copy()
    rows, cols, mass = [], [], []
    i = j = 0
    wi, wj = ws[0], wt[0]
    while True:
        m = min(wi, wj)
        if m > 0.0:
            rows.append(xo[i])
            cols.append(yo[j])
            mass.append(m)
        wi -= m
        wj -= m
        if wi <= 1e-17:
            i += 1
            if i == xs.size:
                break
            wi = ws[i]
        if wj <= 1e-17:
            j += 1
            if j == ys.size:
                break
            wj = wt[j]
    plan = coo_matrix((mass, (rows, cols)), shape=(src.size, dst.size))
    terms = [m * abs(src.points[r, 0] - dst.points[c, 0]) ** p
             for r, c, m in zip(rows, cols, mass)]
    return plan, math.fsum(terms)


def _cost_matrix(src: DiscreteMeasure, dst: DiscreteMeasure, p: float) -> np.ndarray:
    """|x_i - y_j|^p without an (n, m, q) difference array."""
    return cdist(src.points, dst.points) ** p


def _assignment_plan(src: DiscreteMeasure, dst: DiscreteMeasure, p: float):
    cost_mat = _cost_matrix(src, dst, p)
    rows, cols = linear_sum_assignment(cost_mat)
    n = src.size
    plan = coo_matrix((np.full(n, 1.0 / n), (rows, cols)), shape=(n, n))
    return plan, math.fsum(cost_mat[rows, cols] / n)


def _lp_plan(src: DiscreteMeasure, dst: DiscreteMeasure, p: float):
    n, m = src.size, dst.size
    c = _cost_matrix(src, dst, p).ravel()
    # marginal constraints; the last column constraint is redundant and dropped
    rows = []
    for i in range(n):
        idx = np.arange(i * m, (i + 1) * m)
        rows.append((np.full(m, i), idx))
    for j in range(m - 1):
        idx = np.arange(j, n * m, m)
        rows.append((np.full(n, n + j), idx))
    r = np.concatenate([a for a, _ in rows])
    ccol = np.concatenate([b for _, b in rows])
    a_eq = csr_matrix((np.ones(r.size), (r, ccol)), shape=(n + m - 1, n * m))
    b_eq = np.concatenate([src.weights, dst.weights[:-1]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"exact LP solve failed: {res.message}")
    plan_dense = np.maximum(res.x.reshape(n, m), 0.0)
    plan_dense[plan_dense < 1e-15] = 0.0
    plan = coo_matrix(plan_dense)
    return plan, math.fsum(c[res.x > 1e-15] * res.x[res.x > 1e-15])


def _sinkhorn_plan(src: DiscreteMeasure, dst: DiscreteMeasure, p: float,
                   reg: float, max_iter: int = 5000, tol: float = 1e-11):
    """Log-domain entropic solver; biased but scales past the exact caps."""
    cost = _cost_matrix(src, dst, p)
    log_a = np.log(src.weights)
    log_b = np.log(dst.weights)
    kern = -cost / reg
    f = np.zeros(src.size)
    g = np.zeros(dst.size)
    from scipy.special import logsumexp

    for _ in range(max_iter):
        f_new = log_a - logsumexp(kern + g[None, :], axis=1)
        g_new = log_b - logsumexp(kern + f_new[:, None], axis=0)
        gap = np.max(np.abs(f_new - f)) if np.all(np.isfinite(f_new)) else np.inf
        f, g = f_new, g_new
        if gap < tol:
            break
    plan = np.exp(kern + f[:, None] + g[None, :])
    # round onto the transport polytope: cap row/column scalings at one,
    # then repair the residual with a rank-one correction
    row_scale = np.minimum(src.weights / np.maximum(plan.sum(axis=1), 1e-300), 1.0)
    plan = plan * row_scale[:, None]
    col_scale = np.minimum(dst.weights / np.maximum(plan.sum(axis=0), 1e-300), 1.0)
    plan = plan * col_scale[None, :]
    err_r = src.weights - plan.sum(axis=1)
    err_c = dst.weights - plan.sum(axis=0)
    mass = err_r.sum()
    if mass > 1e-300:
        plan = plan + np.outer(err_r, err_c) / mass
    total = math.fsum((plan * cost).ravel())
    return coo_matrix(plan), total


def discrete_ot(
    src: DiscreteMeasure,
    dst: DiscreteMeasure,
    p: float = 2.0,
    *,
    method: str = "exact",
    reg: float = 0.05,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    lp_variable_cap: int = DEFAULT_LP_VARIABLE_CAP,
):
    """Optimal coupling between two point clouds.

    Returns ``(CouplingPlan, distance)`` with ``distance = cost**(1/p)``.
    With ``method='exact'`` (default), one-dimensional instances use the
    sorted merge scan, uniform same-size clouds exact assignment (cap
    ``assignment_cap`` points), anything else the transportation LP (cap
    ``lp_variable_cap`` variables); caps exceeded raise
    :class:`SizeCapError` suggesting subsampling. ``method='sinkhorn'``
    opts into the entropy-regularized solver (strength ``reg``) for
    clouds past the exact caps; its cost is biased upward by the
    regularization and is never used where exactness matters.
    """
    if p < 1.0:
        raise ValueError("order p must be >= 1")
    if src.dimension != dst.dimension:
        raise ValueError("point clouds must share a dimension")
    if method == "sinkhorn":
        if reg <= 0.0:
            raise ValueError("reg must be positive")
        plan, cost = _sinkhorn_plan(src, dst, p, reg)
        return CouplingPlan(src, dst, plan), max(cost, 0.0) ** (1.0 / p)
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")

    if src.dimension == 1:
        plan, cost = _monotone_1d_plan(src, dst, p)
    else:
        uniform = (
            src.size == dst.size
            and np.allclose(src.weights, 1.0 / src.size, atol=1e-15)
            and np.allclose(dst.weights, 1.0 / dst.size, atol=1e-15)
        )
        if uniform:
            if src.size > assignment_cap:
                raise SizeCapError(
                    f"assignment instance of size {src.size} exceeds cap {assignment_cap}; "
                    "subsample the clouds or raise assignment_cap"
                )
            plan, cost = _assignment_plan(src, dst, p)
        else:
            if src.size * dst.size > lp_variable_cap:
                raise SizeCapError(
                    f"LP instance with {src.size * dst.size} variables exceeds cap "
                    f"{lp_variable_cap}; subsample the clouds or raise lp_variable_cap"
                )
            plan, cost = _lp_plan(src, dst, p)

    return CouplingPlan(src, dst, plan), max(cost, 0.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Family dispatch used by the descent layer
# ---------------------------------------------------------------------------


def w2(m1, m2) -> float:
    """2-Wasserstein distance dispatched on the model family."""
    if isinstance(m1, UnivariateModel) and isinstance(m2, UnivariateModel):
        return wp_univariate(m1, m2, 2.0)
    if isinstance(m1, LocationScatterModel) and isinstance(m2, LocationScatterModel):
        return w2_ls(m1, m2)
    if isinstance(m1, CopulaModel) and isinstance(m2, CopulaModel):
        return wp_copula(m1, m2, 2.0)
    if isinstance(m1, SphericalModel) and isinstance(m2, SphericalModel):
        return w2_spherical(m1, m2)
    if isinstance(m1, DiscreteMeasure) and isinstance(m2, DiscreteMeasure):
        return discrete_ot(m1, m2, 2.0)[1]
    raise CompatibilityError(
        f"no closed-form distance between {type(m1).__name__} and {type(m2).__name__}"
    )


def ot_map(m1, m2) -> TransportMap:
    """Optimal map dispatched on the model family."""
    if isinstance(m1, UnivariateModel) and isinstance(m2, UnivariateModel):
        return ot_map_univariate(m1, m2)
    if isinstance(m1, LocationScatterModel) and isinstance(m2, LocationScatterModel):
        return ot_map_ls(m1, m2)
    if isinstance(m1, CopulaModel) and isinstance(m2, CopulaModel):
        return ot_map_copula(m1, m2)
    if isinstance(m1, SphericalModel) and isinstance(m2, SphericalModel):
        return ot_map_spherical(m1, m2)
    raise CompatibilityError(
        f"no closed-form map between {type(m1).__name__} and {type(m2).__name__}"
    )


def averaged_map(mu, models: Sequence, weights) -> TransportMap:
    """``x -> sum_m w_m T_m(x)`` with ``T_m`` the optimal map from mu to models[m].

    Scatter-location maps share ``b1 = mu.location``, so their average is one
    affine map read from a single :class:`LsCrossTerms`; other families get
    the pointwise :class:`ConvexCombinationMap` of their maps.
    """
    if isinstance(mu, LocationScatterModel):
        cross = LsCrossTerms(mu, models, weights)
        return AffinePSDMap(cross.map_matrix, mu.location, cross.mean_location)
    return ConvexCombinationMap(weights, [ot_map(mu, m) for m in models])
