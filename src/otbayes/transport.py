"""Closed-form optimal transport maps and Wasserstein distances.

One executable map type per family: monotone rearrangements on the line,
coordinatewise maps under a shared copula, radial maps for spherically
reprofiled models, and symmetric-PSD affine maps for scatter-location
models. An exact discrete solver (assignment for uniform weights, LP for
general weights, merge scan in one dimension) covers empirical clouds.

The family table at the end holds one row per family; :func:`family` is
the one place that decides a model's family and checks models against
each other.

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
from .linalg import check_symmetric, inv_psd, sqrtm_psd
from .measures import (
    CopulaModel,
    DiscreteMeasure,
    LocationScatterModel,
    RadialProfile,
    SphericalModel,
    UnivariateModel,
    default_levels,
    gauss_legendre,
    mix_quantiles,
)

DEFAULT_ASSIGNMENT_CAP = 512
LP_VARIABLE_CAP = 100_000

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
        matrix = check_symmetric(matrix, name="affine map matrix")
        if np.linalg.eigvalsh(matrix)[0] < -1e-10:
            raise ValueError("affine map matrix must be PSD")
        self.matrix = matrix
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
# Scatter-location, copula and spherical maps and distances
# ---------------------------------------------------------------------------


def ls_map_matrix(a1_inv: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Linear part ``A1^{-1} C A1^{-1}`` of the optimal affine map out of
    ``L(A1 x + b1)``, from ``A1^{-1}`` and the cross term
    ``C = (A1 S2 A1)^{1/2}``; a weighted sum of cross terms gives the
    weighted average of the maps."""
    m = a1_inv @ cross @ a1_inv
    return 0.5 * (m + m.T)


def ot_map_ls(m1: LocationScatterModel, m2: LocationScatterModel) -> AffinePSDMap:
    """Symmetric affine map between scatter-location models with one
    generator; :func:`w2_ls` says when it is optimal."""
    family(m1, m2)
    return AffinePSDMap(LsCrossTerms(m1, [m2], [1.0]).map_matrix, m1.location, m2.location)


def w2_ls(m1: LocationScatterModel, m2: LocationScatterModel) -> float:
    """``d^2 = |b1 - b2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})``
    in the scatter parameters.

    The symmetric map of :func:`ot_map_ls` sends ``L(A1 X + b1)`` to
    ``L(A2 R X + b2)`` with R orthogonal. So d is W2 only when the shared
    generator is rotation-invariant (Gaussian) or the scatters commute.
    Otherwise it is the Gelbrich lower bound in the scatter parameters
    (Gelbrich 1990, Math. Nachr. 147), and for a generator that is not
    standardized a parameter-space distance.
    """
    family(m1, m2)
    return math.sqrt(LsCrossTerms(m1, [m2], [1.0]).w2_sq()[0])


def ot_map_copula(m1: CopulaModel, m2: CopulaModel) -> CoordinatewiseMap:
    """Coordinatewise monotone rearrangement of the marginals.

    Only valid when both models carry the same copula; then the total cost
    splits as the sum of marginal costs.
    """
    family(m1, m2)
    maps = tuple(
        ot_map_univariate(a, b) for a, b in zip(m1.marginals, m2.marginals)
    )
    return CoordinatewiseMap(maps)


def wp_copula(m1: CopulaModel, m2: CopulaModel, p: float = 2.0) -> float:
    family(m1, m2)
    total = math.fsum(
        wp_univariate(a, b, p) ** p for a, b in zip(m1.marginals, m2.marginals)
    )
    return total ** (1.0 / p)


def ot_map_spherical(m1: SphericalModel, m2: SphericalModel) -> RadialMap:
    """Radial map with profile alpha2 o alpha1^{-1}.

    Flat segments of alpha1 are merged (1e-12 tolerance) before inversion;
    a profile flat over the whole support is rejected.
    """
    family(m1, m2)
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
    family(m1, m2)
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


def _column_potential(src: DiscreteMeasure, dst: DiscreteMeasure) -> np.ndarray:
    """Column dual of the squared-distance assignment read off the optimal
    affine map between the clouds' moment-matched Gaussians (zeros when a
    scatter is singular).

    Subtracting any per-column constant leaves the optimal assignment
    unchanged; a near-optimal one ends linear_sum_assignment's augmenting
    paths after a few steps instead of hundreds on clustered clouds."""
    x, y = src.points, dst.points
    zeros = np.zeros(dst.size)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return zeros
    vals, vecs = np.linalg.eigh(np.atleast_2d(np.cov(y, rowvar=False, ddof=0)))
    if not vals[0] > 1e-9 * vals[-1]:
        return zeros
    root = (vecs * np.sqrt(vals)) @ vecs.T
    cvals, cvecs = np.linalg.eigh(root @ np.atleast_2d(np.cov(x, rowvar=False, ddof=0)) @ root)
    cross = (cvecs * np.sqrt(np.maximum(cvals, 0.0))) @ cvecs.T
    # symmetric matrix of the Gaussian map from dst back to src
    back = ls_map_matrix((vecs / np.sqrt(vals)) @ vecs.T, cross)
    d = y - y.mean(axis=0)
    return (np.einsum("ij,ij->i", y, y) - np.einsum("ij,jk,ik->i", d, back, d)
            - 2.0 * (y @ x.mean(axis=0)))


def _assignment_plan(src: DiscreteMeasure, dst: DiscreteMeasure, p: float):
    cost_mat = _cost_matrix(src, dst, p)
    shifted = cost_mat - _column_potential(src, dst) if p == 2.0 else cost_mat
    rows, cols = linear_sum_assignment(shifted)
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


def discrete_ot(
    src: DiscreteMeasure,
    dst: DiscreteMeasure,
    p: float = 2.0,
    *,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
):
    """Exact optimal coupling between two point clouds.

    Returns ``(CouplingPlan, distance)`` with ``distance = cost**(1/p)``.
    One-dimensional instances use the sorted merge scan, uniform same-size
    clouds exact assignment (at most ``assignment_cap`` points), anything
    else the transportation LP (at most ``LP_VARIABLE_CAP`` variables); an
    instance past its cap raises :class:`SizeCapError`.
    """
    if p < 1.0:
        raise ValueError("order p must be >= 1")
    if src.dimension != dst.dimension:
        raise ValueError("point clouds must share a dimension")

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
            if src.size * dst.size > LP_VARIABLE_CAP:
                raise SizeCapError(
                    f"LP instance with {src.size * dst.size} variables exceeds cap "
                    f"{LP_VARIABLE_CAP}; subsample the clouds"
                )
            plan, cost = _lp_plan(src, dst, p)

    return CouplingPlan(src, dst, plan), max(cost, 0.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# The family table: one row per model family
# ---------------------------------------------------------------------------


class FamilyRow:
    """A family's row: its ``model_type``, the ``key`` its models share
    and the closed-form pair ``w2`` / ``ot_map``. Over an iterate ``mu``
    and ``models`` (``weights`` uniform when None) it gives the per-model
    squared distances, the ``step(gamma)``, the squared norm of the
    averaged displacement, the fixed-point residual, the averaged map
    and the uniform average map of any batch of the models, without
    checking the models: :func:`family` does that."""

    model_type: type
    shared = ""  # what the key holds, for the compatibility error
    key = staticmethod(lambda m: None)

    def __init__(self, mu, models: Sequence, weights=None):
        self.mu = mu
        self.models = models
        self.weights = (np.full(len(models), 1.0 / len(models)) if weights is None
                        else np.asarray(weights, dtype=float))

    def w2_sq(self) -> np.ndarray:
        """Per-model ``W_2(mu, m)^2``."""
        return np.array([self.w2(self.mu, m) ** 2 for m in self.models])

    def residual(self) -> float:
        """L2(mu) norm of the averaged displacement."""
        return math.sqrt(max(self.grad_norm_sq(), 0.0))

    @cached_property
    def maps(self) -> list:
        """Per-model optimal maps out of ``mu``."""
        return [self.ot_map(self.mu, m) for m in self.models]

    def averaged_map(self) -> TransportMap:
        """``x -> sum_m w_m T_m(x)``, pointwise."""
        return ConvexCombinationMap(self.weights, self.maps)

    def batch_map(self, index) -> TransportMap:
        """The averaged map of the batch ``[models[i] for i in index]``
        with uniform weights, repeats counted, as a row over that batch
        would give it."""
        return ConvexCombinationMap(np.full(len(index), 1.0 / len(index)),
                                    [self.maps[i] for i in index])


class UnivariateRow(FamilyRow):
    """Models on the line: the step averages quantile functions."""

    model_type = UnivariateModel
    w2 = staticmethod(lambda m1, m2: wp_univariate(m1, m2, 2.0))
    ot_map = staticmethod(lambda m1, m2: ot_map_univariate(m1, m2))

    def step(self, gamma):
        coeffs = np.concatenate([[1.0 - gamma], gamma * self.weights])
        return mix_quantiles(coeffs, [self.mu, *self.models])

    def grad_norm_sq(self) -> float:
        u = default_levels(1024)
        qbar = np.zeros_like(u)
        for w, m in zip(self.weights, self.models):
            qbar += w * m.quantile(u)
        gap = qbar - self.mu.quantile(u)
        return float(np.mean(gap * gap))


class LsCrossTerms(FamilyRow):
    """Scatter-location models on one generator. For ``mu = L(A0 x + b0)``
    and models ``L(A_m x + b_m)`` with ``S_m = A_m^2``, the cross terms
    ``C_m = (A0 S_m A0)^{1/2}`` come from one stacked :func:`sqrtm_psd`
    over the (k, q, q) array of ``A0 S_m A0``, checked matrix by matrix.
    Distances, the averaged maps and the descent step all read that one
    result: ``roots`` holds the ``C_m``, ``cross_traces`` their traces and
    ``cross_mean`` the sum ``sum_m w_m C_m``.
    """

    model_type, shared = LocationScatterModel, "generator"
    key = staticmethod(lambda m: m.generator.spec_key())
    w2 = staticmethod(lambda m1, m2: w2_ls(m1, m2))
    ot_map = staticmethod(lambda m1, m2: ot_map_ls(m1, m2))

    def __init__(self, mu: LocationScatterModel, models: Sequence, weights=None):
        super().__init__(mu, models, weights)
        a0 = mu.scatter
        sq = np.stack([m.scatter_sq for m in models])
        self.sq_traces = np.trace(sq, axis1=1, axis2=2)
        self.roots = sqrtm_psd(np.matmul(a0 @ sq, a0, out=sq), name="cross term")
        self.locations = np.stack([m.location for m in models])
        self.cross_traces = np.trace(self.roots, axis1=1, axis2=2)

    @cached_property
    def cross_mean(self) -> np.ndarray:
        # summed model by model, in support order
        return np.sum(self.roots * self.weights[:, None, None], axis=0)

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

    def step(self, gamma):
        # A1^2 = A0^{-1} M^2 A0^{-1} with M = (1 - gamma) A0^2 + gamma sum lam C
        mu = self.mu
        mid = (1.0 - gamma) * mu.scatter_sq + gamma * self.cross_mean
        new_sq = self.scatter_inv @ mid @ mid @ self.scatter_inv
        new_sq = 0.5 * (new_sq + new_sq.T)
        b = (1.0 - gamma) * mu.location + gamma * self.mean_location
        return LocationScatterModel(mu.generator, b, sqrtm_psd(new_sq, name="updated scatter"))

    def grad_norm_sq(self) -> float:
        gap = self.map_matrix - np.eye(self.mu.dimension)
        shift = self.mean_location - self.mu.location
        return float(np.trace(gap @ self.mu.scatter_sq @ gap.T) + np.sum(shift * shift))

    def residual(self) -> float:
        """Frobenius gap ``|avg A - I|_F`` of the averaged linear parts."""
        return float(np.linalg.norm(self.map_matrix - np.eye(self.mu.dimension), ord="fro"))

    def averaged_map(self) -> TransportMap:
        """The maps share ``b1 = mu.location``: their average is one affine map."""
        return AffinePSDMap(self.map_matrix, self.mu.location, self.mean_location)

    def batch_map(self, index) -> TransportMap:
        """One affine map from the batch's cross terms, summed as
        ``cross_mean`` sums them, in batch order."""
        w = np.full(len(index), 1.0 / len(index))
        cross = np.sum(self.roots[index] * w[:, None, None], axis=0)
        return AffinePSDMap(ls_map_matrix(self.scatter_inv, cross), self.mu.location,
                            w @ self.locations[index])


class SphericalRow(FamilyRow):
    """Radial reprofilings of one generator: the step averages profiles."""

    model_type, shared = SphericalModel, "generator"
    key = staticmethod(lambda m: m.generator.spec_key())
    w2 = staticmethod(lambda m1, m2: w2_spherical(m1, m2))
    ot_map = staticmethod(lambda m1, m2: ot_map_spherical(m1, m2))

    def step(self, gamma):
        mu = self.mu
        radii = mu.alpha.radii
        for m in self.models:
            radii = np.union1d(radii, m.alpha.radii)
        vals = (1.0 - gamma) * mu.alpha(radii)
        for w, m in zip(self.weights, self.models):
            vals = vals + gamma * w * m.alpha(radii)
        return SphericalModel(mu.generator, RadialProfile(radii, vals))

    def grad_norm_sq(self) -> float:
        u = np.linspace(1e-4, 1.0 - 1e-4, 1024)
        r = self.mu.generator.radial_quantile(u)
        abar = np.zeros_like(r)
        for w, m in zip(self.weights, self.models):
            abar += w * m.alpha(r)
        gap = abar - self.mu.alpha(r)
        return float(np.mean(gap * gap))


class CopulaRow(FamilyRow):
    """Models of one copula and dimension: a univariate row per marginal."""

    model_type, shared = CopulaModel, "copula and dimension"
    key = staticmethod(lambda m: (m.copula.identifier(), m.dimension))
    w2 = staticmethod(lambda m1, m2: wp_copula(m1, m2, 2.0))
    ot_map = staticmethod(lambda m1, m2: ot_map_copula(m1, m2))

    def _marginal_rows(self):
        for j, mu_j in enumerate(self.mu.marginals):
            yield UnivariateRow(mu_j, [m.marginals[j] for m in self.models], self.weights)

    def step(self, gamma):
        return CopulaModel(self.mu.copula, [row.step(gamma) for row in self._marginal_rows()])

    def grad_norm_sq(self) -> float:
        return sum(row.grad_norm_sq() for row in self._marginal_rows())


FAMILIES = (UnivariateRow, LsCrossTerms, SphericalRow, CopulaRow)


def family(*models) -> type:
    """The row of the family all ``models`` share; :class:`CompatibilityError`
    for a model of no family, two families, or keys that differ."""
    first = models[0]
    for row in FAMILIES:
        if isinstance(first, row.model_type):
            break
    else:
        raise CompatibilityError(f"unsupported model type {type(first).__name__}")
    key = row.key(first)
    for m in models[1:]:
        if not isinstance(m, row.model_type):
            raise CompatibilityError(f"{type(m).__name__} is not a {row.model_type.__name__}")
        if row.key(m) != key:
            raise CompatibilityError(f"{row.model_type.__name__}s differ in {row.shared}")
    return row


def w2(m1, m2) -> float:
    """2-Wasserstein distance between models of one family, or between two
    point clouds by the exact discrete solver."""
    if isinstance(m1, DiscreteMeasure) and isinstance(m2, DiscreteMeasure):
        return discrete_ot(m1, m2, 2.0)[1]
    return family(m1, m2).w2(m1, m2)


def ot_map(m1, m2) -> TransportMap:
    """Optimal map between models of one family."""
    return family(m1, m2).ot_map(m1, m2)


def averaged_map(mu, models: Sequence, weights=None) -> TransportMap:
    """``x -> sum_m w_m T_m(x)`` with ``T_m`` the optimal map from mu to
    models[m], uniform weights when None."""
    return family(mu, *models)(mu, models, weights).averaged_map()
