"""Closed-form optimal transport maps and 2-Wasserstein distances.

One executable map type per family: monotone rearrangements on the line,
coordinatewise maps under a shared copula, radial maps for spherically
reprofiled models, and symmetric-PSD affine maps for scatter-location
models. An exact discrete solver (assignment for uniform weights, LP for
general weights, merge scan in one dimension) covers empirical clouds.

The family table at the end holds one row per family, and each row holds
its family's closed forms; :func:`family` is the one place that decides
a model's family and checks models against each other. A row takes the
distances from its iterate to all its models in one stacked evaluation:
one stacked root for scatter-location models; for the other families
one tanh-sinh call over the tails of every univariate pair (every
marginal's, for copulas) or the radial nodes once for spherical models,
which also covers the iterate's image under the averaged map, whose
distance is the norm of the averaged displacement.

Model distances are W2 only. The public entry points are :func:`w2`,
:func:`ot_map` and :func:`averaged_map`, which check their models once
and read one row; :func:`w2_ls`, the scatter-location distance in the
scatter parameters (its docstring says when that is W2);
:func:`wp_univariate`, the quantile integral of one pair on the line;
and :func:`discrete_ot` for point clouds, which with its
:class:`CouplingPlan` alone takes an order p.

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
from .linalg import check_symmetric, negative_beyond_rounding, sqrtm_inv_psd, sqrtm_psd
from .measures import (
    CopulaModel,
    DiscreteMeasure,
    LocationScatterModel,
    RadialProfile,
    SphericalModel,
    UnivariateModel,
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
    """x -> A (x - b1) + b2 with A symmetric PSD: no eigenvalue negative
    beyond rounding at A's scale (:func:`linalg.negative_beyond_rounding`)."""

    __slots__ = ("matrix", "b1", "b2")

    def __init__(self, matrix, b1, b2):
        matrix = check_symmetric(matrix, name="affine map matrix")
        vals = np.linalg.eigvalsh(matrix)
        if negative_beyond_rounding(vals[0], vals[-1]):
            raise ValueError("affine map matrix must be PSD")
        self.matrix = matrix
        self.b1 = np.asarray(b1, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)

    @classmethod
    def _built(cls, matrix, b1, b2):
        """A map from a matrix that is symmetric PSD by construction (an
        :func:`ls_map_matrix`) and float locations, without checking them."""
        out = object.__new__(cls)
        out.matrix, out.b1, out.b2 = matrix, b1, b2
        return out

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


# ---------------------------------------------------------------------------
# Univariate distance
# ---------------------------------------------------------------------------


def _gauss_legendre_segments(f_vec, edges: np.ndarray, order: int = 12) -> float:
    nodes, weights = gauss_legendre(order)
    a = edges[:-1]
    h = np.diff(edges)
    u = (a[:, None] + 0.5 * h[:, None] * (nodes[None, :] + 1.0)).ravel()
    w = (0.5 * h[:, None] * weights[None, :]).ravel()
    return float(np.dot(w, f_vec(u)))


def _w2_sq(pairs: Sequence) -> np.ndarray:
    """``W_2^2`` of each univariate pair ``(m1, m2)`` by the quantile formula.

    ``W_2^2 = integral_0^1 (Q_1(u) - Q_2(u))^2 du``, smooth where the
    quantile functions cross. The lower tail is
    integrated in u over (0, a) and the upper tail in v = 1 - u over
    (0, b), through ``upper_quantile``, so both endpoint singularities sit
    at 0 where the levels keep full relative precision. The tails of all
    pairs go to one vectorized tanh-sinh call (Takahasi & Mori 1974),
    which evaluates every node of a level at once, each distinct model's
    quantile in one call. Without breakpoints a = b = 1/2; grids
    contribute their knot levels as breakpoints, a is a pair's first and
    b is 1 minus its last, and the gap between them is integrated by
    12-point Gauss-Legendre per segment. Pair by pair, in order,
    :class:`QuadratureError` is raised when the value is not finite, when
    a tail did not converge, or when the summed error estimate exceeds
    ``max(1e-9, 1e-6 |value|)``.
    """
    first: dict = {}
    index = np.array([[first.setdefault(id(m), len(first)) for m in pair] for pair in pairs])
    models = list({id(m): m for pair in pairs for m in pair}.values())
    ends = np.full((len(pairs), 2), 0.5)
    core = np.zeros(len(pairs))
    for i, (m1, m2) in enumerate(pairs):
        bp = np.unique(np.concatenate([m1.breakpoints(), m2.breakpoints()]))
        bp = bp[(bp > 0.0) & (bp < 1.0)]
        if bp.size:
            ends[i] = bp[0], 1.0 - bp[-1]
        if bp.size > 1:
            core[i] = _gauss_legendre_segments(
                lambda u: (m1.quantile(u) - m2.quantile(u)) ** 2, bp)

    def tails(t, a, b, upper):
        # one row of t per tail; tanh-sinh may probe the endpoint 0
        # itself, with zero weight
        shape = t.shape
        a, b, upper = a.ravel(), b.ravel(), upper.ravel()
        t = np.maximum(t, _U_LO).reshape(a.size, -1)
        qa, qb = np.empty_like(t), np.empty_like(t)
        for j in np.unique(np.concatenate([a, b])):
            for up in (0, 1):
                on_a, on_b = (a == j) & (upper == up), (b == j) & (upper == up)
                rows = on_a | on_b
                if rows.any():
                    q = (models[j].upper_quantile if up else models[j].quantile)(t[rows])
                    qa[on_a], qb[on_b] = q[on_a[rows]], q[on_b[rows]]
        return ((qa - qb) ** 2).reshape(shape)

    res = tanhsinh(tails, 0.0, ends.ravel(),
                   args=(index[:, 0].repeat(2), index[:, 1].repeat(2), np.tile([0, 1], len(pairs))),
                   atol=1e-13, rtol=1e-11)
    integral = res.integral.reshape(-1, 2)
    vals = core + (integral[:, 0] + integral[:, 1])
    errs = np.where(res.success, res.error, np.inf).reshape(-1, 2).sum(axis=1)
    for val, err in zip(vals, errs):
        if not np.isfinite(val):
            raise QuadratureError("quantile integral did not converge",
                                  achieved_tolerance=float(err))
        if err > max(1e-9, 1e-6 * abs(val)):
            raise QuadratureError("quantile integral tolerance not reached",
                                  achieved_tolerance=float(err))
    return np.maximum(vals, 0.0)


def wp_univariate(m1: UnivariateModel, m2: UnivariateModel) -> float:
    """2-Wasserstein distance on the line via the quantile formula, without
    a family check; the one-pair case of :func:`_w2_sq`, which says how it
    is integrated and when it raises :class:`QuadratureError`."""
    return math.sqrt(_w2_sq([(m1, m2)])[0])


# ---------------------------------------------------------------------------
# Scatter-location distance
# ---------------------------------------------------------------------------


def ls_map_matrix(a1_inv: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Linear part ``A1^{-1} C A1^{-1}`` of the optimal affine map out of
    ``L(A1 x + b1)``, from ``A1^{-1}`` and the cross term
    ``C = (A1 S2 A1)^{1/2}``; a weighted sum of cross terms gives the
    weighted average of the maps."""
    m = a1_inv @ cross @ a1_inv
    return 0.5 * (m + m.T)


def w2_ls(m1: LocationScatterModel, m2: LocationScatterModel) -> float:
    """``d^2 = |b1 - b2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})``
    in the scatter parameters.

    The symmetric affine map of :func:`ot_map` sends ``L(A1 X + b1)`` to
    ``L(A2 R X + b2)`` with R orthogonal. So d is W2 only when the shared
    generator is rotation-invariant (Gaussian) or the scatters commute.
    Otherwise it is the Gelbrich lower bound in the scatter parameters
    (Gelbrich 1990, Math. Nachr. 147), and for a generator that is not
    standardized a parameter-space distance. Models of another family
    raise :class:`CompatibilityError`.
    """
    if family(m1, m2) is not LsCrossTerms:
        raise CompatibilityError(f"w2_ls takes scatter-location models, not "
                                 f"{type(m1).__name__}s")
    return math.sqrt(LsCrossTerms(m1, [m2]).w2_sq()[0])


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
    and its optimal map ``pair_map(m1, m2)``. Over an iterate ``mu`` and
    ``models`` (``weights`` uniform when None) it gives the ``step(gamma)``
    and its unit step, the :attr:`image` of ``mu`` under the averaged map;
    the per-model squared W2 distances, the squared norm of the averaged
    displacement and the fixed-point residual; the averaged map and the
    uniform average map of any batch of the models.

    The averaged map is a convex combination of optimal maps out of
    ``mu``, hence itself optimal from ``mu`` to the image, so the L2(mu)
    norm of the averaged displacement is ``W2(mu, image)``. A row other
    than :class:`LsCrossTerms` therefore reads every distance from one
    call of its ``w2_sq_to(targets)``, the squared W2 from ``mu`` to each
    target, over its models and the image. Neither the row nor
    ``pair_map`` checks its models: :func:`family` does that, in the
    entry points :func:`w2`, :func:`ot_map` and :func:`averaged_map` and
    in the barycenter drivers."""

    model_type: type
    shared = ""  # what the key holds, for the compatibility error
    key = staticmethod(lambda m: None)

    def __init__(self, mu, models: Sequence, weights=None):
        self.mu = mu
        self.models = models
        self.weights = (np.full(len(models), 1.0 / len(models)) if weights is None
                        else np.asarray(weights, dtype=float))

    @cached_property
    def image(self):
        """``step(1.0)``, taken once: the next iterate of the fixed-point
        descent."""
        return self.step(1.0)

    @cached_property
    def _sq(self) -> np.ndarray:
        """Squared W2 from ``mu`` to each model and, last, to the image."""
        return self.w2_sq_to([*self.models, self.image])

    def w2_sq(self) -> np.ndarray:
        """Per-model squared W2 distances from ``mu``."""
        return self._sq[:-1]

    def grad_norm_sq(self) -> float:
        """Squared L2(mu) norm of the averaged displacement, ``W2(mu, image)^2``."""
        return float(self._sq[-1])

    def residual(self) -> float:
        """L2(mu) norm of the averaged displacement."""
        return math.sqrt(self.grad_norm_sq())

    @cached_property
    def maps(self) -> list:
        """Per-model optimal maps out of ``mu``."""
        return [self.pair_map(self.mu, m) for m in self.models]

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
    pair_map = staticmethod(MonotoneRearrangementMap)

    def w2_sq_to(self, targets) -> np.ndarray:
        """Per-target ``W_2(mu, t)^2``, all tails in one :func:`_w2_sq` call."""
        return _w2_sq([(self.mu, t) for t in targets])

    def step(self, gamma):
        coeffs = np.concatenate([[1.0 - gamma], gamma * self.weights])
        return mix_quantiles(coeffs, [self.mu, *self.models])


class LsCrossTerms(FamilyRow):
    """Scatter-location models on one generator. For ``mu = L(A0 x + b0)``
    and models ``L(A_m x + b_m)`` with ``S_m = A_m^2``, the cross terms
    ``C_m = (A0 S_m A0)^{1/2}`` come from one stacked :func:`sqrtm_psd`
    over the (k, q, q) array of ``A0 S_m A0``, checked matrix by matrix.
    Distances, the averaged maps and the descent step all read that one
    result: ``roots`` holds the ``C_m``, ``sq_traces`` the traces of the
    ``S_m`` and ``cross_mean`` the sum ``sum_m w_m C_m``; the traces of
    the ``C_m``, which only distances need, are taken in :meth:`w2_sq`.
    ``A0^{-1}`` is the iterate's ``mu.scatter_inv``.

    The step decomposes the new ``A1^2`` once (:func:`sqrtm_inv_psd`):
    that gives ``A1`` and the ``A1^{-1}`` the next iterate's row reads, so
    a batch of S models costs S + 1 eigendecompositions per step.
    """

    model_type, shared = LocationScatterModel, "generator"
    key = staticmethod(lambda m: m.generator.spec_key())

    @staticmethod
    def pair_map(m1, m2) -> AffinePSDMap:
        """The symmetric affine map; :func:`w2_ls` says when it is optimal."""
        return AffinePSDMap._built(LsCrossTerms(m1, [m2]).map_matrix, m1.location, m2.location)

    def __init__(self, mu: LocationScatterModel, models: Sequence, weights=None):
        super().__init__(mu, models, weights)
        a0 = mu.scatter
        sq = np.stack([m.scatter_sq for m in models])
        # taken before sq is overwritten: restacking k models later costs more
        self.sq_traces = np.trace(sq, axis1=1, axis2=2)
        self.roots = sqrtm_psd(np.matmul(a0 @ sq, a0, out=sq), name="cross term")
        self.locations = np.stack([m.location for m in models])

    @cached_property
    def cross_mean(self) -> np.ndarray:
        # summed model by model, in support order
        return np.sum(self.roots * self.weights[:, None, None], axis=0)

    def w2_sq(self) -> np.ndarray:
        """Per-model ``|b0 - b_m|^2 + tr(S0 + S_m - 2 C_m)``, floored at 0."""
        gap = self.locations - self.mu.location
        d2 = np.sum(gap * gap, axis=1)
        cross_traces = np.trace(self.roots, axis1=1, axis2=2)
        d2 += np.trace(self.mu.scatter_sq) + self.sq_traces - 2.0 * cross_traces
        return np.maximum(d2, 0.0)

    @cached_property
    def map_matrix(self) -> np.ndarray:
        """Linear part ``A0^{-1} (sum_m w_m C_m) A0^{-1}`` of the averaged map."""
        return ls_map_matrix(self.mu.scatter_inv, self.cross_mean)

    @cached_property
    def mean_location(self) -> np.ndarray:
        return self.weights @ self.locations

    def step(self, gamma):
        # A1^2 = A0^{-1} M^2 A0^{-1} with M = (1 - gamma) A0^2 + gamma sum lam C
        mu = self.mu
        a0_inv = mu.scatter_inv
        mid = (1.0 - gamma) * mu.scatter_sq + gamma * self.cross_mean
        new_sq = a0_inv @ mid @ mid @ a0_inv
        new_sq = 0.5 * (new_sq + new_sq.T)
        b = (1.0 - gamma) * mu.location + gamma * self.mean_location
        scatter, scatter_inv = sqrtm_inv_psd(new_sq, name="updated scatter")
        return LocationScatterModel._built(mu.generator, b, scatter, scatter @ scatter, scatter_inv)

    def grad_norm_sq(self) -> float:
        gap = self.map_matrix - np.eye(self.mu.dimension)
        shift = self.mean_location - self.mu.location
        return float(np.trace(gap @ self.mu.scatter_sq @ gap.T) + np.sum(shift * shift))

    def residual(self) -> float:
        """Frobenius gap ``|avg A - I|_F`` of the averaged linear parts."""
        return float(np.linalg.norm(self.map_matrix - np.eye(self.mu.dimension), ord="fro"))

    def averaged_map(self) -> TransportMap:
        """The maps share ``b1 = mu.location``: their average is one affine map."""
        return AffinePSDMap._built(self.map_matrix, self.mu.location, self.mean_location)

    def batch_map(self, index) -> TransportMap:
        """One affine map from the batch's cross terms, summed as
        ``cross_mean`` sums them, in batch order."""
        w = np.full(len(index), 1.0 / len(index))
        cross = np.sum(self.roots[index] * w[:, None, None], axis=0)
        return AffinePSDMap._built(ls_map_matrix(self.mu.scatter_inv, cross), self.mu.location,
                                   w @ self.locations[index])


class SphericalRow(FamilyRow):
    """Radial reprofilings of one generator: the step averages profiles."""

    model_type, shared = SphericalModel, "generator"
    key = staticmethod(lambda m: m.generator.spec_key())

    @staticmethod
    def pair_map(m1, m2) -> RadialMap:
        """Radial map with profile alpha2 o alpha1^{-1}. Flat segments of
        alpha1 are merged (1e-12 tolerance) before inversion; a profile
        flat over the whole support is rejected."""
        a1, a2 = m1.alpha, m2.alpha
        radii = np.unique(np.concatenate([a1.radii, a2.radii]))
        v1 = a1(radii)
        v2 = a2(radii)
        keep = np.concatenate([[True], np.diff(v1) > 1e-12])
        if keep.sum() < 2:
            raise ValueError("source profile is not invertible on the support")
        return RadialMap(RadialProfile(v1[keep], v2[keep]))

    def w2_sq_to(self, targets) -> np.ndarray:
        """Per-target squared L2 gap between profiles under the generator's
        radial law: 512 Gauss-Legendre levels in [1e-6, 1 - 1e-6], whose
        radii are taken once for all targets."""
        nodes, weights = gauss_legendre(512)
        lo, hi = 1e-6, 1.0 - 1e-6
        nodes = lo + (hi - lo) * (0.5 * (nodes + 1.0))
        weights = (hi - lo) * (0.5 * weights)
        r = self.mu.generator.radial_quantile(nodes)
        alpha = self.mu.alpha(r)
        gaps = [alpha - t.alpha(r) for t in targets]
        return np.array([max(float(np.dot(weights, gap * gap)), 0.0) for gap in gaps])

    def step(self, gamma):
        mu = self.mu
        radii = mu.alpha.radii
        for m in self.models:
            radii = np.union1d(radii, m.alpha.radii)
        vals = (1.0 - gamma) * mu.alpha(radii)
        for w, m in zip(self.weights, self.models):
            vals = vals + gamma * w * m.alpha(radii)
        return SphericalModel(mu.generator, RadialProfile(radii, vals))


class CopulaRow(FamilyRow):
    """Models of one copula and dimension: a univariate row per marginal."""

    model_type, shared = CopulaModel, "copula and dimension"
    key = staticmethod(lambda m: (m.copula.identifier(), m.dimension))

    @staticmethod
    def pair_map(m1, m2) -> CoordinatewiseMap:
        """Coordinatewise monotone rearrangement of the marginals: under
        the shared copula the cost splits into the marginal costs."""
        return CoordinatewiseMap(tuple(map(MonotoneRearrangementMap, m1.marginals, m2.marginals)))

    def w2_sq_to(self, targets) -> np.ndarray:
        """Per-target sum of the marginals' ``W_2^2``, every marginal's
        pairs in one :func:`_w2_sq` call."""
        marginals = self.mu.marginals
        pairs = [(mu_j, t.marginals[j]) for t in targets for j, mu_j in enumerate(marginals)]
        per_pair = _w2_sq(pairs).reshape(len(targets), len(marginals))
        return np.array([math.fsum(row) for row in per_pair])

    def step(self, gamma):
        return CopulaModel(self.mu.copula, [
            UnivariateRow(mu_j, [m.marginals[j] for m in self.models], self.weights).step(gamma)
            for j, mu_j in enumerate(self.mu.marginals)])


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
    """2-Wasserstein distance between models of one family, the one-pair
    case of its row's ``w2_sq_to`` (``w2_sq`` for :class:`LsCrossTerms`),
    or between two point clouds by the exact discrete solver."""
    if isinstance(m1, DiscreteMeasure) and isinstance(m2, DiscreteMeasure):
        return discrete_ot(m1, m2, 2.0)[1]
    row = family(m1, m2)(m1, [m2])
    sq = row.w2_sq() if isinstance(row, LsCrossTerms) else row.w2_sq_to([m2])
    return math.sqrt(sq[0])


def ot_map(m1, m2) -> TransportMap:
    """Optimal map between models of one family: its row's ``pair_map``."""
    return family(m1, m2).pair_map(m1, m2)


def averaged_map(mu, models: Sequence, weights=None) -> TransportMap:
    """``x -> sum_m w_m T_m(x)`` with ``T_m`` the optimal map from mu to
    models[m], uniform weights when None."""
    return family(mu, *models)(mu, models, weights).averaged_map()
