"""The scatter-location cross terms (A0 S_m A0)^{1/2}: one stacked
evaluation per iterate, checked against the per-model formulas it
replaced, the invariances of the barycenter and the per-matrix checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otbayes import (
    Generator,
    LocationScatterModel,
    MatrixNotPDError,
    ModelDistribution,
    StopRule,
    batch_sgd_step,
    empirical_barycenter,
    fixed_point_residual,
    gk_step,
    make_ls_model,
    ot_map_ls,
)
from otbayes.barycenter import _grad_norm_sq, risk
from otbayes.linalg import EIG_FLOOR, sqrtm_psd
from otbayes.transport import LsCrossTerms

TIGHT = StopRule(rel_tol=1e-13, max_iter=500)


# ---------------------------------------------------------------------------
# Per-model reference: the formulas as they read before the stacked path,
# one eigendecomposition per matrix
# ---------------------------------------------------------------------------


def _ref_sqrtm(mat):
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, EIG_FLOOR)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _ref_inv(mat):
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs / np.maximum(vals, EIG_FLOOR)) @ vecs.T


def _ref_map_matrix(sigma1, sigma2):
    a1 = _ref_sqrtm(sigma1)
    a1_inv = _ref_inv(a1)
    m = a1_inv @ _ref_sqrtm(a1 @ sigma2 @ a1) @ a1_inv
    return 0.5 * (m + m.T)


def _ref_step(mu, models, lam, gamma):
    a0 = mu.scatter
    a0_inv = _ref_inv(a0)
    acc = np.zeros_like(a0)
    b = (1.0 - gamma) * mu.location
    for w, m in zip(lam, models):
        acc += w * _ref_sqrtm(a0 @ m.scatter_sq @ a0)
        b = b + gamma * w * m.location
    mid = (1.0 - gamma) * mu.scatter_sq + gamma * acc
    new_sq = a0_inv @ mid @ mid @ a0_inv
    return b, _ref_sqrtm(0.5 * (new_sq + new_sq.T))


def _ref_w2(m1, m2):
    cross = _ref_sqrtm(m1.scatter @ m2.scatter_sq @ m1.scatter)
    gap2 = float(np.sum((m1.location - m2.location) ** 2))
    gap2 += float(np.trace(m1.scatter_sq) + np.trace(m2.scatter_sq) - 2.0 * np.trace(cross))
    return math.sqrt(max(gap2, 0.0))


def _ref_risk(mu, models, weights):
    return 0.5 * math.fsum(w * _ref_w2(mu, m) ** 2 for w, m in zip(weights, models))


def _ref_abar(mu, models, weights):
    abar = np.zeros_like(mu.scatter)
    for w, m in zip(weights, models):
        abar += w * _ref_map_matrix(mu.scatter_sq, m.scatter_sq)
    return abar


def _ref_grad_norm_sq(mu, models, weights):
    bbar = np.zeros_like(mu.location)
    for w, m in zip(weights, models):
        bbar = bbar + w * m.location
    gap = _ref_abar(mu, models, weights) - np.eye(mu.dimension)
    return float(np.trace(gap @ mu.scatter_sq @ gap.T) + np.sum((bbar - mu.location) ** 2))


def _ref_residual(mu, models, weights):
    return float(np.linalg.norm(_ref_abar(mu, models, weights) - np.eye(mu.dimension), ord="fro"))


def _random_scatter(rng, q):
    f = rng.normal(size=(q, q))
    return np.exp(0.5 * rng.normal()) * (f @ f.T / q + 0.1 * np.eye(q))


def _cloud(rng, gen, k):
    q = gen.dimension
    return [make_ls_model(gen, rng.normal(size=q), _random_scatter(rng, q)) for _ in range(k)]


def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


class TestStackedMatchesPerModel:
    @given(
        k=st.sampled_from([1, 2, 37, 500]),
        q=st.sampled_from([1, 2, 3, 6]),
        gamma=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_step_risk_gradient_residual_and_map(self, k, q, gamma, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.standard_normal(q)
        models = _cloud(rng, gen, k)
        weights = rng.dirichlet(np.full(k, 0.5))
        weights /= weights.sum()
        mu = make_ls_model(gen, rng.normal(size=q), _random_scatter(rng, q))
        dist = ModelDistribution(support=models, weights=weights)

        stepped = gk_step(mu, dist, gamma)
        b_ref, a_ref = _ref_step(mu, models, weights, gamma)
        assert _rel(stepped.scatter, a_ref) <= 1e-12
        assert _rel(stepped.location, b_ref) <= 1e-12
        assert risk(mu, models, weights) == pytest.approx(_ref_risk(mu, models, weights),
                                                          rel=1e-12)
        assert _grad_norm_sq(mu, models, weights) == pytest.approx(
            _ref_grad_norm_sq(mu, models, weights), rel=1e-12, abs=1e-12)
        assert fixed_point_residual(mu, dist) == pytest.approx(
            _ref_residual(mu, models, weights), rel=1e-12, abs=1e-12)
        lin = ot_map_ls(mu, models[0]).matrix
        assert _rel(lin, _ref_map_matrix(mu.scatter_sq, models[0].scatter_sq)) <= 1e-12

    def test_batch_of_one_takes_the_stacked_path(self):
        rng = np.random.default_rng(4)
        gen = Generator.standard_normal(4)
        mu, m = _cloud(rng, gen, 2)
        out = batch_sgd_step(mu, [m], 0.4)
        b_ref, a_ref = _ref_step(mu, [m], [1.0], 0.4)
        assert _rel(out.scatter, a_ref) <= 1e-12
        assert _rel(out.location, b_ref) <= 1e-12

    def test_shared_cross_terms_equal_fresh_ones(self):
        rng = np.random.default_rng(5)
        gen = Generator.standard_normal(3)
        dist = ModelDistribution(support=_cloud(rng, gen, 20))
        mu = make_ls_model(gen, np.zeros(3), np.eye(3))
        cross = LsCrossTerms(mu, dist.support, dist.weights)
        assert risk(mu, dist.support, dist.weights, cross=cross) == risk(
            mu, dist.support, dist.weights)
        assert _grad_norm_sq(mu, dist.support, dist.weights, cross=cross) == _grad_norm_sq(
            mu, dist.support, dist.weights)
        shared, fresh = gk_step(mu, dist, 1.0, cross=cross), gk_step(mu, dist, 1.0)
        assert np.array_equal(shared.scatter, fresh.scatter)

    def test_cross_terms_of_another_iterate_rejected(self):
        rng = np.random.default_rng(6)
        gen = Generator.standard_normal(2)
        dist = ModelDistribution(support=_cloud(rng, gen, 5))
        mu, other = _cloud(rng, gen, 2)
        with pytest.raises(ValueError):
            risk(mu, dist.support, dist.weights, cross=LsCrossTerms(other, dist.support,
                                                                   dist.weights))


# ---------------------------------------------------------------------------
# Invariances of the barycenter
# ---------------------------------------------------------------------------


class TestBarycenterInvariance:
    """Invariances of the descent operator at a common iterate (to
    rounding) and of the barycenter (to the stopping rule's accuracy)."""

    @staticmethod
    def _check_same_problem(d1, d2, mu):
        assert _rel(gk_step(mu, d2, 1.0).scatter, gk_step(mu, d1, 1.0).scatter) <= 1e-12
        assert risk(mu, d2.support, d2.weights) == pytest.approx(
            risk(mu, d1.support, d1.weights), rel=1e-12)
        assert fixed_point_residual(mu, d2) == pytest.approx(fixed_point_residual(mu, d1),
                                                             rel=1e-10, abs=1e-12)
        a, _ = empirical_barycenter(d1, stop=TIGHT)
        b, _ = empirical_barycenter(d2, stop=TIGHT)
        assert _rel(b.scatter, a.scatter) <= 1e-6
        assert _rel(b.location, a.location) <= 1e-10

    @given(k=st.integers(2, 8), q=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_permuting_the_support(self, k, q, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.standard_normal(q)
        models = _cloud(rng, gen, k)
        weights = rng.dirichlet(np.ones(k))
        weights /= weights.sum()
        perm = rng.permutation(k)
        self._check_same_problem(
            ModelDistribution(support=models, weights=weights),
            ModelDistribution(support=[models[i] for i in perm], weights=weights[perm]),
            _cloud(rng, gen, 1)[0])

    @given(k=st.integers(2, 8), q=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_duplicated_model_equals_doubled_weight(self, k, q, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.standard_normal(q)
        models = _cloud(rng, gen, k)
        dup = int(rng.integers(k))
        doubled = np.ones(k)
        doubled[dup] = 2.0
        self._check_same_problem(
            ModelDistribution(support=models, weights=doubled / doubled.sum()),
            ModelDistribution(support=models + [models[dup]]),
            _cloud(rng, gen, 1)[0])

    @given(k=st.integers(1, 8), q=st.integers(1, 4), scale=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_translation_and_scaling_equivariance(self, k, q, scale, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.standard_normal(q)
        models = _cloud(rng, gen, k)
        shift = 5.0 * rng.normal(size=q)
        moved = [LocationScatterModel(gen, scale * m.location + shift, scale * m.scatter)
                 for m in models]
        a, _ = empirical_barycenter(ModelDistribution(support=models), stop=TIGHT)
        b, _ = empirical_barycenter(ModelDistribution(support=moved), stop=TIGHT)
        assert _rel(b.scatter, scale * a.scatter) <= 1e-8
        assert np.allclose(b.location, scale * a.location + shift, rtol=1e-10, atol=1e-10)

    @given(k=st.integers(1, 20), q=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_commuting_scatters_average(self, k, q, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.standard_normal(q)
        u, _ = np.linalg.qr(rng.normal(size=(q, q)))
        scatters = [(u * np.exp(0.5 * rng.normal(size=q))) @ u.T for _ in range(k)]
        models = [LocationScatterModel(gen, rng.normal(size=q), 0.5 * (a + a.T))
                  for a in scatters]
        weights = rng.dirichlet(np.ones(k))
        weights /= weights.sum()
        bary, trace = empirical_barycenter(ModelDistribution(support=models, weights=weights),
                                           stop=TIGHT)
        assert trace.converged
        want = sum(w * m.scatter for w, m in zip(weights, models))
        assert _rel(bary.scatter, want) <= 1e-8


# ---------------------------------------------------------------------------
# Per-matrix checks inside one stack
# ---------------------------------------------------------------------------


class TestStackChecks:
    q = 4

    def _stack(self, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([_random_scatter(rng, self.q) for _ in range(500)])

    def test_one_non_pd_matrix_among_500_raises(self):
        stack = self._stack()
        stack[317] = -np.eye(self.q)
        with pytest.raises(MatrixNotPDError, match="matrix 317 of 500"):
            sqrtm_psd(stack, name="cross term")

    def test_one_asymmetric_matrix_among_500_raises(self):
        stack = self._stack()
        stack[42, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            sqrtm_psd(stack)

    def test_near_singular_matrix_clamps_with_a_warning(self):
        stack = self._stack()
        vals, vecs = np.linalg.eigh(stack[9])
        vals[0] = -1e-13
        stack[9] = (vecs * vals) @ vecs.T
        with pytest.warns(RuntimeWarning, match="clamped"):
            roots = sqrtm_psd(stack)
        assert np.all(np.isfinite(roots))
        assert np.linalg.eigvalsh(roots[9])[0] == pytest.approx(math.sqrt(EIG_FLOOR), rel=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            others = sqrtm_psd(np.delete(stack, 9, axis=0))
        assert np.array_equal(others, np.delete(roots, 9, axis=0))

    def test_near_singular_model_clamps_in_the_risk(self):
        rng = np.random.default_rng(1)
        gen = Generator.standard_normal(self.q)
        models = _cloud(rng, gen, 499)
        vals, vecs = np.linalg.eigh(_random_scatter(rng, self.q))
        vals[0] = 1e-8
        models.insert(200, LocationScatterModel(gen, np.zeros(self.q), (vecs * vals) @ vecs.T))
        with pytest.warns(RuntimeWarning, match="cross term"):
            value = risk(models[0], models)
        assert math.isfinite(value) and value > 0.0
