"""The scatter-location cross terms (A0 S_m A0)^{1/2}: one stacked
evaluation per iterate, checked against the per-model formulas it
replaced, the invariances of the barycenter and the per-matrix checks;
one family row per gradient-variance estimate, checked against the
per-repetition loop it replaced; one family check per public call."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otbayes import (
    CopulaModel,
    Generator,
    IndependenceCopula,
    Laplace,
    LocationScatterModel,
    MatrixNotPDError,
    ModelDistribution,
    StopRule,
    batch_sgd_step,
    empirical_barycenter,
    fixed_point_residual,
    gk_step,
    Normal,
    make_ls_model,
    ot_map,
    RadialProfile,
    SphericalModel,
    variance_of_gradient_estimator,
    w2,
    w2_ls,
)
from otbayes.barycenter import _grad_norm_sq, risk
from otbayes.linalg import EIG_FLOOR, sqrtm_psd
import otbayes.transport
from otbayes.transport import LsCrossTerms, averaged_map, family

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
        assert risk(mu, dist) == pytest.approx(_ref_risk(mu, models, weights), rel=1e-12)
        assert _grad_norm_sq(mu, dist) == pytest.approx(
            _ref_grad_norm_sq(mu, models, weights), rel=1e-12, abs=1e-12)
        assert fixed_point_residual(mu, dist) == pytest.approx(
            _ref_residual(mu, models, weights), rel=1e-12, abs=1e-12)
        lin = ot_map(mu, models[0]).matrix
        assert _rel(lin, _ref_map_matrix(mu.scatter_sq, models[0].scatter_sq)) <= 1e-12

    def test_batch_of_one_takes_the_stacked_path(self):
        rng = np.random.default_rng(4)
        gen = Generator.standard_normal(4)
        mu, m = _cloud(rng, gen, 2)
        out = batch_sgd_step(mu, [m], 0.4)
        b_ref, a_ref = _ref_step(mu, [m], [1.0], 0.4)
        assert _rel(out.scatter, a_ref) <= 1e-12
        assert _rel(out.location, b_ref) <= 1e-12

    def test_a_kept_row_equals_a_fresh_one(self):
        rng = np.random.default_rng(5)
        gen = Generator.standard_normal(3)
        dist = ModelDistribution(support=_cloud(rng, gen, 20))
        mu = make_ls_model(gen, np.zeros(3), np.eye(3))
        kept = (risk(mu, dist), _grad_norm_sq(mu, dist), gk_step(mu, dist, 1.0))
        assert dist.row(mu) is dist.row(mu)
        fresh = LsCrossTerms(mu, dist.support, dist.weights)
        assert kept[0] == 0.5 * math.fsum(fresh.weights * fresh.w2_sq())
        assert kept[1] == fresh.grad_norm_sq()
        assert np.array_equal(kept[2].scatter, fresh.step(1.0).scatter)


def _ref_variance_of_gradient_estimator(mu, dist, batch_size, reps, rng, n_points):
    """The estimator as it read before the averaged map: one ot_map per member."""
    x = np.asarray(mu.sample(n_points, rng), dtype=float)
    x2d = x.reshape(x.shape[0], -1)
    disp = np.empty((reps, x2d.shape[0], x2d.shape[1]))
    for r in range(reps):
        batch = [dist.draw(rng) for _ in range(batch_size)]
        tx = np.zeros_like(x2d)
        for m in batch:
            tx += np.asarray(ot_map(mu, m)(x), dtype=float).reshape(x2d.shape)
        disp[r] = tx / batch_size - x2d
    dev = disp - disp.mean(axis=0)
    return float(np.sum(dev * dev) / (reps - 1) / x2d.shape[0])


@pytest.mark.filterwarnings("ignore:fewer than 200 reps")
class TestAveragedMap:
    @pytest.mark.parametrize("batch_size", [1, 2, 20])
    def test_scatter_location_variance_matches_the_per_member_loop(self, batch_size):
        rng = np.random.default_rng(batch_size)
        gen = Generator.standard_normal(3)
        dist = ModelDistribution(support=_cloud(rng, gen, 40))
        mu = make_ls_model(gen, rng.normal(size=3), _random_scatter(rng, 3))
        got = variance_of_gradient_estimator(mu, dist, batch_size, 6,
                                             np.random.default_rng(7), n_points=256)
        want = _ref_variance_of_gradient_estimator(mu, dist, batch_size, 6,
                                                   np.random.default_rng(7), 256)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("batch_size", [1, 2, 20])
    def test_univariate_variance_matches_the_per_member_loop(self, batch_size):
        def draw(r):
            loc, scale = r.normal(), math.exp(0.3 * r.normal())
            return Normal(loc, scale) if r.uniform() < 0.5 else Laplace(loc, scale)

        dist = ModelDistribution.from_sampler(draw)
        mu = Normal(0.2, 1.3)
        got = variance_of_gradient_estimator(mu, dist, batch_size, 6,
                                             np.random.default_rng(8), n_points=256)
        want = _ref_variance_of_gradient_estimator(mu, dist, batch_size, 6,
                                                   np.random.default_rng(8), 256)
        assert got == pytest.approx(want, rel=1e-12)

    def test_scatter_location_map_is_one_affine_map(self):
        rng = np.random.default_rng(9)
        gen = Generator.standard_normal(4)
        models = _cloud(rng, gen, 7)
        weights = rng.dirichlet(np.ones(7))
        mu = make_ls_model(gen, rng.normal(size=4), _random_scatter(rng, 4))
        x = rng.normal(size=(50, 4))
        want = sum(w * ot_map(mu, m)(x) for w, m in zip(weights, models))
        assert _rel(averaged_map(mu, models, weights)(x), want) <= 1e-12

    def test_distances_from_the_truth_side_equal_per_model_ones(self):
        # the consistency cell reads all W2^2 to the truth from one stack
        rng = np.random.default_rng(10)
        gen = Generator.mixed_experiment(6)
        models = _cloud(rng, gen, 50)
        m0 = make_ls_model(gen, np.zeros(6), _random_scatter(rng, 6))
        got = LsCrossTerms(m0, models, np.full(50, 0.02)).w2_sq()
        want = np.array([w2_ls(m, m0) ** 2 for m in models])
        assert _rel(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# One family row per gradient-variance estimate
# ---------------------------------------------------------------------------


def _loop_variance_of_gradient_estimator(mu, dist, batch_size, reps, rng, n_points):
    """The estimator as it read with one family row per repetition."""
    x = np.asarray(mu.sample(n_points, rng), dtype=float)
    x2d = x.reshape(x.shape[0], -1)
    disp = np.empty((reps, x2d.shape[0], x2d.shape[1]))
    for r in range(reps):
        batch = [dist.draw(rng) for _ in range(batch_size)]
        tx = np.asarray(averaged_map(mu, batch)(x), dtype=float)
        disp[r] = tx.reshape(x2d.shape) - x2d
    dev = disp - disp.mean(axis=0)
    return float(np.sum(dev * dev) / (reps - 1) / x2d.shape[0])


def _univariate_model(r):
    loc, scale = r.normal(), math.exp(0.3 * r.normal())
    return Normal(loc, scale) if r.uniform() < 0.5 else Laplace(loc, scale)


def _spherical_cloud(rng, k):
    gen = Generator.standard_normal(2)
    out = []
    for _ in range(k):
        r = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 8.0, size=6))])
        out.append(SphericalModel(gen, RadialProfile(r, rng.uniform(0.5, 2.0) * r + 0.05 * r**2)))
    return out


def _row_clouds():
    """(mu, models, points) for every family of the table."""
    rng = np.random.default_rng(12)
    ls = _cloud(rng, Generator.standard_normal(3), 6)
    uni = [_univariate_model(rng) for _ in range(6)]
    cop = [CopulaModel(IndependenceCopula(), [_univariate_model(rng), _univariate_model(rng)])
           for _ in range(6)]
    sph = _spherical_cloud(rng, 6)
    return [(ls[0], ls[1:], rng.normal(size=(40, 3))),
            (uni[0], uni[1:], rng.normal(size=40)),
            (cop[0], cop[1:], rng.normal(size=(40, 2))),
            (sph[0], sph[1:], rng.normal(size=(40, 2)))]


@pytest.mark.filterwarnings("ignore:fewer than 200 reps")
class TestOneRowPerVarianceEstimate:
    @staticmethod
    def _check_equals_loop(mu, dist, batch_size, reps, seed, n_points=64):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = variance_of_gradient_estimator(mu, dist, batch_size, reps, rng,
                                             n_points=n_points)
        want = _loop_variance_of_gradient_estimator(mu, dist, batch_size, reps, ref_rng,
                                                    n_points)
        assert got == want
        # the stream is left where the loop leaves it
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("batch_size", [1, 2, 20])
    def test_finite_scatter_location_support_with_repeated_draws(self, batch_size):
        rng = np.random.default_rng(20 + batch_size)
        gen = Generator.standard_normal(3)
        weights = rng.dirichlet(np.ones(5))
        dist = ModelDistribution(support=_cloud(rng, gen, 5), weights=weights / weights.sum())
        mu = make_ls_model(gen, rng.normal(size=3), _random_scatter(rng, 3))
        self._check_equals_loop(mu, dist, batch_size, 12, batch_size)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_finite_univariate_support(self, batch_size):
        rng = np.random.default_rng(30 + batch_size)
        dist = ModelDistribution(support=[_univariate_model(rng) for _ in range(4)])
        self._check_equals_loop(Normal(0.2, 1.3), dist, batch_size, 10, batch_size)

    @pytest.mark.parametrize("fresh", [False, True], ids=["pooled", "fresh"])
    def test_sampler(self, fresh):
        rng = np.random.default_rng(40)
        gen = Generator.standard_normal(2)
        pool = _cloud(rng, gen, 3)
        draw = (lambda r: make_ls_model(gen, r.normal(size=2), _random_scatter(r, 2))) if fresh \
            else (lambda r: pool[r.integers(len(pool))])
        self._check_equals_loop(pool[0], ModelDistribution.from_sampler(draw), 4, 8, 41)

    @pytest.mark.parametrize("case", range(4), ids=["ls", "univariate", "copula", "spherical"])
    def test_batch_map_equals_the_averaged_map_of_the_batch(self, case):
        mu, models, x = _row_clouds()[case]
        row = family(mu, *models)(mu, models)
        for index in ([3], [0, 4], [2, 0, 2, 4, 2]):
            want = averaged_map(mu, [models[i] for i in index])(x)
            assert np.array_equal(row.batch_map(np.array(index))(x), want)


class TestOneCheckPerCall:
    """The public entry points check their models' family once; the rows
    and their pair maps check nothing."""

    @pytest.mark.parametrize("case", range(4), ids=["ls", "univariate", "copula", "spherical"])
    def test_each_entry_point_calls_family_once(self, monkeypatch, case):
        mu, models, _ = _row_clouds()[case]
        dist = ModelDistribution(support=models)
        real, calls = otbayes.transport.family, []

        def counted(*checked):
            calls.append(len(checked))
            return real(*checked)

        monkeypatch.setattr(otbayes.transport, "family", counted)
        entry_points = {
            "w2": lambda: w2(mu, models[0]),
            "ot_map": lambda: ot_map(mu, models[0]),
            "averaged_map": lambda: averaged_map(mu, models),
            "risk": lambda: risk(mu, dist),
        }
        counts = {}
        for name, call in entry_points.items():
            calls.clear()
            call()
            counts[name] = len(calls)
        assert counts == dict.fromkeys(entry_points, 1)


class TestOneEvaluationPerIterate:
    """Outside the scatter-location family a row takes the distances to its
    models and to the iterate's image in one evaluation, which serves the
    risk, the gradient norm, the residual and the unit step."""

    @pytest.mark.parametrize("case", range(1, 4), ids=["univariate", "copula", "spherical"])
    def test_risk_gradient_residual_and_step_share_one_evaluation(self, monkeypatch, case):
        mu, models, _ = _row_clouds()[case]
        dist = ModelDistribution(support=models)
        row_type = family(mu, *models)
        real, calls = row_type.w2_sq_to, []

        def counted(row, targets):
            calls.append(len(targets))
            return real(row, targets)

        monkeypatch.setattr(row_type, "w2_sq_to", counted)
        value = risk(mu, dist)
        grad = _grad_norm_sq(mu, dist)
        assert fixed_point_residual(mu, dist) == math.sqrt(grad)
        assert gk_step(mu, dist, 1.0) is dist.row(mu).image
        assert calls == [len(models) + 1]
        fresh = row_type(mu, models)
        assert value == 0.5 * math.fsum(fresh.weights * real(fresh, models))
        assert grad == real(fresh, [fresh.step(1.0)])[0]


# ---------------------------------------------------------------------------
# Invariances of the barycenter
# ---------------------------------------------------------------------------


class TestBarycenterInvariance:
    """Invariances of the descent operator at a common iterate (to
    rounding) and of the barycenter (to the stopping rule's accuracy)."""

    @staticmethod
    def _check_same_problem(d1, d2, mu):
        assert _rel(gk_step(mu, d2, 1.0).scatter, gk_step(mu, d1, 1.0).scatter) <= 1e-12
        assert risk(mu, d2) == pytest.approx(risk(mu, d1), rel=1e-12)
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

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_large_scales_pass_the_symmetry_checks(self, scale):
        # q = 15 models whose cross terms reach scale^2 entries, where the
        # rounding asymmetry of a product exceeds an absolute 1e-10
        gen = Generator.mixed_experiment(15)

        def cloud(c):
            rng = np.random.default_rng(0)
            return [make_ls_model(gen, c * rng.normal(size=15), c * c * _random_scatter(rng, 15))
                    for _ in range(4)]

        base, moved = cloud(1.0), cloud(scale)
        assert w2_ls(moved[0], moved[1]) == pytest.approx(scale * w2_ls(base[0], base[1]),
                                                          rel=1e-10)
        a, _ = empirical_barycenter(ModelDistribution(support=base))
        b, _ = empirical_barycenter(ModelDistribution(support=moved))
        assert _rel(b.location, scale * a.location) <= 1e-10
        assert _rel(b.scatter, scale * a.scatter) <= 1e-10
        assert _rel(b.scatter_sq, scale**2 * a.scatter_sq) <= 1e-10

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

    def test_symmetry_tolerance_is_relative_to_the_largest_entry(self):
        # within 1e-10 max(1, max |A|), matrix by matrix
        stack = np.stack([np.eye(3), 1e4 * np.eye(3)])
        stack[1, 0, 1] += 5e-7
        assert np.all(np.isfinite(sqrtm_psd(stack)))
        stack[0, 0, 1] += 2e-10
        with pytest.raises(ValueError, match="matrix 0 of 2, 1 flagged"):
            sqrtm_psd(stack)
        stack[0, 0, 1] = 0.0
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="matrix 1 of 2, 1 flagged"):
            sqrtm_psd(stack)

    def test_model_stack_takes_the_same_relative_rule(self):
        scatters = np.stack([np.eye(3), 1e4 * np.eye(3), 1e4 * np.eye(3)])
        scatters[1, 0, 1] += 5e-7  # within 1e-10 * 1e4
        scatters[2, 0, 1] += 2e-6  # beyond it
        got = LocationScatterModel._from_stack(Generator.standard_normal(3), np.zeros((3, 3)),
                                               scatters)
        assert [m.scatter[0, 0] for m in got] == [1.0, 1e4]

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

    def _step_row(self, neg):
        """A row whose step forms ``new_sq = diag(1, -neg, -neg)``: at
        gamma = 1 from the identity, ``mid`` is the cross mean, and this
        one squares to that."""
        gen = Generator.standard_normal(3)
        mu = LocationScatterModel(gen, np.zeros(3), np.eye(3))
        row = LsCrossTerms(mu, [mu])
        e = math.sqrt(neg)
        row.cross_mean = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, e], [0.0, -e, 0.0]])
        return row

    def test_step_raises_on_an_updated_scatter_below_tolerance(self):
        with pytest.raises(MatrixNotPDError, match="updated scatter is not positive semidefinite"):
            self._step_row(1e-9).step(1.0)

    def test_step_clamps_a_near_singular_updated_scatter_with_one_warning(self):
        row = self._step_row(1e-11)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new = row.step(1.0)
        assert [str(w.message).split(":")[0] for w in caught] == ["updated scatter"]
        assert "clamped" in str(caught[0].message)
        assert np.array_equal(new.scatter, new.scatter.T)
        assert np.linalg.eigvalsh(new.scatter)[0] == pytest.approx(math.sqrt(EIG_FLOOR), rel=1e-9)
        assert np.max(np.abs(new.scatter_inv @ new.scatter - np.eye(3))) < 1e-9

    def test_near_singular_model_clamps_in_the_risk(self):
        rng = np.random.default_rng(1)
        gen = Generator.standard_normal(self.q)
        models = _cloud(rng, gen, 499)
        vals, vecs = np.linalg.eigh(_random_scatter(rng, self.q))
        vals[0] = 1e-8
        models.insert(200, LocationScatterModel(gen, np.zeros(self.q), (vecs * vals) @ vecs.T))
        with pytest.warns(RuntimeWarning, match="cross term"):
            value = risk(models[0], ModelDistribution(support=models))
        assert math.isfinite(value) and value > 0.0
