"""A scatter-location iterate carries its root and inverse root from one
eigendecomposition: the stored scatter is exactly symmetric, its square
is its own product and its inverse matches ``inv_psd``, on every path
that builds one; a descent step of batch size S decomposes S + 1
matrices; ``make_ls_model`` keeps the scatter of its three-call form;
``inv_psd`` checks and clamps like ``sqrtm_psd``."""

import warnings

import numpy as np
import pytest

from otbayes import (
    Generator,
    LocationScatterModel,
    MatrixNotPDError,
    ModelDistribution,
    ParamPrior,
    PosteriorChain,
    StepSchedule,
    batch_sgd_step,
    empirical_barycenter,
    experiment_covariance,
    gk_step,
    make_ls_model,
    population_barycenter,
    posterior_models,
)
from otbayes.linalg import EIG_FLOOR, check_pd, inv_psd, sqrtm_psd


def _random_sigma(rng, q):
    f = rng.normal(size=(q, q))
    return np.exp(0.5 * rng.normal()) * (f @ f.T / q + 0.1 * np.eye(q))


def _cloud(rng, gen, k):
    q = gen.dimension
    return [make_ls_model(gen, rng.normal(size=q), _random_sigma(rng, q)) for _ in range(k)]


def _three_call_model(gen, b, sigma):
    """``make_ls_model`` as it read with three decompositions of sigma."""
    sigma = check_pd(np.asarray(sigma, dtype=float), name="sigma")
    return LocationScatterModel(gen, b, sqrtm_psd(sigma, name="sigma"))


def _assert_iterate(m):
    a = m.scatter
    assert np.array_equal(a, a.T)
    assert np.array_equal(m.scatter_sq, a @ a)
    ref = inv_psd(a)
    assert np.max(np.abs(m.scatter_inv - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMakeLsModel:
    @pytest.mark.parametrize("q, seed", [(1, 0), (3, 1), (15, 2), (15, 3)])
    def test_equals_the_three_call_form(self, q, seed):
        rng = np.random.default_rng(seed)
        gen = Generator.mixed_experiment(q)
        for sigma in (_random_sigma(rng, q), experiment_covariance(q, 0.1, 1.2, 2.5)):
            b = rng.normal(size=q)
            got, want = make_ls_model(gen, b, sigma), _three_call_model(gen, b, sigma)
            assert np.array_equal(got.location, want.location)
            assert np.array_equal(got.scatter, want.scatter)
            assert np.array_equal(got.scatter_sq, want.scatter_sq)
            _assert_iterate(got)

    @pytest.mark.parametrize("low", [-1.0, -1e-13, 0.0])
    def test_non_pd_sigma_raises_the_same_error(self, low):
        gen = Generator.standard_normal(3)
        sigma = np.diag([2.0, 1.0, low])
        with pytest.raises(MatrixNotPDError) as want:
            _three_call_model(gen, np.zeros(3), sigma)
        with pytest.raises(MatrixNotPDError) as got:
            make_ls_model(gen, np.zeros(3), sigma)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("sigma is not positive definite")

    def test_near_singular_sigma_clamps_as_before(self):
        gen = Generator.standard_normal(3)
        sigma = np.diag([2.0, 1.0, 1e-14])
        with pytest.warns(RuntimeWarning, match="sigma: eigenvalues below"):
            want = _three_call_model(gen, np.zeros(3), sigma)
        with pytest.warns(RuntimeWarning, match="sigma: eigenvalues below"):
            got = make_ls_model(gen, np.zeros(3), sigma)
        assert np.array_equal(got.scatter, want.scatter)
        _assert_iterate(got)

    def test_shape_errors(self):
        gen = Generator.standard_normal(2)
        with pytest.raises(ValueError, match="sigma dimension"):
            make_ls_model(gen, np.zeros(2), np.eye(3))
        with pytest.raises(ValueError, match="location length"):
            make_ls_model(gen, np.zeros(3), np.eye(2))


class TestInvPsd:
    def test_negative_definite_raises(self):
        with pytest.raises(MatrixNotPDError, match="not positive semidefinite"):
            inv_psd(-np.eye(2))

    def test_near_singular_clamps_with_a_warning(self):
        vecs, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        mat = (vecs * np.array([-1e-13, 0.5, 2.0])) @ vecs.T
        with pytest.warns(RuntimeWarning, match="clamped"):
            got = inv_psd(mat, name="near")
        vals, v = np.linalg.eigh(0.5 * (mat + mat.T))
        want = (v / np.maximum(vals, EIG_FLOOR)) @ v.T
        assert np.array_equal(got, want)

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(1)
        stack = np.stack([_random_sigma(rng, 4) for _ in range(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inv_psd(stack)
            for g, mat in zip(got, stack):
                assert np.array_equal(g, inv_psd(mat))
                assert np.max(np.abs(g @ mat - np.eye(4))) < 1e-10


_NON_FINITE = pytest.mark.parametrize(
    "mat", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, 0.0], [0.0, np.nan]], [[1.0, np.nan], [0.0, 1.0]]],
    ids=["inf-diagonal", "inf-symmetric", "nan-diagonal", "nan-off-diagonal"])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestNonFiniteInput:
    """A matrix holding inf or NaN is refused as not finite, not as
    asymmetric or not PD."""

    @_NON_FINITE
    def test_location_scatter_model(self, mat):
        with pytest.raises(ValueError, match="^scatter is not finite$") as err:
            LocationScatterModel(Generator.standard_normal(2), [0.0, 0.0], mat)
        assert not isinstance(err.value, MatrixNotPDError)

    @_NON_FINITE
    def test_sqrtm_psd(self, mat):
        with pytest.raises(ValueError, match="^root is not finite$"):
            sqrtm_psd(np.array(mat), name="root")

    @_NON_FINITE
    def test_check_pd(self, mat):
        with pytest.raises(ValueError, match="^matrix is not finite$") as err:
            check_pd(mat)
        assert not isinstance(err.value, MatrixNotPDError)

    def test_stack_names_the_first_non_finite_matrix(self):
        stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, np.inf]), np.diag([np.nan, 1.0])])
        with pytest.raises(ValueError, match=r"^m \(matrix 2 of 4, 2 flagged\) is not finite$"):
            sqrtm_psd(stack, name="m")


class TestIterates:
    q = 6

    def _setup(self, seed=0, k=12):
        rng = np.random.default_rng(seed)
        gen = Generator.mixed_experiment(self.q)
        return rng, gen, _cloud(rng, gen, k)

    def test_make_ls_model(self):
        for m in self._setup()[2]:
            _assert_iterate(m)

    @pytest.mark.parametrize("gamma", [0.4, 1.0])
    def test_gk_step(self, gamma):
        _, _, models = self._setup(1)
        mu = models[0]
        for _ in range(3):
            mu = gk_step(mu, ModelDistribution(support=models), gamma)
            _assert_iterate(mu)

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_batch_sgd_step(self, batch_size):
        rng, _, models = self._setup(2)
        mu = models[0]
        for t in range(1, 21):
            batch = [models[i] for i in rng.integers(len(models), size=batch_size)]
            mu = batch_sgd_step(mu, batch, 1.0 / t)
            _assert_iterate(mu)

    def test_empirical_barycenter(self):
        _, _, models = self._setup(3)
        bary, trace = empirical_barycenter(ModelDistribution(support=models))
        assert trace.converged
        _assert_iterate(bary)

    def test_population_barycenter(self):
        rng, _, models = self._setup(4)
        dist = ModelDistribution.from_sampler(lambda r: models[int(r.integers(len(models)))])
        mu, _ = population_barycenter(dist, StepSchedule.harmonic(), 30, 5, models[0], rng,
                                      trace_every=10)
        _assert_iterate(mu)

    def test_posterior_models_compute_the_inverse_once_on_first_use(self):
        prior, gen = ParamPrior(self.q), Generator.mixed_experiment(self.q)
        rng = np.random.default_rng(5)
        draws = np.array([prior.sample(rng) for _ in range(20)])
        chain = PosteriorChain(draws, np.zeros(len(draws)), 0.3)
        for m in posterior_models(chain, gen, prior).support:
            assert m._scatter_inv is None
            _assert_iterate(m)
            assert m.scatter_inv is m.scatter_inv
            assert np.array_equal(m.scatter_inv, inv_psd(m.scatter))

    def test_public_constructor_computes_the_inverse_on_first_use(self):
        _, _, models = self._setup(6, k=3)
        for m in models:
            clone = LocationScatterModel(m.generator, m.location, m.scatter)
            assert clone._scatter_inv is None
            _assert_iterate(clone)
            assert np.array_equal(clone.scatter_inv, inv_psd(clone.scatter))


class TestStepDecompositions:
    @pytest.mark.parametrize("batch_size", [1, 5, 20])
    def test_each_step_decomposes_s_plus_one_matrices(self, monkeypatch, batch_size):
        rng = np.random.default_rng(batch_size)
        gen = Generator.mixed_experiment(15)
        models = _cloud(rng, gen, 40)
        start = models[1]
        counts = {"eigh": 0, "eigvalsh": 0}
        real = {name: getattr(np.linalg, name) for name in counts}

        def counting(name):
            def call(a, *args, **kwargs):
                counts[name] += int(np.prod(np.shape(a)[:-2], dtype=int))
                return real[name](a, *args, **kwargs)
            return call

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name))
        # a model from the public constructor takes its inverse on the
        # first step; every later iterate carries its own
        mu = LocationScatterModel(gen, start.location, start.scatter)
        per_step = []
        for t in range(1, 8):
            before = dict(counts)
            batch = [models[i] for i in rng.integers(len(models), size=batch_size)]
            mu = batch_sgd_step(mu, batch, 1.0 / t)
            per_step.append({name: counts[name] - before[name] for name in counts})
        assert per_step[0] == {"eigh": batch_size + 2, "eigvalsh": 0}
        assert all(s == {"eigh": batch_size + 1, "eigvalsh": 0} for s in per_step[1:])
