"""Bayesian layer tests: likelihood identities, Metropolis correctness
against conjugate oracles, the model average, estimator assembly."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from otbayes import (
    BwbConfig,
    Dataset,
    Generator,
    Laplace,
    LocationScatterModel,
    MatrixNotPDError,
    McmcConfig,
    ModelDistribution,
    Normal,
    ParamPrior,
    PosteriorChain,
    StopRule,
    StudentT,
    bwb_estimator,
    experiment_covariance,
    make_ls_model,
    metropolis_sample,
    model_average,
    posterior_models,
    w2_ls,
)
import otbayes.bayes
from otbayes.bayes import (
    _BLOCK_DOUBLES,
    _TransformedTarget,
    _ensemble_sample,
    _walker_seeds,
)
from otbayes.experiments import ExperimentConfig
from otbayes.linalg import sqrtm_psd
from otbayes.measures import _kernel_grid, cosine_kernel_roots, cosine_kernel_whitening


def _quiet_chain(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return metropolis_sample(*args, **kwargs)


def log_likelihood(theta, data, gen, prior=None):
    """The sampler target's log-likelihood of one theta."""
    prior = prior or ParamPrior(gen.dimension)
    theta = np.asarray(theta, dtype=float)
    return float(_TransformedTarget(prior, data, gen).log_likelihoods(theta[None])[0])


def log_density(target, x):
    """One row's log density under a prior or a sampler target: the
    one-row case of its ``log_densities``."""
    return float(target.log_densities(np.asarray(x, dtype=float)[None])[0])


def mixture_density(mix, x):
    """A model average's density at the rows of x, component by component."""
    return sum(w * np.exp(c.log_density(x)) for w, c in zip(mix.weights, mix.components))


def _covariance(prior, theta):
    """The covariance of the model that theta indexes under prior."""
    if prior.fixed_covariance is not None:
        return prior.fixed_covariance
    q = prior.dimension
    eps, sigma, omega_inv = theta[q:]
    return experiment_covariance(q, eps, sigma, 1.0 / omega_inv)


class TestParamPrior:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ParamPrior(2, rate_eps=0.0)

    def test_log_density_finite_in_interior(self):
        prior = ParamPrior(2)
        theta = np.array([0.1, -0.2, 0.05, 1.0, 0.1])
        assert math.isfinite(log_density(prior, theta))
        assert log_density(prior, np.array([0.0, 0.0, -1.0, 1.0, 0.1])) == -math.inf

    def test_density_matches_scipy(self):
        prior = ParamPrior(1)
        theta = np.array([0.3, 0.02, 1.5, 0.08])
        expected = (stats.norm.logpdf(0.3)
                    + stats.expon.logpdf(0.02, scale=1 / 20)
                    + stats.expon.logpdf(1.5, scale=1.0)
                    + stats.expon.logpdf(0.08, scale=1 / 15))
        assert log_density(prior, theta) == pytest.approx(expected, abs=1e-12)

    def test_sample_shapes(self):
        rng = np.random.default_rng(0)
        assert ParamPrior(3).sample(rng).shape == (6,)
        assert ParamPrior(3, fixed_covariance=np.eye(3)).sample(rng).shape == (3,)

    def test_fixed_covariance_not_pd_is_refused(self):
        # accepted before, then every chain draw had likelihood -inf
        with pytest.raises(MatrixNotPDError):
            ParamPrior(2, fixed_covariance=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(MatrixNotPDError):
            ParamPrior(2, fixed_covariance=np.zeros((2, 2)))

    @pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]],
                                     [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["asymmetric", "nan", "inf"])
    def test_fixed_covariance_not_finite_or_asymmetric_is_refused(self, cov):
        with pytest.raises(ValueError, match="finite|symmetric") as err:
            ParamPrior(2, fixed_covariance=cov)
        assert not isinstance(err.value, MatrixNotPDError)

    def test_fixed_covariance_is_kept_as_given(self):
        cov = np.array([[1.0, 0.3], [0.3 + 1e-13, 2.0]])  # symmetric within tolerance
        assert np.array_equal(ParamPrior(2, fixed_covariance=cov).fixed_covariance, cov)


class TestLogLikelihood:
    def test_empty_dataset_is_zero(self):
        gen = Generator.standard_normal(2)
        prior = ParamPrior(2)
        theta = prior.sample(np.random.default_rng(0))
        assert log_likelihood(theta, Dataset.empty(2), gen, prior) == 0.0

    def test_standard_normal_point(self):
        gen = Generator.standard_normal(1)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        val = log_likelihood(np.array([0.0]), Dataset(np.array([[0.0]])), gen, prior)
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_scatter_doubling_identity(self):
        # with z held fixed, doubling A only changes the determinant term
        q, n = 3, 6
        rng = np.random.default_rng(1)
        gen = Generator.standard_normal(q)
        z = rng.normal(size=(n, q))
        b = rng.normal(size=q)
        f = rng.normal(size=(q, q))
        sigma = f @ f.T + 0.5 * np.eye(q)
        a = make_ls_model(gen, b, sigma).scatter
        prior1 = ParamPrior(q, fixed_covariance=a @ a)
        prior2 = ParamPrior(q, fixed_covariance=4.0 * (a @ a))
        ll1 = log_likelihood(b, Dataset(z @ a + b), gen, prior1)
        ll2 = log_likelihood(b, Dataset(z @ (2.0 * a) + b), gen, prior2)
        assert ll2 - ll1 == pytest.approx(-n * q * math.log(2.0), rel=1e-10)

    def test_out_of_domain_is_minus_inf(self):
        gen = Generator.standard_normal(2)
        prior = ParamPrior(2)
        theta = np.array([0.0, 0.0, -0.5, 1.0, 0.1])
        assert log_likelihood(theta, Dataset(np.zeros((3, 2))), gen, prior) == -math.inf

    def test_posterior_proportionality_identity(self):
        # log posterior ratios decompose exactly into likelihood + prior ratios
        rng = np.random.default_rng(5)
        gen = Generator.mixed_experiment(4)
        prior = ParamPrior(4)
        m0 = make_ls_model(gen, np.arange(4.0), experiment_covariance(4, 0.1, 1.0, 2.0))
        data = Dataset(m0.sample(20, rng))
        t1, t2 = prior.sample(rng), prior.sample(rng)
        lhs = (log_likelihood(t1, data, gen, prior) + log_density(prior, t1)) - \
              (log_likelihood(t2, data, gen, prior) + log_density(prior, t2))
        rhs_lik = log_likelihood(t1, data, gen, prior) - log_likelihood(t2, data, gen, prior)
        rhs_pri = log_density(prior, t1) - log_density(prior, t2)
        assert lhs == pytest.approx(rhs_lik + rhs_pri, abs=1e-9)


class TestMcmcConfig:
    @pytest.mark.parametrize("field, value", [("thin_sweeps", 0), ("thin_sweeps", -2),
                                              ("burn_sweeps", -1)])
    def test_out_of_range_sweeps_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            McmcConfig(**{field: value})

    def test_range_ends_are_accepted(self):
        cfg = McmcConfig(burn_sweeps=0, thin_sweeps=1)
        assert (cfg.burn_sweeps, cfg.thin_sweeps) == (0, 1)


class TestMetropolis:
    def test_prior_recovered_without_data(self):
        # n = 0: the chain must sample the prior itself
        rng = np.random.default_rng(2)
        prior = ParamPrior(2)
        gen = Generator.standard_normal(2)
        chain = _quiet_chain(prior, Dataset.empty(2), 10_000, McmcConfig(), rng, gen)
        draws = chain.draws
        checks = [
            (draws[:, 0], stats.norm.cdf),
            (draws[:, 1], stats.norm.cdf),
            (draws[:, 2], lambda x: stats.expon.cdf(x, scale=1 / 20)),
            (draws[:, 3], lambda x: stats.expon.cdf(x, scale=1.0)),
            (draws[:, 4], lambda x: stats.expon.cdf(x, scale=1 / 15)),
        ]
        for values, cdf in checks:
            ks = stats.kstest(values, cdf).statistic
            assert ks < 0.05

    def test_conjugate_posterior_moments(self):
        # models N(theta, 1), prior theta ~ N(0,1): posterior is
        # N(n xbar / (n+1), 1/(n+1))
        rng = np.random.default_rng(7)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        gen = Generator.standard_normal(1)
        data = Dataset(rng.normal(1.0, 1.0, size=(50, 1)))
        k = 4000
        chain = _quiet_chain(prior, data, k, McmcConfig(), rng, gen)
        n = data.n
        xbar = data.observations.mean()
        post_mean, post_var = n * xbar / (n + 1), 1.0 / (n + 1)
        se_mean = math.sqrt(post_var / k) * 3.0
        assert chain.draws.mean() == pytest.approx(post_mean, abs=3 * se_mean)
        se_var = post_var * math.sqrt(2.0 / k) * 3.0
        assert chain.draws.var() == pytest.approx(post_var, abs=3 * se_var)

    def test_requested_length_and_acceptance_interval(self):
        rng = np.random.default_rng(9)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        gen = Generator.standard_normal(1)
        chain = _quiet_chain(prior, Dataset(rng.normal(size=(10, 1))), 123,
                             McmcConfig(), rng, gen)
        assert len(chain) == 123
        assert 0.0 < chain.acceptance_rate < 1.0


class TestEveryKnobIsRead:
    """No sampler setting is silently ignored: each field of McmcConfig,
    moved alone off its default, changes the draws of a tiny chain."""

    MOVED = {
        "init_rank": 1,
        "burn_sweeps": 199,
        "thin_sweeps": 4,
    }

    @staticmethod
    def _run(mcmc):
        gen = Generator.standard_normal(1)
        data = Dataset(np.random.default_rng(0).normal(size=(10, 1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chain = metropolis_sample(ParamPrior(1), data, 16, mcmc,
                                      np.random.default_rng(1), gen)
        return chain.draws, [str(w.message) for w in caught]

    def test_each_field_changes_the_chain(self):
        assert {f.name for f in fields(McmcConfig)} == set(self.MOVED)
        base, base_warnings = self._run(McmcConfig())
        assert base_warnings == []
        for name, value in self.MOVED.items():
            draws, _ = self._run(replace(McmcConfig(), **{name: value}))
            assert not np.array_equal(draws, base), name

    def test_rate_outside_the_range_warns_and_keeps_the_draws(self, monkeypatch):
        base, _ = self._run(McmcConfig())
        monkeypatch.setattr(otbayes.bayes, "_WARN_ACCEPT_RANGE", (0.9, 1.0))
        draws, caught = self._run(McmcConfig())
        assert np.array_equal(draws, base)
        assert any("acceptance rate" in msg for msg in caught)


class TestEveryBwbFieldIsRead:
    """No estimator setting is silently ignored: each field of BwbConfig,
    moved alone off its base, changes the model or the diagnostics. The
    sgd fields move off an sgd-mode base."""

    MOVED = {
        "k": 12,
        "mode": "sgd",
        "mcmc": McmcConfig(burn_sweeps=199),
        "iterations": 21,
        "batch_size": 3,
        "multistart_check": True,
    }
    SGD_FIELDS = ("iterations", "batch_size", "multistart_check")

    @staticmethod
    def _run(cfg):
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        data = Dataset(np.random.default_rng(0).normal(size=(10, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model, diag = bwb_estimator(prior, data, cfg, np.random.default_rng(1),
                                        Generator.standard_normal(1))
        return (model.location.tolist(), model.scatter.tolist(), diag.residual,
                diag.n_models, len(diag.trace), diag.multistart_gap)

    def test_each_field_changes_the_estimate(self):
        assert {f.name for f in fields(BwbConfig)} == set(self.MOVED)
        bases = {"empirical": BwbConfig(k=10),
                 "sgd": BwbConfig(k=10, mode="sgd", iterations=20, batch_size=2)}
        outputs = {mode: self._run(cfg) for mode, cfg in bases.items()}
        for name, value in self.MOVED.items():
            mode = "sgd" if name in self.SGD_FIELDS else "empirical"
            assert self._run(replace(bases[mode], **{name: value})) != outputs[mode], name


class TestPosteriorModels:
    def test_single_draw_point_mass(self):
        rng = np.random.default_rng(0)
        prior = ParamPrior(2)
        gen = Generator.standard_normal(2)
        chain = _quiet_chain(prior, Dataset.empty(2), 1, McmcConfig(), rng, gen)
        dist = posterior_models(chain, gen, prior)
        assert len(dist.support) == 1
        assert dist.weights[0] == 1.0

    def test_uniform_weights(self):
        rng = np.random.default_rng(1)
        prior = ParamPrior(2)
        gen = Generator.standard_normal(2)
        chain = _quiet_chain(prior, Dataset.empty(2), 25, McmcConfig(), rng, gen)
        dist = posterior_models(chain, gen, prior)
        assert np.all(dist.weights == 1.0 / 25)

    def test_prior_predictive_covariance_band(self):
        # with no data the average model scatter^2 matches the prior mean
        # of the covariance, estimated directly from prior draws (oracle)
        rng = np.random.default_rng(4)
        prior = ParamPrior(3)
        gen = Generator.standard_normal(3)
        chain = _quiet_chain(prior, Dataset.empty(3), 3000, McmcConfig(), rng, gen)
        dist = posterior_models(chain, gen, prior)
        avg_cov = np.mean([m.scatter_sq for m in dist.support], axis=0)

        oracle_rng = np.random.default_rng(99)
        draws = [_covariance(prior, prior.sample(oracle_rng)) for _ in range(4000)]
        oracle = np.mean(draws, axis=0)
        assert np.max(np.abs(avg_cov - oracle)) < 0.15


class TestModelAverage:
    def test_point_mass_returns_component(self):
        gen = Generator.standard_normal(2)
        m = make_ls_model(gen, [0.0, 0.0], np.eye(2))
        mix = model_average(ModelDistribution(support=[m]))
        x = np.array([[0.3, -0.2]])
        assert mixture_density(mix, x)[0] == pytest.approx(float(np.exp(m.log_density(x)[0])),
                                                          rel=1e-12)

    def test_two_gaussian_mixture_moments(self):
        gen = Generator.standard_normal(1)
        m1 = make_ls_model(gen, [1.0], [[1.0]])
        m2 = make_ls_model(gen, [3.0], [[1.0]])
        mix = model_average(ModelDistribution(support=[m1, m2]))
        # mixture variance = within + between = 1 + 1 = 2
        assert mix.mean()[0] == pytest.approx(2.0, abs=1e-12)
        assert mix.covariance()[0, 0] == pytest.approx(2.0, abs=1e-12)
        # non-Gaussian: flatter top than the normal with matched moments
        assert mixture_density(mix, np.array([[2.0]]))[0] < stats.norm.pdf(2.0, 2.0, math.sqrt(2.0))

    def test_separated_mixture_is_bimodal(self):
        # unimodality of equal-sd pairs breaks beyond 2 sd of separation
        gen = Generator.standard_normal(1)
        m1 = make_ls_model(gen, [1.0], [[1.0]])
        m2 = make_ls_model(gen, [5.0], [[1.0]])
        mix = model_average(ModelDistribution(support=[m1, m2]))
        x = np.linspace(-2, 8, 501)[:, None]
        dens = mixture_density(mix, x)
        peaks = [i for i in range(1, 500) if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]]
        assert len(peaks) == 2
        assert abs(x[peaks[0], 0] - 1.0) < 0.15 and abs(x[peaks[1], 0] - 5.0) < 0.15

    def test_mixture_mean_is_weighted_locations(self):
        gen = Generator.standard_normal(2)
        support = [make_ls_model(gen, [1.0, 0.0], np.eye(2)),
                   make_ls_model(gen, [0.0, 2.0], np.eye(2))]
        mix = model_average(ModelDistribution(support=support, weights=[0.25, 0.75]))
        assert np.allclose(mix.mean(), [0.25, 1.5], atol=1e-14)

    def test_mixture_sampler_statistics(self):
        rng = np.random.default_rng(8)
        gen = Generator.standard_normal(1)
        support = [make_ls_model(gen, [0.0], [[1.0]]), make_ls_model(gen, [4.0], [[1.0]])]
        mix = model_average(ModelDistribution(support=support))
        draws = mix.sample(20000, rng)
        assert draws.mean() == pytest.approx(2.0, abs=0.06)


class TestConvexOrderAgainstModelAverage:
    def test_barycenter_dominated_by_mixture(self):
        from otbayes import empirical_barycenter

        rng = np.random.default_rng(12)
        gen = Generator.standard_normal(3)
        support = []
        for _ in range(8):
            f = rng.normal(size=(3, 3))
            support.append(make_ls_model(gen, rng.normal(size=3),
                                         f @ f.T + 0.3 * np.eye(3)))
        dist = ModelDistribution(support=support)
        bary, _ = empirical_barycenter(dist, stop=StopRule(rel_tol=1e-12, max_iter=500))
        mix = model_average(dist)
        bary_mean = bary.mean()
        bary_m2 = float(np.trace(bary.covariance()) + bary_mean @ bary_mean)
        assert np.allclose(bary_mean, mix.mean(), atol=1e-9)
        assert bary_m2 <= mix.second_moment() + 1e-9


class TestBwbEstimator:
    def test_unknown_mode_is_refused_before_sampling(self, monkeypatch):
        calls = []
        real = otbayes.bayes.metropolis_sample

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(otbayes.bayes, "metropolis_sample", counted)
        data = Dataset(np.random.default_rng(0).normal(size=(20, 2)))
        with pytest.raises(ValueError, match="unknown mode 'sgdd'"):
            bwb_estimator(ParamPrior(2), data, BwbConfig(k=50, mode="sgdd"),
                          np.random.default_rng(1))
        assert calls == []

    def test_point_prior_returns_that_model(self):
        # one fixed scale: the models differ only in location, and the
        # barycenter of such a cloud is exact, so its residual vanishes
        rng = np.random.default_rng(0)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        gen = Generator.standard_normal(1)
        cfg = BwbConfig(k=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model, diag = bwb_estimator(prior, Dataset.empty(1), cfg, rng, gen)
        assert diag.n_models == 5
        assert diag.residual < 1e-9

    def test_conjugate_setting_matches_posterior_mean(self):
        rng = np.random.default_rng(123)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        gen = Generator.standard_normal(1)
        data = Dataset(rng.normal(1.0, 1.0, size=(200, 1)))
        cfg = BwbConfig(k=500)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model, diag = bwb_estimator(prior, data, cfg, rng, gen)
        n, xbar = 200, data.observations.mean()
        target = make_ls_model(gen, [n * xbar / (n + 1)], [[1.0]])
        assert w2_ls(model, target) < 0.05
        assert diag.converged
        assert diag.residual < 5e-3

    def test_sgd_mode_agrees_with_empirical(self):
        rng = np.random.default_rng(3)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        gen = Generator.standard_normal(1)
        data = Dataset(rng.normal(0.5, 1.0, size=(100, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            m_emp, _ = bwb_estimator(prior, data, BwbConfig(k=400),
                                     np.random.default_rng(11), gen)
            m_sgd, diag = bwb_estimator(
                prior, data,
                BwbConfig(mode="sgd", iterations=400, batch_size=4, multistart_check=True),
                np.random.default_rng(12), gen)
        assert w2_ls(m_emp, m_sgd) < 0.1
        assert diag.multistart_gap is not None

    def test_consistency_trend_in_n(self):
        # W2 to the true model shrinks as data accumulates (one inversion allowed)
        gen = Generator.standard_normal(1)
        prior = ParamPrior(1, fixed_covariance=np.eye(1))
        m0 = make_ls_model(gen, [1.0], [[1.0]])
        errs = []
        for i, n in enumerate((10, 100, 1000)):
            rng = np.random.default_rng(1000 + i)
            data = Dataset(m0.sample(n, rng))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                model, _ = bwb_estimator(prior, data, BwbConfig(k=300), rng, gen)
            errs.append(w2_ls(model, m0))
        inversions = sum(errs[i + 1] > errs[i] for i in range(len(errs) - 1))
        assert inversions <= 1
        assert errs[-1] < errs[0]


# Chain-coordinate tails (log eps, log sigma, log omega_inv) that must
# score -inf: exp underflows to 0, exp overflows to inf, and (q = 3) a
# covariance that is not numerically PD although its prior is finite.
_BAD_TAILS = {
    "underflow": (-800.0, 0.0, -1.0),
    "overflow": (-3.0, 800.0, -1.0),
    "not_pd": (-300.0, 300.0, math.log(1.0 / 3.0)),
}


def _reference_log_density(target, phi):
    """The per-state log posterior as computed before batching."""
    q, prior, data = target.q, target.prior, target.data
    theta = phi.copy()
    if target.has_cov_params:
        theta[q:] = np.exp(phi[q:])
    lp = log_density(prior, theta)
    if not math.isfinite(lp):
        return -math.inf
    if target.has_cov_params:
        lp += float(np.sum(phi[q:]))
    if data.n == 0:
        return lp
    vals, vecs = np.linalg.eigh(_covariance(prior, theta))
    if vals[0] <= 0.0:
        return -math.inf
    root = np.sqrt(vals)
    z = ((data.observations - theta[:q]) @ vecs / root) @ vecs.T
    total = lp + float(np.sum(target.gen.log_density(z))) - data.n * float(np.sum(np.log(root)))
    return total if math.isfinite(total) else -math.inf


class TestBatchedLogPosterior:
    q = 3
    gen = Generator([Normal(), Laplace(), Normal()])

    def _target(self, fixed, n, seed):
        rng = np.random.default_rng(seed)
        cov = experiment_covariance(self.q, 0.1, 1.0, 2.0)
        prior = ParamPrior(self.q, fixed_covariance=cov if fixed else None)
        truth = make_ls_model(self.gen, np.arange(self.q, dtype=float), cov)
        data = Dataset(truth.sample(n, rng)) if n else Dataset.empty(self.q)
        return _TransformedTarget(prior, data, self.gen)

    def test_not_pd_row_is_minus_inf_with_a_finite_prior(self):
        target = self._target(False, 10, 0)
        phi = np.concatenate([np.zeros(self.q), _BAD_TAILS["not_pd"]])
        assert math.isfinite(log_density(target.prior, target.to_theta(phi)))
        assert log_density(target, phi) == -math.inf

    # n = 5000 at q = 3 fills four states per whitened block, so stacks of
    # 5 to 10 rows end in a partial block
    @given(
        fixed=st.booleans(),
        n=st.sampled_from([0, 10, 5000]),
        kinds=st.lists(st.sampled_from(["finite"] * 3 + [*_BAD_TAILS]), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @example(fixed=False, n=5000, kinds=["finite"] * 5 + ["not_pd", "underflow", "finite"], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_one_row_calls(self, fixed, n, kinds, seed):
        target = self._target(fixed, n, seed)
        rng = np.random.default_rng(seed + 1)
        rows = []
        for kind in kinds:
            b = np.arange(self.q) + 0.3 * rng.normal(size=self.q)
            if fixed:
                # the fixed prior has no exp coordinates: a huge location
                # gives its non-finite prior instead
                rows.append(b if kind == "finite" else np.full(self.q, 1e200))
            elif kind == "finite":
                tail = np.log([0.1, 1.0, 0.5]) + 0.5 * rng.normal(size=3)
                rows.append(np.concatenate([b, tail]))
            else:
                rows.append(np.concatenate([b, _BAD_TAILS[kind]]))
        stack = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            batched = target.log_densities(stack)
            single = np.array([log_density(target, phi) for phi in stack])
            reference = np.array([_reference_log_density(target, phi) for phi in stack])
        assert batched.shape == (len(kinds),)
        finite = np.isfinite(single)
        assert np.array_equal(np.isfinite(batched), finite)
        assert np.array_equal(np.isfinite(reference), finite)
        assert np.all(batched[~finite] == -math.inf)
        assert np.all(finite[[k == "finite" for k in kinds]])
        assert np.allclose(batched[finite], single[finite], rtol=1e-10, atol=0.0)
        assert np.allclose(batched[finite], reference[finite], rtol=1e-10, atol=0.0)


def _per_walker_ensemble(target, k, mcmc, rng):
    """Red-black stretch-move sweep scoring one walker at a time."""
    dim = target.prior.n_params
    n_walk = max(2 * dim + 2, otbayes.bayes._MIN_WALKERS)
    a = otbayes.bayes._STRETCH_A
    walkers = _walker_seeds(target, rng, mcmc, n_walk)
    lps = np.array([log_density(target, w) for w in walkers])
    bad = ~np.isfinite(lps)
    if np.any(bad):
        best = int(np.argmax(lps))
        walkers[bad] = walkers[best] + 1e-3 * rng.normal(size=(int(bad.sum()), dim))
        lps[bad] = np.array([log_density(target, w) for w in walkers[bad]])

    halves = (np.arange(n_walk) < n_walk // 2, np.arange(n_walk) >= n_walk // 2)
    keep_every = max(mcmc.thin_sweeps, 1)
    n_snapshots = -(-k // n_walk)
    total_sweeps = mcmc.burn_sweeps + n_snapshots * keep_every
    draws = np.empty((n_snapshots * n_walk, dim))
    logps = np.empty(n_snapshots * n_walk)
    accepted = 0
    filled = 0
    independence_moves = 0

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
        return -0.5 * float(z @ z) - fit[3]

    for sweep in range(1, total_sweeps + 1):
        independence = sweep > 2 * otbayes.bayes._ADAPT_WINDOW and sweep % 3 == 0
        for half, other in (halves, halves[::-1]):
            idx = np.where(half)[0]
            partners = np.where(other)[0]
            fit = _fit_gaussian(walkers[partners]) if independence else None
            picks = partners[rng.integers(partners.size, size=idx.size)]
            z = (1.0 + (a - 1.0) * rng.uniform(size=idx.size)) ** 2 / a
            log_u = np.log(rng.uniform(1e-300, 1.0, size=idx.size))
            for pos, j, zz, lu in zip(idx, picks, z, log_u):
                if fit is not None:
                    independence_moves += 1
                    proposal = fit[0] + fit[1] @ rng.normal(size=dim)
                    log_hastings = _log_q(fit, walkers[pos]) - _log_q(fit, proposal)
                else:
                    proposal = walkers[j] + zz * (walkers[pos] - walkers[j])
                    log_hastings = (dim - 1) * math.log(zz)
                with np.errstate(over="ignore", invalid="ignore"):
                    lp_new = log_density(target, proposal)
                if not math.isfinite(lp_new):
                    lp_new = -math.inf
                if lu < log_hastings + lp_new - lps[pos]:
                    walkers[pos] = proposal
                    lps[pos] = lp_new
                    accepted += 1
        if sweep > mcmc.burn_sweeps and (sweep - mcmc.burn_sweeps) % keep_every == 0:
            draws[filled:filled + n_walk] = walkers
            logps[filled:filled + n_walk] = lps
            filled += n_walk

    rate = accepted / (total_sweeps * n_walk)
    return draws[:k], logps[:k], rate, independence_moves


class TestEnsembleMatchesPerWalkerSweep:
    def test_draws_and_acceptance_equal(self, monkeypatch):
        # a short window, so the short chain makes independence moves
        monkeypatch.setattr(otbayes.bayes, "_ADAPT_WINDOW", 5)
        gen = Generator([Normal(), Laplace()])
        truth = make_ls_model(gen, [0.5, -1.0], experiment_covariance(2, 0.1, 1.0, 2.0))
        data = Dataset(truth.sample(20, np.random.default_rng(7)))
        target = _TransformedTarget(ParamPrior(2), data, gen)
        mcmc = McmcConfig(burn_sweeps=30)
        draws, logps, rate = _ensemble_sample(target, 40, mcmc, np.random.default_rng(8))
        ref_draws, ref_logps, ref_rate, moves = _per_walker_ensemble(
            target, 40, mcmc, np.random.default_rng(8))
        assert moves > 0  # the run includes independence moves
        assert np.allclose(draws, ref_draws, rtol=0.0, atol=1e-12)
        assert np.allclose(logps, ref_logps, rtol=1e-12, atol=0.0)
        assert rate == ref_rate


# ---------------------------------------------------------------------------
# The cosine kernel in closed form
# ---------------------------------------------------------------------------


def _eigh_whitening(covs):
    """(pd, whiten, log_det_a) by one stacked eigh, as the likelihood took
    them before the closed form."""
    q = covs.shape[-1]
    pd = np.all(np.isfinite(covs), axis=(1, 2))
    vals, vecs = np.linalg.eigh(np.where(pd[:, None, None], covs, np.eye(q)))
    pd &= vals[:, 0] > 0.0
    root = np.sqrt(np.where(pd[:, None], vals, 1.0))
    whiten = (vecs / root[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return pd, whiten, np.sum(np.log(root), axis=1)


class _EighTarget(_TransformedTarget):
    """The cosine-kernel likelihood with one q x q eigendecomposition and
    one (n, q) @ (q, q) whitening product per state."""

    def log_likelihoods(self, thetas):
        q, obs = self.q, self.data.observations
        n = obs.shape[0]
        out = np.full(thetas.shape[0], -math.inf)
        if n == 0:
            return np.zeros_like(out)
        eps, sigma, omega_inv = thetas[:, q:].T
        live = np.flatnonzero((eps > 0.0) & (sigma > 0.0))
        covs = experiment_covariance(q, eps[live], sigma[live], 1.0 / omega_inv[live])
        pd, whiten, log_det_a = _eigh_whitening(covs)
        live, whiten, log_det_a = live[pd], whiten[pd], log_det_a[pd]
        step = max(1, _BLOCK_DOUBLES // (n * q))
        for lo in range(0, live.size, step):
            rows = live[lo:lo + step]
            z = (obs - thetas[rows, None, :q]) @ whiten[lo:lo + step]
            log_f = self.gen.log_density(z.reshape(-1, q)).reshape(rows.size, n)
            out[rows] = np.sum(log_f, axis=1) - n * log_det_a[lo:lo + step]
        out[~np.isfinite(out)] = -math.inf
        return out


def _closed_form(q, eps, sigma, omega):
    ok, scale, u, h, half_log_det = cosine_kernel_whitening(q, [eps], [sigma], [omega])
    whiten = scale[0] * np.eye(q) + (u[0] * h[0]) @ u[0].T
    return ok[0], whiten, half_log_det[0], cosine_kernel_roots(q, [eps], [sigma], [omega])[0]


class TestCosineKernelClosedForm:
    # eigh's own forward error on the whitening grows like q cond(Sigma)
    # 2^-52 (2.1e-7 at cond 6e7 against a 50-digit reference, where the
    # closed form is 1.1e-14 off); the bound adds that to 1e-9
    @given(q=st.sampled_from([1, 2, 3, 15]), log_eps=st.floats(-12.0, 3.0),
           log_sigma=st.floats(-3.0, 3.0), log_omega=st.floats(-4.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_against_eigh_and_sqrtm_psd(self, q, log_eps, log_sigma, log_omega):
        eps, sigma, omega = math.exp(log_eps), 10.0**log_sigma, 10.0**log_omega
        cov = experiment_covariance(q, eps, sigma, omega)
        vals = np.linalg.eigvalsh(cov)
        cond = vals[-1] / vals[0]
        assume(cond < 1e8)
        ok, whiten, half_log_det, root = _closed_form(q, eps, sigma, omega)
        pd, ref_whiten, ref_half_log_det = _eigh_whitening(cov[None])
        assert ok and pd[0]
        tol = 1e-9 + 32.0 * q * cond * 2.0**-52
        assert np.max(np.abs(whiten - ref_whiten[0])) <= tol * np.max(np.abs(ref_whiten[0]))
        assert abs(half_log_det - ref_half_log_det[0]) <= tol * max(1.0, abs(half_log_det))
        ref_root = sqrtm_psd(cov)
        assert np.max(np.abs(root - ref_root)) <= 1e-9 * np.max(np.abs(ref_root))

    @pytest.mark.parametrize("q,eps,sigma,omega", [
        (15, 1.7676378564545388e-05, 113.45438775475378, 806.2759866471458),
        (15, 8.19511049061251e-06, 20.62497781462973, 815.683728650184),
        (3, 6.833447065029255e-06, 299.26356449179895, 76.91301563420451),
        (15, 2e-5, 50.0, 1e-4),
        (2, 6.7e-6, 735.0, 3.0),
        (1, 6.7e-6, 735.0, 1.0),
    ])
    def test_against_a_50_digit_reference(self, q, eps, sigma, omega):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        s = _kernel_grid(q)
        cov = mp.matrix(q, q)
        for i in range(q):
            for j in range(q):
                cov[i, j] = sigma * mp.cos(mp.mpf(omega) * (mp.mpf(s[i]) - mp.mpf(s[j])))
            cov[i, i] += eps
        vals, vecs = mp.eigsy(cov)
        ref_whiten = vecs * mp.diag([1 / mp.sqrt(v) for v in vals]) * vecs.T
        ref_root = vecs * mp.diag([mp.sqrt(v) for v in vals]) * vecs.T
        ok, whiten, half_log_det, root = _closed_form(q, eps, sigma, omega)
        ref_whiten, ref_root = (np.array(m.tolist(), dtype=float) for m in (ref_whiten, ref_root))
        assert ok
        # for q <= 2 the whitening is taken from the eigenvalues directly
        tol = 1e-14 if q <= 2 else 1e-12
        assert np.max(np.abs(whiten - ref_whiten)) <= tol * np.max(np.abs(ref_whiten))
        assert np.max(np.abs(root - ref_root)) <= 1e-12 * np.max(np.abs(ref_root))
        assert half_log_det == pytest.approx(float(sum(mp.log(v) for v in vals) / 2), rel=1e-13)

    def test_singular_rows_follow_the_eigenvalue_rule(self):
        # eps is the smallest eigenvalue at q = 15; a row is kept iff
        # eps > q 2^-52 (eps + sigma lam_max)
        q, sigma, omega = 15, 1.0, 2.0
        lam_max = np.linalg.eigvalsh(experiment_covariance(q, 1e-300, sigma, omega))[-1]
        edge = q * 2.0**-52 * lam_max
        ok, *_ = cosine_kernel_whitening(q, [0.5 * edge, 2.0 * edge], [sigma] * 2, [omega] * 2)
        assert ok.tolist() == [False, True]

    def test_roots_clamp_like_sqrtm_psd(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            root = cosine_kernel_roots(4, [1e-14, 0.1], [1.0, 1.0], [2.0, 2.0])
        with pytest.warns(RuntimeWarning, match="clamped"):
            ref = sqrtm_psd(experiment_covariance(4, np.array([1e-14, 0.1]), np.ones(2), np.full(2, 2.0)))
        assert np.allclose(root, ref, rtol=0.0, atol=1e-9)
        assert np.linalg.eigvalsh(root[0])[0] == pytest.approx(math.sqrt(1e-12), rel=1e-6)

    def test_sampler_draws_equal_the_eigh_target(self, monkeypatch):
        cfg = ExperimentConfig()
        gen, prior = cfg.generator(), cfg.prior()
        data = Dataset(cfg.true_model().sample(1000, np.random.default_rng([3, 0, 1000])))
        monkeypatch.setattr(otbayes.bayes, "_ADAPT_WINDOW", 10)
        mcmc = McmcConfig(burn_sweeps=40)
        chain = _quiet_chain(prior, data, 200, mcmc, np.random.default_rng(5), gen)
        monkeypatch.setattr(otbayes.bayes, "_TransformedTarget", _EighTarget)
        ref = _quiet_chain(prior, data, 200, mcmc, np.random.default_rng(5), gen)
        assert np.array_equal(chain.draws, ref.draws)
        assert chain.acceptance_rate == ref.acceptance_rate
        np.testing.assert_allclose(chain.log_posterior, ref.log_posterior, rtol=1e-12)


class TestPosteriorModelRoots:
    def _chain(self, draws):
        return PosteriorChain(draws, np.zeros(len(draws)), 0.3)

    def test_fixed_covariance_root_is_taken_once(self, monkeypatch):
        q = 3
        cov = experiment_covariance(q, 0.1, 1.0, 2.0)
        prior = ParamPrior(q, fixed_covariance=cov)
        gen = Generator.mixed_experiment(q)
        chain = self._chain(np.random.default_rng(0).normal(size=(40, q)))
        want = [LocationScatterModel(gen, theta, sqrtm_psd(cov)) for theta in chain.draws]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sqrtm_psd(*args, **kwargs)

        monkeypatch.setattr(otbayes.bayes, "sqrtm_psd", counting)
        got = posterior_models(chain, gen, prior).support
        assert len(calls) == 1
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.location, w.location)
            assert np.array_equal(g.scatter, w.scatter)
            assert np.array_equal(g.scatter_sq, w.scatter_sq)

    def test_cosine_kernel_roots_equal_per_draw_roots(self):
        q = 15
        prior = ParamPrior(q)
        gen = Generator.mixed_experiment(q)
        rng = np.random.default_rng(1)
        draws = np.array([prior.sample(rng) for _ in range(60)])
        got = posterior_models(self._chain(draws), gen, prior).support
        for theta, m in zip(draws, got):
            ref = sqrtm_psd(_covariance(prior, theta))
            assert np.max(np.abs(m.scatter - ref)) <= 1e-11 * np.max(np.abs(ref))
            assert np.array_equal(m.location, theta[:q])

    def test_models_equal_the_public_constructor(self):
        q = 15
        prior, gen = ParamPrior(q), Generator.mixed_experiment(q)
        rng = np.random.default_rng(2)
        draws = np.array([prior.sample(rng) for _ in range(50)])
        roots = cosine_kernel_roots(q, draws[:, q], draws[:, q + 1], 1.0 / draws[:, q + 2])
        got = posterior_models(self._chain(draws), gen, prior).support
        want = [LocationScatterModel(gen, theta[:q], root) for theta, root in zip(draws, roots)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is LocationScatterModel and g.generator is gen
            assert np.array_equal(g.location, w.location)
            assert np.array_equal(g.scatter, w.scatter)
            assert np.array_equal(g.scatter_sq, w.scatter_sq)

    def test_roots_the_constructor_rejects_are_dropped(self, monkeypatch):
        q = 3
        prior, gen = ParamPrior(q), Generator.standard_normal(q)
        draws = np.array([prior.sample(np.random.default_rng(i)) for i in range(5)])
        roots = cosine_kernel_roots(q, draws[:, q], draws[:, q + 1], 1.0 / draws[:, q + 2])
        roots[1, 0, 2] += 1e-9  # asymmetric beyond the constructor's 1e-10
        roots[2, 0, 2] += 1e-11  # asymmetric within it
        roots[3] *= -1.0  # symmetric, not PD
        with pytest.raises(ValueError, match="symmetric"):
            LocationScatterModel(gen, draws[1, :q], roots[1])
        with pytest.raises(MatrixNotPDError):
            LocationScatterModel(gen, draws[3, :q], roots[3])
        monkeypatch.setattr(otbayes.bayes, "cosine_kernel_roots", lambda *args: roots.copy())
        with pytest.warns(RuntimeWarning, match="^2 draws produced non-PD"):
            got = posterior_models(self._chain(draws), gen, prior).support
        assert len(got) == 3
        for g, i in zip(got, (0, 2, 4)):
            want = LocationScatterModel(gen, draws[i, :q], roots[i])
            assert np.array_equal(g.location, want.location)
            assert np.array_equal(g.scatter, want.scatter)
            assert np.array_equal(g.scatter_sq, want.scatter_sq)

    def test_out_of_domain_draws_are_dropped_and_counted(self):
        q = 3
        prior = ParamPrior(q)
        draws = np.array([prior.sample(np.random.default_rng(i)) for i in range(6)])
        draws[1, q] = -0.1  # eps <= 0
        draws[3, q + 2] = 0.0  # omega = inf
        draws[4, q + 1] = np.nan
        with pytest.warns(RuntimeWarning, match="^3 draws produced non-PD"):
            dist = posterior_models(self._chain(draws), Generator.standard_normal(q), prior)
        assert len(dist.support) == 3


# ---------------------------------------------------------------------------
# The coordinate-major likelihood
# ---------------------------------------------------------------------------


def _row_major_log_likelihoods(target, thetas):
    """``(log-likelihoods, magnitudes)`` with each state whitening x - b
    for every observation, row-major, and ``Generator.log_density``
    scoring the rows, as the likelihood was computed before it went
    coordinate-major. A magnitude sums the absolute values of a row's
    terms: the scale of its rounding error."""
    q, obs = target.q, target.data.observations
    n = obs.shape[0]
    out, magnitude = np.full(thetas.shape[0], -math.inf), np.zeros(thetas.shape[0])
    if target.has_cov_params:
        eps, sigma, omega_inv = thetas[:, q:].T
        live = np.flatnonzero((eps > 0.0) & (sigma > 0.0))
        ok, scale, u, h, log_det_a = cosine_kernel_whitening(
            q, eps[live], sigma[live], 1.0 / omega_inv[live])
        live, scale, u, log_det_a = live[ok], scale[ok], u[ok], log_det_a[ok]
        uh_t = np.swapaxes(u * h[ok, None, :], 1, 2)
    else:
        pd, whiten, log_det_a = _eigh_whitening(target.prior.fixed_covariance[None])
        live = np.arange(thetas.shape[0] if pd[0] else 0)
        log_det_a = np.broadcast_to(log_det_a, live.shape)
    for i, row in enumerate(live):
        z = obs - thetas[row, :q]
        if target.has_cov_params:
            z = z * scale[i] + (z @ u[i]) @ uh_t[i]
        else:
            z = z @ whiten[0]
        log_f = target.gen.log_density(z)
        out[row] = np.sum(log_f) - n * log_det_a[i]
        magnitude[row] = np.sum(np.abs(log_f)) + n * abs(log_det_a[i])
    out[~np.isfinite(out)] = -math.inf
    return out, magnitude


_GENERATORS = {
    "mixed": Generator.mixed_experiment(15),
    "standard_normal": Generator.standard_normal(4),
    "heavy": Generator([Laplace(), StudentT(3.0), Laplace(0.5, 2.0), StudentT(5.0)]),
    "shifted_normal": Generator([Normal(1.5, 0.5), Laplace(), Normal(-2.0, 3.0)]),
    "interleaved": Generator([Laplace(), Normal(), StudentT(3.0), Normal(), Laplace(),
                              StudentT(3.0)]),
}


class TestCoordinateMajorLikelihood:
    # generators with no non-normal coordinate, no normal one, normal
    # coordinates off the standard member and interleaved families; data
    # up to 1e3 from the origin
    @given(
        name=st.sampled_from(sorted(_GENERATORS)),
        fixed=st.booleans(),
        n=st.sampled_from([1, 2, 10, 5000]),
        offset=st.floats(-1e3, 1e3),
        kinds=st.lists(st.sampled_from(["finite"] * 3 + [*_BAD_TAILS]), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    @example(name="mixed", fixed=False, n=5000, offset=1e3,
             kinds=["finite", "not_pd", "finite", "underflow", "overflow"], seed=0)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_row_major_formula(self, name, fixed, n, offset, kinds, seed):
        gen = _GENERATORS[name]
        q = gen.dimension
        rng = np.random.default_rng(seed)
        cov = experiment_covariance(q, 0.1, 1.0, 2.0)
        prior = ParamPrior(q, fixed_covariance=cov if fixed else None)
        truth = make_ls_model(gen, offset + rng.normal(size=q), cov)
        target = _TransformedTarget(prior, Dataset(truth.sample(n, rng)), gen)
        rows = []
        for kind in kinds:
            b = truth.location + 0.3 * rng.normal(size=q)
            if fixed:
                rows.append(b)
            elif kind == "finite":
                rows.append(np.concatenate([b, np.exp(np.log([0.1, 1.0, 0.5]) + 0.5 * rng.normal(size=3))]))
            else:
                with np.errstate(over="ignore"):
                    rows.append(np.concatenate([b, np.exp(_BAD_TAILS[kind])]))
        thetas = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            got = target.log_likelihoods(thetas)
            want, magnitude = _row_major_log_likelihoods(target, thetas)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(got[~finite] == -math.inf)
        assert np.array_equal(finite, [fixed or k == "finite" for k in kinds])
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * magnitude[finite])

    def test_workspace_stays_near_one_block(self):
        # 38 states at n = 5000 on the q = 15 experiment generator: all at
        # once, its 10 non-normal coordinates would take 29 blocks (15 MB)
        cfg = ExperimentConfig()
        gen, prior = cfg.generator(), cfg.prior()
        data = Dataset(cfg.true_model().sample(5000, np.random.default_rng(0)))
        target = _TransformedTarget(prior, data, gen)
        rng = np.random.default_rng(1)
        phis = target.from_theta(np.array([prior.sample(rng) for _ in range(38)]))
        phis[:, :gen.dimension] = data.observations.mean(axis=0)
        assert np.all(np.isfinite(target.log_densities(phis)))
        tracemalloc.start()
        try:
            target.log_densities(phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * _BLOCK_DOUBLES
