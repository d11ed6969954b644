"""Descent-step and barycenter tests against closed-form fixed points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _levels import chebyshev_levels
from otbayes import (
    CompatibilityError,
    CopulaModel,
    GaussianCopula,
    Generator,
    GridQuantile,
    GridUnivariate,
    Gumbel,
    IndependenceCopula,
    Laplace,
    Logistic,
    MixtureModel,
    ModelDistribution,
    Normal,
    RadialProfile,
    ScheduleError,
    SphericalModel,
    StepSchedule,
    StopRule,
    StudentT,
    batch_sgd_step,
    empirical_barycenter,
    fixed_point_residual,
    gk_step,
    make_ls_model,
    population_barycenter,
    risk,
    variance_of_gradient_estimator,
    w2,
)

TIGHT = StopRule(rel_tol=1e-10, max_iter=300)


class TestStepSchedule:
    def test_harmonic_accepted(self):
        s = StepSchedule.harmonic().validate()
        assert s.gamma(1) == 1.0
        assert s.gamma(4) == 0.25

    def test_inverse_sqrt_rejected(self):
        with pytest.raises(ScheduleError):
            StepSchedule(a=1.0, c=0.0, r=0.5).validate()

    def test_r_above_one_rejected(self):
        with pytest.raises(ScheduleError):
            StepSchedule(a=1.0, c=0.0, r=1.2).validate()

    def test_rule_flags_follow_exponent(self):
        s = StepSchedule(a=2.0, c=3.0, r=0.75)
        assert s.sum_diverges and s.sq_sum_converges
        assert s.gamma(1) == pytest.approx(2.0 / 4.0**0.75)

    def test_flags_are_read_from_the_exponent_only(self):
        with pytest.raises(TypeError):
            StepSchedule(r=0.75, sq_sum_converges=False)
        assert not StepSchedule(r=0.5).sq_sum_converges
        assert not StepSchedule(r=1.2).sum_diverges


class TestGkStep:
    def test_gamma_zero_is_identity(self):
        mu = Normal(0, 1)
        dist = ModelDistribution(support=[Normal(5, 2)])
        assert gk_step(mu, dist, 0.0) is mu

    def test_point_mass_full_step_returns_target(self):
        mu = Normal(0, 1)
        target = Normal(3, 2)
        out = gk_step(mu, ModelDistribution(support=[target]), 1.0)
        assert isinstance(out, Normal)
        assert out.loc == pytest.approx(3.0) and out.scale == pytest.approx(2.0)

    def test_two_gaussian_fixed_point(self):
        # the equal-weight barycenter of two normals averages mean and sd
        dist = ModelDistribution(support=[Normal(0.0, 1.0), Normal(4.0, 3.0)])
        mu = Normal(-1.0, 0.5)
        for _ in range(5):
            mu = gk_step(mu, dist, 1.0)
        assert mu.loc == pytest.approx(2.0, abs=1e-12)
        assert mu.scale == pytest.approx(2.0, abs=1e-12)

    def test_weighted_quantile_average(self):
        dist = ModelDistribution(support=[Normal(1, 1), Normal(3, 1)],
                                 weights=[0.3, 0.7])
        out = gk_step(Normal(0, 1), dist, 1.0)
        assert out.loc == pytest.approx(2.4, abs=1e-12)
        assert out.scale == pytest.approx(1.0, abs=1e-12)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            gk_step(Normal(0, 1), ModelDistribution(support=[Normal(1, 1)]), 1.5)

    def test_partial_step_interpolates_quantiles(self):
        mu, m = Normal(0, 1), Normal(2, 1)
        out = gk_step(mu, ModelDistribution(support=[m]), 0.25)
        assert out.loc == pytest.approx(0.5, abs=1e-12)


class TestSgdSteps:
    def test_full_step_jumps_to_sample(self):
        out = batch_sgd_step(Normal(0, 1), [Laplace(2, 3)], 1.0)
        assert isinstance(out, Laplace)
        assert out.loc == pytest.approx(2.0) and out.scale == pytest.approx(3.0)

    def test_zero_step_is_identity(self):
        mu = Normal(0, 1)
        assert batch_sgd_step(mu, [Normal(9, 9)], 0.0) is mu

    def test_ls_scalar_update(self):
        # one dim: A0^2 = 1, Am^2 = 9, gamma = 1/2 -> A1^2 = ((1+3)/2)^2 = 4
        gen = Generator.standard_normal(1)
        mu = make_ls_model(gen, [0.0], [[1.0]])
        m = make_ls_model(gen, [0.0], [[9.0]])
        out = batch_sgd_step(mu, [m], 0.5)
        assert out.scatter_sq[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_batch_size_one_equals_sgd(self):
        # the single-model step averages quantiles: (1 - g) Q_mu + g Q_m
        out = batch_sgd_step(Normal(0, 1), [Normal(2, 2)], 0.3)
        assert out.loc == pytest.approx(0.6, abs=1e-12)
        assert out.scale == pytest.approx(1.3, abs=1e-12)

    def test_degenerate_batch_equals_sgd(self):
        mu, m = Normal(0, 1), Normal(2, 2)
        a = batch_sgd_step(mu, [m], 0.6)
        b = batch_sgd_step(mu, [m, m, m], 0.6)
        assert a.loc == pytest.approx(b.loc) and a.scale == pytest.approx(b.scale)

    def test_batch_quantile_average(self):
        out = batch_sgd_step(Laplace(7, 9), [Normal(0, 1), Normal(2, 1)], 1.0)
        assert isinstance(out, Normal)
        assert out.loc == pytest.approx(1.0) and out.scale == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_sgd_step(Normal(0, 1), [], 0.5)


class TestEmpiricalBarycenter:
    def test_two_gaussian_closed_form(self):
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        bary, trace = empirical_barycenter(dist, stop=TIGHT)
        assert trace.converged
        assert w2(bary, Normal(1.0, 2.0)) < 1e-6

    def test_weighted_univariate(self):
        dist = ModelDistribution(support=[Normal(1, 1), Normal(3, 1)], weights=[0.3, 0.7])
        bary, _ = empirical_barycenter(dist, stop=TIGHT)
        assert w2(bary, Normal(2.4, 1.0)) < 1e-8

    def test_ls_diagonal_sigma_averaging(self):
        gen = Generator.standard_normal(2)
        dist = ModelDistribution(support=[
            make_ls_model(gen, [0.0, 0.0], np.diag([1.0, 4.0])),
            make_ls_model(gen, [0.0, 0.0], np.diag([4.0, 1.0])),
        ])
        bary, trace = empirical_barycenter(dist, stop=TIGHT)
        assert trace.converged
        assert np.allclose(bary.scatter_sq, np.diag([2.25, 2.25]), atol=1e-10)
        assert fixed_point_residual(bary, dist) < 1e-8

    def test_nonconvergence_flagged(self):
        gen = Generator.standard_normal(3)
        rng = np.random.default_rng(1)
        support = []
        for _ in range(4):
            f = rng.normal(size=(3, 3))
            support.append(make_ls_model(gen, rng.normal(size=3), f @ f.T + 0.1 * np.eye(3)))
        dist = ModelDistribution(support=support)
        with pytest.warns(RuntimeWarning):
            _, trace = empirical_barycenter(dist, stop=StopRule(rel_tol=1e-16, max_iter=2))
        assert not trace.converged

    def test_copula_barycenter_is_marginal_barycenter(self):
        cop = IndependenceCopula()
        dist = ModelDistribution(support=[
            CopulaModel(cop, [Normal(0, 1), Normal(0, 2)]),
            CopulaModel(cop, [Normal(2, 1), Normal(4, 4)]),
        ])
        bary, _ = empirical_barycenter(dist, stop=TIGHT)
        assert bary.marginals[0].loc == pytest.approx(1.0)
        assert bary.marginals[1].scale == pytest.approx(3.0)

    def test_spherical_barycenter_averages_profiles(self):
        gen = Generator.standard_normal(2)
        r = np.linspace(0.0, 6.0, 200)
        dist = ModelDistribution(support=[
            SphericalModel(gen, RadialProfile(r, 1.0 * r)),
            SphericalModel(gen, RadialProfile(r, 3.0 * r)),
        ])
        bary, _ = empirical_barycenter(dist, stop=TIGHT)
        assert np.allclose(bary.alpha(r), 2.0 * r, atol=1e-10)


class TestSupportCompatibility:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_copula_dimensions_must_agree(self, dims):
        # a step would drop the extra marginal, or index past the last one
        support = [CopulaModel(IndependenceCopula(), [Normal(0, 1)] * d) for d in dims]
        with pytest.raises(CompatibilityError):
            empirical_barycenter(ModelDistribution(support=support))

    def test_unsupported_model_type(self):
        mix = MixtureModel([Normal(0, 1), Normal(1, 1)], [0.5, 0.5])
        with pytest.raises(CompatibilityError):
            ModelDistribution(support=[mix])


class TestFixedPointResidual:
    def test_zero_at_point_mass(self):
        m = Normal(0.4, 1.3)
        assert fixed_point_residual(m, ModelDistribution(support=[m])) < 1e-12

    def test_small_at_closed_form_barycenter(self):
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        assert fixed_point_residual(Normal(1, 2), dist) < 1e-8

    def test_univariate_is_the_l2_norm_of_the_averaged_displacement(self):
        # the averaged map sends N(1, 4) to N(1, 2): T(x) - x = (1 - x) / 2
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        assert fixed_point_residual(Normal(1, 4), dist) == pytest.approx(2.0, abs=1e-12)

    def test_copula_with_one_equal_marginal(self):
        cop = IndependenceCopula()
        dist = ModelDistribution(support=[CopulaModel(cop, [Normal(0, 1), Laplace(0, 1)]),
                                          CopulaModel(cop, [Normal(2, 3), Laplace(0, 1)])])
        mu = CopulaModel(cop, [Normal(1, 4), Laplace(0, 1)])
        assert fixed_point_residual(mu, dist) == pytest.approx(2.0, abs=1e-12)

    def test_spherical_linear_profiles(self):
        # alpha_m(r) = c_m r: the displacement is (mean c - c0) x, and E|x|^2 = 3
        gen = Generator.standard_normal(3)
        r = np.linspace(0.0, 8.0, 50)
        cs = [0.7, 1.3, 2.1]
        dist = ModelDistribution(support=[SphericalModel(gen, RadialProfile(r, c * r))
                                          for c in cs])
        mu = SphericalModel(gen, RadialProfile(r, 0.5 * r))
        want = math.sqrt(3.0) * abs(np.mean(cs) - 0.5)
        assert fixed_point_residual(mu, dist) == pytest.approx(want, rel=1e-4)

    def test_large_for_wrong_scale(self):
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        assert fixed_point_residual(Normal(1, 4), dist) > 0.1

    def test_sampler_mode_uses_draws(self):
        rng = np.random.default_rng(3)
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        res = fixed_point_residual(
            Normal(0, 1), ModelDistribution(support=[dist.draw(rng) for _ in range(4000)]))
        assert res < 0.05  # mean displacement of N(theta,1) population at truth

    def test_sampler_mode_is_rejected(self):
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        with pytest.raises(ValueError, match="requires a finitely supported distribution"):
            fixed_point_residual(Normal(0, 1), dist)


class TestModelDistribution:
    def test_weights_with_a_sampler_are_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            ModelDistribution(sampler=lambda r: Normal(r.normal(), 1.0), weights=[1.0])

    def test_support_and_weights_cannot_change(self):
        weights = np.array([0.25, 0.75])
        dist = ModelDistribution(support=[Normal(0, 1), Normal(1, 1)], weights=weights)
        assert isinstance(dist.support, tuple)
        with pytest.raises(ValueError):
            dist.weights[0] = 0.5
        weights[0] = 0.5  # the caller's array is not frozen, nor shared
        assert dist.weights[0] == 0.25


def _ls_cloud(rng, k, q=3):
    gen = Generator.standard_normal(q)
    models = []
    for _ in range(k):
        f = rng.normal(size=(q, q))
        models.append(make_ls_model(gen, rng.normal(size=q), f @ f.T / q + 0.2 * np.eye(q)))
    return models


class TestKeptRow:
    """A finite distribution keeps the row of its last iterate, so the
    residual after a descent builds none."""

    def test_residual_after_descent_reuses_the_last_row(self, monkeypatch):
        import otbayes.transport

        dist = ModelDistribution(support=_ls_cloud(np.random.default_rng(8), 12))
        bary, _ = empirical_barycenter(dist)
        real, calls = otbayes.transport.sqrtm_psd, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(otbayes.transport, "sqrtm_psd", counted)
        kept = fixed_point_residual(bary, dist)
        assert calls == []
        fresh = fixed_point_residual(bary, ModelDistribution(support=dist.support))
        assert len(calls) == 1
        assert kept == fresh

    @pytest.mark.parametrize("make", [
        lambda rng: _ls_cloud(rng, 6),
        lambda rng: [Normal(rng.normal(), 1.0 + rng.uniform()) for _ in range(4)],
    ])
    def test_another_iterate_or_distribution_gets_a_fresh_row(self, make):
        models = make(np.random.default_rng(9))
        dist = ModelDistribution(support=models)
        row = dist.row(models[0])
        assert dist.row(models[0]) is row and row.mu is models[0]
        other = dist.row(models[1])
        assert other is not row and other.mu is models[1]
        assert dist.row(models[0]) is not row
        twin = ModelDistribution(support=models)
        assert twin.row(models[0]) is not dist.row(models[0])

    def test_an_equal_but_distinct_iterate_gets_a_fresh_row(self):
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        mu = Normal(1, 2)
        row = dist.row(mu)
        assert dist.row(Normal(1, 2)) is not row

    def test_an_incompatible_iterate_is_refused(self):
        dist = ModelDistribution(support=_ls_cloud(np.random.default_rng(10), 3))
        with pytest.raises(CompatibilityError):
            fixed_point_residual(Normal(0, 1), dist)


class TestPopulationBarycenter:
    def test_point_population_converges(self):
        m = Normal(1.5, 0.7)
        dist = ModelDistribution(support=[m])
        rng = np.random.default_rng(0)
        out, trace = population_barycenter(dist, StepSchedule.harmonic(), 200, 1, Normal(0, 1), rng)
        assert w2(out, m) < 1e-3
        assert len(trace) == 200

    def test_gaussian_location_population(self):
        # theta ~ N(0,1), models N(theta,1): barycenter is N(0,1)
        rng = np.random.default_rng(123)
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        out, _ = population_barycenter(dist, StepSchedule.harmonic(), 2000, 8, Normal(5, 1), rng,
                                       trace_every=0)
        assert w2(out, Normal(0, 1)) < 0.05
        sample = ModelDistribution(support=[dist.draw(rng) for _ in range(2000)])
        assert fixed_point_residual(out, sample) < 5e-3

    def test_mixed_family_iterate_stays_one_term_per_family(self):
        # fresh normal, Laplace, logistic and Gumbel draws each step: the
        # iterate keeps one component per family, and with gamma_t = 1/t
        # its quantile is the running mean of the batches' mean quantiles
        families = (Normal, Laplace, Logistic, Gumbel)
        drawn = []

        def draw(r):
            m = families[r.integers(len(families))](r.normal(), float(np.exp(0.3 * r.normal())))
            drawn.append(m)
            return m

        steps, batch = 40, 5
        out, _ = population_barycenter(ModelDistribution.from_sampler(draw),
                                       StepSchedule.harmonic(), steps, batch, Normal(0, 1),
                                       np.random.default_rng(9), trace_every=0)
        assert len(drawn) == steps * batch
        assert len(getattr(out, "components", (out,))) <= len(families)
        u = np.linspace(0.001, 0.999, 199)
        batch_means = np.mean([m.quantile(u) for m in drawn], axis=0)
        assert np.allclose(out.quantile(u), batch_means, rtol=1e-10, atol=1e-10)

    def test_invalid_schedule_rejected(self):
        dist = ModelDistribution(support=[Normal(0, 1)])
        with pytest.raises(ScheduleError):
            population_barycenter(dist, StepSchedule(r=0.5), 10, 1, Normal(0, 1),
                                  np.random.default_rng(0))

    def test_empirical_and_population_agree_on_gaussian_case(self):
        rng = np.random.default_rng(2024)
        thetas = rng.normal(size=500)
        support = [Normal(t, 1.0) for t in thetas]
        emp, _ = empirical_barycenter(ModelDistribution(support=support), stop=TIGHT)

        rng2 = np.random.default_rng(77)
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        pop, _ = population_barycenter(dist, StepSchedule.harmonic(), 2000, 8,
                                       Normal(0, 1), rng2, trace_every=0)
        assert w2(emp, pop) < 0.05


class TestVarianceOfGradientEstimator:
    def test_zero_for_point_mass_at_itself(self):
        m = Normal(0, 1)
        rng = np.random.default_rng(1)
        v = variance_of_gradient_estimator(m, ModelDistribution(support=[m]), 4, 200, rng)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_batch_size(self):
        rng = np.random.default_rng(5)
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        mu = Normal(0, 1)
        v1 = variance_of_gradient_estimator(mu, dist, 1, 400, rng)
        v64 = variance_of_gradient_estimator(mu, dist, 64, 400, rng)
        assert v64 < v1

    def test_one_over_s_law(self):
        rng = np.random.default_rng(11)
        dist = ModelDistribution.from_sampler(lambda r: Normal(r.normal(), 1.0))
        mu = Normal(0, 1)
        v1 = variance_of_gradient_estimator(mu, dist, 1, 500, rng)
        v8 = variance_of_gradient_estimator(mu, dist, 8, 500, rng)
        assert 8 * 0.7 < v1 / v8 < 8 * 1.3


class TestRiskDescentInExpectation:
    def test_expected_single_step_bound(self):
        # population theta ~ N(0,1), sigma = 1; mu = N(1/2, 1); gamma small.
        # bound: E[F(mu+) - F(mu)] <= gamma^2 F(mu) - gamma |F'|^2
        rng = np.random.default_rng(31)
        gamma, mu_loc = 0.1, 0.5
        f_mu = 0.5 * (mu_loc**2 + 1.0)
        grad_sq = mu_loc**2
        bound = gamma**2 * f_mu - gamma * grad_sq
        deltas = []
        for _ in range(600):
            theta = rng.normal()
            new_loc = mu_loc + gamma * (theta - mu_loc)
            f_new = 0.5 * ((new_loc - 0.0) ** 2 + 0.0 + 1.0)  # E(new_loc - theta')^2 over theta'
            f_new = 0.5 * (new_loc**2 + 1.0)
            deltas.append(f_new - f_mu)
        mean = np.mean(deltas)
        slack = 3.0 * np.std(deltas) / math.sqrt(len(deltas))
        assert mean <= bound + slack

    def test_sgd_step_realizes_the_predicted_risk(self):
        # the package step must match the hand-computed location update
        out = batch_sgd_step(Normal(0.5, 1.0), [Normal(2.0, 1.0)], 0.1)
        assert out.loc == pytest.approx(0.5 + 0.1 * 1.5, abs=1e-12)
        assert out.scale == pytest.approx(1.0, abs=1e-12)


class TestShapePreservation:
    @staticmethod
    def _symmetric_support(rng, size):
        makers = [
            lambda loc, s: Normal(loc, s),
            lambda loc, s: Laplace(loc, s),
            lambda loc, s: __import__("otbayes").Logistic(loc, s),
        ]
        out = []
        for _ in range(size):
            mk = makers[rng.integers(len(makers))]
            out.append(mk(rng.normal(), 0.5 + rng.uniform()))
        return out

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            support = self._symmetric_support(rng, int(rng.integers(2, 6)))
            dist = ModelDistribution(support=support)
            bary, _ = empirical_barycenter(dist, stop=TIGHT)
            y = np.linspace(0.01, 0.49, 80)
            top = bary.quantile(0.5 + y)
            bot = bary.quantile(0.5 - y)
            assert np.max(np.abs((top + bot) - (top + bot)[0])) < 1e-8

    def test_unimodality_preserved_for_log_concave(self):
        from otbayes import Exponential, Gumbel, Logistic

        rng = np.random.default_rng(23)
        makers = [
            lambda: Normal(rng.normal(), 0.5 + rng.uniform()),
            lambda: Laplace(rng.normal(), 0.5 + rng.uniform()),
            lambda: Logistic(rng.normal(), 0.5 + rng.uniform()),
            lambda: Gumbel(rng.normal(), 0.5 + rng.uniform()),
            lambda: Exponential(0.5 + rng.uniform()),
        ]
        for _ in range(20):
            support = [makers[rng.integers(len(makers))]() for _ in range(int(rng.integers(2, 5)))]
            bary, _ = empirical_barycenter(ModelDistribution(support=support), stop=TIGHT)
            u = np.linspace(0.005, 0.995, 397)
            g = bary.quantile_derivative(u)
            second = g[2:] - 2.0 * g[1:-1] + g[:-2]
            assert np.min(second) > -1e-8


class TestTraceExport:
    def test_risk_history_nonincreasing_for_deterministic_descent(self):
        gen = Generator.standard_normal(3)
        rng = np.random.default_rng(6)
        support = []
        for _ in range(5):
            f = rng.normal(size=(3, 3))
            support.append(make_ls_model(gen, rng.normal(size=3), f @ f.T + 0.2 * np.eye(3)))
        _, trace = empirical_barycenter(ModelDistribution(support=support), stop=TIGHT)
        risks = np.array(trace.risk)
        assert np.all(np.diff(risks) <= 1e-10)


    def test_one_row_per_iteration_at_unit_step(self):
        # row 0 is the start; every later row is a full fixed-point step
        dist = ModelDistribution(support=[Normal(0, 1), Normal(2, 3)])
        _, trace = empirical_barycenter(dist, stop=TIGHT)
        n = len(trace)
        assert n >= 2
        assert trace.iterations == list(range(n))
        assert trace.gammas == [0.0] + [1.0] * (n - 1)
        assert len(trace.risk) == len(trace.grad_norm_sq) == len(trace.wall_ms) == n


class TestMixedGridSupport:
    def test_grid_member_in_support(self):
        u = chebyshev_levels(256)
        grid_model = GridUnivariate(GridQuantile(u, Laplace(1.0, 1.0).quantile(u)))
        dist = ModelDistribution(support=[Normal(0, 1), grid_model])
        bary, _ = empirical_barycenter(dist, stop=TIGHT)
        # quantiles must be the exact average of the two components
        uu = np.linspace(0.05, 0.95, 9)
        expected = 0.5 * (Normal(0, 1).quantile(uu) + grid_model.quantile(uu))
        assert np.allclose(bary.quantile(uu), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Invariances of the univariate, copula and spherical barycenters
# ---------------------------------------------------------------------------

_LEVELS = np.linspace(0.01, 0.99, 41)
_RADII = np.linspace(0.0, 10.0, 41)
_UNIVARIATE = (Normal, Laplace, Logistic, Gumbel, lambda loc, scale: StudentT(5.0, loc, scale))


def _univariate_cloud(rng, k):
    """k models of mixed families, one of them a quantile grid."""
    out = [_UNIVARIATE[int(rng.integers(len(_UNIVARIATE)))](rng.normal(), math.exp(0.4 * rng.normal()))
           for _ in range(k - 1)]
    values = Normal(rng.normal(), math.exp(0.4 * rng.normal())).quantile(_LEVELS)
    return out + [GridUnivariate(GridQuantile(_LEVELS, values))]


def _moved(m, scale, shift):
    """L(scale x + shift) for x ~ m, scale > 0."""
    if isinstance(m, GridUnivariate):
        return GridUnivariate(GridQuantile(m.grid.knots, scale * m.grid.values + shift))
    if isinstance(m, StudentT):
        return StudentT(m.df, scale * m.loc + shift, scale * m.scale)
    return type(m)(scale * m.loc + shift, scale * m.scale)


def _copula_cloud(rng, k, q, copula):
    return [CopulaModel(copula, _univariate_cloud(rng, q)) for _ in range(k)]


def _spherical_cloud(rng, k):
    """k radial profiles of one generator, each on its own radii."""
    gen = Generator.standard_normal(2)
    out = []
    for _ in range(k):
        r = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 8.0, size=12))])
        out.append(SphericalModel(gen, RadialProfile(
            r, rng.uniform(0.5, 2.0) * r + rng.uniform(0.0, 0.1) * r**2)))
    return out


def _marginals(m):
    return m.marginals if isinstance(m, CopulaModel) else (m,)


def _bary_curves(dist):
    """The barycenter with its marginal quantiles, or its radial profile, on a grid."""
    bary, trace = empirical_barycenter(dist, stop=TIGHT)
    assert trace.converged
    if isinstance(bary, SphericalModel):
        return bary, bary.alpha(_RADII)[None, :]
    return bary, np.array([mj.quantile(_LEVELS) for mj in _marginals(bary)])


def _same_barycenter(d1, d2):
    a, qa = _bary_curves(d1)
    b, qb = _bary_curves(d2)
    assert np.allclose(qb, qa, rtol=1e-12, atol=1e-12)
    assert risk(b, d2) == pytest.approx(risk(a, d1), rel=1e-9, abs=1e-12)


class TestFamilyBarycenterInvariance:
    """Permutation, duplication and affine invariances for the univariate
    and shared-copula families, whose barycenter is the averaged quantile,
    and for the spherical family, whose barycenter is the averaged radial
    profile (scaled, not translated: a profile has no translation)."""

    kinds = st.sampled_from(["univariate", "independence", "gaussian", "spherical"])

    @staticmethod
    def _cloud(rng, kind, k):
        if kind == "univariate":
            return _univariate_cloud(rng, k)
        if kind == "spherical":
            return _spherical_cloud(rng, k)
        copula = IndependenceCopula() if kind == "independence" else \
            GaussianCopula([[1.0, 0.4], [0.4, 1.0]])
        return _copula_cloud(rng, k, 2, copula)

    @given(kind=kinds, k=st.integers(2, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_permuting_the_support(self, kind, k, seed):
        rng = np.random.default_rng(seed)
        models = self._cloud(rng, kind, k)
        weights = rng.dirichlet(np.ones(k))
        weights /= weights.sum()
        perm = rng.permutation(k)
        _same_barycenter(ModelDistribution(support=models, weights=weights),
                         ModelDistribution(support=[models[i] for i in perm],
                                           weights=weights[perm]))

    @given(kind=kinds, k=st.integers(2, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_duplicated_model_equals_doubled_weight(self, kind, k, seed):
        rng = np.random.default_rng(seed)
        models = self._cloud(rng, kind, k)
        dup = int(rng.integers(k))
        doubled = np.ones(k)
        doubled[dup] = 2.0
        _same_barycenter(ModelDistribution(support=models, weights=doubled / doubled.sum()),
                         ModelDistribution(support=models + [models[dup]]))

    @given(kind=kinds, k=st.integers(1, 5), scale=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_translation_and_scaling_equivariance(self, kind, k, scale, seed):
        rng = np.random.default_rng(seed)
        models = self._cloud(rng, kind, k)
        shift = 5.0 * rng.normal(size=len(_marginals(models[0])))
        if kind == "univariate":
            moved = [_moved(m, scale, shift[0]) for m in models]
        elif kind == "spherical":
            shift[:] = 0.0
            moved = [SphericalModel(m.generator,
                                    RadialProfile(m.alpha.radii, scale * m.alpha.values))
                     for m in models]
        else:
            moved = [CopulaModel(m.copula, [_moved(mj, scale, c)
                                            for mj, c in zip(m.marginals, shift)])
                     for m in models]
        d_models, d_moved = ModelDistribution(support=models), ModelDistribution(support=moved)
        a, qa = _bary_curves(d_models)
        b, qb = _bary_curves(d_moved)
        assert np.allclose(qb, scale * qa + shift[:, None], rtol=1e-12, atol=1e-11 * scale)
        assert risk(b, d_moved) == pytest.approx(scale**2 * risk(a, d_models), rel=1e-8,
                                                 abs=1e-12)
