"""Transport map and distance tests; discrete solves checked against
brute-force permutation enumeration."""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import otbayes.transport
from otbayes import (
    CompatibilityError,
    CopulaModel,
    DiscreteMeasure,
    Exponential,
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
    QuadratureError,
    QuantileMixModel,
    RadialProfile,
    SizeCapError,
    SphericalModel,
    StudentT,
    discrete_ot,
    make_ls_model,
    ot_map,
    sample,
    variance_of_gradient_estimator,
    w2,
    w2_ls,
    wp_univariate,
)
from otbayes.linalg import check_symmetric
from otbayes.transport import (
    AffinePSDMap,
    CopulaRow,
    LsCrossTerms,
    SphericalRow,
    UnivariateRow,
    averaged_map,
)


def brute_force_equal_weight_cost(xs, ys, p):
    """Minimum transport cost over all n! assignments (oracle)."""
    n = len(xs)
    w = 1.0 / n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = math.fsum(abs(xs[i] - ys[perm[i]]) ** p * w for i in range(n))
        best = min(best, cost)
    return best


def plan_cost_1d(plan, xs, ys, p):
    """Plan cost with the same term expression the oracle uses."""
    coo = plan.plan
    return math.fsum(abs(xs[r] - ys[c]) ** p * m
                     for r, c, m in zip(coo.row, coo.col, coo.data))


class TestUnivariateMaps:
    def test_identity_when_src_equals_dst(self):
        m = Normal(0.7, 1.3)
        t = ot_map(m, m)
        x = np.linspace(-3, 4, 41)
        assert np.max(np.abs(t(x) - x)) < 1e-8

    def test_gaussian_map_is_affine(self):
        # Q_dst(F_src(x)) = mu + sigma x, composed analytically
        t = ot_map(Normal(0, 1), Normal(2.0, 3.0))
        x = np.linspace(-4, 4, 33)
        assert np.allclose(t(x), 2.0 + 3.0 * x, atol=1e-8)

    def test_exponential_rate_halving_doubles(self):
        t = ot_map(Exponential(1.0), Exponential(0.5))
        x = np.linspace(0.01, 8.0, 40)
        assert np.allclose(t(x), 2.0 * x, atol=1e-9)

    def test_pushforward_two_sample_check(self):
        rng = np.random.default_rng(42)
        src, dst = Laplace(0, 1), Normal(1, 2)
        t = ot_map(src, dst)
        pushed = t(src.sample(4000, rng))
        direct = dst.sample(4000, rng)
        stat = stats.ks_2samp(pushed, direct).statistic
        assert stat < 0.05

    def test_composition_closure(self):
        # two rearrangements composed equal the direct one
        a, b, c = Normal(0, 1), Laplace(1, 2), Exponential(0.7)
        t_ab, t_bc, t_ac = ot_map(a, b), ot_map(b, c), ot_map(a, c)
        x = a.quantile(np.linspace(0.02, 0.98, 97))
        assert np.max(np.abs(t_bc(t_ab(x)) - t_ac(x))) < 1e-6


class TestUnivariateDistance:
    def test_zero_on_equal_models(self):
        assert wp_univariate(Normal(0, 1), Normal(0, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_pure_translation(self):
        assert wp_univariate(Normal(0, 1), Normal(2, 1)) == pytest.approx(2.0, abs=1e-9)

    def test_gaussian_closed_form(self):
        # independent oracle: quadrature of the squared quantile gap
        val, _ = integrate.quad(
            lambda u: (stats.norm.ppf(u, 0, 1) - stats.norm.ppf(u, 2, 2)) ** 2, 0, 1)
        assert wp_univariate(Normal(0, 1), Normal(2, 2)) == pytest.approx(math.sqrt(5), abs=1e-7)
        assert wp_univariate(Normal(0, 1), Normal(2, 2)) == pytest.approx(math.sqrt(val), abs=1e-7)

    def test_exponential_pair_analytic(self):
        # |Q2 - Q1| = |ln(1-u)|, so W2^2 = Gamma(3) = 2
        assert wp_univariate(Exponential(1.0), Exponential(0.5)) == pytest.approx(
            math.sqrt(2.0), abs=1e-8)

    def test_symmetry(self):
        a, b = Laplace(0, 1), Normal(1, 2)
        assert wp_univariate(a, b) == pytest.approx(wp_univariate(b, a), abs=1e-10)

    def test_smooth_through_crossing_quantiles(self):
        # the quantile functions cross once in each pair, where |Q1 - Q2|
        # has a kink; (Q1 - Q2)^2 is smooth there
        assert wp_univariate(Normal(0, 1), Normal(1, 2)) == pytest.approx(math.sqrt(2.0),
                                                                          rel=0.0, abs=1e-12)
        m1, m2 = Normal(0.0, 1.0), Logistic(-1.0, 0.5)

        def gap(u):
            return stats.norm.ppf(u) - stats.logistic.ppf(u, -1.0, 0.5)

        crossing = optimize.brentq(gap, 0.5, 1.0 - 1e-9, xtol=1e-16)
        want = math.fsum(integrate.quad(lambda u: gap(u) ** 2, a, b, limit=200,
                                        epsabs=1e-14, epsrel=1e-12)[0]
                         for a, b in [(0.0, crossing), (crossing, 1.0)])
        assert wp_univariate(m1, m2) == pytest.approx(math.sqrt(want), rel=1e-11)

    def test_heavy_tail_pair_converges(self):
        val = wp_univariate(StudentT(3.0, 0.0, 1.0), StudentT(3.0, 1.0, 2.0))
        # oracle: scale/location shift of the same shape
        t_var = 3.0
        assert val == pytest.approx(math.sqrt(1.0 + 1.0 * t_var), rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_t3_against_normal_reference(self):
        # 1.2441770994341826: mpmath at 60 digits and a z-space quad agree
        val = wp_univariate(StudentT(3.0, 0.1, 1.2), Normal(0.0, 1.0))
        assert val == pytest.approx(1.2441770994341826, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_t25_against_normal_reference(self):
        # 1.5501622700547419: mpmath at 40 digits in z-space
        val = wp_univariate(StudentT(2.5), Normal(0.0, 1.0))
        assert val == pytest.approx(1.5501622700547419, rel=1e-12)

    @pytest.mark.parametrize("df", [1.0, 2.0])
    def test_infinite_second_moment_raises(self, df):
        # t(df <= 2) has no second moment, so W2 to N(0, 1) is infinite
        with pytest.raises(QuadratureError):
            wp_univariate(StudentT(df), Normal(0.0, 1.0))

    @pytest.mark.parametrize("failed_tail", [0, 1])
    def test_unconverged_tail_with_small_error_raises(self, monkeypatch, failed_tail):
        # a tail that stops at tanh-sinh's level cap may still report a tiny
        # error estimate; the gate must count it as not converged
        real = otbayes.transport.tanhsinh

        def capped(*args, **kwargs):
            res = real(*args, **kwargs)
            success = np.ones_like(res.success)
            success[failed_tail] = False
            return SimpleNamespace(integral=res.integral, error=np.full_like(res.error, 1e-15),
                                   success=success)

        monkeypatch.setattr(otbayes.transport, "tanhsinh", capped)
        with pytest.raises(QuadratureError, match="tolerance not reached"):
            wp_univariate(Normal(0.0, 1.0), Laplace(0.5, 2.0))

    def test_monotone_map_cost_equals_distance(self):
        # transporting src by the monotone map realizes the distance
        src, dst = Normal(0, 1), Laplace(2, 1)
        t = ot_map(src, dst)
        val, _ = integrate.quad(lambda x: (t(x) - x) ** 2 * src.pdf(x), -9, 9, limit=200)
        assert math.sqrt(val) == pytest.approx(wp_univariate(src, dst), abs=1e-6)


def _counted_tanhsinh(monkeypatch):
    """Count the tanh-sinh calls the transport module makes."""
    real, calls = otbayes.transport.tanhsinh, []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(otbayes.transport, "tanhsinh", counted)
    return calls


def _row_members():
    """One member of each quantile family: the location-scale shapes, t,
    a grid with knots and a mix of a shape and a grid."""
    levels = np.linspace(0.03, 0.97, 17)
    grid = GridUnivariate(GridQuantile(levels, stats.laplace.ppf(levels, 0.4, 1.3)))
    return [
        Normal(0.5, 1.4), Laplace(-0.3, 0.8), Logistic(1.0, 0.6), Gumbel(-0.2, 1.1),
        StudentT(4.0, 0.1, 0.9), grid,
        QuantileMixModel([0.7, 0.3], [Normal(1.0, 2.0), grid]),
    ]


class TestStackedRows:
    """Each family row takes its distances in one stacked evaluation that
    equals the per-model pair functions."""

    @pytest.mark.parametrize("mu_index", [0, 5, 6])
    def test_univariate_row_equals_the_pair_function(self, monkeypatch, mu_index):
        members = _row_members()
        mu = members[mu_index]
        calls = _counted_tanhsinh(monkeypatch)
        got = UnivariateRow(mu, members).w2_sq()
        assert len(calls) == 1
        want = np.array([wp_univariate(mu, m) ** 2 for m in members])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_copula_row_equals_the_pair_function(self, monkeypatch):
        members = _row_members()
        cop = GaussianCopula([[1.0, 0.3], [0.3, 1.0]])
        models = [CopulaModel(cop, [a, b]) for a, b in zip(members, members[::-1])]
        mu = CopulaModel(cop, [Normal(0.0, 1.0), members[6]])
        calls = _counted_tanhsinh(monkeypatch)
        got = CopulaRow(mu, models).w2_sq()
        assert len(calls) == 1
        # marginal by marginal, one quadrature each
        want = np.array([math.fsum(wp_univariate(a, b) ** 2
                                   for a, b in zip(mu.marginals, m.marginals))
                         for m in models])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_spherical_row_equals_the_pair_function(self):
        rng = np.random.default_rng(3)
        gen = Generator.standard_normal(3)
        radii = np.linspace(0.0, 6.0, 50)
        cloud = [SphericalModel(gen, RadialProfile(radii, rng.uniform(0.5, 2.0) * radii
                                                   + rng.uniform(0.0, 0.2) * radii**2))
                 for _ in range(6)]
        got = SphericalRow(cloud[0], cloud).w2_sq()
        want = np.array([w2(cloud[0], m) ** 2 for m in cloud])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert got[0] == 0.0

    def test_a_failing_pair_raises_through_the_row(self):
        mu = Normal(0.0, 1.0)
        with pytest.raises(QuadratureError):
            wp_univariate(mu, StudentT(2.0))
        with pytest.raises(QuadratureError):
            UnivariateRow(mu, [Laplace(0.0, 1.0), StudentT(2.0), Normal(1.0, 1.0)]).w2_sq()
        cop = IndependenceCopula()
        with pytest.raises(QuadratureError):
            CopulaRow(CopulaModel(cop, [mu, mu]),
                      [CopulaModel(cop, [mu, Laplace(0.0, 1.0)]),
                       CopulaModel(cop, [Normal(1.0, 1.0), StudentT(1.0)])]).w2_sq()

    @pytest.mark.parametrize("failed_tail", [2, 3])
    def test_one_unconverged_tail_fails_its_own_pair(self, monkeypatch, failed_tail):
        # elements 2 and 3 are the second pair's lower and upper tails
        real = otbayes.transport.tanhsinh

        def capped(*args, **kwargs):
            res = real(*args, **kwargs)
            success = np.ones_like(res.success)
            success[failed_tail] = False
            return SimpleNamespace(integral=res.integral, error=np.full_like(res.error, 1e-15),
                                   success=success)

        monkeypatch.setattr(otbayes.transport, "tanhsinh", capped)
        with pytest.raises(QuadratureError, match="tolerance not reached"):
            UnivariateRow(Normal(0.0, 1.0), [Laplace(0.5, 2.0), Gumbel(0.0, 1.0)]).w2_sq()


# standardized shape of each location-scale family and its (mean, variance),
# from the textbook formulas rather than the models' own moment methods
_SHAPES = {
    "normal": (lambda l, s: Normal(l, s), 0.0, 1.0),
    "laplace": (lambda l, s: Laplace(l, s), 0.0, 2.0),
    "logistic": (lambda l, s: Logistic(l, s), 0.0, math.pi**2 / 3.0),
    "gumbel": (lambda l, s: Gumbel(l, s), 0.5772156649015329, math.pi**2 / 6.0),
    "exponential": (lambda l, s: Exponential(1.0 / s), 1.0, 1.0),
    "t3": (lambda l, s: StudentT(3.0, l, s), 0.0, 3.0),
    "t5": (lambda l, s: StudentT(5.0, l, s), 0.0, 5.0 / 3.0),
}


def _upper_quantile_models():
    grid_levels = np.linspace(0.01, 0.99, 41)
    return [
        Normal(0.3, 1.7), Laplace(-1.0, 0.5), Logistic(0.0, 2.0), Gumbel(1.0, 0.8),
        Exponential(2.0), StudentT(3.0, 0.2, 1.1), StudentT(5.0),
        QuantileMixModel([0.4, 0.35, 0.25], [Normal(0, 1), StudentT(3.0, 1.0, 2.0),
                                             Gumbel(-0.5, 1.5)]),
        GridUnivariate(GridQuantile(grid_levels, stats.norm.ppf(grid_levels, 1.0, 2.0))),
        QuantileMixModel([0.5, 0.5], [Laplace(0, 1), GridUnivariate(GridQuantile(
            grid_levels, stats.logistic.ppf(grid_levels)))]),
    ]


class TestUnivariateQuadrature:
    @given(
        shape=st.sampled_from(sorted(_SHAPES)),
        l1=st.floats(-3.0, 3.0), s1=st.floats(0.2, 3.0),
        l2=st.floats(-3.0, 3.0), s2=st.floats(0.2, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_shape_pairs_against_the_closed_form(self, shape, l1, s1, l2, s2):
        make, mean0, var0 = _SHAPES[shape]
        if shape == "exponential":
            l1 = l2 = 0.0
        assume(abs(l1 - l2) + abs(s1 - s2) > 1e-3)
        # Q1 - Q2 = dl + ds Q0, so W2^2 = dl^2 + 2 dl ds mu0 + ds^2 (var0 + mu0^2)
        dl, ds = l1 - l2, s1 - s2
        want = dl * dl + 2.0 * dl * ds * mean0 + ds * ds * (var0 + mean0 * mean0)
        got = wp_univariate(make(l1, s1), make(l2, s2)) ** 2
        assert got == pytest.approx(want, rel=1e-9)

    @given(v=st.floats(1e-3, 0.5), index=st.integers(0, len(_upper_quantile_models()) - 1))
    @settings(max_examples=80, deadline=None)
    def test_upper_quantile_is_the_reflected_quantile(self, v, index):
        model = _upper_quantile_models()[index]
        np.testing.assert_allclose(model.upper_quantile(v), model.quantile(1.0 - v),
                                   rtol=1e-12, atol=1e-12)
        vs = np.array([v, 0.5 * v, 0.5])
        np.testing.assert_allclose(model.upper_quantile(vs), model.quantile(1.0 - vs),
                                   rtol=1e-12, atol=1e-12)

    def test_upper_quantile_rejects_levels_outside_the_unit_interval(self):
        for model in _upper_quantile_models():
            with pytest.raises(ValueError):
                model.upper_quantile(0.0)
            with pytest.raises(ValueError):
                model.upper_quantile(np.array([0.5, 1.0]))

    def test_grid_and_mix_pairs_match_a_split_quad(self):
        levels = np.linspace(0.02, 0.98, 25)
        grid = GridUnivariate(GridQuantile(levels, stats.laplace.ppf(levels, 0.5, 1.2)))
        mix = QuantileMixModel([0.6, 0.4], [Normal(0, 1), grid])
        for m1, m2 in [(grid, Normal(0.0, 1.0)), (mix, Logistic(0.2, 0.7))]:
            pieces = np.concatenate([[0.0], levels, [1.0]])
            want = math.fsum(integrate.quad(
                lambda u: (float(m1.quantile(u)) - float(m2.quantile(u))) ** 2, a, b,
                limit=200, epsabs=1e-14, epsrel=1e-10)[0]
                for a, b in zip(pieces[:-1], pieces[1:]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = wp_univariate(m1, m2) ** 2
            assert got == pytest.approx(want, rel=1e-9)


class TestLsMaps:
    def setup_method(self):
        self.gen2 = Generator.standard_normal(2)
        self.gen3 = Generator.standard_normal(3)

    def test_identity_source_scatter(self):
        m1 = make_ls_model(self.gen2, [0.0, 0.0], np.eye(2))
        sigma2 = np.array([[2.0, 0.5], [0.5, 1.0]])
        m2 = make_ls_model(self.gen2, [1.0, -1.0], sigma2)
        t = ot_map(m1, m2)
        assert np.allclose(t.matrix, m2.scatter, atol=1e-10)
        x = np.array([[0.3, 0.7]])
        assert np.allclose(t(x), x @ m2.scatter + m2.location, atol=1e-10)

    def test_commuting_diagonal(self):
        m1 = make_ls_model(self.gen2, [0.0, 0.0], np.diag([1.0, 4.0]))
        m2 = make_ls_model(self.gen2, [0.0, 0.0], np.diag([4.0, 1.0]))
        t = ot_map(m1, m2)
        assert np.allclose(t.matrix, np.diag([2.0, 0.5]), atol=1e-12)

    def test_random_pd_pair_pushforward_property(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            f1, f2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            s1 = f1 @ f1.T + 0.5 * np.eye(3)
            s2 = f2 @ f2.T + 0.5 * np.eye(3)
            m1 = make_ls_model(self.gen3, np.zeros(3), s1)
            m2 = make_ls_model(self.gen3, np.zeros(3), s2)
            a = ot_map(m1, m2).matrix
            assert np.max(np.abs(a @ s1 @ a - s2)) < 1e-8
            assert np.allclose(a, a.T, atol=1e-10)
            assert np.linalg.eigvalsh(a)[0] > 0.0

    def test_generator_mismatch(self):
        other = Generator.standard_normal(2)
        gen_mixed = Generator([Normal(), Laplace()])
        m1 = make_ls_model(other, [0.0, 0.0], np.eye(2))
        m2 = make_ls_model(gen_mixed, [0.0, 0.0], np.eye(2))
        with pytest.raises(CompatibilityError):
            ot_map(m1, m2)

    def test_w2_zero_and_translation(self):
        m1 = make_ls_model(self.gen2, [0.0, 0.0], np.eye(2))
        assert w2_ls(m1, m1) == pytest.approx(0.0, abs=1e-9)
        m2 = make_ls_model(self.gen2, [3.0, 4.0], np.eye(2))
        assert w2_ls(m1, m2) == pytest.approx(5.0, abs=1e-12)

    def test_w2_one_dim_cross_check_with_quantile_route(self):
        gen1 = Generator.standard_normal(1)
        m1 = make_ls_model(gen1, [0.0], [[1.0]])
        m2 = make_ls_model(gen1, [2.0], [[4.0]])
        closed = w2_ls(m1, m2)
        quantile_route = wp_univariate(Normal(0, 1), Normal(2, 2))
        assert closed == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert closed == pytest.approx(quantile_route, abs=1e-7)

    def test_w2_ls_refuses_other_families(self):
        with pytest.raises(CompatibilityError, match="scatter-location"):
            w2_ls(Normal(0, 1), Normal(1, 1))

    def test_public_map_constructor_checks_its_matrix(self):
        b = np.zeros(2)
        with pytest.raises(ValueError, match="not symmetric"):
            AffinePSDMap([[1.0, 0.1], [0.0, 1.0]], b, b)
        with pytest.raises(ValueError, match="must be PSD"):
            AffinePSDMap([[1.0, 0.0], [0.0, -1.0]], b, b)

    def test_map_constructor_takes_rounding_at_the_matrix_scale(self):
        # rank-deficient PSD at scale 1e6: rounding leaves eigenvalues near
        # -1e-10, which is noise at that scale, not a negative direction
        rng = np.random.default_rng(0)
        b = np.zeros(5)
        lowest = []
        for _ in range(50):
            f = rng.normal(size=(5, 3))
            mat = 1e6 * (f @ f.T)
            lowest.append(np.linalg.eigvalsh(mat)[0])
            AffinePSDMap(mat, b, b)
        assert min(lowest) < -1e-10
        with pytest.raises(ValueError, match="must be PSD"):
            AffinePSDMap(np.diag([1e6, 1.0, 1.0, 1.0, -1e-3]), b, b)

    def test_descent_maps_are_built_unchecked(self, monkeypatch):
        # ls_map_matrix output is exactly symmetric and PSD by congruence;
        # checking it would return it bit for bit
        rng = np.random.default_rng(4)
        models = []
        for _ in range(6):
            f = rng.normal(size=(3, 3))
            models.append(make_ls_model(self.gen3, rng.normal(size=3), f @ f.T + 0.5 * np.eye(3)))
        names = []

        def counting(*args, **kwargs):
            names.append(kwargs.get("name"))
            return check_symmetric(*args, **kwargs)

        monkeypatch.setattr(otbayes.transport, "check_symmetric", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            variance_of_gradient_estimator(models[0], ModelDistribution(support=models), 2, 20, rng)
        maps = [ot_map(models[0], models[1]),
                averaged_map(models[0], models),
                LsCrossTerms(models[0], models).batch_map([1, 2, 2])]
        assert names == []
        for t in maps:
            checked = AffinePSDMap(t.matrix, t.b1, t.b2)
            assert np.array_equal(checked.matrix, t.matrix)
        assert names == ["affine map matrix"] * len(maps)


class TestCopulaMaps:
    def test_identity_for_identical_marginals(self):
        cop = IndependenceCopula()
        m = CopulaModel(cop, [Normal(0, 1), Laplace(0, 1)])
        t = ot_map(m, m)
        x = np.array([[0.2, -0.4], [1.0, 2.0]])
        assert np.max(np.abs(t(x) - x)) < 1e-8

    def test_translation_and_cost_additivity(self):
        cop = IndependenceCopula()
        m1 = CopulaModel(cop, [Normal(0, 1), Normal(0, 1)])
        m2 = CopulaModel(cop, [Normal(1, 1), Normal(1, 1)])
        t = ot_map(m1, m2)
        x = np.array([[0.0, 0.0], [0.5, -0.5]])
        assert np.allclose(t(x), x + 1.0, atol=1e-9)
        assert w2(m1, m2) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_gaussian_copula_same_marginal_cost(self):
        rho = GaussianCopula([[1.0, 0.5], [0.5, 1.0]])
        m1 = CopulaModel(rho, [Normal(0, 1), Normal(0, 1)])
        m2 = CopulaModel(rho, [Normal(1, 1), Normal(1, 1)])
        t = ot_map(m1, m2)
        x = np.array([[0.1, 0.9]])
        assert np.allclose(t(x), x + 1.0, atol=1e-9)
        assert w2(m1, m2) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_copula_mismatch(self):
        m1 = CopulaModel(IndependenceCopula(), [Normal(0, 1)])
        m2 = CopulaModel(GaussianCopula([[1.0]]), [Normal(0, 1)])
        with pytest.raises(CompatibilityError):
            ot_map(m1, m2)

    def test_dimension_and_type_mismatch(self):
        # a zip over the marginals would drop the extra one and read 0.0
        cop = IndependenceCopula()
        m2 = CopulaModel(cop, [Normal(0, 1), Normal(0, 1)])
        m3 = CopulaModel(cop, [Normal(0, 1), Normal(0, 1), Normal(0, 1)])
        for a, b in ((m2, m3), (m3, m2)):
            for fn in (w2, ot_map):
                with pytest.raises(CompatibilityError):
                    fn(a, b)
        mix = MixtureModel([m2, m2], [0.5, 0.5])
        with pytest.raises(CompatibilityError):
            w2(mix, m2)

    def test_additivity_against_discrete_solver(self):
        rng = np.random.default_rng(14)
        cop = IndependenceCopula()
        m1 = CopulaModel(cop, [Normal(0, 1), Laplace(0, 1)])
        m2 = CopulaModel(cop, [Normal(1.5, 1), Laplace(-0.5, 2)])
        closed = w2(m1, m2)
        est = discrete_ot(sample(m1, 1500, rng), sample(m2, 1500, rng),
                          assignment_cap=1500)[1]
        assert abs(est - closed) / closed < 0.08


class TestSphericalMaps:
    def setup_method(self):
        self.gen = Generator.standard_normal(2)

    def test_equal_profiles_identity(self):
        alpha = RadialProfile([0.0, 1.0, 5.0], [0.0, 1.0, 5.0])
        m = SphericalModel(self.gen, alpha)
        t = ot_map(m, m)
        x = np.array([[1.0, 1.0], [0.3, -2.0]])
        assert np.max(np.abs(t(x) - x)) < 1e-10

    def test_linear_scaling(self):
        a1 = RadialProfile([0.0, 5.0], [0.0, 5.0])
        a2 = RadialProfile([0.0, 5.0], [0.0, 10.0])
        t = ot_map(SphericalModel(self.gen, a1), SphericalModel(self.gen, a2))
        x = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert np.allclose(t(x), 2.0 * x, atol=1e-10)

    def test_square_root_composition(self):
        r = np.linspace(0.0, 3.0, 400)
        a1 = RadialProfile(r, r**2)  # alpha1(r) = r^2
        a2 = RadialProfile(r, r)     # alpha2(r) = r
        t = ot_map(SphericalModel(self.gen, a1), SphericalModel(self.gen, a2))
        # composed profile should be sqrt on the interior
        s = np.linspace(0.2, 8.0, 50)
        x = np.column_stack([s, np.zeros_like(s)])
        pushed = np.linalg.norm(t(x), axis=1)
        assert np.max(np.abs(pushed - np.sqrt(s))) < 5e-3

    def test_noninvertible_profile(self):
        flat = RadialProfile([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        grow = RadialProfile([0.0, 2.0], [0.0, 2.0])
        with pytest.raises(ValueError):
            ot_map(SphericalModel(self.gen, flat), SphericalModel(self.gen, grow))


class TestDiscreteOt:
    def test_identical_clouds(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        plan, dist = discrete_ot(DiscreteMeasure(pts), DiscreteMeasure(pts))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert plan.cost(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_monotone_matching(self):
        src = DiscreteMeasure(np.array([[0.0], [2.0]]))
        dst = DiscreteMeasure(np.array([[1.0], [3.0]]))
        plan, dist = discrete_ot(src, dst, 2.0)
        # oracle: both permutations by hand
        assert brute_force_equal_weight_cost([0.0, 2.0], [1.0, 3.0], 2.0) == pytest.approx(1.0)
        assert plan.cost(2.0) == pytest.approx(1.0, abs=1e-15)
        assert dist == pytest.approx(1.0, abs=1e-15)

    def test_plan_couples_the_sorted_points(self):
        src = DiscreteMeasure(np.array([[0.0], [2.0]]))
        dst = DiscreteMeasure(np.array([[1.0], [3.0]]))
        plan, _ = discrete_ot(src, dst, 2.0)
        coo = plan.plan
        entries = sorted((int(r), int(c), float(m)) for r, c, m in zip(coo.row, coo.col, coo.data)
                         if m != 0.0)
        assert entries == [(0, 0, pytest.approx(0.5)), (1, 1, pytest.approx(0.5))]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_dim_matches_permutation_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            plan, _ = discrete_ot(DiscreteMeasure(xs[:, None]), DiscreteMeasure(ys[:, None]), 2.0)
            assert plan_cost_1d(plan, xs, ys, 2.0) == brute_force_equal_weight_cost(xs, ys, 2.0)

    def test_general_weights_lp_vs_one_dim_scan(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=5)[:, None]
        ys = rng.normal(size=7)[:, None]
        ws = rng.dirichlet(np.ones(5))
        wt = rng.dirichlet(np.ones(7))
        src, dst = DiscreteMeasure(xs, ws), DiscreteMeasure(ys, wt)
        plan_scan, d_scan = discrete_ot(src, dst, 2.0)
        # force the LP path by faking 2-D points with a zero column
        src2 = DiscreteMeasure(np.column_stack([xs, np.zeros(5)]), ws)
        dst2 = DiscreteMeasure(np.column_stack([ys, np.zeros(7)]), wt)
        plan_lp, d_lp = discrete_ot(src2, dst2, 2.0)
        assert d_lp == pytest.approx(d_scan, abs=1e-9)
        assert plan_lp.cost(2.0) == pytest.approx(plan_scan.cost(2.0), abs=1e-9)

    def test_assignment_vs_lp_2d(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=(6, 2))
        _, d_assign = discrete_ot(DiscreteMeasure(xs), DiscreteMeasure(ys))
        src = DiscreteMeasure(xs, np.full(6, 1 / 6) + 0.0)
        # perturb one weight pair to force the LP branch, then restore
        w = np.full(6, 1 / 6)
        w[0] += 1e-13
        w[1] -= 1e-13
        _, d_lp = discrete_ot(DiscreteMeasure(xs, w / w.sum()), DiscreteMeasure(ys))
        assert d_lp == pytest.approx(d_assign, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_assignment_matches_permutation_oracle(self, n):
        # skewed, shifted and collinear (singular-scatter) clouds
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            xs = rng.normal(size=(n, 2)) @ rng.normal(size=(2, 2)) + rng.normal(scale=4.0, size=2)
            ys = rng.exponential(size=(n, 2)) + rng.normal(scale=4.0, size=2)
            flat = np.column_stack([ys[:, 0], 2.0 * ys[:, 0]])
            for dst in (ys, flat):
                _, dist = discrete_ot(DiscreteMeasure(xs), DiscreteMeasure(dst))
                best = min(np.sum((xs - dst[list(perm)]) ** 2)
                           for perm in itertools.permutations(range(n))) / n
                assert dist**2 == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_assignment_cost_equals_plain_solver(self):
        rng = np.random.default_rng(41)
        xs = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3)) + 5.0
        ys = rng.standard_t(3, size=(300, 3)) - 5.0
        cost = cdist(xs, ys, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        _, dist = discrete_ot(DiscreteMeasure(xs), DiscreteMeasure(ys), assignment_cap=300)
        assert dist**2 == pytest.approx(cost[rows, cols].mean(), rel=1e-12)

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(30)
        src = DiscreteMeasure(rng.normal(size=(8, 3)), rng.dirichlet(np.ones(8)))
        dst = DiscreteMeasure(rng.normal(size=(5, 3)), rng.dirichlet(np.ones(5)))
        plan, _ = discrete_ot(src, dst)
        row = np.asarray(plan.plan.sum(axis=1)).ravel()
        col = np.asarray(plan.plan.sum(axis=0)).ravel()
        assert np.max(np.abs(row - src.weights)) < 1e-9
        assert np.max(np.abs(col - dst.weights)) < 1e-9

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            clouds = [DiscreteMeasure(rng.normal(size=(7, 2))) for _ in range(3)]
            d01 = discrete_ot(clouds[0], clouds[1])[1]
            d10 = discrete_ot(clouds[1], clouds[0])[1]
            d02 = discrete_ot(clouds[0], clouds[2])[1]
            d12 = discrete_ot(clouds[1], clouds[2])[1]
            assert d01 == pytest.approx(d10, abs=1e-8)
            assert d02 <= d01 + d12 + 1e-8

    def test_size_cap(self):
        rng = np.random.default_rng(2)
        big = DiscreteMeasure(rng.normal(size=(40, 2)))
        with pytest.raises(SizeCapError, match="subsampl"):
            discrete_ot(big, big, assignment_cap=16)
        # unequal sizes take the LP, capped at LP_VARIABLE_CAP = 100 000 variables
        with pytest.raises(SizeCapError, match="120000 variables.*subsampl"):
            discrete_ot(DiscreteMeasure(rng.normal(size=(400, 2))),
                        DiscreteMeasure(rng.normal(size=(300, 2))))

    def test_closed_form_ls_agreement(self):
        rng = np.random.default_rng(77)
        gen = Generator.standard_normal(2)
        m1 = make_ls_model(gen, [0.0, 0.0], np.array([[1.0, 0.3], [0.3, 2.0]]))
        m2 = make_ls_model(gen, [1.0, 0.5], np.array([[2.0, -0.2], [-0.2, 1.0]]))
        closed = w2_ls(m1, m2)
        c1 = sample(m1, 2000, rng)
        c2 = sample(m2, 2000, rng)
        est = discrete_ot(c1, c2, assignment_cap=2000)[1]
        assert abs(est - closed) / closed < 0.05

    def test_closed_form_vs_subsampled_estimates(self):
        # 1000-point clouds, exact transport on 256-point subsamples:
        # within 10% of the closed form at least 9 times out of 10
        rng = np.random.default_rng(41)
        gen = Generator.standard_normal(3)
        hits = 0
        for _ in range(10):
            f1, f2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            m1 = make_ls_model(gen, rng.normal(scale=2.0, size=3), f1 @ f1.T + 0.3 * np.eye(3))
            m2 = make_ls_model(gen, rng.normal(scale=2.0, size=3), f2 @ f2.T + 0.3 * np.eye(3))
            closed = w2_ls(m1, m2)
            c1 = sample(m1, 1000, rng)
            c2 = sample(m2, 1000, rng)
            idx1 = rng.choice(1000, size=256, replace=False)
            idx2 = rng.choice(1000, size=256, replace=False)
            est = discrete_ot(DiscreteMeasure(c1.points[idx1]),
                              DiscreteMeasure(c2.points[idx2]))[1]
            hits += abs(est - closed) / closed < 0.10
        assert hits >= 9
