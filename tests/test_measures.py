"""Distribution-family unit tests: closed forms against independent oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from _levels import chebyshev_levels
import otbayes
from otbayes import (
    DiscreteMeasure,
    Exponential,
    Generator,
    GridQuantile,
    GridUnivariate,
    Gumbel,
    Laplace,
    Logistic,
    MatrixNotPDError,
    Normal,
    QuantileMixModel,
    StudentT,
    experiment_covariance,
    make_ls_model,
    mix_quantiles,
    sample,
)

ALL_PARAMETRIC = [
    Normal(0.3, 1.7),
    Laplace(-1.0, 0.8),
    StudentT(3.0, 0.5, 1.2),
    Exponential(2.5),
    Logistic(0.0, 0.6),
    Gumbel(1.0, 2.0),
]


class TestQuantiles:
    def test_normal_median_is_zero(self):
        assert Normal(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_quantile_analytic_inverse(self):
        # F(x) = 1 - exp(-x) inverted by hand at x = 1
        u = 1.0 - math.exp(-1.0)
        assert Exponential(1.0).quantile(u) == pytest.approx(1.0, abs=1e-12)

    def test_grid_quantile_linear_midpoint(self):
        g = GridQuantile([0.25, 0.75], [-1.0, 1.0])
        assert g(0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_domain_errors(self, u):
        with pytest.raises(ValueError):
            Normal(0, 1).quantile(u)

    @pytest.mark.parametrize("model", ALL_PARAMETRIC, ids=lambda m: m.family)
    def test_quantile_cdf_roundtrip(self, model):
        u = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(model.cdf(model.quantile(u)) - u)) < 1e-9

    @pytest.mark.parametrize("model,oracle", zip(ALL_PARAMETRIC, [
        stats.norm(0.3, 1.7),
        stats.laplace(-1.0, 0.8),
        stats.t(3.0, 0.5, 1.2),
        stats.expon(scale=1.0 / 2.5),
        stats.logistic(0.0, 0.6),
        stats.gumbel_r(1.0, 2.0),
    ]), ids=[m.family for m in ALL_PARAMETRIC])
    def test_quantile_matches_scipy(self, model, oracle):
        # pins each family's (location, scale, shape) reading, not just self-consistency
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(model.quantile(u), oracle.ppf(u), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", ALL_PARAMETRIC, ids=lambda m: m.family)
    def test_quantile_nondecreasing(self, model):
        u = np.linspace(0.001, 0.999, 500)
        assert np.all(np.diff(model.quantile(u)) >= 0.0)

    @pytest.mark.parametrize("model", ALL_PARAMETRIC, ids=lambda m: m.family)
    def test_density_normalized(self, model):
        lo, hi = model.quantile(1e-9), model.quantile(1.0 - 1e-9)
        val, _ = integrate.quad(lambda x: model.pdf(x), lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)
        x = np.linspace(lo, hi, 200)
        assert np.all(model.pdf(x) >= 0.0)


class TestGridQuantile:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            GridQuantile([0.5], [0.0])  # single knot
        with pytest.raises(ValueError):
            GridQuantile([0.0, 0.5], [0.0, 1.0])  # knot at 0
        with pytest.raises(ValueError):
            GridQuantile([0.2, 0.2], [0.0, 1.0])  # not strictly increasing
        with pytest.raises(ValueError):
            GridQuantile([0.2, 0.8], [1.0, 0.0])  # decreasing values

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=2, max_size=30, unique=True),
        st.lists(st.floats(-50, 50), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_by_construction(self, knots, values):
        knots = sorted(knots)
        values = sorted(values[: len(knots)])
        if len(values) < len(knots):
            return
        g = GridQuantile(knots, values)
        u = np.linspace(0.001, 0.999, 101)
        assert np.all(np.diff(g(u)) >= -1e-12)

    def test_inverse_roundtrip(self):
        g = GridQuantile([0.1, 0.4, 0.9], [-2.0, 0.5, 3.0])
        u = np.linspace(0.1, 0.9, 33)
        assert np.allclose(g.inverse(g(u)), u, atol=1e-12)

    def test_ends_extend_linearly(self):
        assert GridQuantile([0.2, 0.8], [0.0, 1.0])(0.9) == pytest.approx(7 / 6)

    def test_grid_model_interpolates_between_uneven_knots(self):
        g = GridUnivariate(GridQuantile([0.2, 0.5, 0.8], [0.0, 1.0, 4.0]))
        assert np.allclose(g.quantile(np.array([0.35, 0.65])), [0.5, 2.5], atol=1e-15)

    def test_grid_model_moments(self):
        # grid built from an exact normal should reproduce its moments
        u = chebyshev_levels(2048)
        m = GridUnivariate(GridQuantile(u, Normal(2.0, 3.0).quantile(u)))
        assert m.mean() == pytest.approx(2.0, abs=1e-3)
        assert m.variance() == pytest.approx(9.0, rel=1e-2)


class TestQuantileMix:
    def test_same_family_collapses_to_parametric(self):
        m = mix_quantiles([0.5, 0.5], [Normal(0, 1), Normal(2, 3)])
        assert isinstance(m, Normal)
        assert m.loc == pytest.approx(1.0)
        assert m.scale == pytest.approx(2.0)

    def test_exponential_mix_stays_exponential(self):
        m = mix_quantiles([0.5, 0.5], [Exponential(1.0), Exponential(0.5)])
        assert isinstance(m, Exponential)
        assert m.scale == pytest.approx(1.5)

    def test_mixed_families_exact_quantile(self):
        parts = [Normal(0, 1), Laplace(1, 2)]
        m = mix_quantiles([0.3, 0.7], parts)
        assert isinstance(m, QuantileMixModel)
        u = np.linspace(0.01, 0.99, 50)
        expected = 0.3 * parts[0].quantile(u) + 0.7 * parts[1].quantile(u)
        assert np.allclose(m.quantile(u), expected, atol=0.0)

    def test_flattening_keeps_depth_one(self):
        inner = mix_quantiles([0.5, 0.5], [Normal(0, 1), Laplace(0, 1)])
        outer = mix_quantiles([0.5, 0.5], [inner, Gumbel(0, 1)])
        assert all(not isinstance(c, QuantileMixModel) for c in outer.components)

    def test_cdf_inverts_quantile(self):
        m = mix_quantiles([0.4, 0.6], [Normal(0, 1), Logistic(2, 1)])
        for u in (0.05, 0.3, 0.62, 0.97):
            assert m.cdf(m.quantile(u)) == pytest.approx(u, abs=1e-10)

    def test_mean_linear(self):
        m = mix_quantiles([0.25, 0.75], [Normal(4, 1), Laplace(-2, 1)])
        assert m.mean() == pytest.approx(0.25 * 4 - 0.75 * 2, abs=1e-12)


class TestMakeLsModel:
    def test_identity(self):
        gen = Generator.standard_normal(2)
        m = make_ls_model(gen, [0.0, 0.0], np.eye(2))
        assert np.allclose(m.scatter, np.eye(2), atol=1e-14)

    def test_diagonal_root(self):
        gen = Generator.standard_normal(2)
        m = make_ls_model(gen, [0.0, 0.0], np.diag([4.0, 9.0]))
        assert np.allclose(m.scatter, np.diag([2.0, 3.0]), atol=1e-12)

    def test_root_squares_back(self):
        gen = Generator.standard_normal(2)
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = make_ls_model(gen, [0.0, 0.0], sigma)
        assert np.max(np.abs(m.scatter @ m.scatter - sigma)) < 1e-10

    def test_non_pd_reports_smallest_eigenvalue(self):
        gen = Generator.standard_normal(2)
        with pytest.raises(MatrixNotPDError) as err:
            make_ls_model(gen, [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_mean_and_covariance_for_standardized_generator(self):
        gen = Generator.standard_normal(3)
        sigma = np.diag([1.0, 2.0, 3.0])
        m = make_ls_model(gen, [1.0, 2.0, 3.0], sigma)
        assert np.allclose(m.mean(), [1.0, 2.0, 3.0])
        assert np.allclose(m.covariance(), sigma, atol=1e-12)


class TestExperimentCovariance:
    def test_diagonal_entries(self):
        for eps, sig, om in [(0.01, 1.0, 5.652), (0.5, 2.0, 0.7)]:
            mat = experiment_covariance(8, eps, sig, om)
            assert np.allclose(np.diag(mat), eps + sig, atol=1e-14)

    def test_reference_parameter_corner(self):
        mat = experiment_covariance(15, 0.01, 1.0, 5.652)
        assert mat[0, 0] == pytest.approx(1.01, abs=1e-12)
        assert mat.shape == (15, 15)

    def test_omega_zero_rank_one_plus_ridge(self):
        q, eps, sig = 6, 0.3, 2.0
        mat = experiment_covariance(q, eps, sig, 0.0)
        assert np.allclose(mat, eps * np.eye(q) + sig * np.ones((q, q)), atol=1e-14)
        vals = np.sort(np.linalg.eigvalsh(mat))
        expected = np.sort([eps + q * sig] + [eps] * (q - 1))
        assert np.allclose(vals, expected, atol=1e-10)

    @pytest.mark.parametrize("eps,sig,om", [(0.01, 1.0, 5.652), (1.0, 0.1, 20.0),
                                            (0.2, 3.0, 1.0), (0.05, 0.5, 12.3)])
    def test_symmetric_positive_definite(self, eps, sig, om):
        mat = experiment_covariance(15, eps, sig, om)
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat)[0] > 0.0

    def test_q_one(self):
        assert experiment_covariance(1, 0.1, 2.0, 3.0) == pytest.approx(np.array([[2.1]]))


class TestSampling:
    def test_ls_identity_pushforward_matches_generator(self):
        rng = np.random.default_rng(11)
        gen = Generator.standard_normal(3)
        m = make_ls_model(gen, np.zeros(3), np.eye(3))
        cloud = sample(m, 4000, rng)
        assert np.max(np.abs(cloud.points.mean(axis=0))) < 4.0 / math.sqrt(4000)

    def test_normal_sample_variance_band(self):
        rng = np.random.default_rng(5)
        cloud = sample(Normal(0, 1), 100_000, rng)
        assert 0.97 < cloud.points.var() < 1.03

    def test_uniform_weights_exact(self):
        rng = np.random.default_rng(0)
        cloud = sample(Normal(0, 1), 7, rng)
        assert np.all(cloud.weights == 1.0 / 7)

    def test_copula_and_spherical_samplers_run(self):
        from otbayes import CopulaModel, GaussianCopula, RadialProfile, SphericalModel

        rng = np.random.default_rng(3)
        cop = CopulaModel(GaussianCopula([[1.0, 0.5], [0.5, 1.0]]), [Normal(0, 1), Normal(0, 1)])
        pts = cop.sample(2000, rng)
        corr = np.corrcoef(pts.T)[0, 1]
        assert 0.3 < corr < 0.65  # Gaussian copula with normal marginals keeps rho

        gen = Generator.standard_normal(2)
        sph = SphericalModel(gen, RadialProfile([0.0, 10.0], [0.0, 20.0]))
        pts = sph.sample(2000, rng)
        # alpha(r) = 2r doubles every norm relative to the generator
        assert np.mean(np.linalg.norm(pts, axis=1)) == pytest.approx(
            2.0 * stats.chi(df=2).mean(), rel=0.05)


class TestGeneratorStandardization:
    def test_normal_coordinates_standardized_monte_carlo(self):
        rng = np.random.default_rng(21)
        gen = Generator.mixed_experiment(15)
        draws = gen.sample(100_000, rng)
        means = draws.mean(axis=0)
        assert np.max(np.abs(means)) < 0.05
        var_normal = draws[:, :5].var(axis=0)
        assert np.all(np.abs(var_normal - 1.0) < 0.05)

    def test_documented_nonunit_variances(self):
        gen = Generator.mixed_experiment(15)
        v = gen.variances()
        assert np.allclose(v[:5], 1.0)
        assert np.allclose(v[5:10], 2.0)
        assert np.allclose(v[10:], 3.0)

    @pytest.mark.parametrize("q", [1, 2, 3, 15])
    def test_standard_normal_radius_is_the_chi_quantile(self, q):
        u = np.concatenate([[1e-12, 1e-6], np.linspace(0.001, 0.999, 999), [1 - 1e-9]])
        want = stats.chi.ppf(u, df=q)
        assert np.array_equal(Generator.standard_normal(q).radial_quantile(u), want)
        assert Generator.standard_normal(q).radial_quantile(0.5) == stats.chi.ppf(0.5, df=q)

    def test_import_leaves_scipy_stats_unloaded(self):
        src = str(Path(otbayes.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, otbayes; print(otbayes.__file__); print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout.split()
        assert out == [otbayes.__file__, "False"]

    def test_product_density(self):
        gen = Generator(coordinates=[Normal(0, 1), Laplace(0, 1)])
        x = np.array([[0.3, -0.4]])
        expected = stats.norm.logpdf(0.3) + stats.laplace.logpdf(-0.4)
        assert gen.log_density(x)[0] == pytest.approx(expected, abs=1e-12)

    def test_log_density_equals_the_scipy_logpdf_sum(self):
        # non-standard members, two normal columns apart and a grid column
        # (scored on its own), whose density is du/dQ on each knot segment
        levels = np.linspace(0.01, 0.99, 21)
        knots = stats.norm.ppf(levels)
        coords = [Normal(0.3, 2.0), Laplace(-1.0, 0.5), StudentT(3.0, 0.2, 1.5), Normal(),
                  GridUnivariate(GridQuantile(levels, knots)), Logistic(0.1, 1.3)]
        scipy_coords = [stats.norm(0.3, 2.0), stats.laplace(-1.0, 0.5), stats.t(3.0, 0.2, 1.5),
                        stats.norm(), None, stats.logistic(0.1, 1.3)]
        rng = np.random.default_rng(7)
        x = 2.0 * rng.normal(size=(200, len(coords)))
        x[:, 4] = rng.uniform(knots[0], knots[-1], size=200)
        seg = np.searchsorted(knots, x[:, 4]) - 1
        want = np.log(np.diff(levels)[seg] / np.diff(knots)[seg])
        for j, ref in enumerate(scipy_coords):
            if ref is not None:
                want = want + ref.logpdf(x[:, j])
        gen = Generator(coords)
        got = gen.log_density(x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert gen.log_density(x[3]) == pytest.approx([want[3]], rel=1e-12)

    @given(n=st.integers(1, 300), order=st.permutations(range(13)), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_grouped_density_equals_the_per_coordinate_sum(self, n, order, seed):
        # families are scored one call each; non-standard members, two t
        # shapes, exponential at negative inputs and a grid coordinate
        # (scored on its own) in any column order
        coords = [
            Normal(), Normal(0.3, 2.0), Normal(), Laplace(), Laplace(-1.0, 0.5),
            StudentT(3.0), StudentT(5.0, 0.2, 1.5), StudentT(3.0, -0.4, 0.7),
            Exponential(1.0), Exponential(2.5), Logistic(0.1, 1.3), Gumbel(),
            GridUnivariate(GridQuantile(np.linspace(0.01, 0.99, 21),
                                        stats.norm.ppf(np.linspace(0.01, 0.99, 21)))),
        ]
        gen = Generator([coords[i] for i in order])
        x = 2.0 * np.random.default_rng(seed).normal(size=(n, len(coords)))
        x[0] = -np.abs(x[0])  # outside the exponential support
        with np.errstate(divide="ignore"):
            want = sum(c.log_pdf(x[:, j]) for j, c in enumerate(gen.coordinates))
            got = gen.log_density(x)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(got[~finite] == -math.inf)
        assert not finite[0]
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)
        # the same families over (m, q, n) stacks, points along the last axis
        with np.errstate(divide="ignore"):
            totals = gen.total_log_density(np.stack([x.T, np.abs(x).T]))
            want_abs = sum(c.log_pdf(np.abs(x[:, j])) for j, c in enumerate(gen.coordinates))
        assert totals[0] == -math.inf
        assert totals[1] == pytest.approx(np.sum(want_abs), rel=1e-13)


_SHAPES = [Normal(), Laplace(), StudentT(3.0), StudentT(5.0), Exponential(), Logistic(), Gumbel()]


class TestSummedShapeDensity:
    """The per-shape sums that score a likelihood block in place, against
    the elementwise ``_logpdf0`` they replace."""

    @pytest.mark.parametrize("shape", _SHAPES, ids=lambda c: f"{c.family}{getattr(c, 'df', '')}")
    def test_hook_equals_the_summed_logpdf0(self, shape):
        z = 3.0 * np.random.default_rng(0).normal(size=(5, 3, 40))
        z[1:] = np.abs(z[1:])  # state 0 alone reaches below the exponential support
        z[2] *= 1e-3  # near the mode, where the t sum subtracts log(df)
        with np.errstate(divide="ignore"):
            want = np.sum(shape._logpdf0(z), axis=(1, 2))
            got = shape._sum_logpdf0(z.copy())
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(got[~finite] == -math.inf)
        assert finite.tolist() == [not isinstance(shape, Exponential)] + [True] * 4
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order", ["contiguous", "interleaved"])
    def test_generator_total_equals_the_per_coordinate_sum(self, order):
        coords = [Laplace(), Laplace(0.5, 2.0), StudentT(3.0), StudentT(3.0, -1.0, 0.5),
                  Normal(0.3, 2.0), Normal(), Exponential(2.5), Gumbel(0.2, 1.5)]
        if order == "interleaved":
            coords = [coords[i] for i in (0, 2, 4, 6, 1, 3, 5, 7)]
        gen = Generator(coords)
        x = 2.0 * np.random.default_rng(1).normal(size=(3, len(coords), 60))
        x[1:] = np.abs(x[1:])
        keep = x.copy()
        with np.errstate(divide="ignore"):
            got = gen.total_log_density(x)
            want = [sum(np.sum(c.log_pdf(state[j])) for j, c in enumerate(coords)) for state in x]
        assert np.array_equal(x, keep)  # the public total scores a copy
        assert got[0] == want[0] == -math.inf
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-13, atol=0.0)


class TestDiscreteMeasure:
    def test_discrete_measure_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.5]))
