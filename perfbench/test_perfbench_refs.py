"""Fast checks of the benchmark's reference computations on tiny inputs.

A workload passes only if otbayes agrees with these references, so each
reference is pinned here against answers known in closed form.
"""

import numpy as np
import pytest

import refs


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestBures:
    def test_one_dimensional_gaussians(self):
        # W2^2 = (m1 - m2)^2 + (s1 - s2)^2 on the line
        got = refs.bures_w2([1.0], np.array([[2.0]]), [-0.5], np.array([[0.5]]))
        assert got == pytest.approx(np.hypot(1.5, 1.5), abs=1e-12)

    def test_commuting_scatters_reduce_to_the_diagonal(self):
        u = _rotation(0.3)
        a1 = u @ np.diag([1.0, 3.0]) @ u.T
        a2 = u @ np.diag([2.0, 0.5]) @ u.T
        got = refs.bures_w2([0.0, 1.0], a1, [2.0, 1.0], a2)
        assert got == pytest.approx(np.sqrt(4.0 + 1.0 + 2.5**2), abs=1e-12)

    def test_zero_on_identical_models_and_symmetric(self):
        f = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = np.array([[1.0, -0.2], [-0.2, 0.7]])
        assert refs.bures_w2([1.0, 2.0], f, [1.0, 2.0], f) == pytest.approx(0.0, abs=1e-7)
        assert refs.bures_w2([0.0, 0.0], f, [1.0, 0.0], g) == pytest.approx(
            refs.bures_w2([1.0, 0.0], g, [0.0, 0.0], f), abs=1e-12)

    def test_non_commuting_pair_against_the_2x2_formula(self):
        # for 2x2 SPD M, tr sqrt(M) = sqrt(tr M + 2 sqrt(det M))
        a1 = np.array([[2.0, 0.5], [0.5, 1.0]])
        a2 = np.array([[1.0, -0.4], [-0.4, 3.0]])
        m = a1 @ a2 @ a2 @ a1
        tr_root = np.sqrt(np.trace(m) + 2.0 * np.sqrt(np.linalg.det(m)))
        want = np.sqrt(np.trace(a1 @ a1) + np.trace(a2 @ a2) - 2.0 * tr_root)
        assert refs.bures_w2([0.0, 0.0], a1, [0.0, 0.0], a2) == pytest.approx(want, abs=1e-12)


class TestFixedPointResidual:
    def test_zero_at_the_one_dimensional_barycenter(self):
        scatters = [np.array([[1.0]]), np.array([[3.0]])]
        assert refs.fixed_point_residual(np.array([[2.0]]), scatters) < 1e-14

    def test_measures_the_gap_away_from_it(self):
        # T_i = s_i / a on the line, so the residual is |mean(s)/a - 1|
        scatters = [np.array([[1.0]]), np.array([[3.0]])]
        assert refs.fixed_point_residual(np.array([[4.0]]), scatters) == pytest.approx(0.5)

    def test_weights_are_used(self):
        scatters = [np.array([[1.0]]), np.array([[3.0]])]
        a = np.array([[1.5]])
        assert refs.fixed_point_residual(a, scatters, [0.75, 0.25]) < 1e-14


class TestCommutingClosedForm:
    def test_mean_scatter_is_a_fixed_point(self):
        u = _rotation(1.1)
        scatters = [u @ np.diag(d) @ u.T for d in ([1.0, 2.0], [4.0, 0.5], [2.0, 2.0])]
        bary = refs.commuting_barycenter(scatters)
        assert np.allclose(bary, u @ np.diag([7.0 / 3.0, 1.5]) @ u.T, atol=1e-14)
        assert refs.fixed_point_residual(bary, scatters) < 1e-12

    def test_weighted(self):
        scatters = [np.diag([1.0, 1.0]), np.diag([3.0, 5.0])]
        assert np.allclose(refs.commuting_barycenter(scatters, [0.5, 0.5]), np.diag([2.0, 3.0]))
        assert np.allclose(refs.commuting_barycenter(scatters, [1.0, 0.0]), np.eye(2))


class TestHarmonicAverage:
    def test_equals_the_harmonic_step_recursion(self):
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(7, 3))
        x = rng.normal(size=3)  # discarded by the first step, gamma_1 = 1
        for t, y in enumerate(targets, start=1):
            x = (1.0 - 1.0 / t) * x + (1.0 / t) * y
        assert np.allclose(refs.harmonic_average(targets), x, atol=1e-14)

    def test_is_not_the_last_target(self):
        assert refs.harmonic_average([[0.0], [3.0]]) == pytest.approx([1.5])


class TestScipyTwins:
    @pytest.mark.parametrize("family,u,want", [
        ("normal", 0.975, 1.959963984540054),
        ("laplace", 0.75, np.log(2.0)),
        ("logistic", 0.75, np.log(3.0)),
        ("gumbel", np.exp(-1.0), 0.0),
    ])
    def test_standard_quantiles(self, family, u, want):
        assert refs.frozen((family, 0.0, 1.0)).ppf(u) == pytest.approx(want, abs=1e-12)

    def test_location_and_scale(self):
        assert refs.frozen(("laplace", 1.0, 2.0)).ppf(0.75) == pytest.approx(1.0 + 2.0 * np.log(2.0))

    def test_mean_quantile(self):
        u = np.array([0.25, 0.5])
        got = refs.mean_quantile([("normal", 0.0, 1.0), ("normal", 2.0, 3.0)], u)
        assert np.allclose(got, 1.0 + 2.0 * refs.frozen(("normal", 0.0, 1.0)).ppf(u))

    def test_second_moment(self):
        var = refs.coordinate_variances(["normal", "laplace", "t3"])
        assert np.allclose(var, [1.0, 2.0, 3.0])
        a = np.diag([1.0, 2.0, 0.5])
        assert refs.ls_second_moment([1.0, 0.0, 2.0], a, var) == pytest.approx(5.0 + 1.0 + 8.0 + 0.75)
