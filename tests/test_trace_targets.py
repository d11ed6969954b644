"""The benchmark's view of otbayes: its span tracer resolves every
function it wraps, every ``ob.<name>`` its workloads use exists, every
workload's inputs build and one round of each passes its checks at seed
1, so a rename, a broken set-up or a wrong result fails here and not only
in a benchmark run."""

import functools
import pathlib
import re
import sys

import numpy as np
import pytest
from scipy import integrate, stats

import otbayes  # noqa: F401  (the tracer patches the modules already loaded)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_target():
    tracer = tracing.Tracer()
    assert tracer.names == [name for name, *_ in tracing.TARGETS]
    patched = {id(original) for _, _, original, _ in tracer._patches}
    assert len(patched) == len(tracing.TARGETS)


def test_every_name_the_workloads_use_resolves():
    names = set(re.findall(r"\bob\.([\w.]+)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    for name in sorted(names):
        functools.reduce(getattr, name.split("."), otbayes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_its_inputs(name):
    workloads.WORKLOADS[name](1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_every_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](1)
    rnd = workloads.Round()
    workload.check(rnd, workload.run(rnd))
    assert rnd.errors == []
    assert rnd.problems == []


def test_the_tracer_sees_each_descent_quantity_per_trace_row():
    workload = workloads.WORKLOADS["descent"](1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = workload.run(workloads.Round())
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    rows = sum(len(trace) for _, trace, _ in out.values())
    assert rows == 19
    assert calls["barycenter.risk"] == calls["barycenter._grad_norm_sq"] == rows
    assert calls["barycenter.fixed_point_residual"] == len(out) == 6


@pytest.fixture(scope="module")
def descent_clouds():
    return workloads.WORKLOADS["descent"](1)


def test_descent_images_are_averaged_quantiles_and_profiles(descent_clouds):
    """The first descent row's image, built by ``step``, against the
    models' quantiles and the workload's raw profiles averaged here."""
    u = workloads.LEVELS
    cop = descent_clouds.family_dist["copula"].support
    image = descent_clouds.family_dist["copula"].row(cop[0]).image
    for j, marginal in enumerate(image.marginals):
        want = np.mean([m.marginals[j].quantile(u) for m in cop], axis=0)
        np.testing.assert_allclose(marginal.quantile(u), want, rtol=0, atol=1e-12)
    sph = descent_clouds.family_dist["spherical"]
    r = np.linspace(0.0, 8.0, 1001)
    want = np.mean([np.interp(r, descent_clouds.radii, v) for v in descent_clouds.profiles], axis=0)
    np.testing.assert_allclose(sph.row(sph.support[0]).image.alpha(r), want, rtol=0, atol=1e-12)


def _quad(f, a, b, points=None):
    value, _ = integrate.quad(f, a, b, points=points, limit=2000, epsabs=0.0, epsrel=1e-12)
    return value


@pytest.mark.parametrize("name", ["univariate", "copula", "spherical"])
def test_descent_gradient_norms_against_scipy_quad(descent_clouds, name):
    """The first descent row's squared gradient norm against the L2(mu)
    norm of the averaged displacement integrated by ``scipy``: per
    marginal over quantile levels, and for profiles over the chi(3) law
    of the radius."""
    dist = descent_clouds.family_dist[name]
    models, mu = dist.support, dist.support[0]
    if name == "spherical":
        radii, profiles = descent_clouds.radii, descent_clouds.profiles
        mean = np.mean(profiles, axis=0)

        def gap_sq(r):
            return (np.interp(r, radii, mean) - np.interp(r, radii, profiles[0])) ** 2

        want = _quad(lambda r: gap_sq(r) * stats.chi(3).pdf(r), 0.0, radii[-1], radii[1:-1])
        rel = 1e-4  # the row reads levels in [1e-6, 1 - 1e-6] only
    else:
        def marginals(m):
            return m.marginals if name == "copula" else [m]

        want = 0.0
        for j, mu_j in enumerate(marginals(mu)):
            want += _quad(lambda t: (np.mean([marginals(m)[j].quantile(t) for m in models])
                                     - mu_j.quantile(t)) ** 2, 0.0, 1.0)
        rel = 1e-8
    assert dist.row(mu).grad_norm_sq() == pytest.approx(want, rel=rel)
