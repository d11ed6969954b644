"""The four workloads: inputs made from a seed, one timed round, checks.

Each workload class builds its inputs in ``__init__`` (that is the timed
set-up), runs one round of otbayes calls in ``run`` and checks the
round's outputs in ``check`` against ``refs`` or against properties the
method must have. Library calls go through the ``ob`` module attributes,
so the traced run sees every call the workload makes.
"""

from __future__ import annotations

import math
import time

import numpy as np
import otbayes as ob
from otbayes.experiments import ExperimentConfig

import refs

Q = 15
# Coordinate layout of Generator.mixed_experiment(15), for the reference
# second moments: thirds of normal, unit Laplace and t(3) coordinates.
MIXED_LAYOUT = ["normal"] * 5 + ["laplace"] * 5 + ["t3"] * 5
UNIVARIATE = {
    "normal": ob.Normal,
    "laplace": ob.Laplace,
    "logistic": ob.Logistic,
    "gumbel": ob.Gumbel,
}
FAMILIES = tuple(UNIVARIATE)
LEVELS = np.linspace(0.001, 0.999, 199)


class Round:
    """Timings, operation counts and check failures of one round."""

    def __init__(self):
        self.sections: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def op(self, section, fn, *args, **kwargs):
        """Time one otbayes operation into ``section``; None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{section}: {exc!r}")
            return None
        finally:
            self.sections[section] = self.sections.get(section, 0.0) + time.perf_counter() - t0

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    @property
    def wall_s(self):
        return sum(self.sections.values())


def _close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _posterior_shaped(rng, gen, k):
    """Scatter-location models from kernel parameters near the truth."""
    truth = ExperimentConfig()
    models = []
    for _ in range(k):
        b = truth.true_location() + 0.05 * rng.normal(size=Q)
        eps, sigma, omega = np.exp(
            np.log([truth.true_eps, truth.true_sigma, truth.true_omega])
            + np.array([0.1, 0.1, 0.02]) * rng.normal(size=3))
        models.append(ob.make_ls_model(gen, b, ob.experiment_covariance(Q, eps, sigma, omega)))
    return models


def _univariate_spec(rng, i):
    return (FAMILIES[i % len(FAMILIES)], float(rng.normal()), float(np.exp(0.3 * rng.normal())))


def _univariate(spec):
    family, loc, scale = spec
    return UNIVARIATE[family](loc, scale)


class Estimator:
    """Two ``bwb_estimator`` calls, k = 500, on n = 10 and n = 1000 data."""

    sizes = (10, 1000)

    def __init__(self, seed):
        cfg = ExperimentConfig()
        self.seed = seed
        self.gen = cfg.generator()
        self.truth = cfg.true_model()
        self.prior = cfg.prior()
        self.data = {n: ob.Dataset(self.truth.sample(n, np.random.default_rng([seed, 0, n])))
                     for n in self.sizes}

    def run(self, rnd):
        out = {}
        for n in self.sizes:
            rng = np.random.default_rng([self.seed, 1, n])
            out[n] = rnd.op(f"estimate_n{n}_s", ob.bwb_estimator, self.prior, self.data[n],
                            ob.BwbConfig(k=500), rng, self.gen)
        return out

    def check(self, rnd, out):
        w2sq = {}
        t = self.truth
        for n, result in out.items():
            if result is None:
                continue
            model, diag = result
            own = refs.bures_w2(model.location, model.scatter, t.location, t.scatter)
            lib = ob.w2_ls(model, t)
            rnd.check(abs(own - lib) <= 1e-8, f"n={n}: w2_ls {lib!r} vs Bures {own!r}")
            w2sq[n] = own * own
            a = model.scatter
            rnd.check(np.array_equal(a, a.T) and np.linalg.eigvalsh(a)[0] > 0.0,
                      f"n={n}: scatter is not symmetric positive definite")
            rnd.check(diag.n_models == 500, f"n={n}: {diag.n_models} models, not 500")
            rnd.check(diag.residual < 5e-3, f"n={n}: residual {diag.residual:.3e}")
        if len(w2sq) == 2:
            rnd.check(w2sq[1000] < w2sq[10] and w2sq[1000] < 0.5,
                      f"W2^2 to truth {w2sq[1000]:.4f} at n=1000 vs {w2sq[10]:.4f} at n=10")


class Harness:
    """``run_all`` on a reduced desk grid with shortened chains."""

    def __init__(self, seed):
        self.cfg = ExperimentConfig(
            seed=seed, n_grid=(10, 1000), k_grid=(10, 100, 500), s_grid=(1, 5, 20),
            replications=2, burn_sweeps=40, thin_sweeps=2,
            sgd_pool=500, sgd_iterations=60, sgd_summary_from=30, var_grad_reps=60)

    def cells(self):
        c = self.cfg
        return 2 * len(c.n_grid) * c.replications + c.replications + len(c.n_grid)

    def expected_records(self):
        c = self.cfg
        nk = len(c.n_grid) * len(c.k_grid) * c.replications
        return (nk + 2 * nk + 2 * len(c.k_grid) * c.replications
                + len(c.n_grid) * len(c.s_grid) * (c.replications * c.sgd_iterations + 1))

    def run(self, rnd):
        report = rnd.op("run_all_s", ob.run_all, self.cfg, 1)
        # run_all is one call; its cells are the operations
        rnd.attempted += self.cells() - 1
        if report is None:
            rnd.failed += self.cells() - 1
        else:
            rnd.failed += len(report.failed_cells)
        return report

    def check(self, rnd, report):
        if report is None:
            return
        c = self.cfg
        rnd.check(len(report.records) == self.expected_records(),
                  f"{len(report.records)} records, grid implies {self.expected_records()}")
        rnd.check(not report.nonconverged_cells,
                  f"non-converged cells {report.nonconverged_cells}")
        values = np.array([r.value for r in report.records])
        rnd.check(bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)),
                  "a record value is negative or not finite")
        resid = report.values("barycenter", "residual")
        rnd.check(resid.size > 0 and float(resid.max()) < 5e-3, "a residual is 5e-3 or more")
        lo, hi = min(c.n_grid), max(c.n_grid)
        for k in c.k_grid:
            small = report.values("barycenter", "W2sq_bary_to_truth", n=lo, k=k).mean()
            large = report.values("barycenter", "W2sq_bary_to_truth", n=hi, k=k).mean()
            rnd.check(large < small, f"k={k}: error {large:.4f} at n={hi} vs {small:.4f} at n={lo}")
            bary = report.values("compare_bma", "W2sq_bary_to_truth", k=k).mean()
            bma = report.values("compare_bma", "W2sq_bma_to_truth", k=k).mean()
            rnd.check(bary <= bma, f"k={k}: barycenter {bary:.4f} further than mixture {bma:.4f}")


class Descent:
    """Deterministic barycenters of clouds built at set-up; no sampler."""

    k = 500

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        gen = ob.Generator.mixed_experiment(Q)
        spread = []
        for _ in range(self.k):
            f = rng.normal(size=(Q, Q))
            s = np.exp(rng.normal()) * (f @ f.T / Q + 0.1 * np.eye(Q))
            spread.append(ob.make_ls_model(gen, 3.0 * rng.normal(size=Q), s))
        u, _ = np.linalg.qr(rng.normal(size=(Q, Q)))
        commuting = []
        for _ in range(self.k):
            a = (u * np.exp(0.5 * rng.normal(size=Q))) @ u.T
            commuting.append(ob.LocationScatterModel(gen, rng.normal(size=Q), 0.5 * (a + a.T)))
        self.ls = {
            "posterior": _posterior_shaped(rng, gen, self.k),
            "spread": spread,
            "commuting": commuting,
        }
        self.ls_dist = {name: ob.ModelDistribution(support=m) for name, m in self.ls.items()}

        self.uni_specs = [_univariate_spec(rng, i) for i in range(4)]
        self.cop_specs = [
            [_univariate_spec(rng, i), ("normal", float(rng.normal()), 1.0 + rng.uniform())]
            for i in range(3)]
        cop = ob.GaussianCopula([[1.0, 0.5], [0.5, 1.0]])
        self.radii = np.linspace(0.0, 8.0, 200)
        self.profiles = [rng.uniform(0.5, 2.0) * self.radii + rng.uniform(0.0, 0.1) * self.radii**2
                         for _ in range(8)]
        gen3 = ob.Generator.standard_normal(3)
        self.family_dist = {
            "univariate": ob.ModelDistribution(support=[_univariate(s) for s in self.uni_specs]),
            "copula": ob.ModelDistribution(support=[
                ob.CopulaModel(cop, [_univariate(s) for s in specs]) for specs in self.cop_specs]),
            "spherical": ob.ModelDistribution(support=[
                ob.SphericalModel(gen3, ob.RadialProfile(self.radii, v)) for v in self.profiles]),
        }

    @staticmethod
    def _solve(dist):
        bary, trace = ob.empirical_barycenter(dist)
        return bary, trace, ob.fixed_point_residual(bary, dist)

    def run(self, rnd):
        out = {}
        for name, dist in self.ls_dist.items():
            out[name] = rnd.op("ls_barycenter_s", self._solve, dist)
        for name, dist in self.family_dist.items():
            out[name] = rnd.op("family_barycenter_s", self._solve, dist)
        return out

    def check(self, rnd, out):
        variances = refs.coordinate_variances(MIXED_LAYOUT)
        for name, models in self.ls.items():
            if out[name] is None:
                continue
            bary, trace, _ = out[name]
            rnd.check(trace.converged, f"{name}: descent did not converge")
            locs = np.array([m.location for m in models])
            rnd.check(_close(bary.location, locs.mean(axis=0), 1e-10),
                      f"{name}: location is not the mean location")
            scatters = [m.scatter for m in models]
            res = refs.fixed_point_residual(bary.scatter, scatters)
            rnd.check(res < 5e-3, f"{name}: scipy fixed-point residual {res:.3e}")
            m2 = refs.ls_second_moment(bary.location, bary.scatter, variances)
            mix = np.mean([refs.ls_second_moment(m.location, m.scatter, variances) for m in models])
            rnd.check(m2 <= mix * (1.0 + 1e-12), f"{name}: second moment {m2} above mixture {mix}")
            if name == "commuting":
                want = refs.commuting_barycenter(scatters)
                rnd.check(_close(bary.scatter, want, 1e-8),
                          "commuting: scatter is not the mean scatter")
        for name in self.family_dist:
            if out[name] is None:
                continue
            bary, trace, residual = out[name]
            rnd.check(trace.converged and residual < 5e-3,
                      f"{name}: converged={trace.converged}, residual {residual:.3e}")
        if out["univariate"] is not None:
            rnd.check(_close(out["univariate"][0].quantile(LEVELS),
                             refs.mean_quantile(self.uni_specs, LEVELS), 1e-10),
                      "univariate: quantile is not the mean quantile")
        if out["copula"] is not None:
            for j, marginal in enumerate(out["copula"][0].marginals):
                want = refs.mean_quantile([specs[j] for specs in self.cop_specs], LEVELS)
                rnd.check(_close(marginal.quantile(LEVELS), want, 1e-10),
                          f"copula: marginal {j} quantile is not the mean quantile")
        if out["spherical"] is not None:
            r = np.linspace(0.0, 8.0, 1001)
            want = np.mean([np.interp(r, self.radii, v) for v in self.profiles], axis=0)
            rnd.check(_close(out["spherical"][0].alpha(r), want, 1e-10),
                      "spherical: profile is not the mean profile")


class _Recorder:
    """Sampler-mode model population that remembers what it handed out."""

    def __init__(self, draw):
        self.draw = draw
        self.drawn = []

    def __call__(self, rng):
        item = self.draw(rng, len(self.drawn))
        self.drawn.append(item)
        return item[1]


class Stream:
    """Batch stochastic descent with harmonic steps, many small steps."""

    sgd_runs = ((1, 800), (5, 300), (20, 100))  # (batch size S, steps)
    var_batches = (1, 20)
    var_reps = 200
    uni_batch, uni_steps = 5, 40

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        cfg = ExperimentConfig()
        gen = cfg.generator()
        self.seed = seed
        self.pool = _posterior_shaped(rng, gen, 500)
        self.pool_dist = ob.ModelDistribution(support=self.pool)
        self.center = cfg.true_model()

    def _pool_draw(self, rng, _):
        i = int(rng.integers(len(self.pool)))
        return i, self.pool[i]

    @staticmethod
    def _fresh_univariate(rng, count):
        spec = _univariate_spec(rng, count)
        return spec, _univariate(spec)

    def run(self, rnd):
        harmonic = ob.StepSchedule.harmonic()
        out = {"sgd": [], "var": {}}
        for s, steps in self.sgd_runs:
            rec = _Recorder(self._pool_draw)
            rng = np.random.default_rng([self.seed, 4, s])
            mu = rnd.op("sgd_s", ob.population_barycenter, ob.ModelDistribution.from_sampler(rec),
                        harmonic, steps, s, self.pool[0], rng, trace_every=0)
            rnd.counts["sgd_steps"] = rnd.counts.get("sgd_steps", 0) + steps
            out["sgd"].append((s, rec, mu))
        for s in self.var_batches:
            rng = np.random.default_rng([self.seed, 5, s])
            out["var"][s] = rnd.op("var_grad_s", ob.variance_of_gradient_estimator, self.center,
                                   self.pool_dist, s, self.var_reps, rng, n_points=256)
        rec = _Recorder(self._fresh_univariate)
        rng = np.random.default_rng([self.seed, 6])
        mu = rnd.op("univariate_stream_s", ob.population_barycenter,
                    ob.ModelDistribution.from_sampler(rec), harmonic, self.uni_steps,
                    self.uni_batch, ob.Normal(0.0, 1.0), rng, trace_every=0)
        out["univariate"] = (rec, mu)
        return out

    def check(self, rnd, out):
        for s, rec, result in out["sgd"]:
            if result is None:
                continue
            mu, _ = result
            batches = np.array([self.pool[i].location for i, _ in rec.drawn]).reshape(-1, s, Q)
            rnd.check(_close(mu.location, refs.harmonic_average(batches.mean(axis=1)), 1e-10),
                      f"S={s}: location is not the mean of the batch mean locations")
        v1, v20 = out["var"].get(1), out["var"].get(20)
        if v1 is not None and v20 is not None:
            rnd.check(math.isfinite(v1 / v20) and 10.0 <= v1 / v20 <= 40.0,
                      f"V(S=1)/V(S=20) = {v1 / v20:.2f}, outside [10, 40]")
        rec, result = out["univariate"]
        if result is not None:
            mu, _ = result
            specs = [spec for spec, _ in rec.drawn]
            targets = [refs.mean_quantile(specs[i:i + self.uni_batch], LEVELS)
                       for i in range(0, len(specs), self.uni_batch)]
            rnd.check(_close(mu.quantile(LEVELS), refs.harmonic_average(targets), 1e-10),
                      "univariate stream: quantile is not the mean of the drawn quantiles")


WORKLOADS = {
    "estimator": Estimator,
    "harness": Harness,
    "descent": Descent,
    "stream": Stream,
}
