"""Span tracer for the traced run, wrapped around otbayes from outside.

``Tracer.install`` replaces each function in ``TARGETS`` in every otbayes
module namespace that binds it (``metropolis_sample`` is wrapped both in
``otbayes.bayes`` and in ``otbayes.experiments``), and each method on its
class. A span records its name, start, end and parent span; a name's
self time is the time its spans cover minus the time their child spans
cover. Spans stay in memory until ``write_spans`` at the end of the run.
Harness cells are counted without a span, so an ``experiments.run_*``
runner's self time is the experiments layer's own work in its cells.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np


def _accept_rate(extra, args, kwargs, out):
    extra.setdefault("bayes.metropolis_sample.accept_rate", []).append(out.acceptance_rate)


def _rows(extra, args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    key = "measures.Generator.log_density.rows"
    extra[key] = extra.get(key, 0) + (np.shape(x)[0] if np.ndim(x) > 1 else 1)


def _dropped(extra, args, kwargs, out):
    key = "bayes.posterior_models.dropped"
    extra[key] = extra.get(key, 0) + len(args[0]) - len(out.support)


def _iterations(extra, args, kwargs, out):
    key = "barycenter.empirical_barycenter.iterations"
    extra[key] = extra.get(key, 0) + len(out[1]) - 1


def _components(extra, args, kwargs, out):
    key = "measures.mix_quantiles.max_components"
    extra[key] = max(extra.get(key, 0), len(getattr(out, "components", (out,))))


def _points(extra, args, kwargs, out):
    key = "transport.discrete_ot.points"
    extra[key] = extra.get(key, 0) + args[0].size


# (span name, module, attribute or Class.method, hook reading the result)
TARGETS = (
    ("bayes.bwb_estimator", "otbayes.bayes", "bwb_estimator", None),
    ("bayes.metropolis_sample", "otbayes.bayes", "metropolis_sample", _accept_rate),
    ("bayes.posterior_models", "otbayes.bayes", "posterior_models", _dropped),
    ("measures.Generator.log_density", "otbayes.measures", "Generator.log_density", _rows),
    ("measures.LocationScatterModel.init", "otbayes.measures", "LocationScatterModel.__init__", None),
    ("measures.mix_quantiles", "otbayes.measures", "mix_quantiles", _components),
    ("barycenter.empirical_barycenter", "otbayes.barycenter", "empirical_barycenter", _iterations),
    ("barycenter.gk_step", "otbayes.barycenter", "gk_step", None),
    ("barycenter.risk", "otbayes.barycenter", "risk", None),
    ("barycenter._grad_norm_sq", "otbayes.barycenter", "_grad_norm_sq", None),
    ("barycenter.fixed_point_residual", "otbayes.barycenter", "fixed_point_residual", None),
    ("barycenter.batch_sgd_step", "otbayes.barycenter", "batch_sgd_step", None),
    ("barycenter.population_barycenter", "otbayes.barycenter", "population_barycenter", None),
    ("barycenter.variance_of_gradient_estimator", "otbayes.barycenter",
     "variance_of_gradient_estimator", None),
    ("transport.ls_map_matrix", "otbayes.transport", "ls_map_matrix", None),
    ("transport.w2_ls", "otbayes.transport", "w2_ls", None),
    ("transport.ot_map", "otbayes.transport", "ot_map", None),
    ("transport.wp_univariate", "otbayes.transport", "wp_univariate", None),
    ("transport.discrete_ot", "otbayes.transport", "discrete_ot", _points),
    ("linalg.sqrtm_psd", "otbayes.linalg", "sqrtm_psd", None),
    ("linalg.inv_psd", "otbayes.linalg", "inv_psd", None),
    ("linalg.check_symmetric", "otbayes.linalg", "check_symmetric", None),
    ("experiments.run_posterior_consistency", "otbayes.experiments", "run_posterior_consistency", None),
    ("experiments.run_barycenter_vs_truth", "otbayes.experiments", "run_barycenter_vs_truth", None),
    ("experiments.run_bary_vs_bma", "otbayes.experiments", "run_bary_vs_bma", None),
    ("experiments.run_sgd_experiment", "otbayes.experiments", "run_sgd_experiment", None),
    ("experiments._consistency_cell", "otbayes.experiments", "_consistency_cell", None),
    ("experiments._barycenter_cell", "otbayes.experiments", "_barycenter_cell", None),
    ("experiments._compare_cell", "otbayes.experiments", "_compare_cell", None),
    ("experiments._sgd_cell", "otbayes.experiments", "_sgd_cell", None),
)
CELLS = tuple(name for name, *_ in TARGETS if name.endswith("_cell"))

# Per-layer metrics: (name, unit). ``.calls`` and ``.s`` (self
# seconds) are read from the spans; the rest from the hooks above.
_CALLS_AND_S = (
    "bayes.metropolis_sample", "measures.Generator.log_density",
    "bayes.posterior_models", "barycenter.empirical_barycenter", "barycenter.gk_step",
    "barycenter.risk", "barycenter._grad_norm_sq", "barycenter.fixed_point_residual",
    "barycenter.batch_sgd_step", "barycenter.population_barycenter",
    "barycenter.variance_of_gradient_estimator", "transport.ls_map_matrix",
    "transport.w2_ls", "transport.ot_map", "transport.wp_univariate", "transport.discrete_ot",
    "linalg.sqrtm_psd", "linalg.check_symmetric",
)
SPAN_METRICS = (
    [(f"{n}.calls", "count") for n in _CALLS_AND_S]
    + [(f"{n}.s", "s") for n in _CALLS_AND_S]
    + [
        ("bayes.bwb_estimator.s", "s"),
        ("experiments.run_posterior_consistency.s", "s"),
        ("experiments.run_barycenter_vs_truth.s", "s"),
        ("experiments.run_bary_vs_bma.s", "s"),
        ("experiments.run_sgd_experiment.s", "s"),
        ("measures.LocationScatterModel.init.calls", "count"),
        ("measures.mix_quantiles.calls", "count"),
        ("linalg.inv_psd.calls", "count"),
    ]
)
EXTRA_METRICS = (
    ("bayes.metropolis_sample.accept_rate", "ratio"),
    ("measures.Generator.log_density.rows", "count"),
    ("bayes.posterior_models.dropped", "count"),
    ("barycenter.empirical_barycenter.iterations", "count"),
    ("measures.mix_quantiles.max_components", "count"),
    ("transport.discrete_ot.points", "count"),
    ("experiments.cells", "count"),
    ("trace.spans", "count"),
)


def _noop():
    return None


class Tracer:
    """Wrappers for every target, built once; ``install`` puts them in
    place for a traced round and ``uninstall`` restores the originals."""

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra: dict = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items() if n == "otbayes" or n.startswith("otbayes.")]
        for name, module_name, attr, hook in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original, self._wrap(name, original, hook)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, hook):
        ix = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        tracer = self

        if name in CELLS:
            # counted, not spanned: the runner keeps the cell's time as its own
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                tracer.calls[ix] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_name.append(ix)
            tracer.span_parent.append(tracer._stack[-1][0] if tracer._stack else -1)
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            tracer.span_start.append(t0)
            tracer.span_end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.span_end[sid] = t1
                tracer.calls[ix] += 1
                tracer.self_s[ix] += (t1 - t0) - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
            if hook is not None:
                hook(tracer.extra, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    @staticmethod
    def span_cost(n=50_000):
        """Seconds one span adds to a call, timed on a wrapped no-op.

        The traced-minus-untraced round time is at the mercy of the
        machine's drift; spans times this cost is a steadier estimate.
        """
        noop = Tracer(targets=())._wrap("noop", _noop, None)
        t0 = time.perf_counter()
        for _ in range(n):
            _noop()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / n

    def metrics(self, rounds):
        """Per-layer metrics, per traced round (``rounds`` of them)."""
        by_name = {n: i for i, n in enumerate(self.names)}
        out = {}
        for metric, unit in SPAN_METRICS:
            span, kind = metric.rsplit(".", 1)
            i = by_name[span]
            value = self.calls[i] if kind == "calls" else self.self_s[i]
            out[metric] = (value / rounds, unit)
        for metric, unit in EXTRA_METRICS:
            value = self.extra.get(metric, 0)
            if metric == "bayes.metropolis_sample.accept_rate":
                value = float(np.mean(value)) if value else 0.0  # mean over chains
            elif metric == "experiments.cells":
                value = sum(self.calls[by_name[c]] for c in CELLS) / rounds
            elif metric == "trace.spans":
                value = len(self.span_start) / rounds
            elif metric != "measures.mix_quantiles.max_components":
                value = value / rounds
            out[metric] = (value, unit)
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: id, name, start and end (s from the first span), parent."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid},{self.names[self.span_name[sid]]},"
                         f"{self.span_start[sid] - t0:.9f},{self.span_end[sid] - t0:.9f},"
                         f"{self.span_parent[sid]}\n")
