"""Seeded experiment harness around the posterior-barycenter pipeline.

Four runners cover the standard study: consistency of the empirical
posterior in transport distance, barycenter error against the data
generating model, barycenter versus mixture average, and the batch
stochastic descent trade-off across batch sizes.

The first three read one posterior: each (n, replication) cell samples
one chain, and with it ``run_all`` emits the cell's consistency,
barycenter and (at ``compare_n``) compare_bma records, the last two from
one descent per k. Each of those runners runs the same cell body for its
own experiment alone, so it gives the records ``run_all`` gives. The
mixture comparison's truth and mixture clouds draw from their own
stream. Each sgd cell keeps its own pool chain per n. So ``run_all``
samples ``len(n_grid) * (replications + 1)`` chains: 44 at desk scale
and 110 at paper scale. Streams are counter-based and keyed by the
cell, so reports are reproducible record-for-record under any execution
order. ``wall_ms`` is the time from the start of the record's cell,
chain included, to the record.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter
from typing import Optional, get_args, get_type_hints

import numpy as np

from .barycenter import (
    ModelDistribution,
    StepSchedule,
    StopRule,
    batch_sgd_step,
    empirical_barycenter,
    fixed_point_residual,
    variance_of_gradient_estimator,
)
from .bayes import (
    Dataset,
    McmcConfig,
    ParamPrior,
    metropolis_sample,
    model_average,
    posterior_models,
)
from .measures import Generator, experiment_covariance, make_ls_model, sample
from . import transport

METRICS = (
    "W2sq_post_to_truth",
    "W2sq_bary_to_truth",
    "W2sq_bma_to_truth",
    "residual",
    "var_grad",
)

RECORD_COLUMNS = ("experiment", "n", "k", "S", "replication", "metric",
                  "value", "wall_ms", "seed")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# removed config fields -> the fields to set instead: the random-walk
# sampler's burn-in and thinning, and the mixture-cloud subsampling cap
_REPLACED_FIELDS = {"burn_in": "burn_sweeps", "thin": "thin_sweeps", "ot_cap": "ot_samples"}


@dataclass
class ExperimentConfig:
    """Harness settings; ``desk`` defaults keep a full run in minutes."""

    dimension: int = 15
    true_eps: float = 0.01
    true_sigma: float = 1.0
    true_omega: float = 5.652
    n_grid: tuple = (10, 50, 200, 1000)
    k_grid: tuple = (10, 100, 500)
    s_grid: tuple = (1, 2, 5, 10, 15, 20)
    replications: int = 10
    seed: int = 123
    # MCMC
    burn_sweeps: int = 200
    thin_sweeps: int = 6
    # descent
    descent_rel_tol: float = 1e-4
    descent_max_iter: int = 100
    # stochastic descent
    sgd_iterations: int = 200
    sgd_summary_from: int = 100
    sgd_pool: int = 1000
    # W2 estimation for mixtures
    ot_samples: int = 1000
    var_grad_reps: int = 200
    compare_n: int = 1000

    def __post_init__(self):
        # derive_rng keys every stream by the seed's low 32 bits: a wider
        # seed would draw another seed's data under its own label
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must lie in [0, 2**32), got {self.seed}")

    def true_location(self) -> np.ndarray:
        return np.arange(self.dimension, dtype=float)

    def generator(self) -> Generator:
        return Generator.mixed_experiment(self.dimension)

    def true_model(self):
        sigma = experiment_covariance(self.dimension, self.true_eps,
                                      self.true_sigma, self.true_omega)
        return make_ls_model(self.generator(), self.true_location(), sigma)

    def prior(self) -> ParamPrior:
        return ParamPrior(self.dimension)

    def mcmc(self, init_rank: int = 0) -> McmcConfig:
        return McmcConfig(
            burn_sweeps=self.burn_sweeps,
            thin_sweeps=self.thin_sweeps,
            init_rank=init_rank,
        )

    def stop_rule(self) -> StopRule:
        return StopRule(rel_tol=self.descent_rel_tol, max_iter=self.descent_max_iter)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        for old, new in _REPLACED_FIELDS.items():
            if old in raw:
                raise ValueError(f"config field {old!r} was removed; set {new!r}")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("n_grid", "k_grid", "s_grid"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def with_scale(self, scale: str) -> "ExperimentConfig":
        """Desk scale is the default; paper scale restores the full grids."""
        if scale == "desk":
            return self
        if scale == "paper":
            return replace(
                self,
                n_grid=(10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000),
                k_grid=(1, 5, 10, 20, 50, 100, 200, 500, 1000),
            )
        raise ValueError(f"unknown scale {scale!r}")


# ---------------------------------------------------------------------------
# Records and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    n: int
    k: Optional[int]
    s: Optional[int]
    replication: int
    metric: str
    value: float
    wall_ms: float
    seed: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


# a record's fields in RECORD_COLUMNS order
_record_values = attrgetter(*(f.name for f in fields(ExperimentRecord)))


def _column_parser(kind):
    """Text to a value of field type ``kind``; '' reads as None for ``Optional[X]``."""
    args = get_args(kind)
    if type(None) not in args:
        return kind
    return lambda text: args[0](text) if text else None


# one parser per column, in RECORD_COLUMNS order
_record_parsers = tuple(_column_parser(kind) for kind in get_type_hints(ExperimentRecord).values())


class ExperimentReport:
    """Long-format records plus grouped mean/std summaries."""

    def __init__(self, config: ExperimentConfig, records=None):
        self.config = config
        self.records: list[ExperimentRecord] = list(records or [])
        self.nonconverged_cells: list[tuple] = []
        self.failed_cells: list[tuple] = []

    def add(self, record: ExperimentRecord):
        self.records.append(record)

    def extend(self, records):
        self.records.extend(records)

    def values(self, experiment: str, metric: str, **filters) -> np.ndarray:
        out = []
        for r in self.records:
            if r.experiment != experiment or r.metric != metric:
                continue
            if any(getattr(r, key) != val for key, val in filters.items()):
                continue
            out.append(r.value)
        return np.asarray(out)

    def summary_rows(self):
        """(experiment, metric, n, k, S) -> mean, std (ddof=1), count."""
        groups: dict[tuple, list[float]] = {}
        for r in self.records:
            groups.setdefault((r.experiment, r.metric, r.n, r.k, r.s), []).append(r.value)
        rows = []
        none_last = lambda v: (v is None, v)
        for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], none_last(k[3]), none_last(k[4]))):
            vals = np.asarray(groups[key])
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            rows.append(key + (float(vals.mean()), std, vals.size))
        return rows

    def sort(self):
        none_last = lambda v: (v is None, v)
        self.records.sort(
            key=lambda r: (r.experiment, r.n, none_last(r.k), none_last(r.s),
                           r.replication, r.metric)
        )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _record_line(r: ExperimentRecord) -> str:
    return ",".join(_fmt(v) for v in _record_values(r))


def emit_report(report: ExperimentReport, out_dir: str = "results"):
    """Write long-format and summary tables.

    ``records.csv`` holds every record, one ``records_<experiment>.csv``
    per experiment is plot-ready, ``summary.csv`` aggregates by cell, and
    ``report.json`` mirrors everything with the config and its hash.
    Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    report.sort()
    written = []

    def write(name, lines):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        written.append(path)

    header = ",".join(RECORD_COLUMNS)
    write("records.csv", [header] + [_record_line(r) for r in report.records])
    for exp in sorted({r.experiment for r in report.records}):
        write(f"records_{exp}.csv",
              [header] + [_record_line(r) for r in report.records if r.experiment == exp])
    rows = report.summary_rows()
    summary_cols = ("experiment", "metric", "n", "k", "S", "mean", "std", "count")
    write("summary.csv",
          [",".join(summary_cols)] + [",".join(_fmt(v) for v in row) for row in rows])
    payload = {
        "config": json.loads(report.config.to_json()),
        "config_hash": report.config.config_hash(),
        "records": [dict(zip(RECORD_COLUMNS, _record_values(r))) for r in report.records],
        "summary": [dict(zip(summary_cols, row)) for row in rows],
        "nonconverged_cells": [list(c) for c in report.nonconverged_cells],
        "failed_cells": [list(c) for c in report.failed_cells],
    }
    write("report.json", [json.dumps(payload, indent=1, sort_keys=True)])
    return written


def read_records_csv(path) -> list[ExperimentRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != list(RECORD_COLUMNS):
            raise ValueError(f"unexpected header {header}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            records.append(ExperimentRecord(
                *(parse(text) for parse, text in zip(_record_parsers, parts, strict=True))))
    return records


# ---------------------------------------------------------------------------
# RNG streams and shared cell plumbing
# ---------------------------------------------------------------------------


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Counter-based stream keyed by (seed, experiment, cell indices)."""
    key = [seed & 0xFFFFFFFF]
    for p in parts:
        if isinstance(p, str):
            key.append(zlib.crc32(p.encode()))
        else:
            key.append(int(p) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def cell_seed(seed: int, *parts) -> int:
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") % (2**63)


def _posterior_cell(cfg: ExperimentConfig, experiment: str, n: int, k_max: int, rep: int):
    """``(m0, models)``: the true model and the posterior models of one
    k_max-draw chain on the ``experiment`` stream of (n, replication).

    The dataset is keyed by n alone: replications measure estimator
    variation (chain and descent randomness) around one observed sample,
    which is what the summary tables are about. k-cells take k draws
    evenly strided over the same chain window (indices from
    :func:`_strided`), so cell statistics across k compare denser and
    sparser subsamples of one posterior exploration and their
    replication spread shrinks with k.
    """
    gen = cfg.generator()
    m0 = cfg.true_model()
    data = Dataset(m0.sample(n, derive_rng(cfg.seed, "data", n)))
    rng = derive_rng(cfg.seed, experiment, n, k_max, rep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # init_rank = rep rotates the starts only among the eligible
        # candidates, mostly one on the desk grid: see McmcConfig
        chain = metropolis_sample(cfg.prior(), data, k_max, cfg.mcmc(init_rank=rep), rng, gen)
        dist = posterior_models(chain, gen, cfg.prior())
    return m0, dist.support


def _strided(k: int, k_max: int) -> np.ndarray:
    """k indices evenly spaced over [0, k_max)."""
    return np.floor(np.arange(k) * (k_max / k)).astype(int)


def _run_cells(cfg: ExperimentConfig, cells, worker, threads: int) -> ExperimentReport:
    """Run ``worker`` on every cell and collect one sorted report.

    A worker returns ``(records, problems)``. A problem is ``(n, k, rep,
    what)``: ``what == "nonconverged"`` lists (n, k, rep) among the
    non-converged cells, anything else (an exception's repr) lists the
    whole tuple among the failed ones.
    """
    if threads <= 1:
        results = [worker(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, cells))
    report = ExperimentReport(cfg)
    for records, problems in results:
        report.extend(records)
        for item in problems:
            if item[-1] == "nonconverged":
                report.nonconverged_cells.append(item[:3])
            else:
                report.failed_cells.append(item)
    report.sort()
    return report


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _bma_to_truth(cfg: ExperimentConfig, m0, dist: ModelDistribution, rng) -> float:
    """Squared exact-transport distance between an ``ot_samples``-point
    cloud of the true model and one of the mixture average of ``dist``."""
    cloud_m0 = sample(m0, cfg.ot_samples, rng)
    cloud_bma = sample(model_average(dist), cfg.ot_samples, rng)
    _, w_bma = transport.discrete_ot(cloud_bma, cloud_m0, 2.0, assignment_cap=cfg.ot_samples)
    return w_bma**2


def _posterior_records(args) -> tuple:
    """Records and problems of one ``(cfg, n, replication, experiments)`` cell.

    One chain on the consistency stream serves each experiment named in
    ``experiments``. consistency records the posterior models' average
    squared distance to the true model. For each k, one deterministic
    descent over k draws strided over the chain gives a barycenter, which
    barycenter records with its fixed-point residual and compare_bma with
    the mixture average's sampled distance to the truth. The truth and
    mixture clouds draw from their own stream, so they do not depend on
    which experiments share the cell. A problem is listed once for each
    experiment that loses records to it; a descent that stops short of
    its tolerance is listed as non-converged.
    """
    cfg, n, rep, experiments = args
    t0 = time.perf_counter()
    try:
        m0, models = _posterior_cell(cfg, "consistency", n, max(cfg.k_grid), rep)
    except Exception as exc:  # noqa: BLE001 - cell failures are data, not crashes
        return [], [(n, None, rep, repr(exc))] * len(experiments)
    recs = []
    bad = []
    if "consistency" in experiments:
        d2 = transport.family(m0, *models)(m0, models).w2_sq()
        wall = 1e3 * (time.perf_counter() - t0)
        recs.extend(ExperimentRecord("consistency", n, k, None, rep, "W2sq_post_to_truth",
                                     float(d2[_strided(k, d2.size)].mean()), wall,
                                     cell_seed(cfg.seed, "consistency", n, k, rep))
                    for k in cfg.k_grid)
    descents = [e for e in ("barycenter", "compare_bma") if e in experiments]
    if not descents:
        return recs, bad
    clouds = derive_rng(cfg.seed, "bma-clouds", n, rep)
    for k in cfg.k_grid:
        dist = ModelDistribution(support=[models[i] for i in _strided(k, len(models))])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                model, trace = empirical_barycenter(dist, cfg.stop_rule())
                bary_sq = transport.w2_ls(model, m0) ** 2
            except Exception as exc:  # noqa: BLE001
                bad.extend([(n, k, rep, repr(exc))] * len(descents))
                continue
            for experiment in descents:
                try:
                    if experiment == "barycenter":
                        metric, value = "residual", fixed_point_residual(model, dist)
                    else:
                        metric, value = "W2sq_bma_to_truth", _bma_to_truth(cfg, m0, dist, clouds)
                except Exception as exc:  # noqa: BLE001
                    bad.append((n, k, rep, repr(exc)))
                    continue
                wall = 1e3 * (time.perf_counter() - t0)
                seed = cell_seed(cfg.seed, experiment, n, k, rep)
                recs.append(ExperimentRecord(experiment, n, k, None, rep, "W2sq_bary_to_truth",
                                             bary_sq, wall, seed))
                recs.append(ExperimentRecord(experiment, n, k, None, rep, metric, value, wall, seed))
                if not trace.converged:
                    bad.append((n, k, rep, "nonconverged"))
    return recs, bad


def _consistency_cell(args):
    return _posterior_records((*args, ("consistency",)))


def _barycenter_cell(args):
    return _posterior_records((*args, ("barycenter",)))


def _compare_cell(args):
    return _posterior_records((*args, ("compare_bma",)))


def _replicated(cfg: ExperimentConfig, n_values) -> list:
    return [(cfg, n, rep) for n in n_values for rep in range(cfg.replications)]


def run_posterior_consistency(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Average squared distance of the empirical posterior to the truth.

    Per-pair distances are closed form (both measures are scatter-
    location), replacing a sample-based estimate; k-cells are strided
    subsamples of one chain per (n, replication).
    """
    return _run_cells(cfg, _replicated(cfg, cfg.n_grid), _consistency_cell, threads)


def run_barycenter_vs_truth(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Deterministic-descent barycenter error against the true model."""
    return _run_cells(cfg, _replicated(cfg, cfg.n_grid), _barycenter_cell, threads)


def run_bary_vs_bma(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Barycenter versus mixture average, distances to the true model.

    The barycenter distance is closed form; the mixture has no closed
    form and is estimated by exact transport between sampled clouds.
    """
    return _run_cells(cfg, _replicated(cfg, (cfg.compare_n,)), _compare_cell, threads)


def _sgd_cell(args):
    cfg, n = args
    t0 = time.perf_counter()
    try:
        m0, pool = _posterior_cell(cfg, "sgd", n, cfg.sgd_pool, 0)
    except Exception as exc:  # noqa: BLE001
        return [], [(n, None, None, repr(exc))]
    pool_dist = ModelDistribution(support=pool)
    schedule = StepSchedule.harmonic()
    records = []
    for rep in range(cfg.replications):
        # realizations share the posterior pool and differ only in the
        # descent's draw randomness, so spread across them isolates the
        # batch-size effect
        rng = derive_rng(cfg.seed, "sgd-run", n, rep)
        for s in cfg.s_grid:
            seed = cell_seed(cfg.seed, "sgd", n, s, rep)
            mu = pool[rng.integers(len(pool))]
            for t in range(1, cfg.sgd_iterations + 1):
                batch = [pool[i] for i in rng.integers(len(pool), size=s)]
                mu = batch_sgd_step(mu, batch, min(schedule.gamma(t), 1.0))
                records.append(ExperimentRecord(
                    "sgd", n, t, s, rep, "W2sq_bary_to_truth",
                    transport.w2_ls(mu, m0) ** 2,
                    1e3 * (time.perf_counter() - t0), seed))
            if rep == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    vg = variance_of_gradient_estimator(
                        mu, pool_dist, s, max(cfg.var_grad_reps, 2), rng, n_points=256)
                records.append(ExperimentRecord(
                    "sgd", n, None, s, rep, "var_grad", vg,
                    1e3 * (time.perf_counter() - t0), seed))
    return records, []


def run_sgd_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Batch stochastic descent trajectories per (n, S).

    One chain per n provides a pool of posterior models; each replication
    draws fresh batches from the pool with replacement. The per-iterate
    squared distance to the true model is recorded with the iteration
    index in the ``k`` column.
    """
    return _run_cells(cfg, [(cfg, n) for n in cfg.n_grid], _sgd_cell, threads)


def sgd_trajectory_std(report: ExperimentReport, n: int, s: int,
                       from_t: Optional[int] = None) -> float:
    """Concentration of late trajectories across realizations.

    Cross-replication standard deviation of the squared distance at each
    iterate t >= from_t, averaged over t (how tightly the realizations
    bundle once the schedule has settled).
    """
    cfg = report.config
    from_t = cfg.sgd_summary_from if from_t is None else from_t
    by_t: dict[int, list[float]] = {}
    for r in report.records:
        if (r.experiment == "sgd" and r.metric == "W2sq_bary_to_truth"
                and r.n == n and r.s == s and r.k is not None and r.k >= from_t):
            by_t.setdefault(r.k, []).append(r.value)
    stds = [np.std(np.asarray(v), ddof=1) for v in by_t.values() if len(v) > 1]
    if not stds:
        vals = [v for vs in by_t.values() for v in vs]
        return float(np.std(np.asarray(vals), ddof=1))
    return float(np.mean(stds))


def run_all(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """The four runners' records merged, from one chain per (n,
    replication) for every posterior experiment that reads that n."""
    grid = dict.fromkeys(cfg.n_grid, ("consistency", "barycenter"))
    grid[cfg.compare_n] = grid.get(cfg.compare_n, ()) + ("compare_bma",)
    cells = [(cfg, n, rep, experiments) for n, experiments in grid.items()
             for rep in range(cfg.replications)]
    report = _run_cells(cfg, cells, _posterior_records, threads)
    sgd = run_sgd_experiment(cfg, threads)
    report.extend(sgd.records)
    report.nonconverged_cells.extend(sgd.nonconverged_cells)
    report.failed_cells.extend(sgd.failed_cells)
    report.sort()
    return report
