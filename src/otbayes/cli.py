"""Experiment command line.

Exit codes: 0 on success, 1 on error or when any cell failed, 2 when
no cell failed but some cell was flagged non-converged. The reports are
written in every case but an error.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from .experiments import (
    ExperimentConfig,
    emit_report,
    run_all,
    run_barycenter_vs_truth,
    run_bary_vs_bma,
    run_posterior_consistency,
    run_sgd_experiment,
)

_RUNNERS = {
    "consistency": run_posterior_consistency,
    "barycenter": run_barycenter_vs_truth,
    "compare-bma": run_bary_vs_bma,
    "sgd": run_sgd_experiment,
    "all": run_all,
}


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="JSON config file (schema in the README).")(fn)
    fn = click.option("--seed", type=int, default=None, help="Master seed override.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(file_okay=False),
                      default="results", show_default=True, help="Output directory.")(fn)
    fn = click.option("--threads", type=int, default=1, show_default=True,
                      help="Worker processes for independent cells.")(fn)
    fn = click.option("--scale", type=click.Choice(["desk", "paper"]), default="desk",
                      show_default=True, help="Grid scale preset.")(fn)
    return fn


def _load_config(config_path, seed, scale) -> ExperimentConfig:
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    else:
        cfg = ExperimentConfig()
    cfg = cfg.with_scale(scale)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _execute(name, config_path, seed, out_dir, threads, scale):
    try:
        cfg = _load_config(config_path, seed, scale)
        click.echo(f"running {name} (seed={cfg.seed}, scale={scale}, threads={threads})")
        report = _RUNNERS[name](cfg, threads=threads)
        paths = emit_report(report, out_dir)
    except Exception as exc:  # noqa: BLE001 - runtime failures must exit 1
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for p in paths:
        click.echo(f"wrote {p}")
    if report.failed_cells:
        click.echo(f"{len(report.failed_cells)} cells failed", err=True)
    if report.nonconverged_cells:
        click.echo(f"{len(report.nonconverged_cells)} cells flagged non-converged", err=True)
    if report.failed_cells or report.nonconverged_cells:
        sys.exit(1 if report.failed_cells else 2)


@click.group()
def main():
    """Posterior Wasserstein-barycenter experiments."""


def _register(name):
    @main.command(name=name, help=f"Run the {name} experiment and emit CSV/JSON reports.")
    @_common_options
    def _cmd(config_path, seed, out_dir, threads, scale):
        _execute(name, config_path, seed, out_dir, threads, scale)

    return _cmd


for _name in _RUNNERS:
    _register(_name)


if __name__ == "__main__":
    main()
