"""Harness tests: config round trips, report emission, determinism,
small-scale smoke runs of every runner, CLI surface."""

import json
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import otbayes.experiments
from otbayes.cli import main as cli_main
from otbayes.experiments import (
    METRICS,
    ExperimentConfig,
    ExperimentRecord,
    ExperimentReport,
    cell_seed,
    derive_rng,
    emit_report,
    read_records_csv,
    run_all,
    run_bary_vs_bma,
    run_barycenter_vs_truth,
    run_posterior_consistency,
    run_sgd_experiment,
    sgd_trajectory_std,
)

TINY = ExperimentConfig(
    dimension=3,
    n_grid=(10, 40),
    k_grid=(5, 10),
    s_grid=(1, 3),
    replications=2,
    sgd_pool=30,
    sgd_iterations=12,
    sgd_summary_from=6,
    ot_samples=64,
    var_grad_reps=16,
    compare_n=40,
    seed=11,
)


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


class TestConfig:
    def test_json_roundtrip(self):
        text = TINY.to_json()
        clone = ExperimentConfig.from_json(text)
        assert clone == TINY

    @pytest.mark.parametrize("name", ["not_a_field", "proposal_scale_b", "proposal_scale_log",
                                      "descent_gamma"])
    def test_unknown_field_rejected(self, name):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json(json.dumps({name: 1}))

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected(self, seed):
        # derive_rng keys streams by the low 32 bits: 2**32 + 123 would draw seed 123's data
        with pytest.raises(ValueError, match="seed must lie in"):
            replace(TINY, seed=seed)
        with pytest.raises(ValueError, match="seed must lie in"):
            ExperimentConfig.from_json(json.dumps({"seed": seed}))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert replace(TINY, seed=seed).seed == seed

    @pytest.mark.parametrize("field, value", [("var_grad_reps", 1), ("var_grad_reps", 0),
                                              ("thin_sweeps", 0), ("burn_sweeps", -1)])
    def test_out_of_range_values_are_refused_on_load(self, field, value):
        # read as given, not clamped: each fails when the config is built
        with pytest.raises(ValueError, match=f"{field} must be"):
            replace(TINY, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentConfig.from_json(json.dumps({field: value}))

    @pytest.mark.parametrize("old, new", [("burn_in", "burn_sweeps"), ("thin", "thin_sweeps"),
                                          ("ot_cap", "ot_samples")])
    def test_random_walk_fields_name_their_replacement(self, old, new):
        with pytest.raises(ValueError, match=f"'{old}'.*'{new}'"):
            ExperimentConfig.from_json(json.dumps({old: 10}))

    def test_reference_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dimension == 15
        assert cfg.true_omega == 5.652
        assert cfg.true_eps == 0.01
        assert cfg.replications == 10
        assert np.allclose(cfg.true_location(), np.arange(15.0))
        assert cfg.sgd_iterations == 200

    def test_scale_presets(self):
        paper = ExperimentConfig().with_scale("paper")
        assert 10000 in paper.n_grid and 1000 in paper.k_grid
        assert ExperimentConfig().with_scale("desk") == ExperimentConfig()
        with pytest.raises(ValueError):
            ExperimentConfig().with_scale("galactic")

    def test_config_hash_tracks_content(self):
        assert TINY.config_hash() != replace(TINY, seed=12).config_hash()


class TestRngStreams:
    def test_derived_streams_reproducible(self):
        a = derive_rng(7, "consistency", 10, 5, 0).normal(size=4)
        b = derive_rng(7, "consistency", 10, 5, 0).normal(size=4)
        assert np.allclose(a, b)

    def test_streams_differ_across_cells(self):
        a = derive_rng(7, "consistency", 10, 5, 0).normal(size=4)
        b = derive_rng(7, "consistency", 10, 5, 1).normal(size=4)
        c = derive_rng(7, "barycenter", 10, 5, 0).normal(size=4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_cell_seed_stable(self):
        assert cell_seed(1, "sgd", 10, 2, 0) == cell_seed(1, "sgd", 10, 2, 0)
        assert cell_seed(1, "sgd", 10, 2, 0) != cell_seed(2, "sgd", 10, 2, 0)


class TestReportPlumbing:
    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(TINY)
        paths = emit_report(report, str(tmp_path))
        text = (tmp_path / "records.csv").read_text()
        assert text == "experiment,n,k,S,replication,metric,value,wall_ms,seed\n"
        assert (tmp_path / "report.json").exists()
        assert all(str(tmp_path) in p for p in paths)

    def test_metric_enum_enforced(self):
        with pytest.raises(ValueError, match="metric"):
            ExperimentRecord("consistency", 10, 5, None, 0, "not_a_metric", 1.0, 0.0, 1)

    def test_roundtrip_exact(self, tmp_path):
        report = ExperimentReport(TINY)
        rng = np.random.default_rng(0)
        for i in range(20):
            report.add(ExperimentRecord(
                "consistency", 10 * (i % 3 + 1), 5, None, i, "W2sq_post_to_truth",
                float(rng.normal()) * 10.0 ** float(rng.integers(-8, 8)),
                float(rng.uniform(0, 50)), i))
        emit_report(report, str(tmp_path))
        clone = read_records_csv(tmp_path / "records.csv")
        report.sort()
        assert clone == report.records

    def test_roundtrip_with_empty_k_and_s(self, tmp_path):
        report = ExperimentReport(TINY)
        report.extend([
            ExperimentRecord("consistency", 10, 5, None, 0, "W2sq_post_to_truth", 0.25, 1.5, 3),
            ExperimentRecord("sgd", 10, 7, 4, 1, "W2sq_bary_to_truth", 1e-300, 0.0, 2**62),
            ExperimentRecord("sgd", 50, None, 4, 0, "var_grad", 3.0000000000000004, 2.0, 5),
            ExperimentRecord("sgd", 50, None, None, 2, "residual", -0.0, 9.75, 0),
        ])
        emit_report(report, str(tmp_path))
        clone = read_records_csv(tmp_path / "records.csv")
        assert clone == report.records
        assert [(r.k, r.s) for r in clone] == [(5, None), (7, 4), (None, 4), (None, None)]
        assert all(type(r.k) is int for r in clone if r.k is not None)

    def test_summary_row_count(self, tmp_path):
        report = ExperimentReport(TINY)
        for n in TINY.n_grid:
            for k in TINY.k_grid:
                for rep in range(TINY.replications):
                    report.add(ExperimentRecord("consistency", n, k, None, rep,
                                                "W2sq_post_to_truth", 1.0, 0.0, rep))
        rows = report.summary_rows()
        assert len(rows) == len(TINY.n_grid) * len(TINY.k_grid)
        assert all(r[-1] == TINY.replications for r in rows)

    def test_json_mirror_contains_config_hash(self, tmp_path):
        report = ExperimentReport(TINY)
        emit_report(report, str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config_hash"] == TINY.config_hash()
        assert payload["config"]["dimension"] == TINY.dimension


def _strip_wall(records):
    return [(r.experiment, r.n, r.k, r.s, r.replication, r.metric, r.value, r.seed)
            for r in records]


@pytest.fixture(scope="module")
def consistency_report():
    return _quiet(run_posterior_consistency, TINY)


@pytest.fixture(scope="module")
def sgd_report():
    return _quiet(run_sgd_experiment, TINY)


class TestRunners:
    def test_consistency_schema(self, consistency_report):
        recs = consistency_report.records
        cells = len(TINY.n_grid) * len(TINY.k_grid) * TINY.replications
        assert len(recs) == cells
        assert all(r.metric == "W2sq_post_to_truth" for r in recs)
        assert all(r.value >= 0.0 for r in recs)
        assert not consistency_report.failed_cells

    def test_consistency_deterministic(self, consistency_report):
        again = _quiet(run_posterior_consistency, TINY)
        assert _strip_wall(again.records) == _strip_wall(consistency_report.records)

    def test_consistency_threads_match_serial(self, consistency_report):
        threaded = _quiet(run_posterior_consistency, TINY, threads=2)
        assert _strip_wall(threaded.records) == _strip_wall(consistency_report.records)
        small = replace(TINY, n_grid=(10,), k_grid=(5,), s_grid=(1,), sgd_iterations=5,
                        sgd_summary_from=2, descent_max_iter=1)
        serial, threaded = (_quiet(run_all, small, threads=t) for t in (1, 2))
        assert _strip_wall(threaded.records) == _strip_wall(serial.records)
        assert threaded.failed_cells == serial.failed_cells
        assert threaded.nonconverged_cells == serial.nonconverged_cells

    def test_barycenter_records_residuals(self):
        report = _quiet(run_barycenter_vs_truth, TINY)
        metrics = {r.metric for r in report.records}
        assert metrics == {"W2sq_bary_to_truth", "residual"}
        res = report.values("barycenter", "residual")
        assert np.all(res >= 0.0)

    def test_compare_bma_pairs(self):
        report = _quiet(run_bary_vs_bma, TINY)
        for k in TINY.k_grid:
            bary = report.values("compare_bma", "W2sq_bary_to_truth", k=k)
            bma = report.values("compare_bma", "W2sq_bma_to_truth", k=k)
            assert bary.size == TINY.replications and bma.size == TINY.replications

    def test_sgd_trajectories(self, sgd_report):
        recs = [r for r in sgd_report.records if r.metric == "W2sq_bary_to_truth"]
        per_cell = TINY.sgd_iterations
        assert len(recs) == len(TINY.n_grid) * len(TINY.s_grid) * TINY.replications * per_cell
        assert {r.metric for r in sgd_report.records} <= set(METRICS)
        std = sgd_trajectory_std(sgd_report, TINY.n_grid[0], TINY.s_grid[0])
        assert std >= 0.0

    def test_sgd_var_grad_recorded(self, sgd_report):
        vg = [r for r in sgd_report.records if r.metric == "var_grad"]
        assert len(vg) == len(TINY.n_grid) * len(TINY.s_grid)
        assert all(r.value >= 0.0 for r in vg)

    def test_run_all_merges(self):
        small = replace(TINY, n_grid=(10,), k_grid=(5,), s_grid=(1,), replications=1,
                        sgd_iterations=5, sgd_summary_from=2)
        report = _quiet(run_all, small)
        exps = {r.experiment for r in report.records}
        assert exps == {"consistency", "barycenter", "compare_bma", "sgd"}


RUNNERS = {
    "consistency": run_posterior_consistency,
    "barycenter": run_barycenter_vs_truth,
    "compare_bma": run_bary_vs_bma,
    "sgd": run_sgd_experiment,
}


@pytest.fixture(scope="module")
def all_report():
    return _quiet(run_all, TINY)


class TestSharedPosterior:
    """run_all samples one chain per (n, replication) for consistency,
    barycenter and compare_bma, and one pool chain per n for sgd."""

    @pytest.mark.parametrize("threads, cfg", [
        (1, TINY), (2, TINY), (2, replace(TINY, descent_max_iter=1))],
        ids=["serial", "threads", "nonconverged"])
    def test_run_all_equals_the_runners_merged(self, threads, cfg):
        parts = [_quiet(runner, cfg, threads=threads) for runner in RUNNERS.values()]
        merged = ExperimentReport(cfg, [r for part in parts for r in part.records])
        merged.sort()
        report = _quiet(run_all, cfg, threads=threads)
        assert _strip_wall(report.records) == _strip_wall(merged.records)
        assert Counter(report.failed_cells) == Counter(
            cell for part in parts for cell in part.failed_cells)
        assert Counter(report.nonconverged_cells) == Counter(
            cell for part in parts for cell in part.nonconverged_cells)

    def test_compare_and_barycenter_share_each_descent(self, all_report):
        for k in TINY.k_grid:
            for rep in range(TINY.replications):
                bary = all_report.values("barycenter", "W2sq_bary_to_truth",
                                         n=TINY.compare_n, k=k, replication=rep)
                comp = all_report.values("compare_bma", "W2sq_bary_to_truth", k=k,
                                         replication=rep)
                assert bary.size == 1 and np.array_equal(bary, comp)

    def test_one_chain_per_cell_and_per_sgd_pool(self, monkeypatch):
        real = otbayes.experiments.metropolis_sample
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(otbayes.experiments, "metropolis_sample", counting)
        _quiet(run_all, TINY)
        assert len(calls) == len(TINY.n_grid) * TINY.replications + len(TINY.n_grid)


class TestCellProblems:
    @pytest.mark.parametrize("experiment", sorted(RUNNERS))
    def test_failed_chain_is_reported_without_records(self, experiment, monkeypatch):
        bad_n = TINY.compare_n
        real = otbayes.experiments._posterior_cell
        exc = RuntimeError("chain broke")

        def flaky(cfg, exp, n, *args, **kwargs):
            if n == bad_n:
                raise exc
            return real(cfg, exp, n, *args, **kwargs)

        monkeypatch.setattr(otbayes.experiments, "_posterior_cell", flaky)
        report = _quiet(RUNNERS[experiment], TINY)
        # a stochastic-descent cell spans every replication of its n
        reps = [None] if experiment == "sgd" else range(TINY.replications)
        assert report.failed_cells == [(bad_n, None, rep, repr(exc)) for rep in reps]
        assert not any(r.n == bad_n for r in report.records)
        if experiment != "compare_bma":
            assert {r.n for r in report.records} == set(TINY.n_grid) - {bad_n}

    @pytest.mark.parametrize("bad_n", [TINY.n_grid[0], TINY.compare_n])
    def test_failed_chain_in_run_all_drops_only_its_cell(self, bad_n, all_report, monkeypatch):
        bad_rep = 1  # sgd's pool chain is replication 0's, so it stays whole
        real = otbayes.experiments._posterior_cell
        exc = RuntimeError("chain broke")

        def flaky(cfg, exp, n, k_max, rep):
            if (n, rep) == (bad_n, bad_rep):
                raise exc
            return real(cfg, exp, n, k_max, rep)

        monkeypatch.setattr(otbayes.experiments, "_posterior_cell", flaky)
        report = _quiet(run_all, TINY)
        # listed once per experiment that lost records, as the runners merged list it
        lost = 3 if bad_n == TINY.compare_n else 2
        assert report.failed_cells == [(bad_n, None, bad_rep, repr(exc))] * lost
        kept = [r for r in all_report.records
                if (r.n, r.replication) != (bad_n, bad_rep) or r.experiment == "sgd"]
        assert _strip_wall(report.records) == _strip_wall(kept)

    @pytest.mark.parametrize("experiment", ["barycenter", "compare_bma"])
    def test_nonconverged_descent_is_listed(self, experiment):
        report = _quiet(RUNNERS[experiment], replace(TINY, descent_max_iter=1))
        n_grid = TINY.n_grid if experiment == "barycenter" else (TINY.compare_n,)
        cells = [(n, k, rep) for n in n_grid for rep in range(TINY.replications)
                 for k in TINY.k_grid]
        assert report.nonconverged_cells == cells
        assert not report.failed_cells
        assert len(report.records) == 2 * len(cells)


class TestCli:
    def test_consistency_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY.to_json())
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "consistency", "--config", str(cfg_path), "--out", str(tmp_path / "res"),
            "--seed", "3", "--threads", "1", "--scale", "desk"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "res" / "records.csv").exists()
        assert (tmp_path / "res" / "records_consistency.csv").exists()
        assert (tmp_path / "res" / "summary.csv").exists()
        assert (tmp_path / "res" / "report.json").exists()

    def test_all_subcommands_registered(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["--help"])
        for name in ("consistency", "barycenter", "compare-bma", "sgd", "all"):
            assert name in result.output

    def test_bad_config_path_exits_nonzero(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["sgd", "--config", "/does/not/exist.json"])
        assert result.exit_code != 0

    def test_seed_past_32_bits_exits_one(self, tmp_path):
        result = CliRunner().invoke(cli_main, ["sgd", "--seed", str(2**32 + 123),
                                               "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "seed must lie in" in result.output

    def test_malformed_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"made_up_field\": 1}")
        runner = CliRunner()
        result = runner.invoke(cli_main, ["sgd", "--config", str(bad)])
        assert result.exit_code == 1

    def test_nonconvergence_exits_two(self, tmp_path, monkeypatch):
        import otbayes.cli as cli_mod

        def fake_runner(cfg, threads=1):
            report = ExperimentReport(cfg)
            report.nonconverged_cells.append((10, 5, 0))
            return report

        monkeypatch.setitem(cli_mod._RUNNERS, "sgd", fake_runner)
        runner = CliRunner()
        result = runner.invoke(cli_mod.main, ["sgd", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_failed_cell_exits_one(self, tmp_path, monkeypatch):
        import otbayes.cli as cli_mod

        def fake_runner(cfg, threads=1):
            report = ExperimentReport(cfg)
            report.failed_cells.append((10, 5, 1, "boom"))
            report.nonconverged_cells.append((10, 5, 0))
            return report

        monkeypatch.setitem(cli_mod._RUNNERS, "sgd", fake_runner)
        runner = CliRunner()
        result = runner.invoke(cli_mod.main, ["sgd", "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert (tmp_path / "o" / "records.csv").exists()
