"""Pipeline commands, experiment trends, and report generation."""

import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from ptqkit import calibration as cal
from ptqkit import experiments as exp
from ptqkit import numeric_core as nc
from ptqkit import profiler as prof
from ptqkit.config import ExperimentConfig
from ptqkit.errors import ConfigError


def _copy_pipeline(pipeline_cfg, dest, **overrides) -> ExperimentConfig:
    shutil.copytree(pipeline_cfg.out_dir, dest)
    values = {**pipeline_cfg.to_dict(), "out_dir": str(dest), **overrides}
    return ExperimentConfig(**values)


class TestEvaluatePair:
    def test_identical_models_zero_distance(self, pipeline_cfg, trained, prompt_set):
        model, sched = trained
        res = exp.evaluate_pair(model, model, sched, prompt_set,
                                pipeline_cfg.cond_embed_dim, 16, seed=5)
        assert res["fd"] == pytest.approx(0.0, abs=1e-9)
        assert res["mse"] == 0.0


class TestSweep:
    def test_rows_match_policies_and_full_row_is_zero(self, tmp_path, pipeline_cfg):
        cfg = _copy_pipeline(pipeline_cfg, tmp_path / "sweep", sweep_seeds=1, n_eval=8)
        record = exp.cmd_sweep(cfg)
        rows = record["metrics"]["rows"]
        assert len(rows) == 1 + len(cfg.sweep_bits)
        assert rows[0][0] == "32WfullA"
        assert rows[0][1] == pytest.approx(0.0, abs=1e-9)  # no quantization at all
        with open(os.path.join(cfg.out_dir, "sweep.tsv")) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 1 + len(rows)  # header + one row per policy

    def test_jobs_do_not_change_tables(self, tmp_path, pipeline_cfg):
        tables = {}
        for jobs in (1, 2):
            cfg = _copy_pipeline(pipeline_cfg, tmp_path / f"jobs{jobs}", sweep_seeds=2, n_eval=8,
                                 jobs=jobs)
            exp.cmd_sweep(cfg)
            tables[jobs] = [pathlib.Path(cfg.out_dir, name).read_bytes()
                            for name in ("sweep.tsv", "sweep_per_seed.tsv")]
        assert tables[1] == tables[2]
        assert tables[1][1].count(b"\n") == 1 + 2 * (1 + len(pipeline_cfg.sweep_bits))


class TestCompare:
    def test_uniform_variance_profile_levels_the_strategies(self, pipeline_cfg, trained,
                                                            prompt_set, variance_profile):
        # with no variance signal, variance_aware weighs the grid as random_uniform does,
        # and the one shared draw gives both the same cells, sets and scores
        model, sched = trained
        uniform = prof.profile_from_variances({c: 1.0 for c in variance_profile.cells})
        for seed in range(4):
            va, ru, _ = exp._calibsets(pipeline_cfg, model, sched, prompt_set, cal.STRATEGIES,
                                       seed, uniform)
            assert [(s.layer, s.timestep) for s in va.samples] == \
                [(s.layer, s.timestep) for s in ru.samples]
            assert cal._sample_docs(va) == cal._sample_docs(ru)
            res = exp.compare_one_seed(pipeline_cfg, model, sched, prompt_set, seed,
                                       profile=uniform)
            assert res["variance_aware"] == res["random_uniform"]

    def test_uniform_profile_makes_variance_aware_draws_uniform(self):
        cells = {(f"layer{l}", t): 1.0 for l in range(4) for t in range(1, 11)}
        profile = prof.profile_from_variances(cells)
        drawn, _, _ = cal.draw_cells(profile, 100_000, nc.RngStream(3))
        counts = {}
        for c in drawn:
            counts[c] = counts.get(c, 0) + 1
        freqs = np.array([counts.get(c, 0) for c in profile.cells]) / 100_000
        tv = 0.5 * float(np.abs(freqs - 1.0 / len(cells)).sum())
        assert tv < 0.01


class TestPipelineProfile:
    """calibset and compare read <out_dir>/profile.tsv, floored at the config's tau_fraction."""

    def test_calibset_floors_profile_tsv_at_the_config_tau_fraction(self, tmp_path,
                                                                    pipeline_cfg):
        # profile.tsv was written at tau_fraction 0.1; the run's 0.5 must set the floor
        cfgs = [_copy_pipeline(pipeline_cfg, tmp_path / name, tau_fraction=0.5, k=32)
                for name in ("with_file", "without_file")]
        os.remove(os.path.join(cfgs[1].out_dir, "profile.tsv"))
        hashes = [exp.cmd_calibset(cfg)["metrics"]["set_hash"] for cfg in cfgs]
        extras = [cal.load_calibration_set(os.path.join(cfg.out_dir, "calibset.json")).extra
                  for cfg in cfgs]
        assert extras[0]["tau_var_used"] == extras[1]["tau_var_used"]
        assert hashes[0] == hashes[1]
        profile = prof.load_profile(os.path.join(pipeline_cfg.out_dir, "profile.tsv"), 0.5)
        assert extras[0]["tau_var_used"] == profile.tau_var == 0.5 * max(profile.variances.values())

    def test_compare_reads_profile_tsv_and_replays_no_profiling_chains(self, tmp_path,
                                                                       pipeline_cfg,
                                                                       monkeypatch):
        cfgs = [_copy_pipeline(pipeline_cfg, tmp_path / name, compare_seeds=1, n_eval=8, k=32)
                for name in ("with_file", "without_file")]
        os.remove(os.path.join(cfgs[1].out_dir, "profile.tsv"))
        offers = []
        offer = prof.ActivationTap.offer
        monkeypatch.setattr(prof.ActivationTap, "offer",
                            lambda tap, layer, t, h: (offers.append((layer, t)),
                                                      offer(tap, layer, t, h)))
        exp.cmd_compare(cfgs[0])
        assert offers == []
        exp.cmd_compare(cfgs[1])
        assert offers  # without the file, compare profiles the model at cfg.seed
        for name in ("compare.tsv", *(f"calibset_{s}.json" for s in cal.STRATEGIES)):
            a, b = (pathlib.Path(cfg.out_dir, name).read_bytes() for cfg in cfgs)
            assert a == b, name

    @pytest.mark.parametrize("strategy", ["random_uniform", "normal_timestep"])
    def test_baseline_calibset_reads_and_builds_no_profile(self, tmp_path, pipeline_cfg,
                                                           monkeypatch, strategy):
        cfg = _copy_pipeline(pipeline_cfg, tmp_path / "run", strategy=strategy, k=16)
        with open(os.path.join(cfg.out_dir, "profile.tsv"), "w") as fh:
            fh.write("not a profile\n")

        def no_profile(*args):
            raise AssertionError("a baseline calibset built a profile")

        monkeypatch.setattr(exp, "_profile_for", no_profile)
        assert exp.cmd_calibset(cfg)["metrics"]["strategy"] == strategy


class TestScale:
    def test_row_count_and_uncovered_reporting(self, tmp_path, pipeline_cfg):
        cfg = _copy_pipeline(pipeline_cfg, tmp_path / "scale", scale_seeds=1, n_eval=8, k=64,
                             scale_counts=[2, 3])
        record = exp.cmd_scale(cfg)
        rows = record["metrics"]["rows"]
        assert len(rows) == 2
        # fewer prompts than aspects: pigeonhole forces uncovered aspects
        assert rows[0][2] > 0 and rows[0][3] != ""

    def test_prompt_set_of_size_is_exact_and_deterministic(self, pipeline_cfg):
        aspects = exp.load_aspects(pipeline_cfg)
        a = exp.build_prompt_set_of_size(aspects, 7, seed=3)
        b = exp.build_prompt_set_of_size(aspects, 7, seed=3)
        assert len(a.prompts) == 7
        assert [p.text for p in a.prompts] == [p.text for p in b.prompts]


class TestResultsLedger:
    def _write_records(self, path, records):
        with open(os.path.join(path, "results.jsonl"), "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def test_read_results_dedupes_reruns(self, tmp_path):
        rec = {"run_id": "x", "command": "train", "config_hash": "h", "policy": "",
               "metrics": {}, "size": {}, "toolkit_version": "0.1.0"}
        self._write_records(tmp_path, [dict(rec, wall_time_s=1.0), dict(rec, wall_time_s=2.0)])
        assert len(exp.read_results(str(tmp_path))) == 1

    def test_missing_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            exp.read_results(str(tmp_path))

    def test_artifact_hashes_ignore_wall_time(self, tmp_path):
        rec = {"run_id": "x", "command": "train", "config_hash": "h", "policy": "",
               "metrics": {}, "size": {}, "toolkit_version": "0.1.0"}
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        self._write_records(a, [dict(rec, wall_time_s=1.0)])
        self._write_records(b, [dict(rec, wall_time_s=9.9), dict(rec, wall_time_s=0.5)])
        assert exp.artifact_hashes(str(a)) == exp.artifact_hashes(str(b))


class TestReport:
    def _seed_results(self, path):
        records = [
            {"run_id": "q1", "command": "quantize", "config_hash": "h1", "policy": "8W8A",
             "metrics": {"fd": 0.5, "kl": 0.1, "mse": 0.2},
             "size": {"reduction_pct": 74.9}, "toolkit_version": "0.1.0", "wall_time_s": 1.0},
            {"run_id": "q2", "command": "quantize", "config_hash": "h2", "policy": "4W8A",
             "metrics": {"fd": 2.0, "kl": 0.9, "mse": 1.0},
             "size": {"reduction_pct": 86.1}, "toolkit_version": "0.1.0", "wall_time_s": 1.0},
            {"run_id": "c1", "command": "compare", "config_hash": "h3", "policy": "8W8A",
             "metrics": {"kind": "compare",
                         "mean_fd": {"variance_aware": 0.3, "random_uniform": 0.6,
                                     "normal_timestep": 0.7},
                         "rows": [["variance_aware", 0, 0.3, 0.01, 0.1]]},
             "size": {}, "toolkit_version": "0.1.0", "wall_time_s": 1.0},
        ]
        with open(os.path.join(path, "results.jsonl"), "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def test_groups_by_policy(self, tmp_path):
        self._seed_results(tmp_path)
        exp.cmd_report(str(tmp_path))
        with open(tmp_path / "summary.tsv") as fh:
            lines = fh.read().splitlines()
        assert lines[0].split("\t") == ["policy", "size_reduction_pct", "fd", "kl", "fad"]
        body = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(body) == {"8W8A", "4W8A"}
        # 8W8A row averages the quantize record with the compare record's
        # variance-aware mean: (0.5 + 0.3) / 2
        assert float(body["8W8A"][2]) == pytest.approx(0.4)

    def test_single_record_single_row(self, tmp_path):
        rec = {"run_id": "q", "command": "quantize", "config_hash": "h", "policy": "8W16A",
               "metrics": {"fd": 0.1, "kl": 0.2}, "size": {"reduction_pct": 74.0},
               "toolkit_version": "0.1.0", "wall_time_s": 1.0}
        with open(tmp_path / "results.jsonl", "w") as fh:
            fh.write(json.dumps(rec) + "\n")
        exp.cmd_report(str(tmp_path))
        lines = (tmp_path / "summary.tsv").read_text().splitlines()
        assert len(lines) == 2

    def test_regeneration_is_byte_identical(self, tmp_path):
        self._seed_results(tmp_path)
        exp.cmd_report(str(tmp_path))
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("summary.tsv", "fig_strategy_comparison.tsv")}
        exp.cmd_report(str(tmp_path))
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_figure_files_written_per_kind(self, tmp_path):
        self._seed_results(tmp_path)
        info = exp.cmd_report(str(tmp_path))
        assert "fig_strategy_comparison.tsv" in info["written"]
        assert "fig_bitwidth_sweep.tsv" not in info["written"]  # no sweep record present
