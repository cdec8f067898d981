"""Command-line interface: exit codes, config precedence, artifacts."""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import cli
from ptqkit import experiments as exp
from ptqkit.config import ExperimentConfig, load_config
from ptqkit.errors import ConfigError, GeneratorError

FAST = {
    "epochs": 25,
    "learning_rate": 0.05,
    "hidden": [8],
    "k": 64,
    "n_eval": 8,
    "n_train_per_prompt": 8,
    "batch_size": 32,
    "sweep_seeds": 1,
}


def _write_config(tmp_path, **overrides):
    doc = {**FAST, "out_dir": str(tmp_path / "run"), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestConfigLoading:
    def test_defaults_when_nothing_given(self):
        cfg = load_config(None, {})
        assert cfg.policy == "8W8A"
        assert cfg.seed == 0

    def test_precedence_file_over_defaults_flags_over_file(self, tmp_path):
        path = _write_config(tmp_path, seed=5)
        assert load_config(path, {}).seed == 5
        assert load_config(path, {"seed": 7}).seed == 7

    def test_none_overrides_are_ignored(self, tmp_path):
        path = _write_config(tmp_path, seed=5)
        assert load_config(path, {"seed": None}).seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not_a_key": 1}')
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(str(path), {})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config("nope.json", {})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"policy": "9W9A"})

    def test_config_hash_tracks_content(self):
        a = ExperimentConfig(seed=0)
        b = ExperimentConfig(seed=1)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == ExperimentConfig(seed=0).config_hash()

    def test_jobs_does_not_change_config_hash_or_run_id(self, tmp_path, capsys):
        assert ExperimentConfig(jobs=1).config_hash() == ExperimentConfig(jobs=4).config_hash()
        cfgfile = _write_config(tmp_path, jobs=1)  # the key stays loadable
        assert cli.main(["prompts", "--config", cfgfile]) == cli.EXIT_OK
        one = json.loads(capsys.readouterr().out.strip())
        assert cli.main(["prompts", "--config", cfgfile, "--jobs", "2"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out.strip()) == one


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK

    def test_bad_config_path_names_the_path(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "ghost.json")]) == cli.EXIT_CONFIG
        assert "ghost.json" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mystery": true}')
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_missing_or_truncated_checkpoint_is_config_error(self, tmp_path, capsys, damage):
        cfgfile = _write_config(tmp_path)
        if damage == "truncated":  # as a train killed mid-write by an older version left it
            assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
            path = tmp_path / "run" / "model.json"
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cli.main(["quantize", "--config", cfgfile]) == cli.EXIT_CONFIG
        assert "model.json" in capsys.readouterr().err

    def test_bad_policy_is_config_error(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["quantize", "--config", cfgfile, "--policy", "7W7A"]) == cli.EXIT_CONFIG

    def test_quantize_without_calibration_is_config_error(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        assert cli.main(["quantize", "--config", cfgfile]) == cli.EXIT_CONFIG

    def test_calibration_gap_is_data_error(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        assert cli.main(["profile", "--config", cfgfile]) == cli.EXIT_OK
        assert cli.main(["calibset", "--config", cfgfile]) == cli.EXIT_OK
        # strip every sample of one layer from the calibration set
        path = tmp_path / "run" / "calibset.json"
        doc = json.loads(path.read_text())
        doc["samples"] = [s for s in doc["samples"] if s["layer"] != "layer1"]
        path.write_text(json.dumps(doc))
        assert cli.main(["quantize", "--config", cfgfile]) == cli.EXIT_DATA

    def test_training_divergence_is_numeric_error(self, tmp_path):
        cfgfile = _write_config(tmp_path, learning_rate=1e12, epochs=40)
        with pytest.warns(RuntimeWarning):
            assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_NUMERIC

    def test_generator_failure_maps_to_its_own_code(self, tmp_path, monkeypatch):
        def boom(cfg, aspects):
            raise GeneratorError("speech", "backend unreachable")

        monkeypatch.setattr(exp, "build_prompts", boom)
        cfgfile = _write_config(tmp_path)
        assert cli.main(["prompts", "--config", cfgfile]) == cli.EXIT_GENERATOR

    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_missing_or_torn_results_is_config_error(self, tmp_path, capsys, damage):
        if damage == "torn":
            (tmp_path / "results.jsonl").write_text('{"run_id": "a", "policy": "8W8A"}\n{"run_id": "b", "po')
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "results.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, field", [
        ({"time_embed_dim": 7}, "time_embed_dim must be even"),
        ({"k": "abc"}, "k must be an integer"),
        ({"k": 2.5}, "k must be an integer"),
        ({"epochs": 0}, "epochs must be an integer >= 1"),
        ({"batch_size": 100000}, "batch_size 100000 exceeds"),
        ({"n_eval": -5}, "n_eval must be an integer >= 1"),
        ({"scale_seeds": 0}, "scale_seeds must be an integer >= 1"),
        ({"tau_fraction": -1}, "tau_fraction must be a number in [0, 1]"),
        ({"act_percentile": 40}, "act_percentile must be a number in (50, 100]"),
        ({"hidden": [8, 0]}, "hidden must be a list of positive integers"),
        ({"scale_counts": []}, "scale_counts must be a non-empty list"),
        ({"sweep_bits": [16, 3]}, "sweep_bits must be a non-empty list of bitwidths"),
    ])
    def test_bad_field_values_are_config_errors(self, tmp_path, capsys, bad, field):
        cfgfile = _write_config(tmp_path, **bad)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "run").exists()  # rejected before any work


_ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=3),
                       st.floats(-1e3, 1e3), st.sampled_from([float("nan"), float("inf")]),
                       st.lists(st.integers(-2, 20), max_size=3))
_COUNT = st.integers(1, 40)
_VALID = {  # the checked keys, each with values it accepts
    **{key: _COUNT for key in ("batch_size", "n_train_per_prompt", "n_eval", "n_profile_chains",
                               "sweep_seeds", "compare_seeds", "scale_seeds")},
    "tau_fraction": st.floats(0, 1),
    "act_percentile": st.floats(50, 100, exclude_min=True),
    "hidden": st.lists(st.integers(1, 12), max_size=3),
    "scale_counts": st.lists(_COUNT, min_size=1, max_size=3),
    "sweep_bits": st.lists(st.sampled_from([4, 8, 16]), min_size=1, max_size=3),
}
# a key takes an accepted value three times in four, so that train runs in some of the cases
_CONFIGS = st.fixed_dictionaries({}, optional={
    k: st.integers(0, 3).flatmap(lambda i, v=v: v if i else _ANY_VALUE) for k, v in _VALID.items()})


class TestConfigProperty:
    @settings(max_examples=30, deadline=None)
    @given(_CONFIGS)
    def test_prompts_and_train_exit_0_or_2(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump({"epochs": 1, "n_train_per_prompt": 4, "hidden": [4], **doc,
                           "out_dir": os.path.join(tmp, "run")}, fh)
            for cmd in ("prompts", "train"):
                assert cli.main([cmd, "--config", path]) in (cli.EXIT_OK, cli.EXIT_CONFIG)


class TestCliBehavior:
    def test_rerun_reproduces_checkpoint_hash(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        first = _sha(tmp_path / "run" / "model.json")
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        assert _sha(tmp_path / "run" / "model.json") == first

    def test_out_flag_overrides_config(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert cli.main(["train", "--config", cfgfile, "--out", str(other)]) == cli.EXIT_OK
        assert (other / "model.json").exists()
        assert not (tmp_path / "run" / "model.json").exists()

    def test_run_id_and_config_hash_printed(self, tmp_path, capsys):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out.strip())
        assert set(out) == {"run_id", "config_hash"}
        assert out["run_id"].startswith("train-")

    def test_seed_flag_changes_config_hash(self, tmp_path, capsys):
        cfgfile = _write_config(tmp_path)
        cli.main(["train", "--config", cfgfile])
        h0 = json.loads(capsys.readouterr().out.strip())["config_hash"]
        cli.main(["train", "--config", cfgfile, "--seed", "9"])
        h9 = json.loads(capsys.readouterr().out.strip())["config_hash"]
        assert h0 != h9

    def test_full_artifact_chain(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        for cmd in ("train", "prompts", "profile", "calibset", "quantize"):
            assert cli.main([cmd, "--config", cfgfile]) == cli.EXIT_OK, cmd
        run = tmp_path / "run"
        for artifact in ("model.json", "prompts.tsv", "profile.tsv", "calibset.json",
                         "model_quantized.json", "loss_trace.tsv", "coverage_report.json",
                         "results.jsonl"):
            assert (run / artifact).exists(), artifact
        assert cli.main(["report", str(run)]) == cli.EXIT_OK
        assert (run / "summary.tsv").exists()

    def test_scale_counts_flag(self, tmp_path, capsys):
        cfgfile = _write_config(tmp_path, scale_seeds=1, policy="8WfullA")
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["scale", "--config", cfgfile, "--counts", "2,3"]) == cli.EXIT_OK
        with open(tmp_path / "run" / "scale.tsv") as fh:
            assert len(fh.read().splitlines()) == 3  # header + 2 counts
        # the flag overrides scale_counts, so the run has its own run_id
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["config_hash"] == load_config(cfgfile, {"scale_counts": [2, 3]}).config_hash()
        with pytest.raises(SystemExit) as exc:
            cli.main(["scale", "--config", cfgfile, "--counts", "2,x"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_report_regeneration_byte_identical(self, tmp_path):
        cfgfile = _write_config(tmp_path)
        assert cli.main(["train", "--config", cfgfile]) == cli.EXIT_OK
        run = str(tmp_path / "run")
        assert cli.main(["report", run]) == cli.EXIT_OK
        first = _sha(os.path.join(run, "summary.tsv"))
        assert cli.main(["report", run]) == cli.EXIT_OK
        assert _sha(os.path.join(run, "summary.tsv")) == first
