"""The atomic writer and the readers, the run_id-keyed results ledger, and the
guard that keeps every file write inside ``ptqkit.artifacts``."""

import ast
import json
import pathlib

import pytest

from ptqkit import artifacts as art
from ptqkit import experiments as exp
from ptqkit.config import ExperimentConfig
from ptqkit.errors import ConfigError

FAST = {"epochs": 5, "hidden": [8], "n_train_per_prompt": 8, "batch_size": 32}


def _config(tmp_path, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**FAST, "out_dir": str(tmp_path / "run"), **overrides})


def _snapshot(run) -> dict:
    return {name: (run / name).read_bytes() for name in ("model.json", "results.jsonl")}


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", ["replace", "unserializable"])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, failure):
        cfg = _config(tmp_path)
        exp.cmd_train(cfg)
        run = tmp_path / "run"
        before = _snapshot(run)
        if failure == "replace":
            def boom(src, dst):
                raise OSError("rename failed")

            monkeypatch.setattr(art.os, "replace", boom)
            writes = [lambda: exp.cmd_train(_config(tmp_path, seed=1)),  # other weights
                      lambda: exp.append_result(cfg, "train", {}, 0.0)]
        else:
            bad = {"weights": object()}
            writes = [lambda: art.write_json(run / "model.json", bad),
                      lambda: exp.append_result(cfg, "train", bad, 0.0)]
        for write in writes:
            with pytest.raises((OSError, TypeError)):
                write()
        monkeypatch.undo()
        assert _snapshot(run) == before
        assert not list(run.glob("*.tmp"))

    def test_write_creates_the_directory(self, tmp_path):
        art.write_json(tmp_path / "a" / "b" / "doc.json", {"x": 1})
        assert art.read_json(tmp_path / "a" / "b" / "doc.json") == {"x": 1}


class TestReaders:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = [("a", 0.1, "has\ttab"), ("b", 1 / 3, "")]
        art.write_tsv(path, ("name", "x", "text"), rows, comment={"k": 0.5, "role": "r"})
        assert path.read_text().splitlines()[:2] == ["# k=0.5\trole=r", "name\tx\ttext"]
        comment, got = art.read_tsv(path, {"name": str, "x": float, "text": str})
        assert comment == {"k": "0.5", "role": "r"}
        assert [(r["name"], r["x"], r["text"]) for r in got] == rows

    @pytest.mark.parametrize("kind", ["json", "jsonl", "tsv"])
    def test_truncated_file_is_config_error_naming_it(self, tmp_path, kind):
        path = tmp_path / f"doc.{kind}"
        if kind == "json":
            art.write_json(path, {"weights": [[0.25, 0.5], [1.0, 2.0]]})
            read = art.read_json
        elif kind == "jsonl":
            art.write_jsonl(path, [{"run_id": "a"}, {"run_id": "b"}])
            read = art.read_jsonl
        else:
            art.write_tsv(path, ("name", "x", "n"), [("a", 1.5, 2)])
            read = lambda p: art.read_tsv(p, {"name": str, "x": float, "n": int})  # noqa: E731
        read(path)
        path.write_bytes(path.read_bytes()[:-4])  # a writer killed mid-file
        with pytest.raises(ConfigError, match=f"doc.{kind}"):
            read(path)

    def test_tsv_missing_column_is_config_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        art.write_tsv(path, ("name",), [("a",)])
        with pytest.raises(ConfigError, match="x"):
            art.read_tsv(path, {"name": str, "x": float})


class TestLedger:
    def test_rerun_replaces_its_record_in_first_position(self, tmp_path):
        records = [exp.cmd_prompts(_config(tmp_path, seed=seed)) for seed in (0, 1, 0)]
        lines = (tmp_path / "run" / "results.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [records[2], records[1]]
        assert records[0]["run_id"] == records[2]["run_id"] != records[1]["run_id"]

    def test_append_collapses_appended_reruns_of_older_versions(self, tmp_path):
        cfg = _config(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        old = [{"run_id": "x", "wall_time_s": 1.0}, {"run_id": "y"}, {"run_id": "x", "wall_time_s": 2.0}]
        (run / "results.jsonl").write_text("".join(json.dumps(r) + "\n" for r in old))
        new = exp.append_result(cfg, "train", {}, 0.5)
        assert art.read_jsonl(run / "results.jsonl") == [old[2], old[1], new]


def _writes(source: str) -> list:
    """Calls in ``source`` that write a file: open() in a mode other than read, or json.dump."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "dump" \
                and isinstance(func.value, ast.Name) and func.value.id == "json":
            found.append(f"{node.lineno}: json.dump")
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else \
                next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                found.append(f"{node.lineno}: open(..., {ast.unparse(mode)})")
    return found


def test_write_guard_flags_each_kind_of_write():
    source = 'open(p, "w")\nopen(p, mode="a")\nopen(p, m)\njson.dump(d, fh)\nopen(p)\nopen(p, "rb")\n'
    assert len(_writes(source)) == 4


def test_only_the_artifact_module_writes_files():
    package = pathlib.Path(art.__file__).parent
    offenders = {path.name: _writes(path.read_text()) for path in sorted(package.glob("*.py"))
                 if path.name != "artifacts.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
