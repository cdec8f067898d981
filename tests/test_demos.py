"""The demos run to completion and print what they promise."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("quantization_basics.py", ["worst round-trip error", "8W8A         5384 B ->   1346.0 B"]),
    ("prompt_coverage.py", ["seed set covers 3/16 aspects", "after augmentation: 16/16 covered"]),
    ("calibration_strategies.py", ["quantizing at 8W8A with K=128 per strategy:", "  seed 2: FD  "]),
    ("full_pipeline.py", ["[calibset] done in", "[report] wrote summary.tsv"]),
])
def test_demo_runs(capsys, monkeypatch, tmp_path, name, expected):
    monkeypatch.chdir(tmp_path)  # the pipeline demos write under runs/
    monkeypatch.setattr("sys.argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for text in expected:
        assert text in out
