"""Argument checks of tools/bench_record.py that need no perfbench run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeated_side_label_is_a_usage_error(tmp_path, capsys):
    # Kept once, the label would silently drop the first checkout. Neither path
    # holds a BENCHMARK.json, so a tool that let the label through could not start a run.
    out = tmp_path / "BENCH.json"
    argv = ["--side", f"a={tmp_path / 'one'}", "--side", f"a={tmp_path / 'two'}", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        load_tool().main(argv)
    assert exc.value.code == 2
    assert "'a' is given more than once" in capsys.readouterr().err
    assert not out.exists()
