"""``python -m shearlab.cli`` runs the CLI, and graph JSON too deeply nested exits 2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from shearlab.cli import run

ROOT = Path(__file__).resolve().parent.parent


def _run_module(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "shearlab.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_module_entry_prints_what_run_prints(capsys):
    assert run(["check", "qskein"]) == 0
    expected = capsys.readouterr().out
    proc = _run_module("check", "qskein")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and expected


def test_module_entry_exits_2_on_a_usage_error():
    proc = _run_module("check")
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("depth", [1000, 100000])
def test_deeply_nested_graph_json_is_a_format_error(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert run(["graph", "validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: graph JSON is nested too deeply"]
