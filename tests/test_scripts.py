"""The scripts under scripts/ run end to end and use only the public API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_qdilog_scan_passes():
    proc = _run_script("qdilog_scan.py", "--steps", "3", "--hbar", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "PASS"


def test_flip_orbit_demo_prints_each_step():
    proc = _run_script("flip_orbit_demo.py", "--steps", "3", "--graph", "tetrahedron")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


def test_scripts_use_only_public_names():
    # a script that reaches into a private name is a second front end to keep in step
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [*(node.module or "").split("."), *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            if names[0] == "shearlab":
                assert not any(n.startswith("_") for n in names), f"{path.name} imports a private shearlab name"


def test_qdilog_scan_reports_an_overflowing_row_as_a_failure():
    proc = _run_script("qdilog_scan.py", "--steps", "3", "--hbar", "0.05")
    assert proc.returncode == 1 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[1].split()[-1] == "inf" and lines[-1] == "FAIL"


def test_qdilog_scan_rejects_fewer_than_two_steps():
    for steps in ("1", "0"):
        proc = _run_script("qdilog_scan.py", "--steps", steps)
        assert proc.returncode == 2 and "--steps must be at least 2" in proc.stderr
