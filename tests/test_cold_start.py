"""A fresh interpreter imports shearlab and runs its exact and flip commands without loading numpy.

Only the pairing matrix product of ``poisson_bracket`` and ``qmul``, the
``phi_hbar`` grid and the R-matrix checks import numpy, on first use.  An
array ``omega`` is still accepted when numpy is loaded after shearlab, and the
numpy-free commands give the same output when numpy cannot be imported at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from shearlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = [
    "graph info torus",
    "graph validate tetrahedron",
    "flip torus --edge 0",
    "geodesic eval torus --path 0,2",  # its golden is the exit-2 refusal of a step not joined at a vertex
    "geodesic eval torus --path 0,5",
    "check skein",
    "check relations",
]

# argv[1] is the JSON list of commands, argv[2] "blocked" to make numpy unimportable first
SCRIPT = """
import contextlib, io, json, sys
commands, mode = json.loads(sys.argv[1]), sys.argv[2]
if mode == "blocked":
    sys.modules["numpy"] = None
import shearlab, shearlab.cli
out = {"after_import": "numpy" in sys.modules, "commands": []}
for argv in commands:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.argv = ["shearlab", *argv.split()]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            shearlab.cli.main()
        except SystemExit as exc:
            code = exc.code
    out["commands"].append([code, stdout.getvalue(), stderr.getvalue()])
out["after_commands"] = "numpy" in sys.modules
if mode != "blocked":
    from shearlab import QExpPoly, geodesic_function, once_punctured_torus, poisson_bracket, qmul
    g = once_punctured_torus()
    omega = g.omega_matrix()
    f, h = geodesic_function(g, (0, 5)), geodesic_function(g, (0, 3))
    bracket = poisson_bracket(f, h, omega)
    out["after_bracket"] = "numpy" in sys.modules
    import numpy as np
    F, H = QExpPoly.from_classical(f), QExpPoly.from_classical(h)
    product = qmul(F, H, omega)
    out["arrays"] = [
        bool(bracket) and poisson_bracket(f, h, w) == bracket and qmul(F, H, w) == product
        for w in (np.array(omega), list(np.array(omega)))
    ]
print(json.dumps(out))
"""


def _fresh(mode: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _in_process(capsys, argv: str) -> list:
    code = run(argv.split())
    out, err = capsys.readouterr()
    return [code, out, err]


def _assert_golden(capsys, commands: list):
    """The fresh interpreter's results are this process's, and those with a golden match it byte for byte."""
    assert commands == [_in_process(capsys, argv) for argv in COMMANDS]
    golden = json.loads((GOLDEN / "commands.json").read_text())
    assert commands[0] == [0, golden["graph-info-torus"]["stdout"], ""]
    assert commands[2] == [0, golden["flip-torus-edge0"]["stdout"], ""]
    assert commands[3] == [2, "", golden["geodesic-eval-torus-0-2"]["stderr"]]
    assert commands[5] == [0, (GOLDEN / "skein.json").read_text(), ""]


def test_the_numpy_free_commands_never_load_numpy_and_arrays_still_pass(capsys):
    got = _fresh("free")
    assert got["after_import"] is False and got["after_commands"] is False
    _assert_golden(capsys, got["commands"])
    assert got["after_bracket"] is True
    assert got["arrays"] == [True, True]


def test_the_numpy_free_commands_run_where_numpy_cannot_be_imported(capsys):
    got = _fresh("blocked")
    _assert_golden(capsys, got["commands"])
