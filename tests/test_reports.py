"""One report format: every float check builds its verdict through ``float_report``.

A float report has "name", "residual", "tolerance" and "equal"; the residual
is a Python float and the verdict a Python bool, because the CLI writes strict
JSON.  An exact report shows its difference polynomial only when it fails.
"""

import ast
import json
import random
from pathlib import Path

import numpy as np
import pytest

from shearlab import cli, flips, geodesics, quantum
from shearlab.cli import run
from shearlab.exppoly import ExpPoly
from shearlab.fatgraph import once_punctured_torus, tetrahedron
from shearlab.geodesics import TORUS_A, TORUS_B, float_report

SRC = Path(__file__).resolve().parent.parent / "src" / "shearlab"


def _assert_float_verdict(rep, structural_ok=True):
    assert {"name", "residual", "tolerance", "equal"} <= rep.keys(), rep
    assert type(rep["residual"]) is float and type(rep["equal"]) is bool, rep
    if structural_ok:
        assert rep["equal"] == (rep["residual"] <= rep["tolerance"]), rep
    json.dumps(rep, allow_nan=False)


def _direct_reports():
    rng = random.Random(3)
    gen = np.random.default_rng(3)

    def labels(n):
        return [rng.uniform(-2.0, 2.0) for _ in range(n)]

    yield flips.check_involution(once_punctured_torus(labels(3)), 0)
    yield flips.check_involution(tetrahedron(labels(6)), 2)
    yield flips.check_commutation(tetrahedron(labels(6)), 0, 5)
    yield flips.check_pentagon(tetrahedron(labels(6)), 0, 1)
    yield flips.check_perimeters(once_punctured_torus(labels(3)), 0)
    yield flips.check_perimeters(tetrahedron(labels(6)), 4)
    yield flips.torus_modular_check(labels(3))
    yield geodesics.rmatrix_local_check(0.3, -1.2)
    yield geodesics.rmatrix_global_check(gen.normal(size=(2, 2)), gen.normal(size=(2, 2)))
    for kind, hbar in (("difference", 0.5), ("quasi1", 0.4), ("quasi2", 0.5), ("semiclassical", 0.01)):
        yield quantum.qdilog_check(kind, 0.7, hbar)


def test_float_checks_share_one_verdict():
    names = set()
    for rep in _direct_reports():
        names.add(rep["name"])
        _assert_float_verdict(rep, rep.get("sigma_equal", True))
        assert rep["equal"], rep
    assert names == {
        "involution",
        "commutation",
        "pentagon",
        "perimeter",
        "torus_modular",
        "rmatrix_local",
        "rmatrix_global",
        "qdilog_difference",
        "qdilog_quasi1",
        "qdilog_quasi2",
        "qdilog_semiclassical",
    }


@pytest.mark.parametrize("suite", ["casimir", "relations", "qdilog"])
def test_suite_case_reports_share_one_verdict(monkeypatch, suite):
    # the per-case reports a suite folds into its summaries
    folded = []
    summary = cli._summary

    def capture(name, reports):
        folded.extend(reports)
        return summary(name, reports)

    monkeypatch.setattr(cli, "_summary", capture)
    cli._SUITES[suite](7, 3)
    assert folded
    for rep in folded:
        _assert_float_verdict(rep, rep.get("sigma_equal", True))


def test_forced_float_failures():
    over = float_report("over", np.float64(2e-12), 1e-12)
    _assert_float_verdict(over)
    assert over["equal"] is False and over["residual"] == 2e-12

    broken = float_report("broken", 0.0, 1e-12, ok=False, edge=0)
    _assert_float_verdict(broken, structural_ok=False)
    assert broken["equal"] is False and broken["residual"] == 0.0 and broken["edge"] == 0


def test_failing_exact_check_through_cli(monkeypatch, capsys):
    pair_traces = geodesics.pair_traces

    def perturbed(g, p, q):
        gp, gq, g_pq, g_pqi = pair_traces(g, p, q)
        return gp, gq, g_pq + ExpPoly.const(g.n_edges, 1), g_pqi

    monkeypatch.setattr(geodesics, "pair_traces", perturbed)
    code = run(["check", "skein", "--cases", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    assert "1 check(s) failed" in err
    (rep,) = data["reports"]
    assert rep["equal"] is False and "lhs" not in rep and "rhs" not in rep
    gp, gq, g_pq, g_pqi = perturbed(once_punctured_torus(), TORUS_A, TORUS_B)
    assert rep["residual"] == repr(gp * gq - (g_pq + g_pqi))


# the only places that may spell out a verdict dict: the two report
# constructors, the CLI's summary fold and the structural quantum reports
_VERDICT_BUILDERS = {
    ("geodesics", "exact_report"),
    ("geodesics", "float_report"),
    ("cli", "_summary"),
    ("quantum", "qskein_decompose"),
    ("quantum", "qcommutator_check"),
    ("quantum", "empty_loop_constant"),
    ("quantum", "quantum_centrality_check"),
}


def _verdict_literals(tree):
    """(enclosing function, line) of each dict literal with an "equal" key."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "equal" for k in node.keys
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_verdicts_come_from_the_report_constructors():
    # a hand-built {"equal": ...} is a second report format to keep in step
    for path in sorted(SRC.glob("*.py")):
        for func, line in _verdict_literals(ast.parse(path.read_text())):
            assert (path.stem, func) in _VERDICT_BUILDERS, (
                f"{path.name}:{line} builds a verdict by hand in {func}; use exact_report or float_report"
            )
