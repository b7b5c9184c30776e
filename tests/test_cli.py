import json
from pathlib import Path

import pytest

from shearlab.cli import _emit, run
from shearlab.fatgraph import once_punctured_torus

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_graph_validate_builtin(capsys):
    code, out, _ = _run(capsys, "graph", "validate", "torus")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["topology"] == {"V": 2, "E": 3, "F": 1, "genus": 1, "holes": 1}


def test_graph_info_tetrahedron(capsys):
    code, out, _ = _run(capsys, "graph", "info", "tetrahedron")
    assert code == 0
    data = json.loads(out)
    assert data["topology"] == {"V": 4, "E": 6, "F": 4, "genus": 0, "holes": 4}
    assert len(data["faces"]) == 4
    assert len(data["omega"]) == 6


def test_graph_from_file(tmp_path, capsys):
    g = once_punctured_torus((0.5, -1.0, 2.0))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    code, out, _ = _run(capsys, "graph", "validate", str(path))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_graph_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "graph", "validate", "/no/such/file.json")
    assert code == 2 and "error:" in err


def test_graph_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "graph", "validate", str(path))
    assert code == 2 and "error:" in err


def test_graph_invalid_structure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sigma": [1, 0, 3, 2], "z": [0, 0]}))
    code, _, err = _run(capsys, "graph", "validate", str(path))
    assert code == 2 and "error:" in err


def test_geodesic_eval(capsys):
    code, out, _ = _run(capsys, "geodesic", "eval", "torus", "--path", "0,5")
    assert code == 0
    data = json.loads(out)
    assert data["turns"] == ["R", "L"]
    assert data["value"] == pytest.approx(3.0)
    assert len(data["terms"]) == 3


def test_geodesic_invalid_path(capsys):
    code, _, err = _run(capsys, "geodesic", "eval", "torus", "--path", "0,2")
    assert code == 2 and "error:" in err


def test_flip_command(capsys):
    code, out, _ = _run(capsys, "flip", "torus", "--edge", "0")
    assert code == 0
    data = json.loads(out)
    assert data["record"]["edge"] == 0
    import math

    assert sorted(map(abs, data["after"]["z"][1:])) == pytest.approx([2 * math.log(2)] * 2)


def test_flip_bad_edge(capsys):
    code, _, err = _run(capsys, "flip", "torus", "--edge", "7")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("suite", ["goldman", "casimir", "qskein"])
def test_check_suites_pass(capsys, suite):
    code, out, _ = _run(capsys, "check", suite, "--cases", "5")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(r["equal"] for r in data["reports"])


def test_check_skein_seeded(capsys):
    code, out, _ = _run(capsys, "check", "skein", "--cases", "3", "--seed", "42")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 42 and data["status"] == "pass"


def test_check_relations_small(capsys):
    code, out, _ = _run(capsys, "check", "relations", "--cases", "3")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_check_determinism(capsys):
    _, out1, _ = _run(capsys, "check", "skein", "--cases", "4", "--seed", "7")
    _, out2, _ = _run(capsys, "check", "skein", "--cases", "4", "--seed", "7")
    assert out1 == out2
    _, out3, _ = _run(capsys, "check", "skein", "--cases", "4", "--seed", "8")
    assert out1 != out3


def test_check_unknown_suite_usage_error(capsys):
    code, _, _ = _run(capsys, "check", "nonsense")
    assert code == 2


def test_qdilog_command(capsys):
    code, out, _ = _run(capsys, "qdilog", "--z", "1.0", "--hbar", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass" and data["residual"] <= 1e-8


def test_qdilog_quasi_checks(capsys):
    for check in ("quasi1", "quasi2", "semiclassical"):
        hbar = "0.01" if check == "semiclassical" else "0.5"
        code, out, _ = _run(capsys, "qdilog", "--z", "0.5", "--hbar", hbar, "--check", check)
        assert code == 0 and json.loads(out)["status"] == "pass"


def test_missing_required_args(capsys):
    assert _run(capsys, "qdilog", "--z", "1.0")[0] == 2
    assert _run(capsys, "geodesic", "eval", "torus")[0] == 2
    assert _run(capsys, "frobnicate")[0] == 2


def test_stdout_is_json_only(capsys):
    for argv in (["graph", "info", "torus"], ["check", "goldman"], ["qdilog", "--z", "0", "--hbar", "1"]):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        json.loads(out)  # single JSON document


# -- input and output boundaries ---------------------------------------------


def test_geodesic_eval_rejects_non_finite_label(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": [1e400, 0, 0]}')
    code, out, err = _run(capsys, "geodesic", "eval", str(path), "--path", "0,5")
    assert code == 2 and out == "" and "not a finite number" in err


def test_graph_labels_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "z5.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": 5}')
    code, out, err = _run(capsys, "graph", "validate", str(path))
    assert code == 2 and out == "" and "error:" in err


def test_geodesic_eval_overflow_is_usage_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": [2000, 0, 0]}')
    code, out, err = _run(capsys, "geodesic", "eval", str(path), "--path", "0,5")
    assert code == 2 and out == "" and "error:" in err


def test_graph_validate_rejects_label_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge_int.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": [%s, 0, 0]}' % (10**400))
    code, out, err = _run(capsys, "graph", "validate", str(path))
    assert code == 2 and out == ""
    assert "label z[0] = 1000" in err and "not a finite number" in err


def test_emit_is_strict_json(tmp_path, capsys):
    with pytest.raises(ValueError):
        _emit({"value": float("inf")})
    # finite labels whose perimeter overflows must not print Infinity
    path = tmp_path / "huge.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": [1e308, 1e308, 1e308]}')
    code, out, err = _run(capsys, "graph", "info", str(path))
    assert code == 2 and out == "" and "error:" in err


def test_check_negative_cases_is_usage_error(capsys):
    code, out, err = _run(capsys, "check", "skein", "--cases", "-1")
    assert code == 2 and out == "" and "negative" in err


def test_check_has_no_graph_option(capsys):
    code, out, _ = _run(capsys, "check", "skein", "--graph", "tetrahedron")
    assert code == 2 and out == ""


# -- golden output ------------------------------------------------------------


@pytest.mark.parametrize("suite", ["skein", "goldman", "qskein"])
def test_check_output_matches_golden(capsys, suite):
    # the exact suites only: float residuals may differ in the last digits
    # between libm builds
    code, out, _ = _run(capsys, "check", suite)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{suite}.json").read_bytes()


def _assert_matches_up_to_floats(got, want, where="report"):
    """Equal structure and non-float values; floats agree to 1e-9 relative."""
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-9, abs=0.0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_up_to_floats(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_up_to_floats(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("suite", ["casimir", "relations", "qdilog"])
def test_float_check_output_matches_golden(capsys, suite):
    # the float suites: every non-float field exactly, floats to 1e-9 relative,
    # which leaves room for last-digit differences between libm builds
    code, out, _ = _run(capsys, "check", suite)
    assert code == 0
    _assert_matches_up_to_floats(json.loads(out), json.loads((GOLDEN / f"{suite}.json").read_text()))


@pytest.mark.parametrize(
    "sigma, z, named",
    [
        ([2.9, 3, 4, 5, 0, 1], [0, 0, 0], "sigma[0] = 2.9"),
        ([2, 3, "4", 5, 0, 1], [0, 0, 0], "sigma[2] = '4'"),
        ([True, 3, 4, 5, 0, 1], [0, 0, 0], "sigma[0] = True"),
        ([2, 3, 4, 5, 0, 1], [0, True, 0], "z[1] = True"),
    ],
    ids=["float_dart", "string_dart", "bool_dart", "bool_label"],
)
def test_graph_json_is_strict(tmp_path, capsys, sigma, z, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sigma": sigma, "z": z}))
    code, out, err = _run(capsys, "graph", "info", str(path))
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize(
    "sigma, named",
    [([9, 0, 3, 2], "sigma[0] = 9"), ([1, 0, 3, 2], "vertex orbit [0, 1] has size 2")],
    ids=["dart_out_of_range", "two_dart_vertex"],
)
@pytest.mark.parametrize(
    "command, options",
    [(["flip"], ["--edge", "0"]), (["geodesic", "eval"], ["--path", "0,1"]), (["graph", "info"], [])],
    ids=["flip", "geodesic", "graph"],
)
def test_graph_validated_for_every_command(tmp_path, capsys, sigma, named, command, options):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sigma": sigma, "z": [0, 0]}))
    code, out, err = _run(capsys, *command, str(path), *options)
    assert code == 2 and out == ""
    assert named in err and "self-loop" not in err


@pytest.mark.parametrize(
    "argv, named",
    [(["--z", "inf", "--hbar", "0.5"], "z = (inf"), (["--z", "1.0", "--hbar", "nan"], "hbar = nan")],
    ids=["z_inf", "hbar_nan"],
)
def test_qdilog_rejects_non_finite_input(capsys, argv, named):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "qdilog", *argv)
    assert code == 2 and out == ""
    assert named in err and "not a finite number" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_failed_quantum_skein_is_reported_not_raised(capsys, monkeypatch):
    from shearlab import quantum

    exact = quantum.product_traces

    def off_by_one(g, p, q):
        tr_pq, tr_pqi = exact(g, p, q)
        return tr_pq, tr_pqi + 1

    monkeypatch.setattr(quantum, "product_traces", off_by_one)
    code, out, err = _run(capsys, "check", "qskein")
    assert code == 1 and "check(s) failed" in err
    skein = next(r for r in json.loads(out)["reports"] if r["name"] == "qskein")
    assert skein["star_fixed"] is False and skein["equal"] is False


def test_qdilog_overflow_exits_two_with_one_named_error(capsys):
    code, out, err = _run(capsys, "qdilog", "--z", "0", "--hbar", "0.05", "--check", "quasi2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: phi_hbar overflowed at z = ")
    assert "hbar = 0.05" in err and "inside the strip edge" in err


def test_graph_validate_keeps_a_deeply_nested_label_error_short(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"sigma": [2, 3, 4, 5, 0, 1], "z": [%s, 0, 0]}' % ("[" * 900 + "]" * 900))
    code, out, err = _run(capsys, "graph", "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: label z[0] = [[[") and len(err) < 120
