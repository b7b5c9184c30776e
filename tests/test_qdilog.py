import cmath
import math

import pytest

from shearlab.quantum import QDilogParams, QuantumError, phi_hbar, qdilog_check


def test_difference_equation():
    # Phi(z) - Phi(-z) = z for real z, several hbar values
    for hbar in (0.1, 0.5, 1.0, 2.0):
        params = QDilogParams(hbar=hbar)
        for k in range(-6, 7):
            z = 0.5 * k
            value = phi_hbar(z, params) - phi_hbar(-z, params)
            assert abs(value - z) <= 1e-8


def test_value_at_zero_is_real():
    # Phi(0) is real and tends to log 2 as hbar -> 0
    for hbar in (0.3, 1.0):
        value = phi_hbar(0.0, QDilogParams(hbar=hbar))
        assert abs(value.imag) <= 1e-9
        assert value.real >= math.log(2.0)
    assert abs(phi_hbar(0.0, QDilogParams(hbar=0.01)).real - math.log(2.0)) <= 1e-3


def test_hbar_inversion_symmetry():
    # Phi_hbar(z) = (1/hbar) Phi_{1/hbar}(z/hbar) ... in the form
    # Phi^{1/hbar}(z/hbar) = Phi^{hbar}(z)/hbar follows from p -> p*hbar
    for hbar in (0.4, 2.5):
        for z in (-1.0, 0.7, 1.8):
            a = phi_hbar(z, QDilogParams(hbar=hbar))
            b = phi_hbar(z / hbar, QDilogParams(hbar=1.0 / hbar))
            assert abs(a - hbar * b) <= 1e-8


def test_quasi_periodicity_first():
    for k in range(10):
        z = -2.0 + 0.45 * k
        rep = qdilog_check("quasi1", z, 0.4)
        assert rep["equal"] and rep["residual"] <= 1e-6


def test_quasi_periodicity_second():
    for k in range(7):
        z = -1.5 + 0.5 * k
        rep = qdilog_check("quasi2", z, 0.8)
        assert rep["equal"] and rep["residual"] <= 1e-6


def test_semiclassical_limit():
    for k in range(9):
        z = -2.0 + 0.5 * k
        rep = qdilog_check("semiclassical", z, 0.01)
        assert rep["equal"] and rep["residual"] <= 5e-3
        value = complex(*rep["value"])
        assert abs(value - cmath.log(1 + cmath.exp(z))) <= 5e-3


def test_complex_argument():
    params = QDilogParams(hbar=0.5)
    z = 0.3 + 0.4j
    value = phi_hbar(z, params) - phi_hbar(-z, params)
    assert abs(value - z) <= 1e-8


def test_strip_boundary_rejected():
    with pytest.raises(QuantumError):
        phi_hbar(1j * math.pi * 1.5, QDilogParams(hbar=0.5))
    with pytest.raises(QuantumError):
        phi_hbar(0.0, QDilogParams(hbar=-1.0))
    with pytest.raises(QuantumError):
        qdilog_check("nonsense", 0.0, 0.5)


def test_check_report_shape():
    rep = qdilog_check("difference", 1.0, 0.5)
    assert rep["name"] == "qdilog_difference"
    assert rep["equal"] and rep["residual"] <= rep["tolerance"]
    assert rep["z"] == [1.0, 0.0] and rep["hbar"] == 0.5


@pytest.mark.parametrize(
    "z, hbar, named",
    [
        (complex(math.inf, 0.0), 0.5, "z = "),
        (complex(0.0, math.nan), 0.5, "z = "),
        (1.0, math.nan, "hbar = nan"),
        (1.0, math.inf, "hbar = inf"),
    ],
)
def test_non_finite_input_rejected(z, hbar, named):
    with pytest.raises(QuantumError, match=named):
        phi_hbar(z, QDilogParams(hbar=hbar))


def test_overflow_raises_a_named_error_without_warnings():
    # quasi2 at z = 0 evaluates phi_hbar at i pi, 0.157 inside the strip edge for hbar = 0.05
    with pytest.raises(QuantumError, match=r"hbar = 0\.05: \|Im z\| is 0\.157 inside the strip edge"):
        phi_hbar(1j * math.pi, QDilogParams(hbar=0.05))
