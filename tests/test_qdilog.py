import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shearlab import quantum
from shearlab.fatgraph import short_repr
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


@pytest.mark.parametrize("z", [0.0, 1e308 + 1j * math.pi, -2.5 - 1j])
def test_a_strip_edge_beyond_the_float_range_names_hbar(z):
    # pi(1 + hbar) overflows to inf for hbar = 1e308, though hbar itself is finite
    with pytest.raises(QuantumError) as edge:
        phi_hbar(z, QDilogParams(hbar=1e308))
    assert str(edge.value) == "hbar = 1e+308 puts the strip edge pi(1+hbar) beyond the float range"


def test_a_huge_hbar_with_a_finite_strip_edge_still_evaluates():
    # 5e307 keeps pi(1 + hbar) finite, so the edge check lets it through to the quadrature
    assert math.isfinite(math.pi * (1.0 + 5e307))
    assert phi_hbar(0.0, QDilogParams(hbar=5e307)) == _reference_phi_hbar(0.0, 5e307)


@pytest.mark.parametrize("kind", ["quasi2", "difference", "semiclassical"])
def test_checks_at_a_huge_hbar_report_the_strip_edge(kind):
    with pytest.raises(QuantumError, match=r"strip edge pi\(1\+hbar\) beyond the float range"):
        qdilog_check(kind, 1e308 if kind == "quasi2" else 0.0, 1e308)


def test_quasi1_at_a_huge_hbar_names_its_shifted_point():
    # quasi1 shifts z by i pi hbar, which is not finite: the z check runs first
    with pytest.raises(QuantumError, match=r"^z = .*infj is not a finite number$"):
        qdilog_check("quasi1", 0.0, 1e308)


def _reference_phi_hbar(z, hbar):
    """phi_hbar before its grid was cached: np.linspace, two np.sinh and np.trapezoid on every call."""
    h, z = float(hbar), complex(z)
    decay = math.pi * (1.0 + h) - abs(z.imag)
    delta = 0.5 * min(1.0, 1.0 / h)
    p_max = 40.0 / decay
    t = np.linspace(-p_max, p_max, QDilogParams.nodes + 1)
    p = t + 1j * delta
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    with np.errstate(all="ignore"):
        integrand = np.exp(-1j * p * z) / (np.sinh(math.pi * p) * np.sinh(math.pi * p * h))
        value = complex(-(math.pi * h / 2.0) * trapezoid(integrand, t))
    if not cmath.isfinite(value):
        raise QuantumError(f"phi_hbar overflowed at z = {z}, hbar = {h}: |Im z| is {decay:.3g} inside the strip edge")
    return value


@pytest.mark.parametrize("hbar", [0.01, 0.2, 0.37, 0.5, 1.0, 2.0])
def test_cached_grid_matches_the_per_call_quadrature_bit_for_bit(hbar):
    rng = random.Random(int(hbar * 1000))
    width = math.pi * (1.0 + hbar)
    depths = [rng.uniform(0.0, 0.999) for _ in range(12)] + [rng.uniform(0.94, 0.999) for _ in range(6)]
    overflowed = 0
    for depth in depths:
        z = complex(rng.uniform(-5.0, 5.0), depth * width)
        for w in (z, -z, z.conjugate(), complex(z.real, 0.0)):
            try:
                want = _reference_phi_hbar(w, hbar)
            except QuantumError as exc:
                overflowed += 1
                with pytest.raises(QuantumError) as got:
                    phi_hbar(w, QDilogParams(hbar=hbar))
                assert str(got.value) == str(exc)
            else:
                assert phi_hbar(w, QDilogParams(hbar=hbar)) == want
    assert overflowed  # the strip edge is covered too


def test_phi_at_minus_z_reuses_the_grid_of_z():
    params = QDilogParams(hbar=0.37)
    z = 0.8 - 1.3j
    phi_hbar(z, params)
    before = quantum._quadrature.cache_info()
    phi_hbar(-z, params)
    after = quantum._quadrature.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_cached_grid_arrays_are_read_only():
    for array in quantum._quadrature(0.5, 1.0, QDilogParams.nodes):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize(
    "z, hbar, message",
    [
        (0.5, 10**400, f"hbar = {short_repr(10**400)} is beyond the float range"),
        (10**400, 0.5, f"z = {short_repr(10**400)} is beyond the float range"),
        (0.5, Fraction(10**400, 3), f"hbar = {short_repr(Fraction(10**400, 3))} is beyond the float range"),
        ("1+1j", 0.5, "z = '1+1j' is not a complex number"),
        (0.5, "0.5", "hbar = '0.5' is not a real number"),
        (0.5, True, "hbar = True is not a real number"),
        (True, 0.5, "z = True is not a complex number"),
        (0.5, 0.5 + 0j, "hbar = (0.5+0j) is not a real number"),
        (0.5, np.bool_(True), "hbar = np.True_ is not a real number"),
    ],
    ids=[
        "huge_hbar", "huge_z", "huge_fraction_hbar", "str_z", "str_hbar",
        "bool_hbar", "bool_z", "complex_hbar", "np_bool",
    ],
)
def test_z_and_hbar_types_are_checked_where_they_enter(z, hbar, message):
    for call in (lambda: qdilog_check("difference", z, hbar), lambda: phi_hbar(z, QDilogParams(hbar=hbar))):
        with pytest.raises(QuantumError) as exc:
            call()
        assert str(exc.value) == message


def test_numpy_and_exact_scalars_stay_accepted():
    want = qdilog_check("difference", 0.5 + 0.25j, 0.5)
    for z, hbar in ((np.complex128(0.5 + 0.25j), np.float64(0.5)), (0.5 + 0.25j, np.float32(0.5))):
        assert qdilog_check("difference", z, hbar) == want
    assert qdilog_check("difference", 1, 1) == qdilog_check("difference", 1.0, 1.0)
    assert qdilog_check("difference", 1, 1)["hbar"] == 1.0
    assert phi_hbar(np.float64(0.5), QDilogParams(hbar=1)) == phi_hbar(0.5, QDilogParams(hbar=1.0))


@pytest.mark.parametrize(
    "z, hbar, message",
    [
        (complex(math.inf, 0.0), 0.5, "z = (inf+0j) is not a finite number"),
        (1.0, math.nan, "hbar = nan is not a finite number"),
        (complex(math.inf, 0.0), math.nan, "hbar = nan is not a finite number"),
        (complex(math.inf, 0.0), -1.0, "z = (inf+0j) is not a finite number"),
        (1.0, 0.0, "hbar must be positive"),
    ],
)
def test_non_finite_and_non_positive_messages_are_unchanged(z, hbar, message):
    for call in (lambda: qdilog_check("difference", z, hbar), lambda: phi_hbar(z, QDilogParams(hbar=hbar))):
        with pytest.raises(QuantumError) as exc:
            call()
        assert str(exc.value) == message
