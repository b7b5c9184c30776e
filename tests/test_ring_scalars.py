"""A ``QExpPoly`` equals its constant scalar, and an ``ExpPoly`` refuses a ``QExpPoly`` by the operand rule."""

from fractions import Fraction
from operator import add, mul, sub

import pytest

from shearlab.exppoly import ExpPoly, LaurentPoly, QExpPoly


def test_a_quantum_element_compares_with_a_scalar_as_its_constant():
    assert QExpPoly(2) == 0 and 0 == QExpPoly(2)
    assert QExpPoly.monomial((0, 0), 3) == 3 and 3 == QExpPoly.monomial((0, 0), 3)
    assert QExpPoly.monomial((0, 0), Fraction(1, 2)) == Fraction(1, 2)
    assert QExpPoly.monomial((0, 0), 3) != 2
    assert QExpPoly.monomial((1, 0), 3) != 3
    assert QExpPoly(2, {(0, 0): LaurentPoly({1: 3})}) != 3  # rho 3 is not the scalar 3


@pytest.mark.parametrize(
    "other",
    [True, 1.0, None, LaurentPoly.const(1), ExpPoly.const(2, 1), ExpPoly.const(3, 1)],
    ids=["bool", "float", "None", "LaurentPoly", "ExpPoly", "ExpPoly-of-the-flat-dimension"],
)
def test_a_quantum_element_never_equals_what_the_scalar_rule_refuses(other):
    q = QExpPoly.monomial((0, 0), 1)
    assert q.__eq__(other) is NotImplemented
    assert q != other and other != q


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize("f", [ExpPoly.monomial((1,)), LaurentPoly.rho_power(1)], ids=["ExpPoly", "LaurentPoly"])
def test_an_exp_poly_refuses_a_quantum_operand_by_the_operand_rule(f, op):
    q = QExpPoly.monomial((1,))
    with pytest.raises(TypeError, match=f"^cannot combine {type(f).__name__} and QExpPoly as ExpPoly operands$"):
        op(f, q)
    reverse = "ExpPoly" if op is mul else "QExpPoly"  # QExpPoly has no *, so f.__rmul__ decides
    with pytest.raises(TypeError, match=f"^cannot combine .* as {reverse} operands$"):
        op(q, f)
