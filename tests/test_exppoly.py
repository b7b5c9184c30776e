import math
import random
import re
from fractions import Fraction
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import exppoly
from shearlab.exppoly import (
    DimensionMismatch,
    ExpPoly,
    LaurentPoly,
    QExpPoly,
    classical_limit_commutator,
    poisson_bracket,
    qmul,
)
from shearlab.fatgraph import once_punctured_torus, tetrahedron
from shearlab.geodesics import geodesic_function, random_closed_path

DIM = 3
OMEGA = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def pairing(m, n, omega):
    """m^T omega n, entry by entry: the per-pair reference for both products' row rule."""
    return sum(mi * omega[i][j] * nj for i, mi in enumerate(m) for j, nj in enumerate(n))


coeffs = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
exponents = st.tuples(*([st.integers(min_value=-3, max_value=3)] * DIM))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda d: ExpPoly(DIM, d))
qpolys = st.dictionaries(
    exponents,
    st.dictionaries(st.integers(min_value=-4, max_value=4), coeffs, max_size=3).map(LaurentPoly),
    max_size=3,
).map(lambda d: QExpPoly(DIM, d))
laurents = st.dictionaries(
    st.integers(min_value=-5, max_value=5), coeffs, max_size=4
).map(LaurentPoly)


# -- ring laws ----------------------------------------------------------------


@settings(max_examples=80)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ExpPoly.zero(DIM)
    assert f * ExpPoly.const(DIM, 1) == f
    assert f * 0 == ExpPoly.zero(DIM)


@settings(max_examples=50)
@given(polys, coeffs)
def test_scalar_action(f, c):
    assert c * f == f * c
    assert (c * f) + ((1 - c) * f) == f


# -- Poisson structure --------------------------------------------------------


@settings(max_examples=80)
@given(polys, polys)
def test_bracket_antisymmetry(f, g):
    assert poisson_bracket(f, g, OMEGA) == -poisson_bracket(g, f, OMEGA)


@settings(max_examples=80)
@given(polys, polys, polys)
def test_bracket_leibniz(f, g, h):
    lhs = poisson_bracket(f, g * h, OMEGA)
    rhs = poisson_bracket(f, g, OMEGA) * h + g * poisson_bracket(f, h, OMEGA)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_bracket_jacobi(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h, OMEGA), OMEGA)
        + poisson_bracket(g, poisson_bracket(h, f, OMEGA), OMEGA)
        + poisson_bracket(h, poisson_bracket(f, g, OMEGA), OMEGA)
    )
    assert total.is_zero()


def test_bracket_monomial_rule():
    f = ExpPoly.monomial((2, 0, 0))
    g = ExpPoly.monomial((0, 2, 0))
    k = pairing((2, 0, 0), (0, 2, 0), OMEGA)
    assert k == 8
    assert poisson_bracket(f, g, OMEGA) == ExpPoly.monomial((2, 2, 0), Fraction(k, 4))


def test_bracket_constants_central():
    c = ExpPoly.const(DIM, Fraction(7, 3))
    f = ExpPoly.monomial((1, -2, 1), 5)
    assert poisson_bracket(c, f, OMEGA).is_zero()


# -- quantum torus ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(qpolys, qpolys, qpolys)
def test_qmul_associative(f, g, h):
    assert qmul(qmul(f, g, OMEGA), h, OMEGA) == qmul(f, qmul(g, h, OMEGA), OMEGA)


@settings(max_examples=60)
@given(qpolys, qpolys, qpolys)
def test_qmul_distributive(f, g, h):
    assert qmul(f, g + h, OMEGA) == qmul(f, g, OMEGA) + qmul(f, h, OMEGA)


@settings(max_examples=60)
@given(polys, polys)
def test_qmul_classical_specialization(f, g):
    qf, qg = QExpPoly.from_classical(f), QExpPoly.from_classical(g)
    assert qmul(qf, qg, OMEGA).at_rho_one() == f * g


@settings(max_examples=60)
@given(polys, polys)
def test_classical_limit_is_poisson_bracket(f, g):
    qf, qg = QExpPoly.from_classical(f), QExpPoly.from_classical(g)
    assert classical_limit_commutator(qf, qg, OMEGA) == poisson_bracket(f, g, OMEGA)


def test_qmul_monomial_rule():
    f = QExpPoly.monomial((2, 0, 0))
    g = QExpPoly.monomial((0, 2, 0))
    fg = qmul(f, g, OMEGA)
    assert fg == QExpPoly(DIM, {(2, 2, 0): LaurentPoly.rho_power(-8)})
    gf = qmul(g, f, OMEGA)
    assert gf == QExpPoly(DIM, {(2, 2, 0): LaurentPoly.rho_power(8)})


def test_weyl_ordering_is_star_fixed():
    f = ExpPoly(DIM, {(1, 1, 0): 2, (-1, 0, 1): Fraction(1, 2)})
    qf = QExpPoly.from_classical(f)
    assert qf.star() == qf
    assert qf.is_rho_free()


@settings(max_examples=60)
@given(qpolys, qpolys)
def test_star_antiautomorphism(f, g):
    # (f o g)* = g* o f* for the quantum-torus product
    assert qmul(f, g, OMEGA).star() == qmul(g.star(), f.star(), OMEGA)


# -- Laurent coefficients -----------------------------------------------------


@settings(max_examples=60)
@given(laurents, laurents)
def test_laurent_ring(a, b):
    assert a * b == b * a
    assert (a + b).at_one() == a.at_one() + b.at_one()
    assert (a * b).at_one() == a.at_one() * b.at_one()
    assert a.star().star() == a


# -- errors and edge cases ----------------------------------------------------


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ExpPoly.monomial((1, 0)) + ExpPoly.monomial((1, 0, 0))
    for make in (lambda: ExpPoly(-1), lambda: ExpPoly.zero(-1), lambda: ExpPoly.const(-1, 2), lambda: QExpPoly(-1)):
        with pytest.raises(DimensionMismatch, match=r"^dimension -1 is negative$"):
            make()
    with pytest.raises(DimensionMismatch):
        ExpPoly.monomial((1, 0, 0)).evaluate([0.0, 0.0])


@pytest.mark.parametrize(
    "make, dim",
    [
        (lambda: LaurentPoly.zero(2), 2),
        (lambda: LaurentPoly.zero(0), 0),
        (lambda: LaurentPoly.monomial((1, 2)), 2),
        (lambda: LaurentPoly.monomial(()), 0),
    ],
    ids=["zero-2", "zero-0", "monomial-2", "monomial-0"],
)
def test_laurent_constructors_refuse_any_dimension_but_one(make, dim):
    with pytest.raises(DimensionMismatch, match=f"^a LaurentPoly has dimension 1, not {dim}$"):
        make()


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: ExpPoly(3, {(0.7, 1.9, True): 1}), "exponent 0.7"),
        (lambda: ExpPoly.monomial([2.5, 0, 0]), "exponent 2.5"),
        (lambda: QExpPoly.monomial([0.5, 1, 0]), "exponent 0.5"),
        (lambda: LaurentPoly({1.5: 2}), "exponent 1.5"),
        (lambda: QExpPoly(2, {(0, True): 1}), "exponent True"),
        # a dimension obeys the same rule where it enters the ring
        (lambda: ExpPoly(2.5), "dimension 2.5"),
        (lambda: ExpPoly(True), "dimension True"),
        (lambda: ExpPoly.zero(2.5), "dimension 2.5"),
        (lambda: ExpPoly.const(True, 1), "dimension True"),
        (lambda: QExpPoly(2.5, {(0, 1): 1}), "dimension 2.5"),
    ],
    ids=[
        "ExpPoly",
        "ExpPoly.monomial",
        "QExpPoly.monomial",
        "LaurentPoly",
        "QExpPoly-bool",
        "ExpPoly-float-dim",
        "ExpPoly-bool-dim",
        "ExpPoly.zero-float-dim",
        "ExpPoly.const-bool-dim",
        "QExpPoly-float-dim",
    ],
)
def test_a_non_int_exponent_is_refused_not_truncated(make, named):
    with pytest.raises(TypeError, match=f"^{re.escape(named)} is not an int$"):
        make()


@pytest.mark.parametrize(
    "make, got",
    [
        (lambda: ExpPoly(3, {(0, 0, 0): 0.5}), "float"),
        (lambda: ExpPoly.const(2, 0.5), "float"),
        (lambda: ExpPoly.monomial((1, 0, 0)) * 0.5, "float"),
        (lambda: LaurentPoly({0: 0.5}), "float"),
        (lambda: QExpPoly(2, {(0, 0): 0.5}), "float"),
        (lambda: ExpPoly(3, {(0, 0, 0): True}), "bool"),
        (lambda: ExpPoly.const(2, True), "bool"),
        (lambda: ExpPoly.monomial((1, 0, 0)) * True, "bool"),
        (lambda: LaurentPoly({0: True}), "bool"),
        (lambda: QExpPoly(2, {(0, 0): True}), "bool"),
        (lambda: QExpPoly.monomial((1, 0)).scale(True), "bool"),
    ],
    ids=[
        "ExpPoly",
        "ExpPoly.const",
        "ExpPoly-times-float",
        "LaurentPoly",
        "QExpPoly",
        "ExpPoly-bool",
        "ExpPoly.const-bool",
        "ExpPoly-times-bool",
        "LaurentPoly-bool",
        "QExpPoly-bool",
        "QExpPoly.scale-bool",
    ],
)
def test_a_coefficient_that_is_not_exact_is_refused(make, got):
    with pytest.raises(TypeError, match=f"^coefficient must be an int or Fraction, got {got}$"):
        make()


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: ExpPoly(3, {(1, 2): 1}), "(1, 2) has length 2, expected 3"),
        (lambda: ExpPoly(2, {(1, 2, 3): 1}), "(1, 2, 3) has length 3, expected 2"),
        (lambda: QExpPoly(2, {(1,): 1}), "(1,) has length 1, expected 2"),
    ],
    ids=["ExpPoly-short", "ExpPoly-long", "QExpPoly-short"],
)
def test_an_exponent_vector_of_the_wrong_length_is_refused(make, named):
    with pytest.raises(DimensionMismatch, match=f"^exponent vector {re.escape(named)}$"):
        make()


def test_reprs_of_zero_and_of_exponential_terms():
    assert [repr(f) for f in (ExpPoly(3), LaurentPoly(), QExpPoly(2))] == ["0", "0", "0"]
    assert repr(ExpPoly(3, {(1, -1, 0): Fraction(3, 2), (0, 0, 0): -2})) == "-2 + 3/2 * exp((1*z0 + -1*z1)/2)"
    assert repr(LaurentPoly({0: 2, 1: -1, -2: 3})) == "3*rho^-2 + 2 + -1*rho^1"
    q = QExpPoly(2, {(1, 0): LaurentPoly({1: 2}), (0, 0): 1})
    assert repr(q) == "(1) * 1 + (2*rho^1) * exp((1*Z0)/2)"
    # a unit coefficient at a nonzero power, a Fraction in each class, a rho-dependent constant term
    assert repr(LaurentPoly({3: 1, -1: 1})) == "rho^-1 + rho^3"
    assert repr(ExpPoly(2, {(0, 1): Fraction(-1, 3), (0, 0): Fraction(7, 4)})) == "7/4 + -1/3 * exp((1*z1)/2)"
    assert repr(LaurentPoly({2: Fraction(5, 2), 0: Fraction(-1, 6)})) == "-1/6 + 5/2*rho^2"
    assert repr(QExpPoly(1, {(2,): Fraction(1, 2)})) == "(1/2) * exp((2*Z0)/2)"
    q = QExpPoly(2, {(0, 0): LaurentPoly({-1: 1, 2: 3}), (1, -1): LaurentPoly({0: Fraction(2, 3), 1: 1})})
    assert repr(q) == "(rho^-1 + 3*rho^2) * 1 + (2/3 + rho^1) * exp((1*Z0 + -1*Z1)/2)"


def test_quantum_negation():
    q = QExpPoly(2, {(1, 0): LaurentPoly({1: 2}), (0, -1): Fraction(1, 3)})
    assert -q == QExpPoly(2) - q and -q + q == QExpPoly(2) and -(-q) == q
    assert -q == QExpPoly(2, {(1, 0): LaurentPoly({1: -2}), (0, -1): Fraction(-1, 3)})


@pytest.mark.parametrize(
    "f",
    [ExpPoly.monomial((1, 0, 0)), QExpPoly.monomial((1, 0, 0)), LaurentPoly.rho_power(1)],
    ids=["ExpPoly", "QExpPoly", "LaurentPoly"],
)
def test_a_ring_element_is_never_equal_to_a_foreign_operand(f):
    for other in ("x", None, 0.0, (1, 0, 0), True):
        assert f.__eq__(other) is NotImplemented
        assert f != other


def test_a_one_edge_exp_poly_and_a_laurent_poly_never_combine():
    f, rho = ExpPoly.monomial((1,)), LaurentPoly.rho_power(1)
    for a, b in ((f, rho), (rho, f)):
        named = f"^cannot combine {type(a).__name__} and {type(b).__name__} as ExpPoly operands$"
        for op in (add, sub, mul, lambda x, y: poisson_bracket(x, y, [[0]])):
            with pytest.raises(TypeError, match=named):
                op(a, b)
        assert (a == b) is False and (a != b) is True


def test_dim_and_flat_are_read_only():
    f, q = ExpPoly.monomial((1, 0, 0), 2), QExpPoly.monomial((1, 0), 2)
    with pytest.raises(AttributeError):
        f.dim = 5
    with pytest.raises(AttributeError):
        q.flat = QExpPoly.monomial((0, 1), 5).flat
    assert f.terms == {(1, 0, 0): 2} and f == ExpPoly.monomial((1, 0, 0), 2)
    assert repr(q) == "(2) * exp((1*Z0)/2)" and q == QExpPoly.monomial((1, 0), 2)


def _tetrahedron_operands():
    g = tetrahedron()
    rng = random.Random(7)
    p, q = (geodesic_function(g, random_closed_path(g, rng, 2, 8)) for _ in range(2))
    return g.omega_matrix(), (p, q), (QExpPoly.from_classical(p), QExpPoly.from_classical(q))


def _with_row(omega, i, row):
    out = [list(r) for r in omega]
    out[i] = row
    return out


def test_an_omega_of_the_wrong_size_is_refused():
    omega, (p, q), (a, b) = _tetrahedron_operands()
    torus_omega = once_punctured_torus().omega_matrix()
    ragged = _with_row(omega, 2, omega[2][:-1])
    # a table or row that is not a sequence has no size to check
    not_rows = [_with_row(omega, 2, row) for row in (5, None, set(range(6)), iter(range(6)))] + [5, set()]
    for bad in (torus_omega, [[0] * 8 for _ in range(8)], ragged, *not_rows):
        with pytest.raises(DimensionMismatch, match="omega must be 6 x 6"):
            poisson_bracket(p, q, bad)
        with pytest.raises(DimensionMismatch, match="omega must be 6 x 6"):
            qmul(a, b, bad)
        with pytest.raises(DimensionMismatch, match="omega must be 6 x 6"):
            classical_limit_commutator(a, b, bad)
    assert poisson_bracket(p, q, omega) == classical_limit_commutator(a, b, omega)


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, True, np.float64(1.0)], ids=["Fraction", "float", "bool", "numpy"])
def test_an_omega_entry_that_is_not_an_int_is_refused(bad):
    omega, (p, q), (a, b) = _tetrahedron_operands()
    omega = _with_row(omega, 0, [bad] + omega[0][1:])
    for call in (poisson_bracket, qmul, classical_limit_commutator):
        x, y = (p, q) if call is poisson_bracket else (a, b)
        with pytest.raises(TypeError, match=f"^omega entry {re.escape(repr(bad))} is not an int$"):
            call(x, y, omega)


def test_an_omega_of_numpy_ints_pairs_like_plain_ints():
    omega, (p, q), (a, b) = _tetrahedron_operands()
    for same in (np.array(omega), [[np.int64(x) for x in row] for row in omega], tuple(map(tuple, omega))):
        assert list(poisson_bracket(p, q, same).terms.items()) == list(poisson_bracket(p, q, omega).terms.items())
        assert list(qmul(a, b, same).flat.terms.items()) == list(qmul(a, b, omega).flat.terms.items())
        limit = classical_limit_commutator(a, b, same)
        assert list(limit.terms.items()) == list(classical_limit_commutator(a, b, omega).terms.items())


# -- the kept omega array: each call checks omega again ------------------------------


def _unit_entry(omega):
    """The first ``(i, j)`` with ``omega[i][j] == 1``."""
    return next((i, j) for i, row in enumerate(omega) for j, x in enumerate(row) if x == 1)


def test_one_omega_list_mutated_between_calls_is_read_afresh():
    omega, (p, q), (a, b) = _tetrahedron_operands()
    table = [list(row) for row in omega]
    i, j = _unit_entry(table)
    # e^{Z_i/2} o e^{Z_j/2} = rho^{-w} e^{(Z_i + Z_j)/2} and {e^{z_i/2}, e^{z_j/2}} = (w/4) e^{(z_i + z_j)/2},
    # w = omega[i][j]
    vi, vj = ([int(k == x) for k in range(6)] for x in (i, j))
    mn = tuple(map(add, vi, vj))
    units = ((QExpPoly.monomial(vi), QExpPoly.monomial(vj)), (ExpPoly.monomial(vi), ExpPoly.monomial(vj)))

    def twisted(w):
        return QExpPoly.monomial(mn, LaurentPoly.rho_power(-w)), ExpPoly.monomial(mn, Fraction(w, 4))

    assert (qmul(*units[0], table), poisson_bracket(*units[1], table)) == twisted(1)
    kept = (qmul(a, b, table), poisson_bracket(p, q, table))
    table[i][j] = True
    for x, y, call in ((*units[0], qmul), (a, b, qmul), (p, q, poisson_bracket), (*units[1], poisson_bracket)):
        with pytest.raises(TypeError, match="^omega entry True is not an int$"):
            call(x, y, table)
    table[i][j] = 2
    assert (qmul(*units[0], table), poisson_bracket(*units[1], table)) == twisted(2)
    assert poisson_bracket(p, q, table) == _bracket_reference(p, q, table)
    table[i] = table[i][:-1]
    for x, y, call in ((a, b, qmul), (p, q, poisson_bracket)):
        with pytest.raises(DimensionMismatch, match="omega must be 6 x 6"):
            call(x, y, table)
    table[i] = list(omega[i])
    assert (qmul(a, b, table), poisson_bracket(p, q, table)) == kept
    assert (qmul(*units[0], table), poisson_bracket(*units[1], table)) == twisted(1)


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, True, np.float64(1.0)], ids=["Fraction", "float", "bool", "numpy"])
def test_an_equal_table_of_non_ints_is_refused_after_the_int_table_is_kept(bad):
    omega, (p, q), (a, b) = _tetrahedron_operands()
    kept = (qmul(a, b, omega), poisson_bracket(p, q, omega))
    i, j = _unit_entry(omega)
    table = _with_row(omega, i, omega[i][:j] + [bad] + omega[i][j + 1 :])
    assert table == omega and hash(bad) == hash(1)  # as a key, it would alias the kept int table
    for x, y, call in ((a, b, qmul), (p, q, poisson_bracket), (a, b, classical_limit_commutator)):
        with pytest.raises(TypeError, match=f"^omega entry {re.escape(repr(bad))} is not an int$"):
            call(x, y, table)
    assert (qmul(a, b, omega), poisson_bracket(p, q, omega)) == kept


def test_a_numpy_table_and_the_equal_list_share_one_kept_array():
    omega, (p, q), (a, b) = _tetrahedron_operands()
    exppoly._omega_array.cache_clear()
    first = qmul(a, b, np.array(omega)), poisson_bracket(p, q, np.array(omega))
    assert exppoly._omega_array.cache_info().currsize == 1
    for same in (omega, [[np.int32(x) for x in row] for row in omega]):
        got = qmul(a, b, same), poisson_bracket(p, q, same)
        assert list(got[0].flat.terms.items()) == list(first[0].flat.terms.items())
        assert list(got[1].terms.items()) == list(first[1].terms.items())
    assert exppoly._omega_array.cache_info().currsize == 1


def test_evaluate():
    import math

    f = ExpPoly(DIM, {(2, 0, 0): 1, (0, -2, 0): 3})
    val = f.evaluate([1.0, 2.0, -5.0])
    assert abs(val - (math.e + 3 * math.exp(-2.0))) <= 1e-12


def test_repr_roundtrip_json():
    f = ExpPoly(DIM, {(1, -1, 0): Fraction(3, 2), (0, 0, 0): -2})
    data = f.to_json()
    g = ExpPoly(DIM, {tuple(t["m"]): Fraction(*t["c"]) for t in data})
    assert f == g


# -- flat quantum representation ----------------------------------------------


def _qmul_reference(f, g):
    """Sum of rho^{r+s-k} a b e^{(m+n).Z/2} over the term pairs, k = m^T omega n."""
    total = QExpPoly(DIM)
    for m, p in f.terms.items():
        for n, q in g.terms.items():
            k = pairing(m, n, OMEGA)
            mn = tuple(x + y for x, y in zip(m, n))
            for (r,), a in p.terms.items():
                for (s,), b in q.terms.items():
                    total = total + QExpPoly.monomial(mn, LaurentPoly.rho_power(r + s - k, a * b))
    return total


@settings(max_examples=60)
@given(qpolys, qpolys)
def test_qmul_matches_termwise_reference(f, g):
    assert qmul(f, g, OMEGA) == _qmul_reference(f, g)


@settings(max_examples=60)
@given(qpolys)
def test_quantum_terms_view_round_trips(q):
    assert QExpPoly(q.dim, q.terms) == q
    assert all(type(c) is LaurentPoly and c for c in q.terms.values())


@settings(max_examples=60)
@given(laurents, laurents, coeffs)
def test_laurent_arithmetic_stays_laurent(a, b, c):
    for x in (a + b, a - b, a * b, -a, c * a, a * c, a + c, c - a):
        assert type(x) is LaurentPoly and x.dim == 1


def _bracket_reference(f, g, omega):
    """Term-wise bracket: (1/4) m^T omega n per term pair, through pairing."""
    out = ExpPoly.zero(f.dim)
    for m, a in f.terms.items():
        for n, b in g.terms.items():
            out = out + ExpPoly.monomial(tuple(map(add, m, n)), Fraction(pairing(m, n, omega), 4) * a * b)
    return out


def _int_polys(dim):
    exps = st.tuples(*([st.integers(min_value=-3, max_value=3)] * dim))
    return st.dictionaries(exps, st.integers(min_value=-6, max_value=6), max_size=5).map(
        lambda d: ExpPoly(dim, d)
    )


@pytest.mark.parametrize("omega", [OMEGA, tetrahedron().omega_matrix()], ids=["omega3", "tetrahedron"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracket_matches_termwise_pairing(omega, data):
    f, g, h = (data.draw(_int_polys(len(omega))) for _ in range(3))
    fg = poisson_bracket(f, g, omega)
    # a bracket of a bracket carries the 1/4 twice, so Fraction coefficients enter
    fgh = poisson_bracket(fg, h, omega)
    assert fg == _bracket_reference(f, g, omega)
    assert fgh == _bracket_reference(fg, h, omega)
    for c in (*fg.terms.values(), *fgh.terms.values()):
        assert type(c) is int or c.denominator > 1


@settings(max_examples=80)
@given(polys, polys)
def test_subtraction_keeps_the_order_of_adding_the_negative(x, y):
    for z in (y, x, x + y, 3, Fraction(1, 2)):
        assert list((x - z).terms.items()) == list((x + (-z)).terms.items())


# -- evaluate, bit for bit ----------------------------------------------------


def _evaluate_reference(f, z):
    """The generator form of evaluate: same terms, same order, same float steps."""
    total = 0.0
    for m, c in f.terms.items():
        total += float(c) * math.exp(sum(mi * zi for mi, zi in zip(m, z)) / 2.0)
    return total


@pytest.mark.parametrize("make", [once_punctured_torus, tetrahedron], ids=["torus", "tetrahedron"])
def test_evaluate_matches_the_generator_form_bit_for_bit(make):
    g = make()
    rng = random.Random(31)
    words = [random_closed_path(g, rng, 2, 10) for _ in range(30)]
    polys = [geodesic_function(g, w) for w in words]
    omega = g.omega_matrix()
    units = [ExpPoly.monomial([int(i == k) for i in range(g.n_edges)]) for k in range(g.n_edges)]
    brackets = (poisson_bracket(p, u, omega) for p in polys for u in units)
    bracket = next(b for b in brackets if any(isinstance(c, Fraction) for c in b.terms.values()))
    for f in (*polys, bracket):
        for _ in range(32):
            z = [rng.uniform(-2.0, 2.0) for _ in range(g.n_edges)]
            assert f.evaluate(z).hex() == _evaluate_reference(f, z).hex()


# -- evaluate's cached plan against the dense loop ---------------------------------


def _dense_evaluate(f, z):
    """evaluate as it was before its plan was cached: every term, every exponent, ints as stored."""
    total = 0.0
    for m, c in f.terms.items():
        total += float(c) * math.exp(sum(map(mul, m, z)) / 2.0)
    return total


def _outcome(fn, *args):
    """The float an evaluation returns (its hex, so the sign of zero counts), or the error it raises."""
    try:
        return fn(*args).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 708.0, -708.0, 710.0, -710.0]


def _label_vectors(rng, n):
    """Float, int, Fraction and mixed label vectors, and a few with extreme or non-finite floats."""
    yield [rng.uniform(-2.0, 2.0) for _ in range(n)]
    yield tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
    yield [rng.choice(_EXTREMES) for _ in range(n)]
    yield [rng.choice((math.inf, -math.inf, math.nan, 0.5)) for _ in range(n)]
    yield [rng.randint(-3, 3) for _ in range(n)]
    yield [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
    yield [rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-9, 9), 7), rng.uniform(-2, 2))) for _ in range(n)]
    yield [True] + [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]


@pytest.mark.parametrize("make", [once_punctured_torus, tetrahedron], ids=["torus", "tetrahedron"])
def test_evaluate_plan_matches_the_dense_loop_for_every_label_type(make):
    g = make()
    rng = random.Random(61)
    polys = [geodesic_function(g, random_closed_path(g, rng, 2, 10)) for _ in range(20)]
    omega = g.omega_matrix()
    polys += [poisson_bracket(polys[k], polys[k + 1], omega) for k in range(0, 10, 2)]  # Fraction coefficients
    for f in polys:
        for _ in range(6):
            for z in _label_vectors(rng, g.n_edges):
                assert _outcome(f.evaluate, z) == _outcome(_dense_evaluate, f, z)


def test_evaluate_plan_keeps_huge_top_exponents_as_ints():
    """An exponent past 2**53 is not converted by the plan: it converts, or overflows, only as before."""
    for f in (ExpPoly(2, {(1, 2**60 + 1): 3, (-1, 0): 1}), ExpPoly(2, {(1, 10**400): 1, (0, 0): 2})):
        for z in ([0.5, 0.0], [0.5, 1e-300], [1, 0], [Fraction(1, 3), 0], [0.5, -0.0]):
            assert _outcome(f.evaluate, z) == _outcome(_dense_evaluate, f, z)


def test_evaluate_refuses_a_wrong_length_before_building_its_plan():
    f = ExpPoly(3, {(1, 0, -1): 2, (0, 1, 1): Fraction(1, 3)})
    with pytest.raises(DimensionMismatch):
        f.evaluate([0.0, 0.0])
    assert not hasattr(f, "_plan")
    assert f.evaluate([0.1, 0.2, 0.3]) == _dense_evaluate(f, [0.1, 0.2, 0.3])
    assert hasattr(f, "_plan")
    with pytest.raises(DimensionMismatch):
        f.evaluate([0.0] * 4)


@pytest.mark.parametrize(
    "call, names",
    [
        (lambda e, q: q + e, ("QExpPoly", "ExpPoly")),
        (lambda e, q: q - e, ("QExpPoly", "ExpPoly")),
        (lambda e, q: q + 1, ("QExpPoly", "int")),
        (lambda e, q: q - Fraction(1, 2), ("QExpPoly", "Fraction")),
        (lambda e, q: qmul(q, e, OMEGA), ("QExpPoly", "ExpPoly")),
        (lambda e, q: qmul(e, q, OMEGA), ("ExpPoly", "QExpPoly")),
        (lambda e, q: qmul(e, e, OMEGA), ("ExpPoly", "ExpPoly")),
        (lambda e, q: poisson_bracket(e, q, OMEGA), ("ExpPoly", "QExpPoly")),
        (lambda e, q: poisson_bracket(q, q, OMEGA), ("QExpPoly", "QExpPoly")),
        (lambda e, q: classical_limit_commutator(q, e, OMEGA), ("QExpPoly", "ExpPoly")),
        (lambda e, q: classical_limit_commutator(e, q, OMEGA), ("ExpPoly", "QExpPoly")),
    ],
    ids=[
        "q_add_e", "q_sub_e", "q_add_int", "q_sub_fraction", "qmul_q_e", "qmul_e_q", "qmul_e_e",
        "bracket_e_q", "bracket_q_q", "limit_q_e", "limit_e_q",
    ],
)
def test_mixed_ring_operands_raise_a_type_error_naming_both_classes(call, names):
    e, q = ExpPoly.monomial((0, 0, 0)), QExpPoly.monomial((0, 0, 0))
    with pytest.raises(TypeError) as exc:
        call(e, q)
    assert f"{names[0]} and {names[1]}" in str(exc.value)


def test_exp_poly_keeps_laurent_and_scalar_operands():
    f = ExpPoly.monomial((1, 0, 0), 2)
    rho = LaurentPoly.rho_power(0, 3)
    assert (f + 1) - 1 == f and 1 + f == f + 1 and (Fraction(1, 2) * f) * 2 == f
    assert rho * rho == 9 and rho + 1 == 4 and rho - Fraction(1, 2) == Fraction(5, 2)
    assert poisson_bracket(f, ExpPoly.monomial((0, 1, 0)), OMEGA) == ExpPoly.monomial((1, 1, 0), 1)
    with pytest.raises(DimensionMismatch):
        f + rho  # an ExpPoly operand of another dimension is still a dimension error
