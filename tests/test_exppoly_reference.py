"""The packed-key ring against a test-owned copy of its earlier tuple-keyed form.

The reference below keeps each exponent vector as a tuple, as ``ExpPoly``
once did: ``tuple(map(add, m, n))`` per product pair, a sliced tuple per
term shifted by a monomial, ``m^T omega n`` from decoded rows.  The library
now stores one packed int per vector; every result must have the same
``.terms``, in the same insertion order, and ``evaluate`` must return the
same float bit for bit.
The packed keys' field guard and the view's decode-once cache are checked here too.
"""

import ast
import math
import random
from fractions import Fraction
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import exppoly
from shearlab.exppoly import (
    EXPONENT_LIMIT,
    FIELD_BITS,
    ExponentOverflow,
    ExpPoly,
    LaurentPoly,
    QExpPoly,
    classical_limit_commutator,
    poisson_bracket,
    qmul,
)
from shearlab.fatgraph import tetrahedron

SRC = Path(__file__).resolve().parent.parent / "src" / "shearlab"


# -- the tuple-keyed reference ring ---------------------------------------------


def _merge(terms, k, c):
    s = terms.get(k, 0) + c
    if s:
        terms[k] = s
    else:
        terms.pop(k, None)


def _ref_add(x, y):
    terms = dict(x)
    for m, c in y.items():
        _merge(terms, m, c)
    return terms


def _ref_sub(x, y):
    terms = dict(x)
    for m, c in y.items():
        _merge(terms, m, -c)
    return terms


def _ref_mul(x, y):
    terms = {}
    for m, a in x.items():
        for n, b in y.items():
            _merge(terms, tuple(map(add, m, n)), a * b)
    return terms


def _ref_shift(x, i, s):
    return {m[:i] + (m[i] + s,) + m[i + 1 :]: c for m, c in x.items()}


def _ref_bracket(x, y, omega):
    terms = {}
    columns = tuple(zip(*omega))
    for m, a in x.items():
        row = [sum(map(mul, m, col)) for col in columns]
        for n, b in y.items():
            k = sum(map(mul, row, n))
            if k:
                _merge(terms, tuple(map(add, m, n)), k * a * b)
    return {m: s // 4 if not s % 4 else Fraction(s, 4) for m, s in terms.items()}


def pairing(m, n, omega):
    """m^T omega n, entry by entry, per term pair."""
    return sum(mi * omega[i][j] * nj for i, mi in enumerate(m) for j, nj in enumerate(n))


def _ref_qmul(x, y, omega):
    """Flat terms ``m + (r,)`` on both sides; rho lowered by m^T omega n."""
    terms = {}
    for m, a in x.items():
        for n, b in y.items():
            key = tuple(map(add, m, n))
            k = pairing(m[:-1], n[:-1], omega)
            if k:
                key = key[:-1] + (key[-1] - k,)
            _merge(terms, key, a * b)
    return terms


def _ref_evaluate(x, z):
    total = 0.0
    for m, c in x.items():
        total += float(c) * math.exp(sum(map(mul, m, z)) / 2.0)
    return total


# -- random elements in dims 1, 3, 6 and 7 ------------------------------------------


def _omega(dim):
    if dim == 6:
        return tetrahedron().omega_matrix()
    rng = random.Random(dim)
    w = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            w[i][j] = rng.randint(-2, 2)
            w[j][i] = -w[i][j]
    return w


DIMS = (1, 3, 6, 7)
# small exponents make terms merge and cancel; wide ones cross many fields' signs
_exponent = st.one_of(st.integers(-2, 2), st.integers(-3000, 3000))
_coeff = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def _polys(dim):
    return st.dictionaries(st.tuples(*[_exponent] * dim), _coeff, max_size=6).map(lambda d: ExpPoly(dim, d))


_laurents = st.dictionaries(st.integers(-6, 6), _coeff, max_size=3).map(LaurentPoly)


def _qpolys(dim):
    return st.dictionaries(st.tuples(*[_exponent] * dim), _laurents, max_size=4).map(lambda d: QExpPoly(dim, d))


def _same(poly, ref):
    assert list(poly.terms.items()) == list(ref.items())


def _same_coefficients(poly, ref, zero):
    """``coefficient`` reads ``ref.get(v, zero)`` at present, absent, wrong-length and out-of-field ``v``.

    Exponents that are not plain ints raise ``TypeError``, though ``1.0``
    and ``True`` hash like ``1``.
    """
    for m in list(ref) or [(0,) * poly.dim]:
        probes = [m, m[:-1] + (m[-1] + 1,), m + (0,), m[:-1], m[:-1] + (m[-1] + 10**30,)]
        if poly.dim > 1:
            # the first packs to m's key; the second leaves the lowest field's range
            probes += [(m[0] + 2**FIELD_BITS, m[1] - 1) + m[2:], (-EXPONENT_LIMIT,) + m[1:]]
        for v in probes:
            got, want = poly.coefficient(v), ref.get(v, zero)
            # a LaurentPoly also compares equal to a scalar, so check which one came back
            assert got == want and isinstance(got, LaurentPoly) == isinstance(zero, LaurentPoly)
        for bad in ((float(m[0]),) + m[1:], m[:-1] + (True,)):
            with pytest.raises(TypeError, match="is not an int"):
                poly.coefficient(bad)


def _same_value(poly, ref, rng):
    for _ in range(3):
        z = [rng.uniform(-0.02, 0.02) for _ in range(poly.dim)]
        assert poly.evaluate(z).hex() == _ref_evaluate(ref, z).hex()


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_ring_matches_the_tuple_ring(dim, data):
    f, g, h = (data.draw(_polys(dim)) for _ in range(3))
    F, G, H = dict(f.terms), dict(g.terms), dict(h.terms)
    rng = random.Random(dim)
    cases = [
        (f + g, _ref_add(F, G)),
        (f - g, _ref_sub(F, G)),
        (f * g, _ref_mul(F, G)),
        (f * g - f * h + g, _ref_add(_ref_sub(_ref_mul(F, G), _ref_mul(F, H)), G)),
        (poisson_bracket(f, g, _omega(dim)), _ref_bracket(F, G, _omega(dim))),
    ]
    i, s = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(-5, 5))
    cases.append((f * ExpPoly.monomial([s if j == i else 0 for j in range(dim)]), _ref_shift(F, i, s)))
    for poly, ref in cases:
        _same(poly, ref)
        _same_value(poly, ref, rng)
        _same_coefficients(poly, ref, 0)


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_qmul_matches_the_tuple_qmul(dim, data):
    f, g = (data.draw(_qpolys(dim)) for _ in range(2))
    omega = _omega(dim)
    fg = qmul(f, g, omega)
    ref = _ref_qmul(dict(f.flat.terms), dict(g.flat.terms), omega)
    _same(fg.flat, ref)
    # coefficients of each exponent vector, then of each rho power
    grouped = {}
    for m, c in ref.items():
        grouped.setdefault(m[:-1], {})[(m[-1],)] = c
    laurents = {m: LaurentPoly({r: c for (r,), c in cs.items()}) for m, cs in grouped.items()}
    _same_coefficients(fg, laurents, LaurentPoly())
    for m, cs in grouped.items():
        _same_coefficients(fg.coefficient(m), cs, 0)
    # scaling by a LaurentPoly or a plain scalar is the flat product with rho^r e^{0.Z/2}
    c, k = data.draw(_laurents), data.draw(_coeff)
    _same(f.scale(c).flat, _ref_mul(dict(f.flat.terms), {(0,) * dim + m: a for m, a in c.terms.items()}))
    _same(f.scale(k).flat, _ref_mul(dict(f.flat.terms), {(0,) * (dim + 1): k} if k else {}))
    # the constructors LaurentPoly inherits from ExpPoly
    n = data.draw(st.integers(-6, 6))
    assert LaurentPoly.zero(1) == LaurentPoly() and type(LaurentPoly.zero(1)) is LaurentPoly
    mono = LaurentPoly.monomial((n,), k)
    assert mono == LaurentPoly.rho_power(n, k) and type(mono) is LaurentPoly
    # the rho field, read off the top of each key, against the tuple view
    star = {m[:-1] + (-m[-1],): c for m, c in fg.flat.terms.items()}
    _same(fg.star().flat, star)
    at_one = {}
    for m, c in fg.flat.terms.items():
        at_one[m[:-1]] = at_one.get(m[:-1], 0) + c
    assert fg.at_rho_one() == ExpPoly(dim, at_one)
    assert fg.is_rho_free() == all(m[-1] == 0 for m in fg.flat.terms)


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_classical_limit_reads_the_rho_field(dim, data):
    f, g = (data.draw(_polys(dim)) for _ in range(2))
    omega = _omega(dim)
    qf, qg = QExpPoly.from_classical(f), QExpPoly.from_classical(g)
    # Weyl promotion keeps f's keys, order and coefficients under a zero rho field
    _same(qf.flat, {m + (0,): c for m, c in f.terms.items()})
    assert list(qf.flat.terms.items()) == list(QExpPoly(dim, dict(f.terms)).flat.terms.items())
    comm = qmul(qf, qg, omega) - qmul(qg, qf, omega)
    # the earlier form: regroup by exponent vector, then -r/8 per rho^r
    ref = {m: Fraction(sum(-r * c for (r,), c in cs.terms.items()), 8) for m, cs in comm.terms.items()}
    limit = classical_limit_commutator(qf, qg, omega)
    _same(limit, {m: c for m, c in ref.items() if c})
    _reduced(limit)


# -- int numerators over one denominator ----------------------------------------------


def _reduced(poly):
    """``poly`` is stored as int numerators over one positive ``den`` with ``gcd(den, *numerators) == 1``.

    Its ``.terms`` read each ``Fraction(n, den)`` in order, an ``int`` wherever it divides.
    """
    den, nums = poly._den, list(poly._packed.values())
    assert type(den) is int and den > 0 and all(type(n) is int and n for n in nums)
    assert math.gcd(den, *nums) == 1
    assert list(poly.terms.values()) == [Fraction(n, den) for n in nums]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in poly.terms.values())


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_denominator_per_element_matches_the_tuple_ring(dim, data):
    f, g, h = (data.draw(_polys(dim)) for _ in range(3))
    F, G, H = dict(f.terms), dict(g.terms), dict(h.terms)
    omega = _omega(dim)
    fg = poisson_bracket(f, g, omega)
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        (fg, _ref_bracket(F, G, omega)),
        (poisson_bracket(fg, h, omega), _ref_bracket(_ref_bracket(F, G, omega), H, omega)),
        (half * f * 2, F),
        (f * third + f * Fraction(2, 3), F),
        (fg * h - g * third, _ref_sub(_ref_mul(_ref_bracket(F, G, omega), H), {m: c * third for m, c in G.items()})),
    ]
    for poly, ref in cases:
        _same(poly, ref)
        _reduced(poly)
    assert half * f * 2 == f and f * third + f * Fraction(2, 3) == f
    # == is the equality of the .terms values, however each side was reached
    polys = [f, g, h] + [poly for poly, _ in cases] + [ExpPoly(dim, F), f * half, g * 2 * half]
    for x in polys:
        for y in polys:
            assert (x == y) == (dict(x.terms) == dict(y.terms))
    c = data.draw(_coeff)
    assert (ExpPoly.const(dim, c) == c) and (ExpPoly.const(dim, c) * 3 == 3 * c)


@settings(max_examples=50, deadline=None)
@given(c=_laurents, k=_coeff)
def test_laurent_at_one_and_the_coefficients_of_a_qexppoly_are_reduced(c, k):
    for x in (c, c * k, c * Fraction(1, 3) + c * Fraction(2, 3), c.star()):
        _reduced(x)
        s = x.at_one()
        assert s == sum(x.terms.values()) and (type(s) is int or s.denominator > 1)
    # each LaurentPoly coefficient is reduced on its own, not over the flat part's den
    q = QExpPoly(2, {(1, 0): c, (0, 1): LaurentPoly({1: Fraction(1, 4), -1: 3}), (1, 1): k})
    omega = [[0, 1], [-1, 0]]
    qq = qmul(q, q.scale(Fraction(1, 2)), omega)
    ref = _ref_qmul(dict(q.flat.terms), {m: a * Fraction(1, 2) for m, a in q.flat.terms.items()}, omega)
    _same(qq.flat, ref)
    for x in (q, qq, qq.star(), qq - q):
        for m, lp in x.terms.items():
            _reduced(lp)
            assert dict(lp.terms) == {m2[-1:]: a for m2, a in x.flat.terms.items() if m2[:-1] == m}
        _reduced(x.at_rho_one())


# -- the field guard ------------------------------------------------------------------


def test_field_width_and_limit():
    assert EXPONENT_LIMIT == 2 ** (FIELD_BITS - 1)


@pytest.mark.parametrize("m", [(EXPONENT_LIMIT, 0, 0), (0, -EXPONENT_LIMIT, 0), (10**30, 0, 0)])
def test_an_exponent_at_the_field_limit_is_rejected(m):
    with pytest.raises(ExponentOverflow):
        ExpPoly.monomial(m)
    with pytest.raises(ExponentOverflow):
        QExpPoly.monomial(m)


@pytest.mark.parametrize("dim", range(1, 9))
def test_keys_round_trip_at_the_field_edges(dim):
    rng = random.Random(dim)
    edge = (-(EXPONENT_LIMIT - 1), -1, 0, 1, EXPONENT_LIMIT - 1)
    for _ in range(50):
        m = tuple(rng.choice(edge) for _ in range(dim - 1)) + (rng.choice((-(10**9), -1, 0, 1, 10**9)),)
        assert list(ExpPoly(dim, {m: 1}).terms) == [m]


def test_the_top_field_is_unbounded():
    # nothing lies above the top field, so it cannot carry; rho lives there
    big = EXPONENT_LIMIT * 1000
    assert ExpPoly.monomial((EXPONENT_LIMIT - 1, 0, big)).terms == {(EXPONENT_LIMIT - 1, 0, big): 1}
    assert LaurentPoly.rho_power(big).star() == LaurentPoly.rho_power(-big)
    with pytest.raises(ExponentOverflow):
        QExpPoly.from_classical(ExpPoly.monomial((0, 0, EXPONENT_LIMIT)))


@pytest.mark.parametrize("bad", [QExpPoly.monomial((1, 0)), {(1, 0): 2}, 3], ids=["QExpPoly", "dict", "int"])
def test_weyl_promotion_refuses_a_non_exppoly(bad):
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"^cannot combine {name} and {name} as ExpPoly operands$"):
        QExpPoly.from_classical(bad)


def test_weyl_promotion_takes_an_exppoly_subclass():
    f = LaurentPoly({2: 1, -1: 3})
    assert QExpPoly.from_classical(f) == QExpPoly(1, {(2,): 1, (-1,): 3})


def test_a_product_that_would_carry_raises():
    top = ExpPoly.monomial((EXPONENT_LIMIT - 1, 0, 0))
    with pytest.raises(ExponentOverflow):
        top * ExpPoly.monomial((1, 0, 0))
    with pytest.raises(ExponentOverflow):
        poisson_bracket(top, ExpPoly.monomial((0, 1, 0)), _omega(3))
    half = ExpPoly.monomial((0, -(EXPONENT_LIMIT // 2 - 1), 0))
    assert (half * half).terms == {(0, -(EXPONENT_LIMIT - 2), 0): 1}


def test_a_qmul_that_would_carry_raises():
    omega = _omega(3)
    f = QExpPoly.monomial((0, 0, EXPONENT_LIMIT - 1))
    with pytest.raises(ExponentOverflow):
        qmul(f, QExpPoly.monomial((0, 0, 1)), omega)
    # the pairing moves only the top (rho) field, however far
    a, b = QExpPoly.monomial((16000, 0, 0)), QExpPoly.monomial((0, 16000, 0))
    k = pairing((16000, 0, 0), (0, 16000, 0), omega)
    assert abs(k) >= 2**FIELD_BITS
    assert qmul(a, b, omega) == QExpPoly(3, {(16000, 16000, 0): LaurentPoly.rho_power(-k)})


def test_coefficient_of_an_out_of_range_vector_is_zero():
    f = ExpPoly.monomial((-1, 1, 0), 5)
    # (2**B - 1, 0, 0) would pack to the same int as (-1, 1, 0)
    assert f.coefficient((2**FIELD_BITS - 1, 0, 0)) == 0
    assert f.coefficient((EXPONENT_LIMIT, 0, 0)) == 0
    assert f.coefficient((-1, 1)) == 0
    assert f.coefficient((-1, 1, 0)) == 5
    q = QExpPoly.from_classical(f)
    assert q.coefficient((2**FIELD_BITS - 1, 0, 0)) == LaurentPoly()
    assert q.coefficient((0, 0, 2**FIELD_BITS)) == LaurentPoly()
    assert q.coefficient((-1, 1, 0)) == LaurentPoly.const(5)


@pytest.mark.parametrize("cls", [ExpPoly, QExpPoly])
@pytest.mark.parametrize("bad", [1.0, True, 0.0])
def test_coefficient_refuses_a_non_int_exponent(cls, bad):
    f = cls.monomial((1, 0, 0), 5)
    for m in ((bad, 0, 0), (1, 0, bad)):
        with pytest.raises(TypeError, match="is not an int"):
            f.coefficient(m)


# -- the packed dict stays inside exppoly.py; the view decodes once --------------------


def test_only_exppoly_reads_the_packed_terms():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exppoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "_packed", f"{path.name}:{node.lineno} reads the packed term dict"


def test_only_exppoly_terms_decodes_packed_keys():
    readers = []
    for scope in ast.walk(ast.parse((SRC / "exppoly.py").read_text())):
        for fn in scope.body if isinstance(scope, (ast.Module, ast.ClassDef)) else ():
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Name) and node.id == "_unpacker" for node in ast.walk(fn)
            ):
                readers.append(f"{scope.name}.{fn.name}" if isinstance(scope, ast.ClassDef) else fn.name)
    assert readers == ["ExpPoly.terms"]


def test_the_terms_view_decodes_once(monkeypatch):
    calls = []
    unpacker = exppoly._unpacker

    def counting(dim):
        unpack = unpacker(dim)

        def count(key):
            calls.append(key)
            return unpack(key)

        return count

    monkeypatch.setattr(exppoly, "_unpacker", counting)
    f = ExpPoly(3, {(1, 0, 0): 1, (0, -2, 1): 2})
    g = f * f
    assert calls == [] and not g.is_zero()  # building and multiplying decode nothing
    assert len(f.terms) == 2 and len(g.terms) == 3
    assert len(calls) == 5  # the first read of each view decodes each key once
    assert dict(g.terms) == {(2, 0, 0): 1, (1, -2, 1): 4, (0, -4, 2): 4}
    g.evaluate([0.1, 0.2, 0.3])
    list(g.terms.items())
    assert len(calls) == 5  # later reads and evaluate use the cached view


def test_both_terms_views_refuse_item_assignment():
    f = ExpPoly.monomial((1, 0, 0), 2)
    q = QExpPoly.from_classical(f)
    with pytest.raises(TypeError):
        f.terms[(0, 0, 0)] = 1
    with pytest.raises(TypeError):
        q.terms[(1, 0, 0)] = LaurentPoly.const(1)
    assert f.terms == {(1, 0, 0): 2} and q.terms == {(1, 0, 0): LaurentPoly.const(2)}


# -- pairings past the int64 bound -------------------------------------------------------


def _ref_limit(x, y, omega):
    """The classical limit from the reference qmul: -r/8 per rho^r, grouped by exponent vector."""
    sums = {}
    for m, c in _ref_sub(_ref_qmul(x, y, omega), _ref_qmul(y, x, omega)).items():
        sums[m[:-1]] = sums.get(m[:-1], 0) - m[-1] * c
    return {m: s // 8 if not s % 8 else Fraction(s, 8) for m, s in sums.items() if s}


def _full_omega(dim):
    """A table with no zero pattern, so the top fields of both operands pair with each other."""
    rng = random.Random(100 + dim)
    return [[rng.choice((-2, -1, 1, 2)) for _ in range(dim)] for _ in range(dim)]


def _lifted(dim, top):
    """Drawn elements with ``top`` added to every top-field exponent."""
    return _polys(dim).map(lambda p: ExpPoly(dim, {m[:-1] + (m[-1] + top,): c for m, c in p.terms.items()}))


@pytest.mark.parametrize("top", [2**40, 10**30], ids=["2**40", "10**30"])
@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bracket_past_the_int64_bound_matches_the_tuple_bracket(top, dim, data):
    f, g = data.draw(_lifted(dim, top)), data.draw(_lifted(dim, -top))
    for omega in (_omega(dim), _full_omega(dim)):
        _same(poisson_bracket(f, g, omega), _ref_bracket(dict(f.terms), dict(g.terms), omega))


@pytest.mark.parametrize("top", [2**40, 10**30], ids=["2**40", "10**30"])
def test_top_fields_that_pair_past_2_63_are_exact(top):
    # m^T omega n = top**2 - top: int64 would wrap it silently for 2**40 and cannot hold 10**30
    f, g = ExpPoly(2, {(1, top): 1, (0, 1): 3}), ExpPoly(2, {(2, top): 5, (-1, -top): 1})
    omega = [[0, 1], [-1, 1]]
    got = poisson_bracket(f, g, omega)
    _same(got, _ref_bracket(dict(f.terms), dict(g.terms), omega))
    assert got.coefficient((3, 2 * top)) == Fraction(5 * (top * top - top), 4)


def _wide(omega):
    """``omega`` with its (0, dim - 1) entry pair moved by 10**20; a 1 x 1 table gets 10**20 itself."""
    out = [list(row) for row in omega]
    out[0][-1] += 10**20
    out[-1][0] -= 10**20 if len(out) > 1 else 0
    return out


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_qmul_with_a_huge_omega_entry_matches_the_tuple_qmul(dim, data):
    f, g = (data.draw(_qpolys(dim)) for _ in range(2))
    omega = _wide(_omega(dim))
    _same(qmul(f, g, omega).flat, _ref_qmul(dict(f.flat.terms), dict(g.flat.terms), omega))
    # the commutator's rho exponents are past 2**63 too
    a, b = (QExpPoly.from_classical(data.draw(_polys(dim))) for _ in range(2))
    _same(classical_limit_commutator(a, b, omega), _ref_limit(dict(a.flat.terms), dict(b.flat.terms), omega))


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_rho_exponent_past_2_63_never_enters_the_pairing(dim, data):
    rho = LaurentPoly.rho_power(2**64 + data.draw(st.integers(-3, 3)))
    f, g = data.draw(_qpolys(dim)).scale(rho), data.draw(_qpolys(dim)).scale(rho.star())
    omega = _omega(dim)
    for x, y in ((f, g), (g, f), (f, f)):
        _same(qmul(x, y, omega).flat, _ref_qmul(dict(x.flat.terms), dict(y.flat.terms), omega))
    if f:
        # the classical limit refuses such an operand before it pairs anything
        with pytest.raises(ValueError, match="rho-independent"):
            classical_limit_commutator(f, QExpPoly.from_classical(ExpPoly.const(dim, 1)), omega)


@pytest.mark.parametrize("dim", (0,) + DIMS)
def test_dim_0_and_zero_operands_match_the_tuple_ring(dim):
    omega = _omega(dim)
    zero, one = ExpPoly.zero(dim), ExpPoly.const(dim, 3)
    x = ExpPoly(dim, {tuple(range(1, dim + 1)): 2, (0,) * dim: -1})
    for f, g in ((zero, zero), (zero, x), (x, zero), (one, x), (x, x)):
        _same(poisson_bracket(f, g, omega), _ref_bracket(dict(f.terms), dict(g.terms), omega))
        # built by the constructor, and by Weyl promotion
        for qf, qg in (
            (QExpPoly(dim, dict(f.terms)), QExpPoly(dim, dict(g.terms))),
            (QExpPoly.from_classical(f), QExpPoly.from_classical(g)),
        ):
            F, G = dict(qf.flat.terms), dict(qg.flat.terms)
            _same(qmul(qf, qg, omega).flat, _ref_qmul(F, G, omega))
            _same(classical_limit_commutator(qf, qg, omega), _ref_limit(F, G, omega))
    q = QExpPoly(dim, {(0,) * dim: LaurentPoly({5: 2, -2**70: 1})})
    _same(qmul(q, q, omega).flat, _ref_qmul(dict(q.flat.terms), dict(q.flat.terms), omega))


# -- one kept exponent matrix per operand and dim ----------------------------------------


def _seeded_q(rng, dim, n, top=0):
    """A seeded ``QExpPoly`` of ``n`` terms; ``top`` is added to every rho exponent."""
    terms = {}
    for _ in range(n):
        m = tuple(rng.randint(-3, 3) for _ in range(dim))
        terms[m] = LaurentPoly({top + rng.randint(-4, 4): rng.choice((-2, -1, 1, 3))})
    return QExpPoly(dim, terms)


@pytest.mark.parametrize("top", [0, 2**40, 10**30], ids=["int64", "cast", "object"])
def test_one_operand_keeps_its_matrices_across_omegas_and_dims(top):
    """One ``QExpPoly`` reused with two omegas at dim 6, its flat part at dim 7, then past the int64 bound.

    Its rho field is the flat part's top field: ``qmul`` reads the first 6
    fields and never sees it, ``poisson_bracket`` on the flat part reads all
    7.  A rho exponent of 2**40 keeps the 7-field matrix in int64 but pairs
    past 2**63, so the bracket must cast it; one of 10**30 keeps it exact.
    """
    rng = random.Random(2601)
    dim = 6
    x = _seeded_q(rng, dim, 7, top)
    others = [_seeded_q(rng, dim, n) for n in (1, 2, 7)]
    for omega in (_omega(dim), _full_omega(dim), _omega(dim), _wide(_omega(dim))):
        for y in others + [x]:
            for f, g in ((x, y), (y, x)):
                _same(qmul(f, g, omega).flat, _ref_qmul(dict(f.flat.terms), dict(g.flat.terms), omega))
    flat, kept = x.flat, exppoly._matrix(x.flat, dim)
    assert kept[0].dtype == np.int64 and not kept[0].flags.writeable
    for omega in (_omega(dim + 1), _full_omega(dim + 1)):
        for y in (flat, others[2].flat):
            _same(poisson_bracket(flat, y, omega), _ref_bracket(dict(flat.terms), dict(y.terms), omega))
            _same(poisson_bracket(y, flat, omega), _ref_bracket(dict(y.terms), dict(flat.terms), omega))
    whole = exppoly._matrix(flat, dim + 1)
    assert whole[0].dtype == (object if top > 2**62 else np.int64) and not whole[0].flags.writeable
    # each matrix is built once and kept, the int64 ones never cast in place
    assert exppoly._matrix(flat, dim) is kept and exppoly._matrix(flat, dim + 1) is whole
    assert kept[0].dtype == np.int64 and [m[:dim] for m in flat.terms] == list(map(tuple, kept[0].tolist()))
    assert list(map(tuple, whole[0].tolist())) == list(flat.terms)


# -- exponent matrices read from the packed keys -----------------------------------------


def _ref_matrix(poly, dim):
    """The matrix and its bound as built from the decoded ``.terms``: int64 when the bound fits, else exact."""
    rows = [m[:dim] for m in poly.terms]
    tops = [abs(m[-1]) for m in rows] if 0 < dim == poly.dim else []
    bound = max(1, poly._b, *tops)
    return np.array(rows, np.int64 if bound < 2**63 else object).reshape(len(rows), dim), bound


def _same_matrix(poly, dim):
    (M, bound), (ref, ref_bound) = exppoly._matrix(poly, dim), _ref_matrix(poly, dim)
    assert bound == ref_bound and M.dtype == ref.dtype and M.shape == ref.shape and not M.flags.writeable
    assert list(map(tuple, M.tolist())) == [m[:dim] for m in poly.terms]
    # an exact matrix holds plain ints, which cannot wrap in the pairing product
    assert M.dtype != object or {type(x) for x in M.flat} <= {int}


def _seeded_elements(rng):
    """Seeded ``ExpPoly`` elements of dims 0-7, ``LaurentPoly`` ones and ``QExpPoly`` flat parts of dims 1-7."""
    for dim in range(8):
        for n in (0, 1, 6):
            exponents = (tuple(rng.randint(-3000, 3000) for _ in range(dim)) for _ in range(n))
            yield ExpPoly(dim, {m: rng.choice((-2, 1, Fraction(1, 3))) for m in exponents})
    for n in (0, 1, 4):
        yield LaurentPoly({rng.randint(-9, 9): rng.choice((-1, 2)) for _ in range(n)})
    for dim in range(7):
        yield _seeded_q(rng, dim, 5).flat


def test_the_matrix_is_read_from_the_packed_keys():
    for poly in _seeded_elements(random.Random(3101)):
        for dim in range(poly.dim + 1):
            _same_matrix(poly, dim)


@pytest.mark.parametrize("top", [EXPONENT_LIMIT, 2**40, 2**63 - 1, 2**63, 10**30])
def test_the_matrix_reads_the_field_edges(top):
    """Lower fields at +-(2**15 - 1), top fields past int16, at the int64 edge and past 2**63."""
    edge = EXPONENT_LIMIT - 1
    f = ExpPoly(3, {(edge, -edge, top): 1, (-edge, edge, -top): 2, (edge, 0, -1): 3, (0, 0, 0): 1})
    q = QExpPoly(2, {(edge, -edge): LaurentPoly({top: 1, -top: 2}), (-edge, 0): LaurentPoly({1: 1})})
    for poly in (f, q.flat):
        for dim in range(4):
            _same_matrix(poly, dim)
        # qmul's lower fields stay int64; the bracket's top field is exact past 2**63
        assert exppoly._matrix(poly, 2)[0].dtype == np.int64
        assert exppoly._matrix(poly, 3)[0].dtype == (object if top >= 2**63 else np.int64)


def test_pairings_on_fresh_operands_decode_no_terms():
    rng = random.Random(3102)
    dim = 6
    omega = _omega(dim)
    a, b, c = (_seeded_q(rng, dim, n) for n in (2, 7, 7))
    ab, bc = qmul(a, b, omega), qmul(b, c, omega)
    abc = qmul(ab, bc, omega)
    f, g = ab.at_rho_one(), bc.at_rho_one()
    brackets = [poisson_bracket(f * g, g, omega), poisson_bracket(ab.flat, abc.flat, _omega(dim + 1))]
    assert dim in ab.flat._mats and dim + 1 in abc.flat._mats and dim in g._mats  # every pairing read its matrices
    for x in [ab, bc, abc, f, g, *brackets]:
        assert not hasattr(x, "_view") and not hasattr(getattr(x, "flat", x), "_view")
