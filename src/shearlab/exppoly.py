"""Exact exponential Laurent polynomials and their q-deformation, in one sparse ring.

An ``ExpPoly`` is a finite sum ``sum_m c_m exp((m . z)/2)`` where ``m`` runs
over integer exponent vectors (units of z/2) and the coefficients ``c_m`` are
rationals, stored as int numerators ``n_m`` over one positive int ``den`` per
element: ``c_m = n_m / den``.  ``den`` is 1 unless the bracket's 1/4 or a
scalar such as Goldman's 1/2 leaves a denominator, and ``_new`` keeps
``gcd(den, *n) == 1``, so the form is canonical and ``==`` compares the
numerator dicts and ``den``.  The arithmetic is in ints: a product
multiplies the denominators, a sum of two elements with different ones
rescales both to their lcm.  ``.terms`` decodes ``Fraction(n_m, den)``,
an ``int`` where it divides.  ``LaurentPoly`` is its one-variable case,
a Laurent polynomial in the formal unit ``rho`` (``rho**4 = q``).  A quantum
element ``QExpPoly`` is one ``ExpPoly`` with rho as its last exponent: the
term ``c rho^r e^{m.Z/2}`` is stored under the exponent vector ``m + (r,)``.
The Poisson bracket and the noncommutative product ``qmul``, the flat product
twisted in the rho exponent, are both induced by an antisymmetric integer
matrix ``omega``:

    {e^{m.z/2}, e^{n.z/2}} = (1/4) (m^T omega n) e^{(m+n).z/2}
    e^{m.Z/2} o e^{n.Z/2}  = rho^{-(m^T omega n)} e^{(m+n).Z/2}

Both read ``m^T omega n`` from one pairing rule, ``_pairings``: over all
term pairs it is one integer matrix product ``K = M omega N^T`` of the
exponent matrices ``M`` and ``N``, in int64 when a bound proves it cannot
overflow and in numpy's exact object dtype otherwise.  It is the one part of
the ring that uses numpy, imported on the first pairing.  ``omega`` must be a
``dim x dim`` table of integers (numpy ints pass; a bool, float or
``Fraction`` entry raises ``TypeError``).  ``M`` and ``N`` take the first
``dim`` fields of each vector, so in ``qmul`` rho never enters.  Each
operand keeps its read-only matrix per ``dim`` (``_matrix``), read from the
packed keys and not from ``.terms``, so a pairing decodes no view, and each
table ``omega`` has one kept read-only array (``_omega_array``).  ``omega``
is still checked on every call, and the array is keyed on the checked
entries, all plain ints by then: a key never holds ``True``, ``1.0`` or
``Fraction(1)``, which hash and compare like ``1``, so a refused table can
never read the array of an accepted one.

Keeping exponents in half-units makes every identity exact over Q and
Z[rho, rho^-1].

Packed keys.  Terms are stored as ``{key: coefficient}`` with one int per
exponent vector (Monagan and Pearce's packed exponent vectors):

    key(m) = sum_i m_i * 2**(FIELD_BITS * i)

Each field below the top one is balanced, ``|m_i| < EXPONENT_LIMIT =
2**(FIELD_BITS - 1)``, so the packing is one-to-one and linear:
``key(m + n) = key(m) + key(n)``.  A product costs one int add per term
pair.  The top field has no field above it to carry into, so it is
unbounded.  That is where ``QExpPoly`` keeps rho: ``qmul``, ``star`` and
``scale`` write it by adding a multiple of ``2**(FIELD_BITS * dim)``, and
``_rho_split`` is the one place that reads it back, splitting a key into
``key(m)`` and ``r``.  A ``LaurentPoly`` key is its rho exponent, a one-field
key whose top field is rho, so one reflection ``_starred`` stars both.

The guard.  Every element carries a bound on ``|m_i|`` over its lower
fields: the maximum at construction, the sum of both bounds for a product,
the larger bound for a sum.  An operation whose bound would reach
``EXPONENT_LIMIT`` raises ``ExponentOverflow`` before it builds a key, so a
carry can never alias two exponent vectors.  The bound is
conservative: cancellation never lowers it.  Rho, in the top field, needs no
bound, so ``qmul`` guards only the flat product's exponents and not the twist
``m^T omega n``.  ``coefficient`` looks the vector up in the ``.terms``
view, so a vector outside the fields is simply absent.

Operands.  ``_check`` is the one rule for two ring operands: both in the ring,
then of one dimension (``DimensionMismatch``), then of one exact class, so a
one-edge ``ExpPoly`` and a ``LaurentPoly`` never combine; ``==`` compares the
class too.  A scalar is an ``int`` or ``Fraction`` (``_as_coefficient``) and
an exponent a plain int: a bool or float raises ``TypeError``.  ``dim`` and
``flat`` are read-only.  ``.terms`` is a read-only view keyed by exponent
tuples, decoded on first read and kept.  ``ExpPoly.terms`` is the one
decoder: ``QExpPoly.terms`` groups it by rho.
"""

from __future__ import annotations

import functools
import struct
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain, repeat
from math import exp, gcd, lcm
from numbers import Integral
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Iterable

from .fatgraph import short_repr

FIELD_BITS = 16  # each lower field decodes as a little-endian int16 ("h") in _unpacker
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FLOAT = frozenset((float,))
_INT = frozenset((int,))
_INT64 = 1 << 63
_ROWS = (list, tuple, Sequence)  # what omega and each of its rows may be, and a numpy array once numpy is loaded


def _as_coefficient(c) -> int | Fraction:
    """An exact coefficient: ``int`` for integral values (``Fraction(n, 1)`` too)."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and type(c) is not bool:
        return int(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


class DimensionMismatch(ValueError):
    pass


class ExponentOverflow(OverflowError):
    """An exponent would leave its packed field and carry into the next one."""


def _guard(bound: int) -> int:
    if bound >= EXPONENT_LIMIT:
        raise ExponentOverflow(
            f"an exponent bound of {bound} reaches the {FIELD_BITS}-bit field limit {EXPONENT_LIMIT}"
        )
    return bound


def _pack(m: tuple) -> int:
    key = 0
    for x in reversed(m):
        key = (key << FIELD_BITS) + x
    return key


@functools.lru_cache(maxsize=None)
def _layout(dim: int) -> tuple:
    """``(bits, offset, low)`` of a ``dim``-field key (``dim >= 1``): its lower fields' width, offset and mask.

    Adding ``offset``, ``EXPONENT_LIMIT`` per lower field, makes each lower
    field non-negative with no borrow, so ``(key + offset) >> bits`` is the top
    field; ``^ offset`` then ``& low`` leaves the lower fields' int16 bytes.
    """
    bits = FIELD_BITS * (dim - 1)
    return bits, sum(EXPONENT_LIMIT << (FIELD_BITS * i) for i in range(dim - 1)), (1 << bits) - 1


@functools.lru_cache(maxsize=None)
def _unpacker(dim: int):
    """The decoder from a packed key to its exponent tuple, for ``dim`` fields laid out by ``_layout``."""
    if not dim:
        return lambda key: ()
    bits, offset, low = _layout(dim)
    fields = struct.Struct(f"<{dim - 1}h")
    size, read = fields.size, fields.unpack

    def unpack(key: int) -> tuple:
        x = key + offset
        return read(((x ^ offset) & low).to_bytes(size, "little")) + (x >> bits,)

    return unpack


def _ints(m) -> tuple:
    """``m`` as a tuple of plain ints: any other exponent (a float, a bool) raises ``TypeError``."""
    m = tuple(m)
    for x in m:
        if type(x) is not int:
            raise TypeError(f"exponent {short_repr(x)} is not an int")
    return m


def _exponents(m, dim: int) -> tuple:
    """``_ints(m)``, which must have length ``dim``."""
    m = _ints(m)
    if len(m) != dim:
        raise DimensionMismatch(f"exponent vector {short_repr(m)} has length {len(m)}, expected {dim}")
    return m


def _dim(dim) -> int:
    """``dim`` if it is a non-negative plain int; a float or bool is a ``TypeError``, a negative int a mismatch."""
    if type(dim) is not int:
        raise TypeError(f"dimension {short_repr(dim)} is not an int")
    if dim < 0:
        raise DimensionMismatch(f"dimension {dim} is negative")
    return dim


def _rows(omega, dim: int, kinds: tuple) -> bool:
    """Whether ``omega`` is a ``kinds`` instance of length ``dim`` whose items are all ``kinds`` instances."""
    return isinstance(omega, kinds) and len(omega) == dim and all(map(isinstance, omega, repeat(kinds)))


def _omega(omega, dim: int):
    """The read-only ``dim x dim`` array of ``omega`` and its largest ``|entry|`` (at least 1).

    ``omega`` and its rows must be sequences of length ``dim``, or it would
    drop or misread exponents.  An entry must be ``numbers.Integral`` but not
    a ``bool``: numpy ints pass, a float or ``Fraction`` is refused.  These
    checks run on every call, before the kept array is looked up by the
    checked plain-int entries.  An array exists only once numpy is loaded, so
    ``ndarray`` is read from ``sys.modules`` only if the ``_ROWS`` test fails.
    """
    rows = _rows(omega, dim, _ROWS)
    if not rows and (np := sys.modules.get("numpy")) is not None:
        rows = _rows(omega, dim, (*_ROWS, np.ndarray))
    if not (rows and {dim}.issuperset(map(len, omega))):
        raise DimensionMismatch(f"omega must be {dim} x {dim} for exponent vectors of length {dim}")
    entries = tuple(chain.from_iterable(omega))
    if not _INT.issuperset(map(type, entries)):
        for x in entries:
            if not isinstance(x, Integral) or isinstance(x, bool):
                raise TypeError(f"omega entry {short_repr(x)} is not an int")
        entries = tuple(map(int, entries))
    return _omega_array(entries, dim)


@functools.lru_cache(maxsize=16)
def _omega_array(entries: tuple, dim: int):
    """``_omega``'s array of checked plain-int ``entries``, built once per table: int64 if each fits, else exact."""
    import numpy as np
    w = max(1, max(map(abs, entries), default=0))
    W = np.array(entries, np.int64 if w < _INT64 else object).reshape(dim, dim)
    W.flags.writeable = False
    return W, w


def _matrix(poly: "ExpPoly", dim: int):
    """The read-only matrix of the first ``dim`` fields of ``poly``'s exponents, and a bound (at least 1) on them.

    It is read from the packed keys, never from ``.terms``: the lower fields
    of all keys as one buffer of ``_layout``'s int16 bytes, and the unbounded
    top field, only when ``dim == poly.dim`` (the bracket), by one shift per
    key.  ``poly._b`` bounds the lower fields.  The matrix is int64 when the
    bound fits and exact otherwise, and is kept on ``poly`` per ``dim``
    (``qmul`` reads a flat part at ``dim - 1``, ``poisson_bracket`` at ``dim``).
    """
    try:
        return poly._mats[dim]
    except AttributeError:
        poly._mats = {}
    except KeyError:
        pass
    import numpy as np
    top = 0 < dim == poly._dim
    # below poly.dim, the first dim fields are the lower fields of a (dim + 1)-field layout
    bits, offset, low = _layout(dim if top else dim + 1)
    keys, size = poly._packed, bits // 8
    raw = b"".join([(((k + offset) ^ offset) & low).to_bytes(size, "little") for k in keys])
    tops = [(k + offset) >> bits for k in keys] if top else ()
    bound = max(1, poly._b, *map(abs, tops))
    M = np.empty((len(keys), dim), np.int64 if bound < _INT64 else object)
    M[:, : bits // FIELD_BITS] = np.frombuffer(raw, "<i2").reshape(len(keys), bits // FIELD_BITS)
    if top:
        M[:, -1] = tops
    M.flags.writeable = False
    poly._mats[dim] = M, bound
    return M, bound


def _pairings(f: "ExpPoly", g: "ExpPoly", omega, dim: int) -> list:
    """The one pairing rule: ``K[s][t] = m_s^T omega n_t`` for the ``s``-th term of ``f`` and the ``t``-th of ``g``.

    ``K = M W N^T`` over the operands' kept exponent matrices (``_matrix``,
    first ``dim`` columns, so a quantum element's rho never enters) and the
    kept array ``W`` of the checked omega (``_omega``).  It runs in int64
    when ``dim**2 * max|M| * max|omega| * max|N| < 2**63`` (each maximum at
    least 1), which bounds every entry of the factors, of ``M W`` and of
    ``K``; past that, int64 would wrap silently, so all three are cast to
    numpy's exact object dtype.  The rows come back as lists of ints, in the
    terms' order.
    """
    W, w = _omega(omega, dim)
    (M, a), (N, b) = _matrix(f, dim), _matrix(g, dim)
    if dim * dim * a * w * b >= _INT64:
        M, W, N = M.astype(object), W.astype(object), N.astype(object)
    return (M @ W @ N.T).tolist()


def _rho_split(flat: "ExpPoly"):
    """``(key(m), r, c)`` for each term ``c rho^r e^{m.Z/2}`` of a quantum element's flat part.

    Rho is the top field, above ``flat.dim - 1`` balanced ones: adding half a
    top-field unit makes the lower part non-negative, so the shift reads ``r``.
    """
    shift = FIELD_BITS * (flat._dim - 1)
    half = (1 << shift) >> 1
    for k, c in flat._packed.items():
        r = (k + half) >> shift
        yield k - (r << shift), r, c


def _starred(flat: "ExpPoly") -> "ExpPoly":
    """``flat`` with rho -> rho^{-1}: each key's top field negated, the whole key of a ``LaurentPoly``."""
    shift = FIELD_BITS * (flat._dim - 1)
    return _new(type(flat), flat._dim, {low - (r << shift): c for low, r, c in _rho_split(flat)}, flat._b, flat._den)


def _render(terms: Mapping, term) -> str:
    """The repr of a ``.terms`` view: ``"0"`` if empty, else ``term(m, c)`` of each sorted term joined by `` + ``."""
    return " + ".join(term(m, c) for m, c in sorted(terms.items())) if terms else "0"


def _exp(m: tuple, var: str) -> str:
    """``exp((1*z0 + -1*z1)/2)`` for ``m = (1, -1)`` and ``var = "z"``; ``""`` for a zero vector."""
    combo = " + ".join(f"{mi}*{var}{i}" for i, mi in enumerate(m) if mi)
    return f"exp(({combo})/2)" if combo else ""


def _check(f, g, ring):
    """The one operand rule: both ``ring`` instances, then one dimension, then one exact class (naming both)."""
    if type(f) is not type(g) or not isinstance(f, ring) or f._dim != g._dim:
        if isinstance(f, ring) and isinstance(g, ring) and f._dim != g._dim:
            raise DimensionMismatch(f"dimensions {f._dim} and {g._dim} differ")
        raise TypeError(f"cannot combine {type(f).__name__} and {type(g).__name__} as {ring.__name__} operands")


def _new(cls, dim: int, terms: dict, bound: int, den: int = 1):
    """An element of ``cls`` on clean packed numerators (no zeros) over ``den > 0``; no view yet.

    The one place that reduces: past ``den == 1``, which needs no gcd, the
    numerators and ``den`` are divided by their gcd, so ``gcd(den, *numerators)
    == 1`` and each element has one form (zero has ``den == 1``).
    """
    if den != 1:
        g = gcd(den, *terms.values()) if terms else den
        if g != 1:
            den //= g
            terms = {k: n // g for k, n in terms.items()}
    out = object.__new__(cls)
    out._dim = dim
    out._packed = terms
    out._b = bound
    out._den = den
    return out


def _merge(into: dict, row: dict, rebase: int) -> dict:
    """``into += row``, ``row``'s keys moved by ``rebase``; new keys go after ``into``'s, in ``row``'s order."""
    get = into.get
    for k, c in row.items():
        k += rebase
        into[k] = get(k, 0) + c
    return into


def _path_entries(dim: int, steps) -> tuple:
    """The path matrix ``T_n X_{e_n} ... T_1 X_{e_1}`` of a word's ``(edge, left turn)`` steps.

    Conjugated by ``diag(1, -1)`` every step matrix is non-negative (Fock):
    with ``h = e^{z_e/2}`` a step multiplies the top row by ``1/h`` and the
    bottom row by ``h``, then a left turn adds the top row to the bottom one
    and a right turn the bottom row to the top one.  So the four entries are
    plain ``{key: positive int}`` dicts whose merges never cancel, and the
    off-diagonal signs are put back once at the end.  Each row's keys are
    stored relative to a running offset, so a step moves no key but those of
    the row being merged.  A merge keeps the top row's keys first, the
    insertion order of ``-top + bottom`` and ``top - bottom`` on the signed
    entries.

    Every entry's bound is the number of steps on a lower-field edge; it is
    guarded before any key is built.
    """
    bound = _guard(sum(e < dim - 1 for e, _ in steps))
    (t0, t1), (b0, b1) = ({0: 1}, {}), ({}, {0: 1})
    up = gap = 0  # the top row's key offset, and the bottom row's offset minus it
    for e, left in steps:
        step = 1 << (FIELD_BITS * e)
        up -= step
        gap += step << 1
        if left:
            b0 = _merge(dict(t0), b0, gap)
            b1 = _merge(dict(t1), b1, gap)
            gap = 0
        else:
            _merge(t0, b0, gap)
            _merge(t1, b1, gap)
    down = up + gap
    return (
        (
            _new(ExpPoly, dim, {k + up: c for k, c in t0.items()}, bound),
            _new(ExpPoly, dim, {k + up: -c for k, c in t1.items()}, bound),
        ),
        (
            _new(ExpPoly, dim, {k + down: -c for k, c in b0.items()}, bound),
            _new(ExpPoly, dim, {k + down: c for k, c in b1.items()}, bound),
        ),
    )


class ExpPoly:
    """Finite map from integer exponent vectors to exact (int or Fraction) coefficients, stored over one ``_den``."""

    # _view, _plan and _mats are set on the first .terms, evaluate and pairing
    __slots__ = ("_dim", "_packed", "_b", "_den", "_view", "_plan", "_mats")
    dim = property(attrgetter("_dim"))  # read-only: the kept views decode by it

    def __init__(self, dim: int, terms: Mapping[tuple, int | Fraction] | None = None):
        self._dim = _dim(dim)
        clean = {}
        bound = 0
        for m, c in (terms or {}).items():
            m = _exponents(m, dim)
            bound = max(bound, _guard(max(map(abs, m[:-1]), default=0)))
            c = _as_coefficient(c)
            if c:
                clean[_pack(m)] = c
        # the lcm of reduced denominators leaves numerators with no common factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self._packed = {k: c.numerator * (den // c.denominator) for k, c in clean.items()} if den != 1 else clean
        self._b = bound
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExpPoly":
        return cls.monomial((0,) * _dim(dim), 0)

    @classmethod
    def const(cls, dim: int, c) -> "ExpPoly":
        return cls.monomial((0,) * _dim(dim), c)

    @classmethod
    def monomial(cls, m: Iterable[int], c=1) -> "ExpPoly":
        """``c e^{m.z/2}`` as a ``cls``, built by ``ExpPoly.__init__`` whatever ``cls.__init__`` takes."""
        m = tuple(m)
        out = object.__new__(cls)
        ExpPoly.__init__(out, len(m), {m: c})
        return out

    def _scalar(self, c) -> "ExpPoly":
        """The constant ``c`` as an element of this type and dimension."""
        c = _as_coefficient(c)
        return _new(type(self), self._dim, {0: c.numerator} if c else {}, 0, c.denominator)

    @property
    def terms(self) -> Mapping[tuple, int | Fraction]:
        """Read-only view from each exponent tuple to its coefficient ``n / den``, decoded on first read and kept."""
        try:
            return self._view
        except AttributeError:
            unpack, den = _unpacker(self._dim), self._den
            if den == 1:
                view = {unpack(k): n for k, n in self._packed.items()}
            else:
                view = {unpack(k): _as_coefficient(Fraction(n, den)) for k, n in self._packed.items()}
            view = self._view = MappingProxyType(view)
            return view

    # -- ring structure ----------------------------------------------------

    def _sum(self, other, sign):
        """``self + other`` (sign 1) or ``self - other`` (sign -1) in one pass; new keys follow in ``other``'s order.

        Equal denominators add as they are; otherwise both sides are rescaled to their lcm.
        """
        if not isinstance(other, ExpPoly):
            if isinstance(other, QExpPoly):  # another ring's element meets the operand rule, not the scalar one
                _check(self, other, ExpPoly)
            other = self._scalar(other)
        _check(self, other, ExpPoly)
        a, b = self._den, other._den
        if a == b:
            den, terms, right = a, dict(self._packed), other._packed.items()
        else:
            den = lcm(a, b)
            terms = {k: n * (den // a) for k, n in self._packed.items()}
            right = [(k, n * (den // b)) for k, n in other._packed.items()]
        get = terms.get
        for k, c in right:
            s = get(k, 0) + c if sign > 0 else get(k, 0) - c
            if s:
                terms[k] = s
            else:
                del terms[k]
        return _new(type(self), self._dim, terms, max(self._b, other._b), den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _new(type(self), self._dim, {k: -c for k, c in self._packed.items()}, self._b, self._den)

    def __sub__(self, other):
        """The merge ``__add__`` makes, subtracting; the terms keep the order of ``self + (-other)``."""
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if isinstance(other, QExpPoly):
                _check(self, other, ExpPoly)
            c = _as_coefficient(other)
            n = c.numerator
            terms = {k: a * n for k, a in self._packed.items()} if n else {}
            return _new(type(self), self._dim, terms, self._b, self._den * c.denominator)
        _check(self, other, ExpPoly)
        bound = _guard(self._b + other._b)
        terms = {}
        get = terms.get
        right = other._packed.items()
        for m, a in self._packed.items():
            for n, b in right:
                k = m + n
                s = get(k, 0) + a * b
                if s:
                    terms[k] = s
                else:
                    del terms[k]
        return _new(type(self), self._dim, terms, bound, self._den * other._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            try:
                other = self._scalar(other)
            except TypeError:
                return NotImplemented
        same = type(self) is type(other) and self._dim == other._dim
        return same and self._den == other._den and self._packed == other._packed

    def __bool__(self):
        return bool(self._packed)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def coefficient(self, m: Iterable[int]) -> int | Fraction:
        """Coefficient (``int | Fraction``) of e^{m.z/2}; 0 if absent."""
        return self.terms.get(_ints(m), 0)

    def evaluate(self, z_values) -> float:
        """Substitute real label values and return the real value.

        Terms are summed in insertion order, each as
        ``float(c) * exp((m . z) / 2)`` with the dot product taken by the
        built-in ``sum``.  That order and that arithmetic are part of the
        output contract: CLI reports and the flip-walk traces depend on the
        exact float this returns.  ``sum`` adds floats left to right before
        Python 3.12 and with compensated summation from 3.12 on, so the last
        bits of a dot product, and of the result, can differ between those
        interpreters (never between runs on one).  The ``(float(c), m)``
        pairs are planned on the first call and cached.  For all-float values
        the plan's ``m`` is in floats, which ``m_i * z_i`` converts it to
        anyway (a vector with an entry past 2**53 stays in ints, to convert or
        overflow only there).
        """
        if len(z_values) != self._dim:
            raise DimensionMismatch(f"expected {self._dim} values, got {len(z_values)}")
        try:
            floats, exact = self._plan
        except AttributeError:
            exact = [(float(c), m) for m, c in self.terms.items()]
            floats = [(c, m if max(map(abs, m), default=0) > 1 << 53 else tuple(map(float, m))) for c, m in exact]
            self._plan = floats, exact
        total = 0.0
        for c, m in floats if _FLOAT.issuperset(map(type, z_values)) else exact:
            total += c * exp(sum(map(mul, m, z_values)) / 2.0)
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self):
        return [{"m": list(m), "c": [c.numerator, c.denominator]} for m, c in self.sorted_terms()]

    def __repr__(self):
        return _render(self.terms, lambda m, c: f"{c} * {e}" if (e := _exp(m, "z")) else str(c))


def poisson_bracket(f: ExpPoly, g: ExpPoly, omega) -> ExpPoly:
    """Edge-form Poisson bracket extended to exponentials by Leibniz, over the denominator ``4 d_f d_g``.

    m^T omega n comes from the pairing rule ``_pairings``, as in ``qmul``, exact
    for a top-field exponent of any size.  ``omega`` must be a ``dim x dim``
    table of integers, checked on every call; a bool, float or ``Fraction``
    entry raises ``TypeError``.
    """
    _check(f, g, ExpPoly)
    pairings = _pairings(f, g, omega, f._dim)
    bound = _guard(f._b + g._b)
    right = list(g._packed.items())
    terms = {}
    get = terms.get
    for (km, a), ks in zip(f._packed.items(), pairings):
        for (kn, b), k in zip(right, ks):
            if not k:
                continue
            key = km + kn
            s = get(key, 0) + k * a * b
            if s:
                terms[key] = s
            else:
                del terms[key]
    return _new(type(f), f._dim, terms, bound, 4 * f._den * g._den)


class LaurentPoly(ExpPoly):
    """Integer-coefficient Laurent polynomial in the formal unit rho = q^{1/4}.

    The one-variable ``ExpPoly``: ``rho^n`` is stored under the packed key
    ``n``, and its ``.terms`` view under ``(n,)``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(1, {(n,): c for n, c in (coeffs or {}).items()})

    @classmethod
    def monomial(cls, m: Iterable[int], c=1) -> "LaurentPoly":
        """``c rho^n`` for ``m = (n,)``; ``zero`` builds through it, so both refuse any dimension but 1."""
        m = tuple(m)
        if len(m) != 1:
            raise DimensionMismatch(f"a LaurentPoly has dimension 1, not {len(m)}")
        return super().monomial(m, c)

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def rho_power(cls, n: int, c=1) -> "LaurentPoly":
        return cls({n: c})

    def star(self) -> "LaurentPoly":
        """The involution rho -> rho^{-1}."""
        return _starred(self)

    def at_one(self) -> int | Fraction:
        """Specialize rho = 1; an ``int`` unless the sum of the coefficients is not."""
        return _as_coefficient(Fraction(sum(self._packed.values()), self._den))

    def __repr__(self):
        return _render(self.terms, lambda m, c: str(c) if not m[0] else f"rho^{m[0]}" if c == 1 else f"{c}*rho^{m[0]}")


class QExpPoly:
    """Quantum-torus element: an ``ExpPoly`` in the exponents ``m + (r,)`` of ``rho^r e^{m.Z/2}``.

    Rho is the top field of each packed key, ``key(m) + r * 2**(FIELD_BITS * dim)``.
    """

    __slots__ = ("_flat", "_dim", "_view")  # _view is set on the first read of .terms
    flat = property(attrgetter("_flat"))  # read-only, like ExpPoly.dim: the kept view is built from it
    dim = property(attrgetter("_dim"))  # the flat dimension less rho's field, kept for _check to read as a slot

    def __init__(self, dim: int, terms: Mapping[tuple, LaurentPoly] | None = None):
        dim = _dim(dim)
        flat = {}
        for m, c in (terms or {}).items():
            m = _exponents(m, dim)
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            for (r,), a in c.terms.items():
                flat[m + (r,)] = a
        self._flat = ExpPoly(dim + 1, flat)
        self._dim = dim

    @classmethod
    def _of(cls, flat: ExpPoly) -> "QExpPoly":
        out = object.__new__(cls)
        out._flat = flat
        out._dim = flat._dim - 1
        return out

    @classmethod
    def monomial(cls, m: Iterable[int], c=1) -> "QExpPoly":
        m = tuple(m)
        return cls(len(m), {m: c})

    @classmethod
    def from_classical(cls, f: ExpPoly) -> "QExpPoly":
        """Weyl promotion: each c e^{m.z/2} becomes c e^{m.Z/2} with rho-free c, at every dimension.

        ``f`` must be an ``ExpPoly`` (a subclass passes); any other class
        raises ``TypeError``.  The constructor's guard is the field rule:
        ``f``'s top field becomes a lower field here.
        """
        _check(f, f, ExpPoly)
        return cls(f._dim, f.terms)

    @property
    def terms(self) -> Mapping[tuple, LaurentPoly]:
        """Read-only view from each exponent vector to its ``LaurentPoly`` coefficient, built on first read and kept.

        The flat part's decoded ``.terms`` grouped by their last field, rho.
        """
        try:
            return self._view
        except AttributeError:
            grouped = {}
            for m, c in self._flat.terms.items():
                grouped.setdefault(m[:-1], {})[m[-1]] = c
            view = self._view = MappingProxyType({m: LaurentPoly(cs) for m, cs in grouped.items()})
            return view

    def __add__(self, other):
        _check(self, other, QExpPoly)
        return QExpPoly._of(self._flat + other._flat)

    def __neg__(self):
        return QExpPoly._of(-self._flat)

    def __sub__(self, other):
        _check(self, other, QExpPoly)
        return QExpPoly._of(self._flat - other._flat)

    def scale(self, c) -> "QExpPoly":
        """``self`` times the scalar ``c``, which ``__init__`` coerces to a ``LaurentPoly``."""
        return QExpPoly._of(self._flat * QExpPoly.monomial((0,) * self._dim, c)._flat)

    def __eq__(self, other):
        if isinstance(other, QExpPoly):
            return self._flat == other._flat
        try:  # a scalar c is c rho^0 e^0, the constant of the flat part
            return self._flat == self._flat._scalar(other)
        except TypeError:
            return NotImplemented

    def __bool__(self):
        return bool(self._flat)

    def is_rho_free(self) -> bool:
        return not any(r for _, r, _ in _rho_split(self._flat))

    def coefficient(self, m: Iterable[int]) -> LaurentPoly:
        """The ``LaurentPoly`` coefficient of e^{m.Z/2}; ``LaurentPoly()`` if absent."""
        return self.terms.get(_ints(m), LaurentPoly())

    def at_rho_one(self) -> ExpPoly:
        sums = {}
        for low, _, c in _rho_split(self._flat):
            sums[low] = sums.get(low, 0) + c
        terms = {k: c for k, c in sums.items() if c}
        return _new(ExpPoly, self._dim, terms, self._flat._b, self._flat._den)

    def star(self) -> "QExpPoly":
        """Hermitean conjugate: coefficient-wise rho -> rho^{-1}."""
        return QExpPoly._of(_starred(self._flat))

    def __repr__(self):
        return _render(self.terms, lambda m, c: f"({c}) * {_exp(m, 'Z') or 1}")


def qmul(f: QExpPoly, g: QExpPoly, omega) -> QExpPoly:
    """Noncommutative product: the flat product with rho's exponent lowered by m^T omega n.

    m^T omega n comes from the pairing rule ``_pairings``, as in
    ``poisson_bracket``, over the flat parts' first ``dim`` fields, so rho
    never enters it.  ``omega`` must be a ``dim x dim`` table of integers,
    checked on every call.  Rho is the top field, so the twist is one
    subtraction of ``(m^T omega n) * 2**(FIELD_BITS * dim)`` from the key;
    the bound is the flat product's.
    """
    _check(f, g, QExpPoly)
    pairings = _pairings(f._flat, g._flat, omega, f._dim)
    bound = _guard(f._flat._b + g._flat._b)
    shift = FIELD_BITS * f._dim
    right = list(g._flat._packed.items())
    terms = {}
    get = terms.get
    for (km, a), ks in zip(f._flat._packed.items(), pairings):
        for (kn, b), k in zip(right, ks):
            key = km + kn
            if k:
                key -= k << shift
            s = get(key, 0) + a * b
            if s:
                terms[key] = s
            else:
                del terms[key]
    return QExpPoly._of(_new(ExpPoly, f._flat._dim, terms, bound, f._flat._den * g._flat._den))


def classical_limit_commutator(f: QExpPoly, g: QExpPoly, omega) -> ExpPoly:
    """(1/(2 pi i)) d/dhbar of [f o g - g o f] at hbar = 0, exactly.

    Requires rho-free inputs; the result equals the Poisson bracket of the
    rho = 1 specializations.  Each rho^r contributes -r/8, read off the top
    field of the commutator's keys in one pass: the int sums go over ``8 den``.
    """
    _check(f, g, QExpPoly)
    if not (f.is_rho_free() and g.is_rho_free()):
        raise ValueError("classical limit requires rho-independent coefficients")
    comm = (qmul(f, g, omega) - qmul(g, f, omega))._flat
    sums = {}
    for low, r, c in _rho_split(comm):
        sums[low] = sums.get(low, 0) - r * c
    return _new(ExpPoly, f._dim, {k: s for k, s in sums.items() if s}, comm._b, 8 * comm._den)
