"""Exact exponential Laurent polynomials and their q-deformation, in one sparse ring.

An ``ExpPoly`` is a finite sum ``sum_m c_m exp((m . z)/2)`` where ``m`` runs
over integer exponent vectors (units of z/2) and the coefficients ``c_m`` are
ints; a ``Fraction`` appears only where the bracket's 1/4 or a scalar such as
Goldman's 1/2 leaves a denominator.  ``LaurentPoly`` is its one-variable case,
a Laurent polynomial in the formal unit ``rho`` (``rho**4 = q``).  A quantum
element ``QExpPoly`` is one ``ExpPoly`` with rho as its last exponent: the
term ``c rho^r e^{m.Z/2}`` is stored under the key ``m + (r,)``.  The Poisson
bracket and the noncommutative product ``qmul``, the flat product twisted in
the rho exponent, are both induced by an antisymmetric integer matrix ``omega``:

    {e^{m.z/2}, e^{n.z/2}} = (1/4) (m^T omega n) e^{(m+n).z/2}
    e^{m.Z/2} o e^{n.Z/2}  = rho^{-(m^T omega n)} e^{(m+n).Z/2}

Keeping exponents in half-units makes every identity exact over Q and
Z[rho, rho^-1].
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping


def _as_coefficient(c) -> int | Fraction:
    """An exact coefficient: ``int`` for integral values (``Fraction(n, 1)`` too)."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


def pairing(m: tuple, n: tuple, omega) -> int:
    """m^T omega n for integer vectors and an antisymmetric integer matrix."""
    total = 0
    for i, mi in enumerate(m):
        if not mi:
            continue
        row = omega[i]
        total += mi * sum(row[j] * nj for j, nj in enumerate(n) if nj)
    return total


class DimensionMismatch(ValueError):
    pass


class ExpPoly:
    """Finite map from integer exponent vectors to exact (int or Fraction) coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, int | Fraction] | None = None):
        self.dim = dim
        clean = {}
        if terms:
            for m, c in terms.items():
                m = tuple(int(x) for x in m)
                if len(m) != dim:
                    raise DimensionMismatch(f"exponent vector {m} has length {len(m)}, expected {dim}")
                c = _as_coefficient(c)
                if c:
                    clean[m] = clean.get(m, 0) + c
                    if not clean[m]:
                        del clean[m]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExpPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, c) -> "ExpPoly":
        return cls(dim, {(0,) * dim: _as_coefficient(c)})

    @classmethod
    def monomial(cls, m: Iterable[int], c=1) -> "ExpPoly":
        m = tuple(int(x) for x in m)
        return cls(len(m), {m: _as_coefficient(c)})

    def _raw(self, terms: dict) -> "ExpPoly":
        """An element of this type and dimension on clean terms (no zero coefficients)."""
        out = object.__new__(type(self))
        out.dim = self.dim
        out.terms = terms
        return out

    def _scalar(self, c) -> "ExpPoly":
        """The constant ``c`` as an element of this type and dimension."""
        c = _as_coefficient(c)
        return self._raw({(0,) * self.dim: c} if c else {})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "ExpPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return self._raw(terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        """One merge pass; the terms keep the insertion order of ``self + (-other)``."""
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) - c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return self._raw(terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coefficient(other)
            return self._raw({m: _as_coefficient(a * c) for m, a in self.terms.items()} if c else {})
        self._check(other)
        terms = {}
        for m, a in self.terms.items():
            for n, b in other.terms.items():
                k = tuple(map(add, m, n))
                s = terms.get(k, 0) + a * b
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return self._raw(terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift(self, i: int, s: int) -> "ExpPoly":
        """The product with the monomial e^{s z_i/2}: exponent i of every term moves by s."""
        return self._raw({m[:i] + (m[i] + s,) + m[i + 1 :]: c for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_coefficient(self) -> int | Fraction:
        """Coefficient (``int | Fraction``) of the lexicographically largest exponent."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def coefficient(self, m: Iterable[int]) -> int | Fraction:
        """Coefficient (``int | Fraction``) of e^{m.z/2}; 0 if absent."""
        return self.terms.get(tuple(m), 0)

    def evaluate(self, z_values) -> float:
        """Substitute real label values and return the real value.

        Terms are summed in insertion order, each as
        ``float(c) * exp((m . z) / 2)`` with the dot product summed left to
        right.  That order and that arithmetic are part of the output
        contract: CLI reports and the flip-walk traces depend on the exact
        float this returns.
        """
        if len(z_values) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} values, got {len(z_values)}")
        total = 0.0
        for m, c in self.terms.items():
            total += float(c) * math.exp(sum(map(mul, m, z_values)) / 2.0)
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self):
        return [{"m": list(m), "c": [c.numerator, c.denominator]} for m, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            combo = " + ".join(f"{mi}*z{i}" for i, mi in enumerate(m) if mi)
            if combo:
                parts.append(f"{c} * exp(({combo})/2)")
            else:
                parts.append(str(c))
        return " + ".join(parts)


def poisson_bracket(f: ExpPoly, g: ExpPoly, omega) -> ExpPoly:
    """Edge-form Poisson bracket extended to exponentials by Leibniz; one /4 per output term.

    The row m^T omega is formed once per left term and dotted with each right
    exponent vector.
    """
    f._check(g)
    terms = {}
    right = g.terms.items()
    columns = tuple(zip(*omega))
    for m, a in f.terms.items():
        row = [sum(map(mul, m, col)) for col in columns]
        for n, b in right:
            k = sum(map(mul, row, n))
            if not k:
                continue
            key = tuple(map(add, m, n))
            s = terms.get(key, 0) + k * a * b
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return f._raw({m: s // 4 if not s % 4 else Fraction(s, 4) for m, s in terms.items()})


class LaurentPoly(ExpPoly):
    """Integer-coefficient Laurent polynomial in the formal unit rho = q^{1/4}.

    The one-variable ``ExpPoly``: ``rho^n`` is stored under the key ``(n,)``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(1, {(n,): c for n, c in (coeffs or {}).items()})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def rho_power(cls, n: int, c=1) -> "LaurentPoly":
        return cls({n: c})

    def star(self) -> "LaurentPoly":
        """The involution rho -> rho^{-1}."""
        return self._raw({(-n,): c for (n,), c in self.terms.items()})

    def at_one(self) -> int | Fraction:
        """Specialize rho = 1; an ``int`` unless a coefficient is a ``Fraction``."""
        return sum(self.terms.values())

    def is_scalar_multiple_of_one(self) -> bool:
        return set(self.terms) <= {(0,)}

    def classical_derivative(self) -> int | Fraction:
        """(1/(2 pi i)) d/dhbar at hbar=0 of sum_n c_n rho^n with rho = e^{-i pi hbar/4}.

        Each rho^n contributes -n/8 at hbar = 0.
        """
        return _as_coefficient(Fraction(sum(-n * c for (n,), c in self.terms.items()), 8))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (n,), c in self.sorted_terms():
            if n == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*rho^{n}" if c != 1 else f"rho^{n}")
        return " + ".join(parts)


class QExpPoly:
    """Quantum-torus element: an ``ExpPoly`` in the exponents ``m + (r,)`` of ``rho^r e^{m.Z/2}``."""

    __slots__ = ("flat",)

    def __init__(self, dim: int, terms: Mapping[tuple, LaurentPoly] | None = None):
        flat = {}
        for m, c in (terms or {}).items():
            m = tuple(int(x) for x in m)
            if len(m) != dim:
                raise DimensionMismatch(f"exponent vector {m} has length {len(m)}, expected {dim}")
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            for r, a in c.terms.items():
                flat[m + r] = flat.get(m + r, 0) + a
        self.flat = ExpPoly(dim + 1, flat)

    @classmethod
    def _of(cls, flat: ExpPoly) -> "QExpPoly":
        out = object.__new__(cls)
        out.flat = flat
        return out

    @classmethod
    def monomial(cls, m: Iterable[int], c=1) -> "QExpPoly":
        m = tuple(int(x) for x in m)
        return cls(len(m), {m: c})

    @classmethod
    def from_classical(cls, f: ExpPoly) -> "QExpPoly":
        """Weyl promotion: each c e^{m.z/2} becomes c e^{m.Z/2} with rho-free c."""
        return cls(f.dim, f.terms)

    @property
    def dim(self) -> int:
        return self.flat.dim - 1

    @property
    def terms(self) -> Mapping[tuple, LaurentPoly]:
        """Read-only view from each exponent vector to its ``LaurentPoly`` coefficient."""
        grouped = {}
        for k, c in self.flat.terms.items():
            grouped.setdefault(k[:-1], {})[k[-1:]] = c
        rho = LaurentPoly()
        return MappingProxyType({m: rho._raw(cs) for m, cs in grouped.items()})

    _check = ExpPoly._check

    def __add__(self, other):
        self._check(other)
        return QExpPoly._of(self.flat + other.flat)

    def __neg__(self):
        return QExpPoly._of(-self.flat)

    def __sub__(self, other):
        self._check(other)
        return QExpPoly._of(self.flat - other.flat)

    def scale(self, c) -> "QExpPoly":
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)
        zero = (0,) * self.dim
        return QExpPoly._of(self.flat * ExpPoly(self.dim + 1, {zero + r: a for r, a in c.terms.items()}))

    def __eq__(self, other):
        if not isinstance(other, QExpPoly):
            return NotImplemented
        return self.flat == other.flat

    def __bool__(self):
        return bool(self.flat)

    def is_rho_free(self) -> bool:
        return not any(k[-1] for k in self.flat.terms)

    def coefficient(self, m: Iterable[int]) -> LaurentPoly:
        m = tuple(m)
        return LaurentPoly({k[-1]: c for k, c in self.flat.terms.items() if k[:-1] == m})

    def at_rho_one(self) -> ExpPoly:
        terms = {}
        for k, c in self.flat.terms.items():
            terms[k[:-1]] = terms.get(k[:-1], 0) + c
        return ExpPoly(self.dim, terms)

    def star(self) -> "QExpPoly":
        """Hermitean conjugate: coefficient-wise rho -> rho^{-1}."""
        return QExpPoly._of(self.flat._raw({k[:-1] + (-k[-1],): c for k, c in self.flat.terms.items()}))

    def __repr__(self):
        if not self.flat:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            combo = " + ".join(f"{mi}*Z{i}" for i, mi in enumerate(m) if mi)
            body = f"exp(({combo})/2)" if combo else "1"
            parts.append(f"({c}) * {body}")
        return " + ".join(parts)


def qmul(f: QExpPoly, g: QExpPoly, omega) -> QExpPoly:
    """Noncommutative product: the flat product with rho's exponent lowered by m^T omega n."""
    f._check(g)
    terms = {}
    right = g.flat.terms.items()
    for m, a in f.flat.terms.items():
        z = m[:-1]
        for n, b in right:
            key = tuple(map(add, m, n))
            k = pairing(z, n[:-1], omega)
            if k:
                key = key[:-1] + (key[-1] - k,)
            s = terms.get(key, 0) + a * b
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return QExpPoly._of(f.flat._raw(terms))


def classical_limit_commutator(f: QExpPoly, g: QExpPoly, omega) -> ExpPoly:
    """(1/(2 pi i)) d/dhbar of [f o g - g o f] at hbar = 0, exactly.

    Requires rho-free inputs; the result equals the Poisson bracket of the
    rho = 1 specializations.  Each rho^r contributes -r/8.
    """
    if not (f.is_rho_free() and g.is_rho_free()):
        raise ValueError("classical limit requires rho-independent coefficients")
    comm = qmul(f, g, omega) - qmul(g, f, omega)
    sums = {}
    for k, c in comm.flat.terms.items():
        sums[k[:-1]] = sums.get(k[:-1], 0) - k[-1] * c
    return ExpPoly(f.dim, {m: Fraction(s, 8) for m, s in sums.items()})
