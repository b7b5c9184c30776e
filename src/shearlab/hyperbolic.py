"""Upper half-plane model: Moebius actions, classification, lengths, distance.

Matrices act by z -> (az+b)/(cz+d) with ad - bc = 1; (a,b,c,d) and its
negative are the same map.  Entries may be exact rationals (ints/Fractions)
or floats.  Every comparison (``classify``, ``==``, fixed points, ``apply``)
uses one rule, ``_tol``: tolerance 0 for exact quantities, 1e-12 for floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .fatgraph import short_repr

_TOL = 1e-12


class HyperbolicError(ValueError):
    pass


@dataclass(frozen=True)
class UhpPoint:
    """Interior point (y > 0), finite boundary point (y = 0) or infinity."""

    x: object = 0
    y: object = 0
    at_infinity: bool = False

    @classmethod
    def interior(cls, x, y) -> "UhpPoint":
        x, y = _real(x), _real(y)
        for v in (x, y):
            if not (_is_exact(v) or math.isfinite(v)):
                raise HyperbolicError(f"interior point needs finite coordinates, got {short_repr(v)}")
        if not y > 0:
            raise HyperbolicError(f"interior point needs y > 0, got y = {y}")
        return cls(x, y)

    @classmethod
    def boundary(cls, x) -> "UhpPoint":
        """The boundary point x; +-inf is ``infinity()`` and NaN is refused."""
        x = _real(x)
        if x != x:
            raise HyperbolicError("boundary point needs a coordinate that is not NaN")
        return cls(x, 0) if _is_exact(x) or math.isfinite(x) else cls.infinity()

    @classmethod
    def infinity(cls) -> "UhpPoint":
        return cls(0, 0, True)

    @property
    def is_interior(self) -> bool:
        return not self.at_infinity and self.y > 0

    def as_complex(self) -> complex:
        if self.at_infinity:
            raise HyperbolicError("infinity has no complex value")
        return complex(self.x) + 1j * complex(self.y)

    def close_to(self, other: "UhpPoint", tol: float = _TOL) -> bool:
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        return abs(float(self.x) - float(other.x)) <= tol and abs(float(self.y) - float(other.y)) <= tol

    def __repr__(self):
        if self.at_infinity:
            return "UhpPoint(oo)"
        if self.y == 0:
            return f"UhpPoint({self.x})"
        return f"UhpPoint({self.x} + {self.y}i)"


def _real(v):
    """The input rule of every map entry and point coordinate: a real, no bool; int and Fraction stay exact."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise HyperbolicError(f"expected a real number that is not a bool, got {short_repr(v)}")
    return v if _is_exact(v) else float(v)


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _tol(x):
    """The comparison tolerance of a quantity: 0 if it is exact (int or Fraction), 1e-12 if it is a float."""
    return 0 if _is_exact(x) else _TOL


def _boundary(num, den) -> UhpPoint:
    """The boundary point num / den, divided exactly and rounded once to a float; infinity beyond the float range."""
    try:
        return UhpPoint.boundary(float(Fraction(num) / Fraction(den)))
    except OverflowError:
        return UhpPoint.infinity()


def _float(x) -> float:
    """``float(x)`` for an entry of a float map; an exact entry too large for a float raises ``HyperbolicError``."""
    try:
        return float(x)
    except OverflowError:
        raise HyperbolicError(f"entry {short_repr(x)} is too large for a float map") from None


def _sqrt(x: Fraction) -> Fraction:
    """A rational within a relative 2**-64 of the root of a rational ``x > 0``: ``isqrt`` of ``x d**2 4**k``."""
    n, d = x.numerator, x.denominator
    k = max(0, 65 - (n * d).bit_length() // 2)  # so the isqrt is at least 2**64
    return Fraction(math.isqrt(n * d << 2 * k), d << k)


def _past_float(*values) -> HyperbolicError:
    """The refusal of a float step that overflowed on exact input: it names the largest of the ``values`` it read."""
    return HyperbolicError(f"entry {short_repr(max(values, key=abs))} is past the float range")


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class MoebiusMap:
    """Immutable real 2x2 determinant-one matrix modulo global sign; unhashable, as its ``==`` is tolerant."""

    a: object
    b: object
    c: object
    d: object

    def __init__(self, a, b, c, d):
        a, b, c, d = (_real(x) for x in (a, b, c, d))
        exact = all(_is_exact(x) for x in (a, b, c, d))
        if exact:
            a, b, c, d = (Fraction(x) for x in (a, b, c, d))
            det = a * d - b * c
            if det != 1:
                raise HyperbolicError(f"determinant is {det}, expected 1")
        else:
            a, b, c, d = (_float(x) for x in (a, b, c, d))
            det = a * d - b * c
            if not math.isfinite(det):  # a non-finite entry leaves det inf or nan, so this refuses it too
                raise HyperbolicError(f"entries {[a, b, c, d]} or their determinant {det} are not finite")
            if abs(det - 1.0) > _TOL:
                if det <= 0:
                    raise HyperbolicError(f"determinant {det} is not positive")
                s = math.sqrt(det)
                a, b, c, d = a / s, b / s, c / s, d / s
        # canonical representative of the +/- pair: first nonzero entry positive
        for x in (a, b, c, d):
            if x != 0:
                if x < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        for name, x in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, x)

    @property
    def trace(self):
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        """Entry-wise, with the tolerance ``classify`` uses: 0 when both maps are exact, else 1e-12."""
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        tol = max(_tol(self.a), _tol(other.a))
        return all(abs(x - y) <= tol for x, y in zip(self.entries(), other.entries()))

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return f"MoebiusMap([[{self.a}, {self.b}], [{self.c}, {self.d}]])"

    # -- classification ----------------------------------------------------

    def classify(self) -> str:
        tol = _tol(self.a)
        a, b, c, d = self.entries()
        if abs(b) <= tol and abs(c) <= tol and abs(a - d) <= tol:
            return "identity"
        disc = self.trace * self.trace - 4
        if disc > tol:
            return "hyperbolic"
        if disc < -tol:
            return "elliptic"
        return "parabolic"

    def fixed_points(self):
        """Boundary fixed points (z_minus, z_plus) = ((a - d -+ root) / 2c); parabolic maps repeat one.

        With s = a - d + sgn(a - d) root they are s / 2c and -2b / s (Vieta), so neither cancels.
        Each point is computed from the entries taken exactly (a float is an exact binary fraction), the
        root within a relative 2**-64, and rounded once; one beyond the float range is infinity.
        """
        kind = self.classify()
        if kind == "elliptic":
            raise HyperbolicError("elliptic maps have no fixed points on the absolute")
        if kind == "identity":
            raise HyperbolicError("identity fixes every point")
        tiny_c = abs(self.c) <= _tol(self.c)
        a, b, c, d = map(Fraction, self.entries())
        if tiny_c:
            if kind == "parabolic":
                return UhpPoint.infinity(), UhpPoint.infinity()
            return UhpPoint.infinity(), _boundary(b, d - a)
        if kind == "parabolic":
            return (_boundary(a - d, 2 * c),) * 2
        root = _sqrt((a + d) ** 2 - 4)
        s = a - d + root if a >= d else a - d - root
        far, near = _boundary(s, 2 * c), _boundary(-2 * b, s)
        return (near, far) if s > 0 else (far, near)

    def translation_length(self) -> float:
        """Geodesic translation length l with |Tr| = 2 cosh(l/2), from the entries taken exactly and rounded once."""
        if self.classify() != "hyperbolic":
            raise HyperbolicError("translation length requires a hyperbolic map")
        y = abs(Fraction(self.a) + Fraction(self.d)) / 2
        t = y - 1 + _sqrt(y * y - 1)  # l/2 = acosh(y) = log1p(t), and neither term of t cancels the other
        k = max(0, t.numerator.bit_length() - t.denominator.bit_length() - 1000)  # (1 + t) / 2**k fits a float
        return 2.0 * (math.log((1 + t) / (1 << k)) + k * math.log(2) if k else math.log1p(t))


def apply(m: MoebiusMap, z: UhpPoint) -> UhpPoint:
    """``m`` applied to ``z``; exact where the map and the point are, else in floats.

    An exact entry or coordinate too large for a float step raises ``HyperbolicError`` naming it.
    """
    a, b, c, d = m.entries()
    if z.at_infinity:
        if abs(c) <= _tol(c):
            return UhpPoint.infinity()
        return UhpPoint.boundary(a / c)
    try:
        if z.is_interior:
            fa, fb, fc, fd = (float(x) for x in (a, b, c, d))
            w = (fa * z.as_complex() + fb) / (fc * z.as_complex() + fd)
            return UhpPoint.interior(w.real, w.imag)
        num, den = a * z.x + b, c * z.x + d
    except OverflowError:
        raise _past_float(a, b, c, d, z.x, z.y) from None
    if abs(den) <= _tol(den):
        return UhpPoint.infinity()
    return UhpPoint.boundary(num / den)


def distance(z: UhpPoint, w: UhpPoint) -> float:
    """rho(z, w) = ln((|z - conj w| + |z - w|) / (|z - conj w| - |z - w|))."""
    if not (z.is_interior and w.is_interior):
        raise HyperbolicError("distance requires two interior points")
    zz, ww = z.as_complex(), w.as_complex()
    num = abs(zz - ww.conjugate()) + abs(zz - ww)
    den = abs(zz - ww.conjugate()) - abs(zz - ww)
    return math.log(num / den)


def hyperbolic_circle(center: UhpPoint, radius: float):
    """Euclidean (center, radius) of the hyperbolic circle around an interior point."""
    if not center.is_interior:
        raise HyperbolicError("hyperbolic circle needs an interior center")
    if not radius > 0:
        raise HyperbolicError("radius must be positive")
    x0, y0 = float(center.x), float(center.y)
    return (
        UhpPoint.interior(x0, y0 * math.cosh(radius)),
        y0 * math.sinh(radius),
    )
