import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from shearlab.fatgraph import short_repr
from shearlab.hyperbolic import (
    HyperbolicError,
    MoebiusMap,
    UhpPoint,
    apply,
    distance,
    hyperbolic_circle,
)

TOL = 1e-12


def random_unimodular(rng) -> MoebiusMap:
    """Random determinant-one matrix from gaussian entries."""
    while True:
        a = rng.gauss(0.0, 1.0)
        b = rng.gauss(0.0, 1.0)
        c = rng.gauss(0.0, 1.0)
        if abs(a) > 0.1:
            return MoebiusMap(a, b, c, (1.0 + b * c) / a)


def random_hyperbolic(rng) -> MoebiusMap:
    """Random hyperbolic map: conjugated diag(lambda, 1/lambda), lambda > 1."""
    lam = math.exp(rng.uniform(0.2, 2.0))
    g = random_unimodular(rng)
    diag = MoebiusMap(lam, 0.0, 0.0, 1.0 / lam)
    return g @ diag @ g.inverse()


def test_apply_unit_translation():
    m = MoebiusMap(1, 1, 0, 1)
    w = apply(m, UhpPoint.interior(0, 1))
    assert w.close_to(UhpPoint.interior(1, 1))


def test_apply_inversion_fixes_i():
    m = MoebiusMap(0, 1, -1, 0)
    assert apply(m, UhpPoint.interior(0, 1)).close_to(UhpPoint.interior(0, 1))


def test_classify_examples():
    assert MoebiusMap(1, 1, 0, 1).classify() == "parabolic"
    assert MoebiusMap(2, 2, Fraction(1, 2), 1).classify() == "hyperbolic"
    assert MoebiusMap(0, 1, -1, 0).classify() == "elliptic"
    assert MoebiusMap(1, 0, 0, 1).classify() == "identity"
    assert MoebiusMap(-1, 0, 0, -1).classify() == "identity"


def test_classify_sign_invariance():
    rng = random.Random(11)
    for _ in range(50):
        m = random_unimodular(rng)
        a, b, c, d = (float(x) for x in m.entries())
        assert MoebiusMap(-a, -b, -c, -d).classify() == m.classify()


def test_fixed_points_hyperbolic_example():
    m = MoebiusMap(2, 2, Fraction(1, 2), 1)
    lo, hi = m.fixed_points()
    assert abs(float(lo.x) - (1 - math.sqrt(5))) <= TOL
    assert abs(float(hi.x) - (1 + math.sqrt(5))) <= TOL


def test_fixed_points_upper_triangular():
    lo, hi = MoebiusMap(2, 1, 0, Fraction(1, 2)).fixed_points()
    assert lo.at_infinity
    assert abs(float(hi.x) + Fraction(2, 3)) <= TOL


def test_fixed_points_parabolic_double():
    lo, hi = MoebiusMap(1, 1, 0, 1).fixed_points()
    assert lo.at_infinity and hi.at_infinity


def test_fixed_points_elliptic_error():
    with pytest.raises(HyperbolicError):
        MoebiusMap(0, 1, -1, 0).fixed_points()


def test_classify_exact_maps_use_tolerance_zero():
    near = MoebiusMap(1, 0, Fraction(1, 10**13), 1)
    assert near.classify() == "parabolic"
    assert MoebiusMap(*map(float, near.entries())).classify() == "identity"
    # trace 2 exactly, off the identity: disc == 0
    assert MoebiusMap(3, -2, 2, -1).classify() == "parabolic"
    assert MoebiusMap(3.0, -2.0, 2.0, -1.0).classify() == "parabolic"


def test_equality_uses_the_classify_tolerance():
    near, one = MoebiusMap(1, 0, Fraction(1, 10**13), 1), MoebiusMap(1, 0, 0, 1)
    # exact maps that classify differently are different maps
    assert near != one and near == MoebiusMap(1, 0, Fraction(1, 10**13), 1)
    # a float map on either side brings the float tolerance back
    assert MoebiusMap(1.0, 0.0, 1e-13, 1.0) == one
    assert near == MoebiusMap(1.0, 0.0, 0.0, 1.0)


def _float_copy(m):
    return MoebiusMap(*map(float, m.entries()))


def test_exact_maps_and_their_float_copies_compare_by_one_rule():
    # classify, ==, fixed points and both apply sites: tolerance 0 for exact quantities, 1e-12 for floats
    oo, eps = UhpPoint.infinity(), Fraction(1, 10**13)
    near = MoebiusMap(1, 0, eps, 1)
    assert near.classify() == "parabolic" and _float_copy(near).classify() == "identity"
    assert near.fixed_points() == (UhpPoint.boundary(0.0),) * 2
    with pytest.raises(HyperbolicError, match="identity fixes every point"):
        _float_copy(near).fixed_points()
    assert apply(near, oo) == UhpPoint.boundary(10**13) and apply(_float_copy(near), oo).at_infinity

    tiny_c = MoebiusMap(2, 0, eps, Fraction(1, 2))
    assert tiny_c.fixed_points() == (UhpPoint.boundary(0.0), UhpPoint.boundary(1.5e13))
    assert _float_copy(tiny_c).fixed_points() == (oo, UhpPoint.boundary(0.0))

    pole = MoebiusMap(1, 0, 1, 1)  # sends -1 to infinity
    x = apply(pole, UhpPoint.boundary(-1 + eps))
    assert not x.at_infinity and x.x == -(10**13) + 1
    assert apply(pole, UhpPoint.boundary(float(-1 + eps))).at_infinity
    assert apply(_float_copy(pole), UhpPoint.boundary(-1 + eps)).at_infinity
    assert apply(_float_copy(pole), UhpPoint.boundary(float(-1 + eps))).at_infinity

    one = MoebiusMap(1, 0, 0, 1)
    assert MoebiusMap(1, eps, 0, 1) != one
    assert MoebiusMap(1.0, 1e-13, 0.0, 1.0) == one


def test_translation_length():
    e = math.e
    assert abs(MoebiusMap(e, 0.0, 0.0, 1 / e).translation_length() - 2.0) <= TOL
    m = MoebiusMap(2, 2, Fraction(1, 2), 1)
    assert abs(m.translation_length() - 2 * math.log((3 + math.sqrt(5)) / 2)) <= TOL
    with pytest.raises(HyperbolicError):
        MoebiusMap(1, 1, 0, 1).translation_length()


def test_trace_length_relation():
    rng = random.Random(5)
    for _ in range(100):
        m = random_hyperbolic(rng)
        ell = m.translation_length()
        assert abs(abs(float(m.trace)) - 2 * math.cosh(ell / 2)) <= 1e-9


def test_translation_length_matches_the_log_formula():
    rng = random.Random(11)
    for _ in range(200):
        m = random_hyperbolic(rng)
        t = abs(float(m.trace))
        assert abs(m.translation_length() - 2 * math.log((t + math.sqrt(t * t - 4)) / 2)) <= 1e-12


def test_distance_basic():
    i = UhpPoint.interior(0, 1)
    assert distance(i, i) == 0.0
    assert abs(distance(i, UhpPoint.interior(0, 2)) - math.log(2)) <= TOL


def test_distance_sinh_identity():
    z, w = UhpPoint.interior(0, 1), UhpPoint.interior(1, 1)
    rho = distance(z, w)
    lhs = math.sinh(rho / 2) ** 2
    rhs = abs(z.as_complex() - w.as_complex()) ** 2 / (4 * float(z.y) * float(w.y))
    assert abs(lhs - rhs) <= TOL


def test_distance_boundary_error():
    with pytest.raises(HyperbolicError):
        distance(UhpPoint.interior(0, 1), UhpPoint.boundary(0))


def test_distance_isometry():
    rng = random.Random(17)
    for _ in range(100):
        g = random_unimodular(rng)
        z = UhpPoint.interior(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        w = UhpPoint.interior(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert abs(distance(apply(g, z), apply(g, w)) - distance(z, w)) <= 1e-10


def test_conjugation_invariant_length():
    rng = random.Random(23)
    for _ in range(100):
        m = random_hyperbolic(rng)
        g = random_unimodular(rng)
        conj = g @ m @ g.inverse()
        assert abs(conj.translation_length() - m.translation_length()) <= 1e-9


def test_fixed_points_are_fixed():
    rng = random.Random(29)
    for _ in range(1000):
        m = random_hyperbolic(rng)
        for fp in m.fixed_points():
            out = apply(m, fp)
            if fp.at_infinity:
                assert out.at_infinity
            else:
                assert abs(float(out.x) - float(fp.x)) <= 1e-8 * max(1.0, abs(float(fp.x)))


@dataclass(frozen=True)
class GeodesicArc:
    """Vertical half-line (center = x-intercept, radius = None) or semicircle."""

    center: float
    radius: float | None = None

    @property
    def vertical(self) -> bool:
        return self.radius is None

    def contains(self, z: UhpPoint) -> bool:
        if z.at_infinity:
            return self.vertical
        if self.vertical:
            return abs(float(z.x) - self.center) <= TOL
        return abs(abs(z.as_complex() - self.center) - self.radius) <= TOL


def geodesic_through(z: UhpPoint, w: UhpPoint) -> GeodesicArc:
    """The geodesic through two distinct points of the closed upper half-plane."""
    if z.close_to(w, 0.0):
        raise HyperbolicError("geodesic through coincident points is undefined")
    if z.at_infinity or w.at_infinity:
        other = w if z.at_infinity else z
        return GeodesicArc(float(other.x))
    zx, zy = float(z.x), float(z.y)
    wx, wy = float(w.x), float(w.y)
    if abs(zx - wx) <= TOL:
        return GeodesicArc(zx)
    # |z - c|^2 = |w - c|^2 with real c
    c = (zx * zx + zy * zy - wx * wx - wy * wy) / (2.0 * (zx - wx))
    return GeodesicArc(c, math.hypot(zx - c, zy))


def test_geodesic_through():
    arc = geodesic_through(UhpPoint.interior(0, 1), UhpPoint.interior(0, 2))
    assert arc.vertical and arc.center == 0.0
    arc = geodesic_through(UhpPoint.boundary(-1), UhpPoint.boundary(1))
    assert not arc.vertical and abs(arc.center) <= TOL and abs(arc.radius - 1) <= TOL
    arc = geodesic_through(UhpPoint.interior(0, 1), UhpPoint.interior(1, 2))
    assert abs(arc.center - 2) <= TOL and abs(arc.radius - math.sqrt(5)) <= TOL
    assert arc.contains(UhpPoint.interior(0, 1)) and arc.contains(UhpPoint.interior(1, 2))
    with pytest.raises(HyperbolicError):
        geodesic_through(UhpPoint.interior(0, 1), UhpPoint.interior(0, 1))


def test_hyperbolic_circle():
    c, r = hyperbolic_circle(UhpPoint.interior(0, 1), 1.0)
    assert c.close_to(UhpPoint.interior(0, math.cosh(1)))
    assert abs(r - math.sinh(1)) <= TOL
    c, r = hyperbolic_circle(UhpPoint.interior(2, 3), 1.0)
    assert c.close_to(UhpPoint.interior(2, 3 * math.cosh(1)))
    assert abs(r - 3 * math.sinh(1)) <= TOL
    # degenerate limit
    c, r = hyperbolic_circle(UhpPoint.interior(0, 1), 1e-9)
    assert c.close_to(UhpPoint.interior(0, 1), 1e-8) and r <= 2e-9


def test_determinant_enforced():
    with pytest.raises(HyperbolicError):
        MoebiusMap(1, 0, 0, 2)


@pytest.mark.parametrize(
    "entries",
    [(math.nan, 0, 0, 1), (math.inf, 0, 0, 1), (1.0, 0.0, -math.inf, 1.0), (1e200, 0.0, 0.0, 1e200)],
    ids=["nan-entry", "inf-entry", "minus-inf-entry", "overflowing-determinant"],
)
def test_a_non_finite_map_is_refused(entries):
    with pytest.raises(HyperbolicError, match="not finite"):
        MoebiusMap(*entries)


@pytest.mark.parametrize(
    "x, y",
    [(math.nan, 1), (math.inf, 1), (-math.inf, 1.0), (0, math.nan), (0.5, math.inf), (0, -math.inf)],
    ids=["nan-x", "inf-x", "minus-inf-x", "nan-y", "inf-y", "minus-inf-y"],
)
def test_a_non_finite_interior_point_is_refused(x, y):
    with pytest.raises(HyperbolicError, match="finite coordinates"):
        UhpPoint.interior(x, y)


def test_exact_interior_coordinates_of_any_size_are_kept():
    p = UhpPoint.interior(10**400, Fraction(1, 3))
    assert p.x == 10**400 and p.y == Fraction(1, 3) and p.is_interior


@pytest.mark.parametrize(
    "entries",
    [(10**400, 0, 0, 1.0), (1.0, 0, Fraction(-(10**400), 3), 1), (1.0, 10**309, 0, 1.0)],
    ids=["huge-int", "huge-fraction", "just-past-float"],
)
def test_an_entry_too_large_for_a_float_map_is_refused(entries):
    with pytest.raises(HyperbolicError, match=r"too large for a float map") as info:
        MoebiusMap(*entries)
    assert len(str(info.value)) < 120  # the entry is shown through short_repr


@pytest.mark.parametrize(
    "m, want",
    [
        (MoebiusMap(1, 0, Fraction(1, 10**13), 1), (0.0, 0.0)),
        (MoebiusMap(2, 0, Fraction(1, 10**13), Fraction(1, 2)), (0.0, 1.5e13)),
        (MoebiusMap(1, Fraction(1, 10**13), 0, 1), (math.inf, math.inf)),  # exactly upper triangular
        (MoebiusMap(2, 1, Fraction(1, 10**20), Fraction(10**20 + 1, 2 * 10**20)), (-2 / 3, 1.5e20)),
        (MoebiusMap(1, 0, Fraction(1, 10**400), 1), (0.0, 0.0)),
        (MoebiusMap(2, 1, Fraction(1, 10**400), Fraction(10**400 + 1, 2 * 10**400)), (-2 / 3, math.inf)),
    ],
    ids=["parabolic", "hyperbolic", "triangular", "hyperbolic_b", "parabolic_underflow", "hyperbolic_underflow"],
)
def test_exact_fixed_points_with_a_tiny_c_are_fixed(m, want):
    # b != 0 is where a - d - root cancels; c = 10**-400 is 0.0 as a float,
    # and a fixed point beyond the float range is infinity
    points = m.fixed_points()
    assert [math.inf if p.at_infinity else p.x for p in points] == pytest.approx(want, rel=1e-12)
    for p in points:
        out = apply(m, p)
        if p.at_infinity:
            assert out.at_infinity or abs(out.x) > sys.float_info.max
        else:
            assert out.x == pytest.approx(p.x, rel=1e-12, abs=TOL)


def test_fixed_points_are_fixed_with_a_tiny_exact_c():
    rng = random.Random(31)
    for _ in range(200):
        a = Fraction(rng.randint(2, 50), rng.randint(1, 7))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
        c = Fraction(rng.choice((1, -1)), 10 ** rng.randint(10, 30))
        m = MoebiusMap(a, b, c, (1 + b * c) / a)
        if m.classify() != "hyperbolic":
            continue
        for p in m.fixed_points():
            assert apply(m, p).x == pytest.approx(p.x, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "eps, root", [(Fraction(1, 10**20), math.sqrt(2) * 1e-10), (Fraction(1, 10**400), math.sqrt(2) * 1e-200)],
    ids=["1e-20", "1e-400"],
)
def test_a_map_near_the_parabolic_edge_has_its_length_and_fixed_points(eps, root):
    # a = d = 1 + eps: trace 2 + 2 eps, discriminant 8 eps + 4 eps^2, which rounds to 0.0 at 1e-400; the fixed
    # points -+ sqrt(2 eps + eps^2) and the length 2 acosh(1 + eps) are -+ root and 2 root to a relative O(eps)
    m = MoebiusMap(1 + eps, 2 * eps + eps * eps, 1, 1 + eps)
    assert m.classify() == "hyperbolic"
    assert [p.x for p in m.fixed_points()] == pytest.approx([-root, root], rel=1e-15)
    assert m.translation_length() == pytest.approx(2 * root, rel=1e-15)


_HUGE = "^entry " + re.escape(short_repr(Fraction(10**400))) + " is past the float range$"


@pytest.mark.parametrize(
    "step",
    [
        lambda: apply(MoebiusMap(1, 0, 10**400, 1), UhpPoint.boundary(0.5)),
        lambda: apply(MoebiusMap(1, 0, 10**400, 1), UhpPoint.interior(0, 1)),
    ],
    ids=["apply-boundary", "apply-interior"],
)
def test_a_float_step_past_the_float_range_names_the_entry(step):
    with pytest.raises(HyperbolicError, match=_HUGE):
        step()


@pytest.mark.parametrize(
    "step, want",
    [
        # 2 acosh(|tr| / 2) = 2 log(10**400) to within 10**-800
        (lambda: MoebiusMap(10**400, 0, 0, Fraction(1, 10**400)).translation_length(), 800 * math.log(10)),
        # the fixed points are 0 and 10**400 - 10**-400, past the float range
        (lambda: MoebiusMap(10**400, 0, 1, Fraction(1, 10**400)).fixed_points(), (0.0, math.inf)),
    ],
    ids=["translation-length", "fixed-points"],
)
def test_a_huge_exact_entry_gives_its_exact_value_rounded(step, want):
    got = step()
    if isinstance(got, tuple):
        got = tuple(math.inf if p.at_infinity else p.x for p in got)
    assert got == pytest.approx(want, rel=1e-15)


def test_a_map_is_immutable_and_unhashable():
    m = MoebiusMap(2, 0, 0, 0.5)
    with pytest.raises(AttributeError):
        m.a = 7  # would leave determinant 3.5
    assert m.entries() == (2.0, 0.0, 0.0, 0.5) and m == MoebiusMap(4.0, 0, 0, 1.0)
    with pytest.raises(TypeError):
        hash(m)


def test_exact_steps_on_huge_entries_stay_exact():
    m = MoebiusMap(1, 0, 10**400, 1)
    assert apply(m, UhpPoint.boundary(Fraction(1, 2))) == UhpPoint.boundary(Fraction(1, 10**400 + 2))
    assert apply(m, UhpPoint.infinity()) == UhpPoint.boundary(Fraction(1, 10**400))
    assert apply(m, UhpPoint.boundary(-Fraction(1, 10**400))).at_infinity
    # a float step on small entries of a map with a huge one still runs
    assert MoebiusMap(2, 10**400, Fraction(1, 10**400), 1).translation_length() == 2.0 * math.acosh(1.5)


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: MoebiusMap("1", 0, 0, "1"), "'1'"),
        (lambda: MoebiusMap(True, 0, 0, True), "True"),
        (lambda: MoebiusMap(None, 0, 0, 1), "None"),
        (lambda: MoebiusMap(1.0, 0, 0, 1j), "1j"),
        (lambda: UhpPoint.interior(True, 1), "True"),
        (lambda: UhpPoint.interior("a", 1), "'a'"),
        (lambda: UhpPoint.interior(0, [1]), "[1]"),
        (lambda: UhpPoint.boundary("0.5"), "'0.5'"),
        (lambda: UhpPoint.boundary(False), "False"),
    ],
    ids=["str-entry", "bool-entry", "none-entry", "complex-entry", "bool-x", "str-x", "list-y", "str-boundary",
         "bool-boundary"],
)
def test_an_entry_or_coordinate_that_is_not_a_real_number_is_refused(make, named):
    with pytest.raises(HyperbolicError, match=f"^expected a real number that is not a bool, got {re.escape(named)}$"):
        make()


def test_real_inputs_stay_exact_or_become_floats():
    assert UhpPoint.boundary(Fraction(1, 3)).x == Fraction(1, 3) and UhpPoint.interior(2, 10**400).y == 10**400
    p = UhpPoint.interior(np.float64(0.5), np.int64(2))
    assert type(p.x) is float and type(p.y) is float and p == UhpPoint.interior(0.5, 2.0)
    m = MoebiusMap(np.int64(1), 0, 0, 1)  # a numpy int is not exact: the map is a float map
    assert all(type(x) is float for x in m.entries()) and m.classify() == "identity"
    assert all(type(x) is Fraction for x in MoebiusMap(1, 0, 0, 1).entries())


def test_a_nan_boundary_point_is_refused():
    with pytest.raises(HyperbolicError, match="^boundary point needs a coordinate that is not NaN$"):
        UhpPoint.boundary(math.nan)


@pytest.mark.parametrize("x", [math.inf, -math.inf, np.float64(math.inf)], ids=["inf", "minus-inf", "numpy-inf"])
def test_an_infinite_boundary_point_is_infinity(x):
    p = UhpPoint.boundary(x)
    assert p == UhpPoint.infinity() and p.at_infinity
    assert apply(MoebiusMap(1.0, 0, 0, 1.0), p).at_infinity
    assert apply(MoebiusMap(0, 1, -1, 0), p) == UhpPoint.boundary(0)


def test_interior_and_point_refusals():
    with pytest.raises(HyperbolicError, match=r"^interior point needs y > 0, got y = 0$"):
        UhpPoint.interior(1, 0)
    with pytest.raises(HyperbolicError, match=r"^interior point needs y > 0, got y = -0.5$"):
        UhpPoint.interior(1, -0.5)
    with pytest.raises(HyperbolicError, match="^infinity has no complex value$"):
        UhpPoint.infinity().as_complex()


def test_a_float_map_with_a_non_positive_determinant_is_refused():
    for entries in ((0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, -2.0), (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(HyperbolicError, match=r"^determinant -?[\d.]+ is not positive$"):
            MoebiusMap(*entries)


def test_hyperbolic_circle_refusals():
    with pytest.raises(HyperbolicError, match="^hyperbolic circle needs an interior center$"):
        hyperbolic_circle(UhpPoint.boundary(0.5), 1.0)
    with pytest.raises(HyperbolicError, match="^hyperbolic circle needs an interior center$"):
        hyperbolic_circle(UhpPoint.infinity(), 1.0)
    for radius in (0, -1.0, math.nan):
        with pytest.raises(HyperbolicError, match="^radius must be positive$"):
            hyperbolic_circle(UhpPoint.interior(0, 1), radius)


def test_point_repr_and_closeness_at_infinity():
    oo = UhpPoint.infinity()
    assert [repr(p) for p in (oo, UhpPoint.boundary(Fraction(1, 3)), UhpPoint.interior(0.5, 2))] == [
        "UhpPoint(oo)",
        "UhpPoint(1/3)",
        "UhpPoint(0.5 + 2i)",
    ]
    assert oo.close_to(UhpPoint.infinity())
    assert not oo.close_to(UhpPoint.boundary(0)) and not UhpPoint.boundary(0).close_to(oo)


def test_a_map_is_never_equal_to_a_foreign_operand():
    one = MoebiusMap(1, 0, 0, 1)
    assert one.__eq__((1, 0, 0, 1)) is NotImplemented
    assert one != (1, 0, 0, 1) and one != 1 and one != "identity"
