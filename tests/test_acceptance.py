"""End-to-end acceptance checks: every headline identity of the package at
its stated tolerance, exercised over seeded random inputs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shearlab.exppoly import ExpPoly, LaurentPoly, QExpPoly, classical_limit_commutator, poisson_bracket
from shearlab.fatgraph import once_punctured_torus, tetrahedron
from shearlab.flips import (
    check_commutation,
    check_involution,
    check_pentagon,
    check_perimeters,
    flip,
    torus_modular_check,
)
from shearlab.geodesics import (
    TORUS_A,
    TORUS_ABINV,
    TORUS_B,
    TORUS_HOLE,
    geodesic_function,
    goldman_check,
    random_closed_path,
    rmatrix_global_check,
    rmatrix_local_check,
    skein_check,
    torus_casimir,
)
from shearlab.hyperbolic import MoebiusMap, UhpPoint, apply, distance, hyperbolic_circle
from shearlab.quantum import (
    empty_loop_constant,
    qcommutator_check,
    qdilog_check,
    qskein_decompose,
    quantum_geodesic,
)

TORUS = once_punctured_torus()
TET = tetrahedron()
OMEGA = TORUS.omega_matrix()


# 1. Trace skein relation: Tr P Tr Q = Tr(PQ) + Tr(PQ^-1), exact.


def test_acceptance_skein():
    assert skein_check(TORUS, TORUS_A, TORUS_B)["equal"]
    rng = random.Random(20260825)
    for g in (TORUS, TET):
        for _ in range(25):
            start = rng.randrange(g.n_darts)
            p = random_closed_path(g, rng, 2, 6, start=start)
            q = random_closed_path(g, rng, 2, 6, start=start)
            assert skein_check(g, p, q)["equal"], (g.sigma, p, q)


# 2. Goldman bracket, both forms, exact.


def test_acceptance_goldman():
    assert goldman_check(TORUS, TORUS_A, TORUS_B)["equal"]
    ga = geodesic_function(TORUS, TORUS_A)
    gb = geodesic_function(TORUS, TORUS_B)
    gc = geodesic_function(TORUS, TORUS_ABINV)
    assert poisson_bracket(ga, gb, OMEGA) == Fraction(1, 2) * ga * gb - gc


# 3. Hole geodesic function equals 2 cosh of half the face perimeter, exact.


def test_acceptance_hole_trace():
    hole = geodesic_function(TORUS, TORUS_HOLE)
    mult, _ = TORUS.face_perimeter(TORUS.faces()[0])
    assert mult == (2, 2, 2)
    # 2 cosh(P/2) = e^{P/2} + e^{-P/2} with P = 2(z0 + z1 + z2)
    assert hole == ExpPoly(3, {mult: 1, tuple(-m for m in mult): 1})
    rng = random.Random(3)
    for _ in range(50):
        z = [rng.uniform(-2, 2) for _ in range(3)]
        perim = 2 * sum(z)
        assert hole.evaluate(z) == pytest.approx(2 * math.cosh(perim / 2), rel=1e-12)


# 4. Casimir element: central for the Poisson bracket (exact) and invariant
#    under flips (1e-10 over 100 seeded label triples).


def test_acceptance_casimir():
    C = torus_casimir(TORUS)
    for word in (TORUS_A, TORUS_B, TORUS_ABINV, TORUS_HOLE):
        assert poisson_bracket(C, geodesic_function(TORUS, word), OMEGA).is_zero()
    rng = random.Random(4)
    worst = 0.0
    for _ in range(100):
        labels = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        before = C.evaluate(labels)
        for e in range(3):
            after_graph = flip(once_punctured_torus(labels), e).after
            worst = max(worst, abs(C.evaluate([float(x) for x in after_graph.z]) - before))
    assert worst <= 1e-10


# 5. Flip relations: involution, commutation, pentagon at 1e-12 over 100 seeds.


def test_acceptance_flip_relations():
    rng = random.Random(5)
    for _ in range(100):
        g = once_punctured_torus([rng.uniform(-2, 2) for _ in range(3)])
        assert check_involution(g, rng.randrange(3))["equal"]
        t = tetrahedron([rng.uniform(-2, 2) for _ in range(6)])
        assert check_involution(t, rng.randrange(6))["equal"]
        assert check_commutation(t, 0, 5)["equal"]
        assert check_pentagon(t, 0, 1)["equal"]


# 6. Perimeter invariance and the torus modular action at 1e-12 over 100 seeds.


def test_acceptance_perimeters_and_modular():
    rng = random.Random(6)
    for _ in range(100):
        g = once_punctured_torus([rng.uniform(-2, 2) for _ in range(3)])
        assert check_perimeters(g, rng.randrange(3))["equal"]
        t = tetrahedron([rng.uniform(-2, 2) for _ in range(6)])
        assert check_perimeters(t, rng.randrange(6))["equal"]
        rep = torus_modular_check([rng.uniform(-2, 2) for _ in range(3)])
        assert rep["equal"] and rep["residual"] <= 1e-12


# 7. R-matrix presentation of the bracket: local form at 20 sample points and
#    global trace form over 1000 matrix pairs, both at 1e-12.


def test_acceptance_rmatrix():
    rng = random.Random(7)
    for _ in range(20):
        rep = rmatrix_local_check(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert rep["equal"] and rep["residual"] <= 1e-12
    gen = np.random.default_rng(7)
    for _ in range(1000):
        rep = rmatrix_global_check(gen.normal(size=(2, 2)), gen.normal(size=(2, 2)))
        assert rep["equal"] and rep["residual"] <= 1e-12


# 8. Quantum skein relation: A o B = q^{-1/2} G_AB + q^{1/2} G_{AB^-1} with the
#    ordering correction q + q^{-1}, and the q-commutator proportionality
#    constant c(rho) reported.


def test_acceptance_quantum_skein():
    A = quantum_geodesic(TORUS, TORUS_A)
    B = quantum_geodesic(TORUS, TORUS_B)
    g_ab, rep = qskein_decompose(TORUS, A, B)
    assert rep["equal"]
    assert g_ab.coefficient((0, 1, -1)) == LaurentPoly({4: 1, -4: 1})  # q + q^{-1}
    comm = qcommutator_check(TORUS, A, B)
    assert comm["proportional"]
    assert comm["c_equals_q_minus_qinv"]
    scalar, loop = empty_loop_constant(TORUS, A)
    assert loop["equal"] and scalar.at_one() == 2


# 9. Classical limit: the hbar-derivative of the quantum commutator at 0
#    equals the Poisson bracket, exactly, for the torus pair and for 50
#    seeded monomial pairs.


def test_acceptance_classical_limit():
    A = quantum_geodesic(TORUS, TORUS_A)
    B = quantum_geodesic(TORUS, TORUS_B)
    limit = classical_limit_commutator(A.operator, B.operator, OMEGA)
    bracket = poisson_bracket(A.operator.at_rho_one(), B.operator.at_rho_one(), OMEGA)
    assert limit == bracket and not limit.is_zero()
    rng = random.Random(9)
    for _ in range(50):
        m = tuple(rng.randint(-3, 3) for _ in range(3))
        n = tuple(rng.randint(-3, 3) for _ in range(3))
        f = ExpPoly.monomial(m, Fraction(rng.randint(1, 5)))
        g = ExpPoly.monomial(n, Fraction(rng.randint(1, 5)))
        qf, qg = QExpPoly.from_classical(f), QExpPoly.from_classical(g)
        assert classical_limit_commutator(qf, qg, OMEGA) == poisson_bracket(f, g, OMEGA)


# 10. Quantum dilogarithm identities at their stated numerical tolerances.


def test_acceptance_qdilog_difference():
    for hbar in (0.1, 0.5, 1.0):
        for k in range(-6, 7):
            rep = qdilog_check("difference", 0.5 * k, hbar)
            assert rep["residual"] <= 1e-8


def test_acceptance_qdilog_quasiperiodicity():
    for k in range(10):
        rep = qdilog_check("quasi1", -2.0 + 0.45 * k, 0.4)
        assert rep["residual"] <= 1e-6


def test_acceptance_qdilog_semiclassical():
    for k in range(9):
        rep = qdilog_check("semiclassical", -2.0 + 0.5 * k, 0.01)
        assert rep["residual"] <= 5e-3


# 11. Hyperbolic geometry: fixed points of the worked example, the boundary
#     action of the B-word holonomy over 100 seeded label pairs, and the
#     hyperbolic-circle identity for radii in (0, 3].


def test_acceptance_hyperbolic_fixed_points():
    lo, hi = MoebiusMap(2, 2, Fraction(1, 2), 1).fixed_points()
    assert abs(float(lo.x) - (1 - math.sqrt(5))) <= 1e-12
    assert abs(float(hi.x) - (1 + math.sqrt(5))) <= 1e-12


def _word_matrix_b(z0: float, z1: float) -> MoebiusMap:
    # R X_{z1} L X_{z0} evaluated over the reals
    def X(z):
        return np.array([[0.0, -math.exp(z / 2)], [math.exp(-z / 2), 0.0]])

    L = np.array([[0.0, 1.0], [-1.0, -1.0]])
    R = np.array([[1.0, 1.0], [-1.0, 0.0]])
    m = R @ X(z1) @ L @ X(z0)
    return MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def test_acceptance_holonomy_boundary_action():
    rng = random.Random(11)
    for _ in range(100):
        z0, z1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        m = _word_matrix_b(z0, z1)
        img0 = apply(m, UhpPoint.boundary(0.0))
        assert abs(float(img0.x) + 1.0) <= 1e-9
        img1 = apply(m, UhpPoint.boundary(math.exp(z0)))
        assert img1.at_infinity or abs(float(img1.x)) >= 1e9
        img2 = apply(m, UhpPoint.infinity())
        assert abs(float(img2.x) + 1.0 + math.exp(-z1)) <= 1e-9


def test_acceptance_hyperbolic_circle_identity():
    rng = random.Random(12)
    for _ in range(100):
        delta = rng.uniform(1e-3, 3.0)
        center = UhpPoint.interior(rng.uniform(-2, 2), rng.uniform(0.3, 3))
        c, r = hyperbolic_circle(center, delta)
        for theta in (0.3, 1.2, 2.0, 2.9, 4.1, 5.5):
            p = c.as_complex() + r * complex(math.cos(theta), math.sin(theta))
            if p.imag <= 0:
                continue
            point = UhpPoint.interior(p.real, p.imag)
            assert abs(distance(center, point) - delta) <= 1e-9
