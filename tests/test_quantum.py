import pytest

from shearlab.exppoly import LaurentPoly, QExpPoly, qmul
from shearlab.fatgraph import once_punctured_torus, tetrahedron
from shearlab.geodesics import TORUS_A, TORUS_ABINV, TORUS_B, geodesic_function
from shearlab.quantum import (
    QuantumError,
    empty_loop_constant,
    qcommutator_check,
    qskein_decompose,
    quantum_centrality_check,
    quantum_geodesic,
)

TORUS = once_punctured_torus()
A = quantum_geodesic(TORUS, TORUS_A)
B = quantum_geodesic(TORUS, TORUS_B)
OMEGA = TORUS.omega_matrix()


def test_quantum_geodesic_is_weyl():
    assert A.operator.is_rho_free()
    assert A.operator.star() == A.operator
    assert A.operator.at_rho_one() == geodesic_function(TORUS, TORUS_A)


def test_quantum_geodesic_rejects_nonsimple():
    with pytest.raises(QuantumError):
        quantum_geodesic(TORUS, (0, 5, 0, 3))


def test_uv_commutation():
    # e^{Z0/2} e^{Z1/2} = q e^{Z1/2} e^{Z0/2} since omega[0][1] = 2
    u = QExpPoly.monomial((1, 0, 0))
    v = QExpPoly.monomial((0, 1, 0))
    uv = qmul(u, v, OMEGA)
    vu = qmul(v, u, OMEGA)
    assert uv == vu.scale(LaurentPoly.rho_power(-4))


def test_qskein_decomposition():
    g_ab, rep = qskein_decompose(TORUS, A, B)
    assert rep["equal"] and rep["star_fixed"] and rep["classical_match"]
    # the only ordering correction: classical coefficient 2 -> q + q^{-1}
    assert list(rep["ordering_corrections"]) == ["[0, 1, -1]"]
    assert g_ab.coefficient((0, 1, -1)) == LaurentPoly({4: 1, -4: 1})
    # all other coefficients stay rho-free
    for m, c in g_ab.terms.items():
        if m != (0, 1, -1):
            assert c.is_scalar_multiple_of_one()


def test_qskein_reconstruction():
    # A o B = q^{-1/2} G_AB + q^{1/2} Weyl(AB^-1)
    g_ab, _ = qskein_decompose(TORUS, A, B)
    ab = qmul(A.operator, B.operator, OMEGA)
    weyl_abinv = quantum_geodesic(TORUS, TORUS_ABINV).operator
    assert ab == g_ab.scale(LaurentPoly.rho_power(-2)) + weyl_abinv.scale(LaurentPoly.rho_power(2))


def test_qcommutator():
    rep = qcommutator_check(TORUS, A, B)
    assert rep["equal"] and rep["proportional"]
    assert rep["c_equals_q_minus_qinv"]
    assert not rep["c_equals_qhalf_minus_qminushalf"]
    assert rep["classical_limit_exact"]


def test_empty_loop():
    scalar, rep = empty_loop_constant(TORUS, A)
    assert rep["equal"]
    assert scalar.at_one() == 2
    assert rep["defect_vanishes_classically"]
    assert rep["star_fixed"]
    assert not rep["matches_minus_q_minus_qinv"]
    # the defect is (q + q^{-1} - 2) on the two crossing monomials
    aa = qmul(A.operator, A.operator, OMEGA)
    corr = LaurentPoly({4: 1, 0: -2, -4: 1})
    from shearlab.geodesics import mat_mul, mat_trace, path_matrix

    P = path_matrix(TORUS, TORUS_A)
    candidate = QExpPoly.from_classical(mat_trace(mat_mul(P, P)))
    defect = aa - candidate
    expect = QExpPoly(3, {(0, 0, 0): LaurentPoly.const(2), (2, 0, 0): corr, (0, 0, -2): corr})
    assert defect == expect


def test_quantum_centrality():
    for g in (TORUS, tetrahedron()):
        omega = g.omega_matrix()
        for face in g.faces():
            p = g.face_multiplicity(face)
            face_exp = QExpPoly.monomial(p)
            for m in ((1, 0, 0) + (0,) * (g.n_edges - 3), (1, -1, 1) + (0,) * (g.n_edges - 3)):
                x = QExpPoly.monomial(m)
                assert qmul(face_exp, x, omega) == qmul(x, face_exp, omega)
    rep = quantum_centrality_check(TORUS, A)
    assert rep["equal"] and rep["faces"] == 1
