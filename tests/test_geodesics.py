import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shearlab.exppoly import ExpPoly
from shearlab.fatgraph import edge_of, once_punctured_torus, tetrahedron
from shearlab.geodesics import (
    TORUS_A,
    TORUS_ABINV,
    TORUS_B,
    TORUS_HOLE,
    PathError,
    geodesic_function,
    goldman_check,
    graph_simple,
    mat_det,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_trace,
    pair_traces,
    path_inverse,
    path_matrix,
    product_traces,
    random_closed_path,
    rmatrix_global_check,
    rmatrix_local_check,
    skein_check,
    torus_casimir,
    turn_sequence,
    validate_path,
)

TORUS = once_punctured_torus()
TET = tetrahedron()


# -- path words ---------------------------------------------------------------


def test_validate_and_turns():
    assert validate_path(TORUS, TORUS_A) == (0, 5)
    assert turn_sequence(TORUS, TORUS_A) == ["R", "L"]
    assert turn_sequence(TORUS, TORUS_B) == ["L", "R"]
    assert turn_sequence(TORUS, TORUS_HOLE) == ["L"] * 6


def test_validate_rejects():
    with pytest.raises(PathError):
        validate_path(TORUS, ())
    with pytest.raises(PathError):
        validate_path(TORUS, (0, 1))  # backtracking
    with pytest.raises(PathError):
        validate_path(TORUS, (0, 9))  # out of range
    with pytest.raises(PathError):
        validate_path(TORUS, (0, 2))  # not joined at a vertex


def test_validate_rejects_non_integer_darts():
    with pytest.raises(PathError, match="0.7"):
        validate_path(TORUS, [0.7, 5.2])


def test_path_inverse_and_simplicity():
    assert path_inverse(TORUS_A) == (4, 1)
    validate_path(TORUS, path_inverse(TORUS_A))
    assert graph_simple(TORUS_A) and graph_simple(TORUS_B)
    assert not graph_simple(TORUS_HOLE)  # the hole word uses every edge twice
    assert not graph_simple((0, 5, 0, 3))


# -- matrix words -------------------------------------------------------------


def test_torus_traces():
    ga = geodesic_function(TORUS, TORUS_A)
    assert ga == ExpPoly(3, {(1, 0, 1): 1, (-1, 0, -1): 1, (1, 0, -1): 1})
    gb = geodesic_function(TORUS, TORUS_B)
    assert gb == ExpPoly(3, {(1, 1, 0): 1, (-1, -1, 0): 1, (-1, 1, 0): 1})
    hole = geodesic_function(TORUS, TORUS_HOLE)
    assert hole == ExpPoly(3, {(2, 2, 2): 1, (-2, -2, -2): 1})


def test_hole_trace_is_2cosh_half_perimeter():
    rng = random.Random(3)
    hole = geodesic_function(TORUS, TORUS_HOLE)
    for _ in range(50):
        z = [rng.uniform(-2, 2) for _ in range(3)]
        assert hole.evaluate(z) == pytest.approx(2 * math.cosh(sum(z)), rel=1e-12)


def test_determinant_one_and_sign_structure():
    rng = random.Random(7)
    one = ExpPoly.const(3, 1)
    for _ in range(40):
        p = random_closed_path(TORUS, rng)
        M = path_matrix(TORUS, p)
        assert mat_det(M) == one
        # inverse really inverts
        ident = mat_mul(M, mat_inv(M))
        assert ident[0][0] == one and ident[1][1] == one
        assert ident[0][1].is_zero() and ident[1][0].is_zero()


def test_trace_of_inverse_matches():
    rng = random.Random(13)
    for g in (TORUS, TET):
        for _ in range(20):
            p = random_closed_path(g, rng)
            assert geodesic_function(g, p) == geodesic_function(g, path_inverse(p))


def test_trace_cyclic_rotation_invariant():
    rng = random.Random(19)
    for g in (TORUS, TET):
        for _ in range(20):
            p = random_closed_path(g, rng, 3, 7)
            k = rng.randrange(len(p))
            rotated = p[k:] + p[:k]
            assert geodesic_function(g, p) == geodesic_function(g, rotated)


def test_positive_laurent_signs():
    # every trace has positive integer coefficients, with no sign fixed (Fock)
    rng = random.Random(23)
    for g in (TORUS, TET):
        for _ in range(40):
            p = random_closed_path(g, rng)
            tr = geodesic_function(g, p)
            assert all(c > 0 for c in tr.terms.values())
            assert all(type(c) is int for c in tr.terms.values())


def _reference_path_matrix(g, path):
    """The generic product of full 2x2 ExpPoly matrices, one T X_e factor per dart."""
    dim = g.n_edges

    def const(v):
        return ExpPoly.const(dim, v)

    def mul(A, B):
        return tuple(
            tuple(sum((A[i][k] * B[k][j] for k in range(2)), start=const(0)) for j in range(2))
            for i in range(2)
        )

    turns = {"L": ((0, 1), (-1, -1)), "R": ((1, 1), (-1, 0))}
    M = ((const(1), const(0)), (const(0), const(1)))
    for d, t in zip(path, turn_sequence(g, path)):
        up = [0] * dim
        up[edge_of(d)] = 1
        X = (
            (const(0), ExpPoly.monomial(up, -1)),
            (ExpPoly.monomial([-u for u in up], 1), const(0)),
        )
        T = tuple(tuple(const(v) for v in row) for row in turns[t])
        M = mul(mul(T, X), M)
    return M


def test_path_matrix_matches_generic_product():
    rng = random.Random(29)
    for g in (TORUS, TET):
        for _ in range(30):
            p = random_closed_path(g, rng, 2, 12)
            M = path_matrix(g, p)
            assert mat_eq(M, _reference_path_matrix(g, p))
            assert mat_det(M) == 1


def test_pair_traces_match_full_matrix_products():
    rng = random.Random(31)
    for g in (TORUS, TET):
        for _ in range(30):
            p = random_closed_path(g, rng, 2, 12)
            q = random_closed_path(g, rng, 2, 12)
            P = path_matrix(g, p)
            Q = path_matrix(g, q)
            expected = (
                mat_trace(P),
                mat_trace(Q),
                mat_trace(mat_mul(P, Q)),
                mat_trace(mat_mul(P, mat_inv(Q))),
            )
            assert pair_traces(g, p, q) == expected


# -- identities ---------------------------------------------------------------


def test_skein_exact():
    rep = skein_check(TORUS, TORUS_A, TORUS_B)
    assert rep["equal"] and rep["residual"] == "exact"


def test_skein_random():
    rng = random.Random(101)
    for g in (TORUS, TET):
        for _ in range(25):
            start = rng.randrange(g.n_darts)
            p = random_closed_path(g, rng, 2, 6, start=start)
            q = random_closed_path(g, rng, 2, 6, start=start)
            assert skein_check(g, p, q)["equal"]


def test_goldman_exact():
    rep = goldman_check(TORUS, TORUS_A, TORUS_B)
    assert rep["equal"]
    # torus algebra form: {G_A, G_B} = (1/2) G_A G_B - G_{AB^-1}
    from shearlab.exppoly import poisson_bracket

    omega = TORUS.omega_matrix()
    ga = geodesic_function(TORUS, TORUS_A)
    gb = geodesic_function(TORUS, TORUS_B)
    gc = geodesic_function(TORUS, TORUS_ABINV)
    assert poisson_bracket(ga, gb, omega) == Fraction(1, 2) * ga * gb - gc


def test_product_traces_sum_rule():
    g_pq, g_pqi = product_traces(TORUS, TORUS_A, TORUS_B)
    ga = geodesic_function(TORUS, TORUS_A)
    gb = geodesic_function(TORUS, TORUS_B)
    assert ga * gb == g_pq + g_pqi


def test_casimir_value_and_guard():
    # C = 2 - G_hole as exact exponential polynomials
    C = torus_casimir(TORUS)
    hole = geodesic_function(TORUS, TORUS_HOLE)
    assert C == 2 - hole
    with pytest.raises(PathError):
        torus_casimir(TET)


def test_casimir_at_origin():
    assert torus_casimir(TORUS).evaluate([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


# -- R-matrix checks ----------------------------------------------------------


def test_rmatrix_local():
    rng = random.Random(41)
    for _ in range(20):
        rep = rmatrix_local_check(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert rep["equal"] and rep["residual"] <= 1e-12


def test_rmatrix_global():
    rng = np.random.default_rng(43)
    for _ in range(200):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        rep = rmatrix_global_check(A, B)
        assert rep["equal"] and rep["residual"] <= 1e-12


# -- random paths -------------------------------------------------------------


def test_random_closed_path_properties():
    rng = random.Random(47)
    for g in (TORUS, TET):
        for _ in range(50):
            p = random_closed_path(g, rng, 2, 8)
            assert 2 <= len(p) <= 8
            validate_path(g, p)


def test_random_closed_path_rejects_bad_bounds():
    with pytest.raises(PathError):
        random_closed_path(TORUS, random.Random(0), 1, 4)
    with pytest.raises(PathError):
        random_closed_path(TORUS, random.Random(0), 5, 3)
