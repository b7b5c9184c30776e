import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from shearlab import exppoly, flips, geodesics, quantum
from shearlab.exppoly import EXPONENT_LIMIT, ExponentOverflow, ExpPoly
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
    next_darts,
    pair_traces,
    path_matrix,
    product_traces,
    random_closed_path,
    rmatrix_global_check,
    rmatrix_local_check,
    skein_check,
    torus_casimir,
    turn_sequence,
)
from test_positivity import random_surfaces

TORUS = once_punctured_torus()
TET = tetrahedron()


# -- path words ---------------------------------------------------------------


def test_validate_and_turns():
    assert turn_sequence(TORUS, TORUS_A) == ["R", "L"]
    assert turn_sequence(TORUS, TORUS_B) == ["L", "R"]
    assert turn_sequence(TORUS, TORUS_HOLE) == ["L"] * 6


def test_validate_rejects():
    with pytest.raises(PathError):
        turn_sequence(TORUS, ())
    with pytest.raises(PathError):
        turn_sequence(TORUS, (0, 1))  # backtracking
    with pytest.raises(PathError):
        path_matrix(TORUS, (0, 9))  # out of range
    with pytest.raises(PathError):
        path_matrix(TORUS, (0, 2))  # not joined at a vertex


def test_validate_rejects_non_integer_darts():
    with pytest.raises(PathError, match="0.7"):
        turn_sequence(TORUS, [0.7, 5.2])
    # graph_simple reads the same dart rule: no bare TypeError, no bool read as dart 1
    for word, named in (([0.7, 5.2], "0.7"), (("a", "b"), "'a'"), ((True, 0), "True")):
        with pytest.raises(PathError, match=f"^dart {re.escape(named)} is not an integer dart index$"):
            graph_simple(word)


def test_each_word_reader_checks_each_word_once(monkeypatch):
    # _steps is the one word check: count it in every shearlab module that binds it
    checked = []
    original = geodesics._steps

    def counted(g, path):
        checked.append(path)
        return original(g, path)

    bound = [m for name, m in sys.modules.items() if name.startswith("shearlab") and vars(m).get("_steps") is original]
    assert geodesics in bound
    for module in bound:
        monkeypatch.setattr(module, "_steps", counted)
    record = flips.flip(TORUS, 1)
    readers = {
        "path_matrix": (lambda: path_matrix(TORUS, TORUS_A), 1),
        "geodesic_function": (lambda: geodesic_function(TORUS, TORUS_A), 1),
        "turn_sequence": (lambda: turn_sequence(TORUS, TORUS_A), 1),
        "pair_traces": (lambda: pair_traces(TORUS, TORUS_A, TORUS_B), 2),
        "quantum_geodesic": (lambda: quantum.quantum_geodesic(TORUS, TORUS_A), 1),
        "transport_path": (lambda: flips.transport_path(record, TORUS_A), 1),
    }
    for name, (read, words) in readers.items():
        checked.clear()
        read()
        assert len(checked) == words, name


def path_inverse(path) -> tuple:
    """The reversed traversal: opposite darts in reverse order."""
    return tuple(d ^ 1 for d in reversed(path))


def test_path_inverse_and_simplicity():
    assert path_inverse(TORUS_A) == (4, 1)
    assert turn_sequence(TORUS, path_inverse(TORUS_A)) == ["L", "R"]
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


def _shift_merge_path_matrix(g, path):
    """The ring-operation compiler the packed kernel replaced: per dart, a shift of
    each row and one signed merge, whose term order evaluate() sums in.

    A shift by ``e^{s z_e/2}`` is the product with that monomial: it keeps the
    term order, and its bound grows by ``|s|`` on a lower field, as the shift's did.
    """
    path = tuple(path)
    turn_sequence(g, path)  # refuses a bad word, as path_matrix does
    one, zero = ExpPoly.const(g.n_edges, 1), ExpPoly.zero(g.n_edges)
    top, bottom = (one, zero), (zero, one)
    for k, d in enumerate(path):
        e = edge_of(d)
        down, up = (ExpPoly.monomial([s if i == e else 0 for i in range(g.n_edges)]) for s in (-1, 1))
        top = tuple(x * down for x in top)
        bottom = tuple(x * up for x in bottom)
        if path[(k + 1) % len(path)] == next_darts(g, d)[0]:
            bottom = tuple(-x + y for x, y in zip(top, bottom))
        else:
            top = tuple(x - y for x, y in zip(top, bottom))
    return top, bottom


def _assert_same_entries(g, path, rng):
    got, want = path_matrix(g, path), _shift_merge_path_matrix(g, path)
    z = [rng.uniform(-3.0, 3.0) for _ in range(g.n_edges)]
    for i in range(2):
        for j in range(2):
            assert list(got[i][j].terms.items()) == list(want[i][j].terms.items()), (path, i, j)
            assert got[i][j].evaluate(z).hex() == want[i][j].evaluate(z).hex(), (path, i, j)
            assert got[i][j]._b == want[i][j]._b, (path, i, j)


@pytest.mark.parametrize("g", [TORUS, TET], ids=["torus", "tetrahedron"])
def test_path_matrix_keeps_the_shift_merge_term_order(g):
    rng = random.Random(43)
    for _ in range(200):
        _assert_same_entries(g, random_closed_path(g, rng, 2, 14), rng)


def test_path_matrix_keeps_the_shift_merge_term_order_on_random_surfaces():
    rng = random.Random(47)
    surfaces = set()
    for g, rep in random_surfaces(rng, 30):
        surfaces.add((rep.genus, rep.holes))
        for _ in range(5):
            _assert_same_entries(g, random_closed_path(g, rng, 2, 12), rng)
    assert len(surfaces) >= 5


# -- one compile per word --------------------------------------------------------


def test_a_word_compiled_twice_has_equal_entries():
    rng = random.Random(53)
    for g in (TORUS, TET):
        for _ in range(20):
            p = random_closed_path(g, rng, 2, 12)
            first, again = path_matrix(g, p), path_matrix(g, list(p))
            assert mat_eq(first, again) and mat_eq(again, _reference_path_matrix(g, p))
            for x, y in zip(first[0] + first[1], again[0] + again[1]):
                assert list(x.terms.items()) == list(y.terms.items())


def test_a_cached_word_does_not_admit_a_bool_dart():
    path_matrix(TORUS, (0, 5))
    for word in ((False, 5), (0, True), [0.0, 5]):
        with pytest.raises(PathError, match="is not an integer dart index"):
            path_matrix(TORUS, word)
    assert mat_eq(path_matrix(TORUS, (0, 5)), _reference_path_matrix(TORUS, (0, 5)))


def _joined(g, path):
    """The word rule from the dart successors alone: each next dart is a left or right turn."""
    return all(path[(k + 1) % len(path)] in next_darts(g, d) for k, d in enumerate(path))


def test_a_word_is_checked_on_each_graph_with_the_same_edge_count():
    # the flips of the torus share its edge count, so its compiled words share their cache keys
    graphs = [TORUS] + [flips.flip(TORUS, e).after for e in range(3)]
    words = [TORUS_A, TORUS_B, TORUS_ABINV, TORUS_HOLE, (1, 4), (3, 0)]
    seen = set()
    for _ in range(2):
        for g in graphs:
            for w in words:
                if _joined(g, w):
                    assert mat_eq(path_matrix(g, w), _reference_path_matrix(g, w))
                    seen.add(True)
                else:
                    with pytest.raises(PathError):
                        path_matrix(g, w)
                    seen.add(False)
    assert seen == {True, False}


class _Steps(list):
    """A step list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_the_kernel_guards_the_exponent_bound_before_building_a_key():
    # edge 2 is the top field of a 3-edge graph: its steps do not count
    small = exppoly._path_entries(3, [(0, True), (2, False), (1, True), (2, True)])
    assert all(x._b == 2 for row in small for x in row)
    steps = _Steps([(0, True), (1, False)] * (EXPONENT_LIMIT // 2) + [(2, True)])
    with pytest.raises(ExponentOverflow, match=str(EXPONENT_LIMIT)):
        exppoly._path_entries(3, steps)
    assert steps.passes == 1  # the guard's count, and no step taken
    # the torus hole word has 4 lower-field darts: EXPONENT_LIMIT / 4 turns reach the limit
    with pytest.raises(ExponentOverflow):
        path_matrix(TORUS, TORUS_HOLE * (EXPONENT_LIMIT // 4))


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
            assert len(turn_sequence(g, p)) == len(p)


def test_random_closed_path_rejects_bad_bounds():
    with pytest.raises(PathError):
        random_closed_path(TORUS, random.Random(0), 1, 4)
    with pytest.raises(PathError):
        random_closed_path(TORUS, random.Random(0), 5, 3)
    for bounds, named in (((2.5, 6), "min_len 2.5 and max_len 6"), ((2, "6"), "min_len 2 and max_len '6'")):
        with pytest.raises(PathError, match=f"^{named} must be plain ints$"):
            random_closed_path(TORUS, random.Random(0), *bounds)


@pytest.mark.parametrize("length", [3, 5, 7])
def test_random_closed_path_gives_up_when_no_closed_word_has_the_length(length):
    # every closed word on the torus has even length (each step moves to the other vertex)
    with pytest.raises(PathError, match="^no closed path found in 5000 tries$"):
        random_closed_path(TORUS, random.Random(length), length, length)


@pytest.mark.parametrize("start", [99, 6, -1, "a", 0.0, True])
def test_random_closed_path_refuses_a_start_that_is_not_a_dart(start):
    with pytest.raises(PathError, match="start"):
        random_closed_path(TORUS, random.Random(0), 2, 6, start=start)
