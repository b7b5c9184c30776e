"""Closed paths on a fat graph compiled to L/R/X matrix words over ExpPoly.

A path word is a cyclic dart sequence d_1, ..., d_n: dart d_k starts at its
own vertex, the traversal ends at the vertex of opp(d_k), and the next dart
is sigma(opp(d_k)) (a left turn) or sigma(sigma(opp(d_k))) (a right turn).
The word compiles to the product T_n X_{z_n} ... T_1 X_{z_1} with

    L = [[0, 1], [-1, -1]],  R = [[1, 1], [-1, 0]],
    X_z = [[0, -e^{z/2}], [e^{-z/2}, 0]],

and the geodesic function is the trace.  Conjugated by diag(1, -1) every
step T X_z is non-negative (Fock), so a word is validated once into its
(edge, left turn) steps and compiled by one kernel in the exact ring that
merges positive integer entries with no cancellation; the off-diagonal signs
are restored at the end.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exppoly import ExpPoly, _path_entries, poisson_bracket
from .fatgraph import FatGraph, edge_of, once_punctured_torus, opposite, short_repr


class PathError(ValueError):
    pass


def next_darts(g: FatGraph, d: int):
    """The two legal successors of dart d: (left turn, right turn)."""
    t = g.sigma[opposite(d)]
    return t, g.sigma[t]


def _dart(d) -> int:
    """The one dart rule for words: a plain ``int`` (no ``bool``), else ``PathError``."""
    if type(d) is not int:
        raise PathError(f"dart {short_repr(d)} is not an integer dart index")
    return d


def _steps(g: FatGraph, path) -> tuple:
    """Validate a path word once: the tuple of its ``(edge, left turn)`` steps, one per dart.

    The only word check: every word reader calls it once per word.  The turn
    after dart d is left if the next dart is sigma(opp(d)) and right if it is
    sigma(sigma(opp(d))); any other next dart is refused.
    """
    path = tuple(path)
    if not path:
        raise PathError("empty path word")
    n = g.n_darts
    for d in path:
        if not 0 <= _dart(d) < n:
            raise PathError(f"dart {short_repr(d)} out of range")
    steps = []
    for k, d in enumerate(path):
        nxt = path[(k + 1) % len(path)]
        if nxt == opposite(d):
            raise PathError(f"backtracking at step {k}: {d} -> {nxt}")
        left, right = next_darts(g, d)
        if nxt != left and nxt != right:
            raise PathError(f"invalid step {k}: {d} -> {nxt} is not joined at a vertex")
        steps.append((edge_of(d), nxt == left))
    return tuple(steps)


def turn_sequence(g: FatGraph, path) -> list:
    """Turn after each dart: 'L' for sigma(opp(d)), 'R' for sigma^2(opp(d))."""
    return ["L" if left else "R" for _, left in _steps(g, path)]


def graph_simple(path) -> bool:
    """True iff no edge is traversed twice; each dart must be a plain ``int``."""
    edges = [edge_of(_dart(d)) for d in path]
    return len(edges) == len(set(edges))


# -- 2x2 matrices over ExpPoly ------------------------------------------------
# Nothing in src/ calls mat_mul, mat_inv, mat_det or mat_eq (_product_traces
# forms its traces directly).  Keep them: the tests check pair_traces against
# them, and the benchmark tracer wraps geodesics.mat_mul by name.


def mat_mul(A, B):
    return tuple(tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)) for i in range(2))


def mat_trace(A) -> ExpPoly:
    return A[0][0] + A[1][1]


def mat_det(A) -> ExpPoly:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def mat_inv(A):
    """Adjugate; exact inverse since every path matrix has determinant one."""
    return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))


def mat_eq(A, B) -> bool:
    return all(A[i][j] == B[i][j] for i in range(2) for j in range(2))


# A word's entries depend only on the edge count and its validated steps, and
# are never mutated, so one compile serves every repeat of the word.
_compiled = functools.lru_cache(maxsize=64)(_path_entries)


def path_matrix(g: FatGraph, path):
    """T_n X_{e_n} ... T_1 X_{e_1} for the path's darts and turns.

    With h = e^{z_e/2}, L X_e = [[1/h, 0], [-1/h, h]] and R X_e = [[1/h, -h], [0, h]].
    Both have the sign pattern [[+, -], [-, +]]: conjugated by diag(1, -1) they are
    non-negative, and so is every product.  The word is validated once into its
    (edge, left turn) steps, and one kernel in the ring multiplies them out on
    the non-negative entries: each step shifts the top row by -1 and the bottom
    row by +1 in coordinate e, then adds one row to the other, merging positive
    integer coefficients that never cancel.  The off-diagonal signs are restored
    at the end, so the trace has positive integer coefficients (Fock) and needs
    no PSL sign fix.

    ``_steps`` checks the word on every call; only then are the entries read
    from a small LRU cache of compiled words, keyed on the edge count and the
    validated steps, so a bool dart never reaches a key.  Repeats of a word
    share its entries.
    """
    return _compiled(g.n_edges, _steps(g, path))


def geodesic_function(g: FatGraph, path) -> ExpPoly:
    return mat_trace(path_matrix(g, path))


def _product_traces(P, Q) -> tuple:
    """(Tr PQ, Tr PQ^-1) of two path matrices, in 6 ring products rather than the 16 of two full products.

    With X = P01 Q10 + P10 Q01,

        Tr PQ    = P00 Q00 + P11 Q11 + X,
        Tr PQ^-1 = P00 Q11 + P11 Q00 - X,

    the second through the adjugate Q^-1 = [[Q11, -Q01], [-Q10, Q00]].  Tr PQ^-1
    is not taken as Tr P Tr Q - Tr PQ: that is the skein relation itself, which
    skein_check would then confirm by construction.
    """
    (p00, p01), (p10, p11) = P
    (q00, q01), (q10, q11) = Q
    x = p01 * q10 + p10 * q01
    return p00 * q00 + p11 * q11 + x, p00 * q11 + p11 * q00 - x


def pair_traces(g: FatGraph, p, q) -> tuple:
    """(Tr P, Tr Q, Tr PQ, Tr PQ^-1) for the path matrices P, Q; each word compiles once."""
    P, Q = path_matrix(g, p), path_matrix(g, q)
    return mat_trace(P), mat_trace(Q), *_product_traces(P, Q)


def product_traces(g: FatGraph, p, q):
    """(Tr(PQ), Tr(PQ^-1)) for the path matrices of the two words; Tr P and Tr Q are never formed."""
    return _product_traces(path_matrix(g, p), path_matrix(g, q))


# -- identity checks ----------------------------------------------------------


def exact_report(name: str, lhs, rhs) -> dict:
    """The verdict on lhs = rhs in an exact ring: residual "exact", or the repr of lhs - rhs."""
    equal = lhs == rhs
    return {"name": name, "equal": equal, "residual": "exact" if equal else repr(lhs - rhs)}


def float_report(name: str, residual, tol: float, ok: bool = True, **fields) -> dict:
    """The verdict on a float identity: residual <= tol, and ok for its structural part.

    Like an exact report it has "name", "equal" and "residual"; it also names its "tolerance".
    """
    residual = float(residual)
    return {"name": name, **fields, "residual": residual, "tolerance": tol, "equal": ok and residual <= tol}


def skein_check(g: FatGraph, p, q) -> dict:
    """Tr(P) Tr(Q) = Tr(PQ) + Tr(PQ^-1), exactly."""
    gp, gq, g_pq, g_pqi = pair_traces(g, p, q)
    lhs = gp * gq
    rhs = g_pq + g_pqi
    return exact_report("skein", lhs, rhs)


def goldman_check(g: FatGraph, p, q) -> dict:
    """{G_P, G_Q} = (1/2) G_PQ - (1/2) G_PQ^-1, exactly."""
    gp, gq, g_pq, g_pqi = pair_traces(g, p, q)
    lhs = poisson_bracket(gp, gq, g.omega_matrix())
    rhs = Fraction(1, 2) * g_pq - Fraction(1, 2) * g_pqi
    return exact_report("goldman", lhs, rhs)


# -- the once-punctured torus -------------------------------------------------

# Words on once_punctured_torus(): A traverses edges z0, z2 and compiles to
# L X_{z2} R X_{z0}; B traverses z0, z1 and compiles to R X_{z1} L X_{z0};
# the third graph-simple word traverses z1, z2.  The hole word follows the
# single hexagonal face.
TORUS_A = (0, 5)
TORUS_B = (0, 3)
TORUS_ABINV = (2, 5)
TORUS_HOLE = (0, 3, 4, 1, 2, 5)


def torus_casimir(g: FatGraph) -> ExpPoly:
    """C = G_A^2 + G_B^2 + G_{AB^-1}^2 - G_A G_B G_{AB^-1} on the torus graph."""
    if g.sigma != once_punctured_torus().sigma:
        raise PathError("torus_casimir requires the once-punctured torus graph")
    ga = geodesic_function(g, TORUS_A)
    gb = geodesic_function(g, TORUS_B)
    gc = geodesic_function(g, TORUS_ABINV)
    return ga * ga + gb * gb + gc * gc - ga * gb * gc


# -- random paths -------------------------------------------------------------


_MAX_TRIES = 5000


def random_closed_path(g: FatGraph, rng, min_len: int = 2, max_len: int = 8, start=None):
    """Seeded random closed path word (rejection sampling over random turn walks)."""
    if type(min_len) is not int or type(max_len) is not int:
        raise PathError(f"min_len {short_repr(min_len)} and max_len {short_repr(max_len)} must be plain ints")
    if min_len < 2 or max_len < min_len:
        raise PathError("need 2 <= min_len <= max_len")
    if start is not None and (type(start) is not int or not 0 <= start < g.n_darts):
        raise PathError(f"start {short_repr(start)} is not a dart index of this graph")
    for _ in range(_MAX_TRIES):
        length = rng.randint(min_len, max_len)
        d0 = start if start is not None else rng.randrange(g.n_darts)
        path = [d0]
        for _ in range(length - 1):
            path.append(rng.choice(next_darts(g, path[-1])))
        if d0 in next_darts(g, path[-1]):
            return tuple(path)
    raise PathError(f"no closed path found in {_MAX_TRIES} tries")


# -- Appendix-style R-matrix checks ------------------------------------------


_RMATRIX_TOL = 1e-12


def rmatrix_local_check(z1: float, z4: float) -> dict:
    """{X_{z1} (x) X_{z4}} = -(1/4) (X (x) X) S for the crossing with {z1, z4} = -1.

    The derivative tensor dX/dz1 (x) dX/dz4 times the edge bracket -1 must
    match -(1/4) kron(X, X) S entrywise, with S = diag(1, -1, -1, 1).
    """
    import numpy as np

    def x(z: float, d: float):  # X_z for d = 1; dX_z/dz for d = -1/2, as d/dz e^{-z/2} = -e^{-z/2}/2
        return np.array([[0.0, -np.exp(z / 2.0) * abs(d)], [np.exp(-z / 2.0) * d, 0.0]])

    lhs = -1.0 * np.kron(x(z1, -0.5), x(z4, -0.5))
    rhs = -0.25 * np.kron(x(z1, 1.0), x(z4, 1.0)) @ np.diag([1.0, -1.0, -1.0, 1.0])
    return float_report("rmatrix_local", np.max(np.abs(lhs - rhs)), _RMATRIX_TOL, z=[z1, z4], edge_bracket=-1)


def rmatrix_global_check(A, B) -> dict:
    """Tr1 Tr2[(A (x) B)(R - 1/2)] = Tr(AB) - (1/2) Tr A Tr B for 2 x 2 arrays, with R the swap of the two factors."""
    import numpy as np
    R = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    lhs = np.trace(np.kron(A, B) @ (R - 0.5 * np.eye(4)))
    rhs = np.trace(A @ B) - 0.5 * np.trace(A) * np.trace(B)
    return float_report("rmatrix_global", abs(lhs - rhs), _RMATRIX_TOL, lhs=float(lhs), rhs=float(rhs))
