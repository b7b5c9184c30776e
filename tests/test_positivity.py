"""Fock positivity of path matrices on random surfaces Sigma_{g,s}, not only the torus and the tetrahedron."""

import random

from shearlab.fatgraph import FatGraph, FatGraphError
from shearlab.geodesics import mat_trace, path_matrix, random_closed_path


def test_path_matrix_sign_pattern_on_random_surfaces():
    # Fock positivity on random connected trivalent graphs of many Sigma_{g,s}: every
    # path matrix has the pattern [[+, -], [-, +]], so its trace needs no PSL sign fix
    rng = random.Random(37)
    graphs, surfaces = 0, set()
    while graphs < 60:
        darts = list(range(3 * rng.choice((2, 4, 6, 8))))
        rng.shuffle(darts)
        sigma = [0] * len(darts)
        for k in range(0, len(darts), 3):
            a, b, c = darts[k : k + 3]
            sigma[a], sigma[b], sigma[c] = b, c, a
        g = FatGraph(sigma, (0,) * (len(sigma) // 2))
        try:
            rep = g.validate()
        except FatGraphError:
            continue
        graphs += 1
        surfaces.add((rep.genus, rep.holes))
        for _ in range(5):
            (p00, p01), (p10, p11) = path_matrix(g, random_closed_path(g, rng, 2, 10))
            assert p00 and p11
            assert all(c > 0 for c in (*p00.terms.values(), *p11.terms.values()))
            assert all(c < 0 for c in (*p01.terms.values(), *p10.terms.values()))
            tr = mat_trace(((p00, p01), (p10, p11)))
            assert all(type(c) is int and c > 0 for c in tr.terms.values())
    assert len(surfaces) >= 6
