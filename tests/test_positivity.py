"""Fock positivity of path matrices on random surfaces Sigma_{g,s}, not only the torus and the tetrahedron."""

import random

from shearlab.fatgraph import FatGraph, FatGraphError
from shearlab.geodesics import mat_trace, path_matrix, random_closed_path

from test_fatgraph_tables import _random_trivalent_sigma


def random_surfaces(rng, count):
    """``count`` seeded random connected trivalent fat graphs, each with its validation report.

    Each vertex joins three shuffled darts; a sigma that fails validation (a
    disconnected graph) is drawn again.
    """
    found = 0
    while found < count:
        sigma = _random_trivalent_sigma(rng, rng.choice((2, 4, 6, 8)))
        g = FatGraph(sigma, (0,) * (len(sigma) // 2))
        try:
            rep = g.validate()
        except FatGraphError:
            continue
        found += 1
        yield g, rep


def test_path_matrix_sign_pattern_on_random_surfaces():
    # Fock positivity on random connected trivalent graphs of many Sigma_{g,s}: every
    # path matrix has the pattern [[+, -], [-, +]], so its trace needs no PSL sign fix
    rng = random.Random(37)
    surfaces = set()
    for g, rep in random_surfaces(rng, 60):
        surfaces.add((rep.genus, rep.holes))
        for _ in range(5):
            (p00, p01), (p10, p11) = path_matrix(g, random_closed_path(g, rng, 2, 10))
            assert p00 and p11
            assert all(c > 0 for c in (*p00.terms.values(), *p11.terms.values()))
            assert all(c < 0 for c in (*p01.terms.values(), *p10.terms.values()))
            tr = mat_trace(((p00, p01), (p10, p11)))
            assert all(type(c) is int and c > 0 for c in tr.terms.values())
    assert len(surfaces) >= 6
