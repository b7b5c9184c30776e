"""Face perimeters of a whole graph, and the per-sigma orbit table cache."""

import random
from fractions import Fraction

import pytest

from shearlab import fatgraph
from shearlab.fatgraph import FatGraph, once_punctured_torus, tetrahedron


def _close_triples(order):
    """The trivalent sigma whose vertices are the consecutive triples (a, b, c) of ``order``: a -> b -> c -> a."""
    sigma = [0] * len(order)
    for k in range(0, len(order), 3):
        a, b, c = order[k : k + 3]
        sigma[a], sigma[b], sigma[c] = b, c, a
    return sigma


def _random_trivalent_sigma(rng, n_vertices):
    """A random trivalent sigma on ``3 * n_vertices`` shuffled darts; not always connected."""
    darts = list(range(3 * n_vertices))
    rng.shuffle(darts)
    return _close_triples(darts)


def _labels(rng, n, kind):
    if kind == "int":
        return [rng.randint(-5, 5) for _ in range(n)]
    if kind == "fraction":
        return [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
    return [rng.uniform(-3.0, 3.0) for _ in range(n)]


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_perimeters_equal_face_perimeter_face_by_face(kind):
    rng = random.Random(53)
    graphs = [once_punctured_torus(), tetrahedron()]
    for _ in range(40):
        n_vertices = 2 * rng.randint(1, 5)
        graphs.append(FatGraph(_random_trivalent_sigma(rng, n_vertices), [0] * (3 * n_vertices // 2)))
    for g in graphs:
        g = g.with_labels(_labels(rng, g.n_edges, kind))
        expected = [g.face_perimeter(f) for f in g.faces()]
        assert g.perimeters() == expected
        assert repr(g.perimeters()) == repr(expected)  # same types and the same floats, signed zeros too


def test_table_is_one_lru_cache_of_256_sigmas():
    assert fatgraph._table.cache_info().maxsize == 256
    assert not hasattr(FatGraph, "_table")


def test_a_table_miss_calls_orbits_once_through_the_class(monkeypatch):
    orbits = FatGraph.__dict__["_orbits"]
    calls = []

    def counted(*args):  # a plain function, as a tracer installs it: bound if called on an instance
        calls.append(args)
        return orbits(*args)

    fatgraph._table.cache_clear()
    monkeypatch.setattr(FatGraph, "_orbits", counted)
    rng = random.Random(59)
    sigmas = []
    while len(sigmas) < 257:
        sigma = tuple(_random_trivalent_sigma(rng, 6))
        if sigma not in sigmas:
            sigmas.append(sigma)
    g = FatGraph(sigmas[0], [0.5] * 9)
    g.vertices(), g.faces(), g.perimeters(), g.face_multiplicity(g.faces()[0]), g.omega_matrix()
    assert calls == [(sigmas[0],)]

    for sigma in sigmas[1:256]:
        FatGraph(sigma, [0] * 9).faces()
    g.faces()  # a hit makes sigmas[0] the most recently used
    FatGraph(sigmas[256], [0] * 9).faces()  # evicts the least recently used: sigmas[1]
    del calls[:]
    g.faces()
    FatGraph(sigmas[1], [0] * 9).faces()
    assert calls == [(sigmas[1],)]
    fatgraph._table.cache_clear()
