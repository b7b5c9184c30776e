"""The ribbon-graph rule at construction: every ``FatGraph`` is a trivalent permutation of its darts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import fatgraph
from shearlab.fatgraph import FatGraph, FatGraphError, once_punctured_torus
from shearlab.flips import flip, transport_path
from shearlab.geodesics import PathError, mat_det, path_matrix, random_closed_path, turn_sequence

from test_fatgraph_tables import _close_triples


@pytest.mark.parametrize(
    "sigma, message",
    [
        ([0, 1, 2, 3, 4, 5], "vertex orbit [0] has size 1, expected 3 (dart 0)"),
        ([2, 3, 4, 5, 0, 0], "sigma is not a permutation: dart 0 has 2 preimages"),
        ([2, 3, 4, 5, 0, 9], "sigma[5] = 9 is not a dart index"),
        ([1, 0, 3, 2], "vertex orbit [0, 1] has size 2, expected 3 (dart 0)"),
    ],
    ids=["fixed_points", "not_a_permutation", "out_of_range", "two_valent"],
)
def test_constructor_refuses_a_sigma_that_is_not_a_trivalent_permutation(sigma, message):
    with pytest.raises(FatGraphError) as exc:
        FatGraph(sigma, [0] * (len(sigma) // 2))
    assert str(exc.value) == message


def test_range_comes_before_permutation_and_permutation_before_trivalence():
    with pytest.raises(FatGraphError, match=r"^sigma\[1\] = -1 is not a dart index$"):
        FatGraph([0, -1, 0, 0], [0, 0])  # also not a permutation, and no orbit has size 3
    with pytest.raises(FatGraphError, match=r"^sigma is not a permutation: dart 0 has 0 preimages$"):
        FatGraph([1, 1, 2, 3], [0, 0])


def test_labels_and_counts_come_before_the_sigma_rule():
    with pytest.raises(FatGraphError, match="label z"):
        FatGraph([0, 1, 2, 3, 4, 5], [0, float("nan"), 0])
    with pytest.raises(FatGraphError, match="expected 3 labels"):
        FatGraph([0, 1, 2, 3, 4, 5], [0, 0])


def test_a_disconnected_ribbon_graph_is_constructible_and_only_validate_refuses_it():
    g = FatGraph([2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    after = flip(g, 3).after
    assert after == FatGraph(after.sigma, after.z)
    with pytest.raises(FatGraphError, match="graph is not connected: dart 6"):
        g.validate()


def test_relabelling_a_built_graph_does_not_walk_sigma_again(monkeypatch):
    g = once_punctured_torus((0.1, 0.2, 0.3))

    def walk(sigma):  # raising, it leaves nothing in the orbit table
        raise AssertionError(f"sigma {sigma} was walked again")

    fatgraph._table.cache_clear()
    monkeypatch.setattr(FatGraph, "_orbits", walk)
    try:
        assert g.with_labels((1, 2, 3)).z == (1, 2, 3)
        assert g._relabel((1.0, 2.0, 3.0)).sigma == g.sigma
    finally:
        fatgraph._table.cache_clear()


def _three_cycles(order, extra):
    """Disjoint 3-cycles over ``order``, then each 3-cycle of ``extra`` composed after them."""
    sigma = _close_triples(order)
    for a, b, c in extra:
        cycle = {a: b, b: c, c: a}
        sigma = [cycle.get(s, s) for s in sigma]
    return sigma


@st.composite
def _sigmas(draw):
    """Any int list of even length up to 16 with entries in [-2, n + 1], or a product of 3-cycles."""
    if draw(st.booleans()):
        n = 2 * draw(st.integers(0, 8))
        return draw(st.lists(st.integers(-2, n + 1), min_size=n, max_size=n))
    n = 6 * draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    return _three_cycles(order, draw(st.lists(triple, max_size=2)) if n else [])


@settings(max_examples=150, deadline=None)
@given(_sigmas(), st.integers(0, 2**32 - 1))
def test_every_constructed_graph_is_a_trivalent_ribbon_graph(sigma, seed):
    rng = random.Random(seed)
    try:
        g = FatGraph(sigma, [rng.uniform(-2.0, 2.0) for _ in range(len(sigma) // 2)])
    except FatGraphError:
        return
    vertices = g.vertices()
    assert sorted(d for v in vertices for d in v) == list(range(g.n_darts))
    assert all(len(v) == 3 and [g.sigma[d] for d in v] == [v[1], v[2], v[0]] for v in vertices)

    omega = g.omega_matrix()
    assert all(omega[i][j] == -omega[j][i] for i in range(g.n_edges) for j in range(g.n_edges))

    if not g.n_darts:
        return
    path = random_closed_path(g, rng, 2, 6)
    assert mat_det(path_matrix(g, path)) == 1
    for e in range(g.n_edges):
        try:
            record = flip(g, e)
        except FatGraphError:  # a self-loop
            continue
        assert record.after == FatGraph(record.after.sigma, record.after.z)
        try:
            moved = transport_path(record, path)
        except PathError:  # the word runs only along the flipped edge
            continue
        assert len(turn_sequence(record.after, moved)) == len(moved)
