import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab.fatgraph import (
    FatGraph,
    FatGraphError,
    edge_of,
    once_punctured_torus,
    opposite,
    tetrahedron,
)


def test_dart_primitives():
    assert [opposite(d) for d in range(6)] == [1, 0, 3, 2, 5, 4]
    assert [edge_of(d) for d in range(6)] == [0, 0, 1, 1, 2, 2]


def test_torus_topology():
    g = once_punctured_torus()
    rep = g.validate()
    assert (rep.vertices, rep.edges, rep.faces, rep.genus, rep.holes) == (2, 3, 1, 1, 1)
    assert sorted(map(sorted, g.vertices())) == [[0, 2, 4], [1, 3, 5]]
    assert len(g.faces()) == 1 and len(g.faces()[0]) == 6


def test_tetrahedron_topology():
    g = tetrahedron()
    rep = g.validate()
    assert (rep.vertices, rep.edges, rep.faces, rep.genus, rep.holes) == (4, 6, 4, 0, 4)
    assert sorted(map(sorted, g.faces())) == [[0, 3, 6], [1, 4, 9], [2, 5, 10], [7, 8, 11]]


def test_torus_omega():
    g = once_punctured_torus()
    assert g.omega_matrix() == [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def test_tetrahedron_omega():
    om = tetrahedron().omega_matrix()
    assert all(om[i][j] == -om[j][i] for i in range(6) for j in range(6))
    assert all(om[i][i] == 0 for i in range(6))
    assert {abs(om[i][j]) for i in range(6) for j in range(6) if i != j} <= {0, 1}


def test_faces_in_omega_kernel():
    # each face multiplicity vector is annihilated by omega
    for g in (once_punctured_torus(), tetrahedron()):
        om = g.omega_matrix()
        for f in g.faces():
            p = g.face_multiplicity(f)
            assert all(sum(om[i][j] * p[j] for j in range(len(p))) == 0 for i in range(len(p)))


def test_face_perimeter():
    g = once_punctured_torus((1.0, 2.0, 4.0))
    mult, value = g.face_perimeter(g.faces()[0])
    assert mult == (2, 2, 2)
    assert value == pytest.approx(14.0)


def test_validate_rejects_bad_sigma():
    with pytest.raises(FatGraphError):
        FatGraph([0, 1, 2, 3, 4, 5], (0, 0, 0)).validate()  # fixed points: size-1 orbits
    with pytest.raises(FatGraphError):
        FatGraph([2, 3, 4, 5, 0, 0], (0, 0, 0)).validate()  # not a permutation
    with pytest.raises(FatGraphError):
        FatGraph([2, 3, 4, 5, 0, 9], (0, 0, 0)).validate()  # out of range
    with pytest.raises(FatGraphError):
        FatGraph([1, 0, 3, 2], (0, 0)).validate()  # orbits of size 2


def test_constructor_rejects_bad_shapes():
    with pytest.raises(FatGraphError):
        FatGraph([0, 1, 2], (0, 0))
    with pytest.raises(FatGraphError):
        FatGraph([2, 3, 4, 5, 0, 1], (0, 0))


@pytest.mark.parametrize(
    "sigma",
    [[2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7], [2, 3, 4, 5, 0, 1, 8, 11, 10, 7, 6, 9], []],
    ids=["two_tori", "torus_and_theta", "empty"],
)
def test_validate_rejects_disconnected(sigma):
    with pytest.raises(FatGraphError, match="not connected"):
        FatGraph(sigma, (0,) * (len(sigma) // 2)).validate()


@pytest.mark.parametrize(
    "sigma, z, entry",
    [
        ([2.9, 3, 4, 5, 0, 1], (0, 0, 0), "sigma[0] = 2.9"),
        ([2, 3, 4, 5, 0, True], (0, 0, 0), "sigma[5] = True"),
        ([2, 3, 4, 5, 0, 1], (0, float("nan"), 0), "z[1] = nan"),
    ],
    ids=["float_dart", "bool_dart", "nan_label"],
)
def test_constructor_rejects_bad_entries(sigma, z, entry):
    with pytest.raises(FatGraphError) as exc:
        FatGraph(sigma, z)
    assert entry in str(exc.value)


@pytest.mark.parametrize("label", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_constructor_rejects_labels_beyond_float_range(label):
    with pytest.raises(FatGraphError, match=r"label z\[1\] = .* is not a finite number"):
        once_punctured_torus((0, label, 0))


def test_immutability():
    g = once_punctured_torus()
    with pytest.raises(AttributeError):
        g.sigma = (0,) * 6


def test_json_roundtrip(tmp_path):
    g = once_punctured_torus((0.5, -1.25, 3.0))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    h = FatGraph.load(path)
    assert h.sigma == g.sigma
    assert all(abs(a - b) == 0 for a, b in zip(h.z, g.z))
    with pytest.raises(FatGraphError):
        FatGraph.from_json({"sigma": [2, 3, 4, 5, 0, 1]})
    with pytest.raises(FatGraphError):
        FatGraph.from_json([1, 2, 3])


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_random_trivalent_graphs_validate(rnd):
    # build a random sigma from random 3-cycles over the 12 darts
    darts = list(range(12))
    rnd.shuffle(darts)
    sigma = [0] * 12
    for k in range(0, 12, 3):
        a, b, c = darts[k : k + 3]
        sigma[a], sigma[b], sigma[c] = b, c, a
    g = FatGraph(sigma, (0,) * 6)
    try:
        rep = g.validate()
    except FatGraphError:
        return  # disconnected or Euler-inconsistent gluings are correctly rejected
    assert rep.vertices == 4 and rep.edges == 6
    assert rep.edges == 6 * rep.genus - 6 + 3 * rep.holes
    assert rep.vertices == 4 * rep.genus - 4 + 2 * rep.holes


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_vertices_faces_partition_darts(rnd):
    darts = list(range(12))
    rnd.shuffle(darts)
    sigma = [0] * 12
    for k in range(0, 12, 3):
        a, b, c = darts[k : k + 3]
        sigma[a], sigma[b], sigma[c] = b, c, a
    g = FatGraph(sigma, (0,) * 6)
    for orbits in (g.vertices(), g.faces()):
        flat = sorted(d for orbit in orbits for d in orbit)
        assert flat == list(range(12))


# -- the label rule on graphs built from a checked sigma ---------------------------


@pytest.mark.parametrize(
    "label", [float("nan"), float("inf"), True, 10**400], ids=["nan", "inf", "bool", "huge_int"]
)
def test_with_labels_keeps_the_constructor_label_rule(label):
    g = once_punctured_torus()
    z = (0.5, label, 0)
    with pytest.raises(FatGraphError) as built:
        FatGraph(g.sigma, z)
    with pytest.raises(FatGraphError) as relabelled:
        g.with_labels(z)
    assert str(relabelled.value) == str(built.value)
    assert str(built.value).startswith("label z[1] = ")


def test_with_labels_accepts_numpy_floats_and_checks_the_count():
    np = pytest.importorskip("numpy")
    g = tetrahedron().with_labels(np.linspace(-1.0, 1.0, 6))
    assert g.z == tuple(np.linspace(-1.0, 1.0, 6)) and g.sigma == tetrahedron().sigma
    with pytest.raises(FatGraphError, match="expected 3 labels, got 2"):
        once_punctured_torus().with_labels((0.0, 1.0))


def _orbits(sigma, step):
    seen, out = set(), []
    for d0 in range(len(sigma)):
        if d0 not in seen:
            orbit, d = [], d0
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                d = step(d)
            out.append(tuple(orbit))
    return out


def _random_sigma(rnd, n):
    """Random 3-cycles over n darts: a trivalent sigma, not always connected."""
    darts = list(range(n))
    rnd.shuffle(darts)
    sigma = [0] * n
    for i in range(0, n, 3):
        a, b, c = darts[i : i + 3]
        sigma[a], sigma[b], sigma[c] = b, c, a
    return sigma


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_cached_orbits_match_a_fresh_walk(rnd):
    n = 6 * rnd.randint(1, 4)
    sigma = _random_sigma(rnd, n)
    g = FatGraph(sigma, (0,) * (n // 2))
    for _ in range(2):  # a miss, then a hit
        assert g.vertices() == _orbits(sigma, lambda d: sigma[d])
        assert g.faces() == _orbits(sigma, lambda d: sigma[opposite(d)])
        for f in g.faces():
            mult = [0] * g.n_edges
            for d in f:
                mult[edge_of(d)] += 1
            assert g.face_multiplicity(f) == g.face_multiplicity(list(f)) == tuple(mult)
    g.faces().clear()  # the lists handed out are copies
    g.vertices().clear()
    assert len(g.faces()) == len(_orbits(sigma, lambda d: sigma[opposite(d)])) and len(g.vertices()) == n // 3


def test_face_multiplicity_of_any_dart_sequence():
    g = tetrahedron()
    assert g.face_multiplicity([0, 1, 3]) == (2, 1, 0, 0, 0, 0)


def test_orbit_table_cache_is_bounded():
    from shearlab import fatgraph

    rnd = random.Random(3)
    for _ in range(fatgraph._table.cache_info().maxsize + 40):
        FatGraph(_random_sigma(rnd, 12), (0,) * 6).vertices()
    assert fatgraph._table.cache_info().currsize == fatgraph._table.cache_info().maxsize  # 296 distinct sigmas went in
    g = tetrahedron()
    assert g.faces() == _orbits(g.sigma, lambda d: g.sigma[opposite(d)])


@pytest.mark.parametrize(
    "build, entry",
    [
        (lambda: once_punctured_torus((10**5000, 0, 0)), "label z[0] = <int of 16610 bits>"),
        (lambda: FatGraph([2, 3, 4, 5, 0, 10**5000], [0] * 3).validate(), "sigma[5] = <int of 16610 bits>"),
        (lambda: FatGraph([2, 3, 4, 5, 0, "9" * 5000], [0] * 3), "sigma[5] = '999"),
    ],
    ids=["huge_label", "huge_dart", "long_str_dart"],
)
def test_bad_entry_errors_stay_short(build, entry):
    with pytest.raises(FatGraphError) as exc:
        build()
    assert entry in str(exc.value) and len(str(exc.value)) < 120
