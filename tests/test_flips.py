import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from shearlab import fatgraph, flips
from shearlab.fatgraph import FatGraph, FatGraphError, once_punctured_torus, tetrahedron
from shearlab.flips import (
    FlipRecord,
    _phi_pair,
    check_commutation,
    check_involution,
    check_pentagon,
    check_perimeters,
    find_isomorphism,
    flip,
    phi,
    torus_flip_map,
    torus_modular_check,
    transport_path,
)
from shearlab.geodesics import (
    TORUS_A,
    TORUS_ABINV,
    TORUS_B,
    TORUS_HOLE,
    PathError,
    geodesic_function,
    random_closed_path,
)

from test_fatgraph_tables import _random_trivalent_sigma

TOL = 1e-12


def _labels(rng, n):
    return [rng.uniform(-2.0, 2.0) for _ in range(n)]


# -- phi ---------------------------------------------------------------------


def test_phi_values():
    assert phi(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert phi(1.0) == pytest.approx(math.log(1 + math.e), abs=1e-15)
    # stability far out on both sides
    assert phi(800.0) == pytest.approx(800.0, abs=1e-12)
    assert phi(-800.0) == pytest.approx(0.0, abs=1e-300)


def _two_branch_phi(z):
    """The reference log(1 + e^z), with a branch of its own on each side of 0."""
    if z > 0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def test_phi_is_the_two_branch_formula_bit_for_bit():
    rng = random.Random(43)
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 745.0, -745.0, 800.0, -800.0, math.inf, -math.inf]
    values += [rng.uniform(-40, 40) for _ in range(20000)] + [rng.uniform(-800, 800) for _ in range(20000)]
    for z in values:
        assert phi(z).hex() == _two_branch_phi(z).hex(), z  # hex() keeps the sign of a zero


def test_phi_functional_equation():
    rng = random.Random(1)
    for _ in range(200):
        z = rng.uniform(-30, 30)
        assert phi(z) - phi(-z) == pytest.approx(z, abs=1e-12)


# -- single flips -------------------------------------------------------------


def test_torus_flip_labels_at_zero():
    g = once_punctured_torus((0.0, 0.0, 0.0))
    after = flip(g, 0).after
    ln4 = 2 * math.log(2.0)
    assert after.z[0] == 0.0
    vals = sorted(after.z[1:])
    assert vals[0] == pytest.approx(-ln4, abs=1e-15)
    assert vals[1] == pytest.approx(ln4, abs=1e-15)


def test_flip_coordinate_map():
    rng = random.Random(5)
    for _ in range(100):
        z0, z1, z2 = _labels(rng, 3)
        new = torus_flip_map((z0, z1, z2))
        assert new[0] == pytest.approx(-z0, abs=TOL)
        assert new[1] == pytest.approx(z2 - 2 * phi(-z0), abs=TOL)
        assert new[2] == pytest.approx(z1 + 2 * phi(z0), abs=TOL)


def test_flip_preserves_topology():
    rng = random.Random(7)
    for g in (once_punctured_torus(_labels(rng, 3)), tetrahedron(_labels(rng, 6))):
        before = g.validate()
        for e in range(g.n_edges):
            after = flip(g, e).after.validate()
            assert after == before


def test_flip_rejects_bad_edges():
    g = once_punctured_torus()
    with pytest.raises(FatGraphError):
        flip(g, 3)
    # a graph with a self-loop at edge 0: darts 0,1 at one vertex
    from shearlab.fatgraph import FatGraph

    loop = FatGraph([1, 2, 0, 4, 5, 3], (0, 0, 0))
    with pytest.raises(FatGraphError):
        flip(loop, 0)


def test_flip_record_fields():
    g = once_punctured_torus((0.3, -0.7, 1.1))
    rec = flip(g, 1)
    assert rec.edge == 1
    assert rec.before == g
    assert sorted(rec.corners) == sorted((g.sigma[2], g.sigma[g.sigma[2]], g.sigma[3], g.sigma[g.sigma[3]]))
    assert rec.rule in ("anti", "clock")


# -- flip relations -----------------------------------------------------------


def test_involution():
    rng = random.Random(11)
    for _ in range(100):
        g = once_punctured_torus(_labels(rng, 3))
        rep = check_involution(g, rng.randrange(3))
        assert rep["equal"] and rep["sigma_equal"] and rep["residual"] <= TOL
        t = tetrahedron(_labels(rng, 6))
        rep = check_involution(t, rng.randrange(6))
        assert rep["equal"] and rep["residual"] <= TOL


def test_commutation():
    rng = random.Random(13)
    for _ in range(100):
        t = tetrahedron(_labels(rng, 6))
        rep = check_commutation(t, 0, 5)  # opposite edges of the tetrahedron
        assert rep["equal"] and rep["residual"] <= TOL


def test_commutation_requires_disjoint_edges():
    with pytest.raises(FatGraphError):
        check_commutation(tetrahedron(), 0, 1)


def test_pentagon():
    rng = random.Random(17)
    for _ in range(100):
        t = tetrahedron(_labels(rng, 6))
        rep = check_pentagon(t, 0, 1)  # adjacent edges sharing one vertex
        assert rep["equal"] and rep["residual"] <= TOL


def test_pentagon_requires_adjacent_edges():
    with pytest.raises(FatGraphError):
        check_pentagon(tetrahedron(), 0, 5)


def test_perimeters_invariant():
    rng = random.Random(19)
    for _ in range(100):
        g = once_punctured_torus(_labels(rng, 3))
        assert check_perimeters(g, rng.randrange(3))["equal"]
        t = tetrahedron(_labels(rng, 6))
        assert check_perimeters(t, rng.randrange(6))["equal"]


def test_torus_modular():
    rng = random.Random(23)
    for _ in range(100):
        rep = torus_modular_check(_labels(rng, 3))
        assert rep["equal"] and rep["residual"] <= TOL


# -- isomorphism --------------------------------------------------------------


def test_find_isomorphism_identity_and_relabelled():
    g = once_punctured_torus((0.1, 0.2, 0.3))
    psi = find_isomorphism(g, g)
    assert psi is not None and sorted(psi) == list(range(6))
    assert find_isomorphism(g, once_punctured_torus((0.1, 0.2, 0.9))) is None


def test_find_isomorphism_dimension_guard():
    assert find_isomorphism(once_punctured_torus(), tetrahedron()) is None


@pytest.mark.parametrize(
    "edge_map",
    [[0, 1, 2], list(range(7)), [9, 1, 2, 3, 4, 5], [-1, 1, 2, 3, 4, 5], [0.0, 1, 2, 3, 4, 5], (0, 1, 2, 3, 4, 5)],
    ids=["short", "long", "past-the-end", "negative", "float", "tuple"],
)
def test_a_malformed_edge_map_is_refused(edge_map):
    g = tetrahedron()
    with pytest.raises(FatGraphError, match="edge_map .* is not a list of 6 edge indices"):
        find_isomorphism(g, g, edge_map)
    assert find_isomorphism(g, g, list(range(6))) is not None


@pytest.mark.parametrize(
    "g1, edge_map",
    [
        (FatGraph([], []), []),
        (FatGraph([2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7], [0.5, 1, 2] * 2), [3, 4, 5, 0, 1, 2]),
    ],
    ids=["empty", "two_tori"],
)
def test_find_isomorphism_of_an_empty_or_disconnected_graph_is_none(g1, edge_map):
    assert find_isomorphism(g1, g1) is None
    assert find_isomorphism(g1, g1, edge_map) is None


def test_validate_and_find_isomorphism_share_one_spanning_walk(monkeypatch):
    # _spanning_walk is the one dart search: count it in every shearlab module that binds it
    walked = []
    original = fatgraph._spanning_walk

    def counted(sigma):
        walked.append(sigma)
        return original(sigma)

    modules = [m for name, m in sys.modules.items() if name.startswith("shearlab")]
    bound = [m for m in modules if vars(m).get("_spanning_walk") is original]
    assert fatgraph in bound and flips in bound
    for module in bound:
        monkeypatch.setattr(module, "_spanning_walk", counted)
    g = tetrahedron((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    g.validate()
    assert walked == [g.sigma]
    walked.clear()
    assert find_isomorphism(g, g) is not None
    assert walked == [g.sigma]


def _loop_free(g, a):
    """Whether the vertex of dart ``a`` sits on three distinct edges."""
    return len({a // 2, g.sigma[a] // 2, g.sigma[g.sigma[a]] // 2}) == 3


def _random_connected_graph(rng, n_vertices):
    """A random connected trivalent graph with at least one loop-free vertex."""
    while True:
        g = FatGraph(_random_trivalent_sigma(rng, n_vertices), _labels(rng, 3 * n_vertices // 2))
        try:
            g.validate()
        except FatGraphError:
            continue
        if any(_loop_free(g, a) for a in range(g.n_darts)):
            return g


def _relabel(g, rng):
    """``g`` under a random dart relabeling that keeps each edge's two darts together, and its edge map."""
    edge_map = list(range(g.n_edges))
    rng.shuffle(edge_map)
    psi = []
    for e in range(g.n_edges):
        d = 2 * edge_map[e] + rng.randrange(2)
        psi += [d, d ^ 1]
    sigma = [0] * g.n_darts
    z = [0] * g.n_edges
    for d in range(g.n_darts):
        sigma[psi[d]] = psi[g.sigma[d]]
    for e in range(g.n_edges):
        z[edge_map[e]] = g.z[e]
    return FatGraph(sigma, z), edge_map


@pytest.mark.parametrize("seed", range(16))
def test_find_isomorphism_conjugates_sigma_on_random_relabelings(seed):
    rng = random.Random(seed)
    g = _random_connected_graph(rng, 2 * rng.randint(1, 4))
    h, edge_map = _relabel(g, rng)
    psi = find_isomorphism(g, h, edge_map)
    assert psi is not None and sorted(psi) == list(range(g.n_darts))
    for d in range(g.n_darts):
        assert h.sigma[psi[d]] == psi[g.sigma[d]]
        assert psi[d ^ 1] == psi[d] ^ 1 and psi[d] // 2 == edge_map[d // 2]
    # reversing one vertex cycle of h on three distinct edges leaves no isomorphism with that edge map
    a = next(a for a in range(h.n_darts) if _loop_free(h, a))
    b = h.sigma[a]
    c = h.sigma[b]
    sigma = list(h.sigma)
    sigma[a], sigma[b], sigma[c] = c, a, b
    assert find_isomorphism(g, FatGraph(sigma, h.z), edge_map) is None


# -- transport ----------------------------------------------------------------


def test_transport_named_words():
    rng = random.Random(29)
    for _ in range(50):
        labels = _labels(rng, 3)
        g = once_punctured_torus(labels)
        rec = flip(g, 0)
        for word in (TORUS_A, TORUS_B, TORUS_ABINV, TORUS_HOLE):
            before = geodesic_function(g, word).evaluate([float(x) for x in g.z])
            moved = transport_path(rec, word)
            after = geodesic_function(rec.after, moved).evaluate([float(x) for x in rec.after.z])
            assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


def test_transport_random_words():
    rng = random.Random(31)
    for _ in range(40):
        g = tetrahedron(_labels(rng, 6))
        e = rng.randrange(6)
        rec = flip(g, e)
        try:
            p = random_closed_path(g, rng, 3, 8)
            moved = transport_path(rec, p)
        except PathError:
            continue  # words living entirely on the flipped edge cannot move
        before = geodesic_function(g, p).evaluate([float(x) for x in g.z])
        after = geodesic_function(rec.after, moved).evaluate([float(x) for x in rec.after.z])
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_transport_validates_input_word():
    rec = flip(tetrahedron([0.0] * 6), 0)
    with pytest.raises(PathError):
        transport_path(rec, (99,))
    with pytest.raises(PathError):
        transport_path(rec, (0, 1))


def test_transport_refuses_a_word_on_the_flipped_edge_alone():
    # the dumbbell's edge 0 is a loop that flip refuses, so only a hand-built record reaches this refusal
    dumbbell = FatGraph([1, 2, 0, 4, 5, 3], [0, 0, 0])
    rec = FlipRecord(0, (), dumbbell, dumbbell, "anti")
    with pytest.raises(PathError, match="^path has no darts outside the flipped edge$"):
        transport_path(rec, (0,))


def test_transport_refuses_a_record_whose_after_is_not_its_flip():
    g = tetrahedron()
    flipped = flip(g, 0)
    rec = FlipRecord(1, flipped.corners, g, flipped.after, flipped.rule)
    with pytest.raises(PathError, match=r"^cannot transport step 9 -> 1 across the flip$"):
        transport_path(rec, (9, 1, 2, 10))


def test_transport_refuses_a_record_whose_edge_is_not_the_flipped_one():
    # every step of (2, 5) fits the after graph of edge 0's flip, so only the record check sees edge 1
    g = once_punctured_torus((0.3, -0.7, 1.1))
    f = flip(g, 0)
    with pytest.raises(FatGraphError, match="^the record's after graph is not the flip of edge 1$"):
        transport_path(FlipRecord(1, f.corners, g, f.after, f.rule), (2, 5))
    assert transport_path(f, (2, 5)) == (0, 5, 0, 2)
    # a hand-built record's edge passes the edge rule, and a self-loop has no flip to compare with
    dumbbell = FatGraph([1, 2, 0, 4, 5, 3], [0, 0, 0])
    with pytest.raises(FatGraphError, match="^edge 0 is a self-loop and cannot be flipped$"):
        transport_path(FlipRecord(0, (), dumbbell, dumbbell, "anti"), (4,))
    for edge, message in ((3, "^edge 3 out of range$"), (True, "^edge True is not an integer edge index$")):
        with pytest.raises(FatGraphError, match=message):
            transport_path(FlipRecord(edge, f.corners, g, f.after, f.rule), (2, 5))


def test_transport_roundtrip():
    # transporting across a flip and back returns a word with the same trace
    rng = random.Random(37)
    for _ in range(25):
        g = once_punctured_torus(_labels(rng, 3))
        rec = flip(g, 0)
        back = flip(rec.after, 0)
        for word in (TORUS_A, TORUS_B, TORUS_HOLE):
            there = transport_path(rec, word)
            home = transport_path(back, there)
            assert geodesic_function(g, word) == geodesic_function(back.after, home)


# -- the cached flip plan against the uncached flip ------------------------------


def _reference_flip(g, e):
    """The flip as written before its plan was cached: (sigma, corners, rule, z)."""
    if not 0 <= e < g.n_edges:
        raise FatGraphError(f"edge {e} out of range")
    a, b = 2 * e, 2 * e + 1
    sigma = list(g.sigma)
    if b in (sigma[a], sigma[sigma[a]]):
        raise FatGraphError(f"edge {e} is a self-loop and cannot be flipped")
    p1, q1 = sigma[a], sigma[sigma[a]]
    p2, q2 = sigma[b], sigma[sigma[b]]
    new = list(sigma)
    if min(p1, p2, q1, q2) in (p1, p2):
        rule = "anti"
        new[a], new[q1], new[p2] = q1, p2, a
        new[b], new[q2], new[p1] = q2, p1, b
    else:
        rule = "clock"
        new[a], new[q2], new[p1] = q2, p1, a
        new[b], new[q1], new[p2] = q1, p2, b
    ze = float(g.z[e])
    z = [float(x) for x in g.z]
    z[e] = -ze if ze != 0.0 else 0.0
    for corner, delta in ((p1, phi(ze)), (p2, phi(ze)), (q1, -phi(-ze)), (q2, -phi(-ze))):
        z[corner >> 1] += delta
    return tuple(new), (p1, q2, p2, q1), rule, z


def _typed_labels(rng, n, kind):
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(n)]
    if kind == "fraction":
        return [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
    return _labels(rng, n)


def _flippable_edge(g, rng):
    """A random edge that flips; each self-loop drawn first is refused with the reference's message."""
    for e in rng.sample(range(g.n_edges), g.n_edges):
        try:
            _reference_flip(g, e)
        except FatGraphError as ref:
            with pytest.raises(FatGraphError) as exc:
                flip(g, e)
            assert str(exc.value) == str(ref)
            continue
        return e
    raise AssertionError("no flippable edge")


@pytest.mark.parametrize("make", [once_punctured_torus, tetrahedron], ids=["torus", "tetrahedron"])
def test_flip_walk_matches_the_uncached_flip_bit_for_bit(make):
    rng = random.Random(17)
    g = make()
    for step in range(150):
        g = g.with_labels(_typed_labels(rng, g.n_edges, ("int", "float", "fraction")[step % 3]))
        e = _flippable_edge(g, rng)
        sigma, corners, rule, z = _reference_flip(g, e)
        rec = flip(g, e)
        assert (rec.after.sigma, rec.corners, rec.rule, rec.before) == (sigma, corners, rule, g)
        assert [x.hex() for x in rec.after.z] == [x.hex() for x in z]
        g = rec.after


def test_self_loop_refusal_keeps_its_message():
    loop = FatGraph([1, 2, 0, 4, 5, 3], (0, 0, 0))
    for _ in range(2):  # the refusal is not cached away
        with pytest.raises(FatGraphError, match=r"^edge 0 is a self-loop and cannot be flipped$"):
            flip(loop, 0)
    with pytest.raises(FatGraphError, match=r"^edge 3 out of range$"):
        flip(loop, 3)


@pytest.mark.parametrize(
    "edge,message",
    [
        (10**5000, r"^edge <int of 16610 bits> out of range$"),
        ("x", r"^edge 'x' is not an integer edge index$"),
        (2.0, r"^edge 2\.0 is not an integer edge index$"),
        (True, r"^edge True is not an integer edge index$"),
        (99, r"^edge 99 out of range$"),
        (-1, r"^edge -1 out of range$"),
    ],
    ids=["huge-int", "str", "float", "bool", "past-the-end", "negative"],
)
def test_flip_accepts_only_a_plain_int_edge(edge, message):
    # the relation checks read the same edge rule, in either slot, before judging any vertex
    g = tetrahedron()
    for refuse in (
        lambda: flip(g, edge),
        lambda: check_commutation(g, edge, 5),
        lambda: check_commutation(g, 0, edge),
        lambda: check_pentagon(g, 0, edge),
    ):
        with pytest.raises(FatGraphError, match=message):
            refuse()


def test_flip_overflow_still_hits_the_label_rule():
    g = once_punctured_torus((1.7e308, 1.7e308, 0.0))
    with pytest.raises(FatGraphError, match=r"^label z\[1\] = inf is not a finite number$"):
        flip(g, 0)


# -- the fused corner law and the record ------------------------------------------

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 708.0, -708.0, 710.0, -710.0]


def test_phi_pair_is_the_two_phi_calls_bit_for_bit():
    rng = random.Random(67)
    values = _EXTREMES + [800.0, -800.0, 1.7e308, -1.7e308] + [rng.uniform(-40, 40) for _ in range(20000)]
    values += [rng.uniform(-800, 800) for _ in range(20000)]
    for z in values:
        up, down = _phi_pair(z)
        want_up, want_down = _two_branch_phi(z), -_two_branch_phi(-z)
        assert (up, down) == (want_up, want_down), z
        assert (math.copysign(1.0, up), math.copysign(1.0, down)) == (
            math.copysign(1.0, want_up),
            math.copysign(1.0, want_down),
        ), z


@pytest.mark.parametrize("make", [once_punctured_torus, tetrahedron], ids=["torus", "tetrahedron"])
def test_flip_matches_the_uncached_flip_at_extreme_labels(make):
    rng = random.Random(71)
    g = make()
    for _ in range(300):
        g = g.with_labels([rng.choice(_EXTREMES) for _ in range(g.n_edges)])
        e = _flippable_edge(g, rng)
        sigma, corners, rule, z = _reference_flip(g, e)
        rec = flip(g, e)
        assert (rec.after.sigma, rec.corners, rec.rule) == (sigma, corners, rule)
        assert [x.hex() for x in rec.after.z] == [x.hex() for x in z]


def test_finite_corners_whose_sum_overflows_still_flip():
    g = once_punctured_torus((0.0, 1e308, 1e308))
    rec = flip(g, 0)
    assert [x.hex() for x in rec.after.z] == [x.hex() for x in _reference_flip(g, 0)[3]]
    assert all(math.isfinite(x) for x in rec.after.z)


def test_flip_record_keeps_its_frozen_dataclass_behaviour():
    rng = random.Random(73)
    for make, labels in ((once_punctured_torus, (0.3, -0.7, 1.1)), (tetrahedron, _typed_labels(rng, 6, "fraction"))):
        g = make(labels)
        rec = flip(g, 1)
        built = FlipRecord(rec.edge, rec.corners, rec.before, rec.after, rec.rule)
        assert rec == built and repr(rec) == repr(built)
        assert vars(rec) == vars(built) and list(vars(rec)) == [f.name for f in dataclasses.fields(FlipRecord)]
        assert dataclasses.replace(rec, rule="clock") == dataclasses.replace(built, rule="clock")
        for name in ("edge", "after", "rule", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rec.edge
        assert rec == built


def test_flip_record_hashes():
    rec = flip(once_punctured_torus((0.1, 0.2, 0.3)), 0)
    built = FlipRecord(rec.edge, rec.corners, rec.before, rec.after, rec.rule)
    assert hash(rec) == hash(built) and len({rec, built}) == 1


def _face_orbits(sigma):
    seen, faces = set(), []
    for d0 in range(len(sigma)):
        if d0 not in seen:
            face, d = [], d0
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = sigma[d ^ 1]
            faces.append(face)
    return faces


def _reference_perimeters(g):
    """Perimeter values from the test's own face walk, summed in edge order."""
    out = []
    for face in _face_orbits(g.sigma):
        mult = [0] * g.n_edges
        for d in face:
            mult[d >> 1] += 1
        out.append(sum(m * z for m, z in zip(mult, g.z)))
    return sorted(out)


@pytest.mark.parametrize("make", [once_punctured_torus, tetrahedron], ids=["torus", "tetrahedron"])
def test_perimeter_residual_matches_the_face_walk_bit_for_bit(make):
    rng = random.Random(23)
    g = make()
    for step in range(60):
        g = g.with_labels(_typed_labels(rng, g.n_edges, ("int", "float", "fraction")[step % 3]))
        e = _flippable_edge(g, rng)
        after = flip(g, e).after
        before_vals, after_vals = _reference_perimeters(g), _reference_perimeters(after)
        assert before_vals == sorted(g.face_perimeter(f)[1] for f in g.faces())
        assert after_vals == sorted(after.face_perimeter(f)[1] for f in after.faces())
        residual = max(abs(x - y) for x, y in zip(before_vals, after_vals))
        assert check_perimeters(g, e)["residual"].hex() == float(residual).hex()
        g = after
