"""The flip relation checks against a test-owned copy of their earlier form.

The reference below spells each flip sequence and each label gap out by hand,
as ``check_involution``, ``check_commutation`` and ``check_pentagon`` once
did, and builds the flipped graph and its perimeters as ``check_perimeters``
once did.  The library now builds them from one flip-word walker, one label
law and one label-gap helper; every residual must match bit for bit, and every
verdict and refusal must match exactly, on seeded, exact and overflowing
labels and on the graphs of a long flip walk.  One rule is newer than that
form: a face perimeter past the float range is refused with the label rule's
``FatGraphError``, where the earlier form raised ``OverflowError``, reported a
``nan`` residual, or passed because ``max`` skipped a ``nan`` gap.
"""

import math
import random
from fractions import Fraction
from operator import sub

import pytest

from shearlab.fatgraph import FatGraph, FatGraphError, edge_of, once_punctured_torus, opposite, short_repr, tetrahedron
from shearlab.flips import check_commutation, check_involution, check_pentagon, check_perimeters, find_isomorphism, flip
from shearlab.geodesics import float_report

from test_flips import _random_connected_graph, _relabel, _typed_labels

_TOL = 1e-12


def _ref_find_isomorphism(g1, g2, edge_map=None):
    if g1.n_darts != g2.n_darts:
        return None
    n = g1.n_darts
    if edge_map is None:
        edge_map = list(range(g1.n_edges))
    for i in range(g1.n_edges):
        if abs(float(g1.z[i]) - float(g2.z[edge_map[i]])) > _TOL:
            return None
    for seed in (2 * edge_map[0], 2 * edge_map[0] + 1):
        psi = [-1] * n
        psi[0] = seed
        psi[1] = opposite(seed)
        stack = [0, 1]
        ok = True
        while stack and ok:
            d = stack.pop()
            for nd, target in ((g1.sigma[d], g2.sigma[psi[d]]), (opposite(d), opposite(psi[d]))):
                if psi[nd] == -1:
                    if edge_map[edge_of(nd)] != edge_of(target):
                        ok = False
                        break
                    psi[nd] = target
                    stack.append(nd)
                elif psi[nd] != target:
                    ok = False
                    break
        if ok and -1 not in psi and len(set(psi)) == n:
            if all(g2.sigma[psi[d]] == psi[g1.sigma[d]] for d in range(n)):
                return psi
    return None


def _ref_labels_close(g1, g2):
    return max(abs(float(x) - float(y)) for x, y in zip(g1.z, g2.z))


def _ref_shared_vertices(g, e1, e2):
    darts1, darts2 = {2 * e1, 2 * e1 + 1}, {2 * e2, 2 * e2 + 1}
    return sum(1 for v in g.vertices() if darts1.intersection(v) and darts2.intersection(v))


def _ref_involution(g, e):
    twice = flip(flip(g, e).after, e).after
    sigma_equal = twice.sigma == g.sigma
    residual = _ref_labels_close(twice, g)
    return float_report("involution", residual, _TOL, sigma_equal, edge=e, sigma_equal=sigma_equal)


def _float_finite(x):
    try:
        return math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _ref_perimeters(g, e):
    after = flip(g, e).after
    before_vals = sorted([v for _, v in g.perimeters()])
    after_vals = sorted([v for _, v in after.perimeters()])
    if not all(map(_float_finite, before_vals + after_vals)):
        raise FatGraphError(f"a face perimeter of labels {short_repr(g.z)} is not a finite number")
    residual = max(map(abs, map(sub, before_vals, after_vals)))
    return float_report("perimeter", residual, _TOL, len(before_vals) == len(after_vals), edge=e)


def _ref_commutation(g, e1, e2):
    if _ref_shared_vertices(g, e1, e2):
        raise FatGraphError(f"edges {e1} and {e2} share a vertex; commutation needs disjoint edges")
    ab = flip(flip(g, e1).after, e2).after
    ba = flip(flip(g, e2).after, e1).after
    sigma_equal = ab.sigma == ba.sigma
    residual = _ref_labels_close(ab, ba)
    return float_report("commutation", residual, _TOL, sigma_equal, edges=[e1, e2], sigma_equal=sigma_equal)


def _ref_pentagon(g, e1, e2):
    shared = _ref_shared_vertices(g, e1, e2)
    if shared != 1:
        raise FatGraphError(f"pentagon needs edges sharing exactly one vertex; {e1},{e2} share {shared}")
    h = g
    for e in (e1, e2, e1, e2, e1):
        h = flip(h, e).after
    edge_map = list(range(g.n_edges))
    edge_map[e1], edge_map[e2] = e2, e1
    ok = _ref_find_isomorphism(g, h, edge_map=edge_map) is not None
    swapped_z = list(map(float, g.z))
    swapped_z[e1], swapped_z[e2] = swapped_z[e2], swapped_z[e1]
    residual = max(abs(a - float(b)) for a, b in zip(swapped_z, h.z))
    return float_report("pentagon", residual, _TOL, ok, edges=[e1, e2])


def _outcome(check, *args):
    """The report with its residual as hex, or the refusal's type and message."""
    try:
        rep = check(*args)
    except FatGraphError as exc:
        return ("refused", str(exc))
    return {**rep, "residual": rep["residual"].hex()}


def _assert_same_one_edge_checks(g):
    """Involution and perimeters on every edge of g match the reference; the outcomes, for counting."""
    outcomes = []
    for e in range(g.n_edges):
        for new, ref in ((check_involution, _ref_involution), (check_perimeters, _ref_perimeters)):
            got = _outcome(new, g, e)
            assert got == _outcome(ref, g, e), (new.__name__, g, e)
            outcomes.append(got)
    return outcomes


def _assert_same(g):
    # the torus's three edges share both vertices, so its pairs all take the refusal path
    _assert_same_one_edge_checks(g)
    legal = 0
    for e in range(g.n_edges):
        for e2 in range(g.n_edges):
            if e2 == e:
                continue
            for new, ref in ((check_commutation, _ref_commutation), (check_pentagon, _ref_pentagon)):
                got = _outcome(new, g, e, e2)
                assert got == _outcome(ref, g, e, e2), (new.__name__, g, e, e2)
                legal += isinstance(got, dict)
    return legal


def _seeded(make, n, rng):
    return make([rng.uniform(-2.0, 2.0) for _ in range(n)])


@pytest.mark.parametrize("make,n", [(once_punctured_torus, 3), (tetrahedron, 6)], ids=["torus", "tetrahedron"])
def test_relations_match_the_reference_on_seeded_labels(make, n):
    rng = random.Random(41)
    for _ in range(20):
        _assert_same(_seeded(make, n, rng))


def test_relations_match_the_reference_along_a_flip_walk():
    rng = random.Random(43)
    g = _seeded(tetrahedron, 6, rng)
    legal = _assert_same(g)
    for _ in range(100):
        while True:
            try:
                g = flip(g, rng.randrange(g.n_edges)).after
                break
            except FatGraphError:
                continue  # a self-loop; draw another edge
        legal += _assert_same(g)
    assert legal > 100  # the walk reaches many commuting and pentagon pairs, not only refusals


def test_pentagon_and_commutation_match_on_mixed_label_types():
    rng = random.Random(47)
    g = tetrahedron()
    for k in range(12):
        z = [(rng.randint(-3, 3), Fraction(rng.randint(-9, 9), 7), rng.uniform(-2, 2))[(k + i) % 3] for i in range(6)]
        _assert_same(FatGraph(g.sigma, z))


def test_find_isomorphism_matches_the_reference_on_a_seeded_sweep():
    # the torus, the tetrahedron and random connected graphs, each with seeded and with zero labels, against a
    # random relabelling (orientation flips included) and itself, under the identity, the true and a random map
    rng = random.Random(53)
    found = missed = 0
    for _ in range(40):
        for g in (
            _seeded(once_punctured_torus, 3, rng),
            _seeded(tetrahedron, 6, rng),
            _random_connected_graph(rng, 2 * rng.randint(1, 4)),
        ):
            for g1 in (g, g.with_labels([0] * g.n_edges)):
                h, true_map = _relabel(g1, rng)
                random_map = [rng.randrange(g1.n_edges) for _ in range(g1.n_edges)]
                for g2 in (h, g1):
                    for edge_map in (None, true_map, random_map):
                        psi = find_isomorphism(g1, g2, edge_map)
                        assert psi == _ref_find_isomorphism(g1, g2, edge_map), (g1, g2, edge_map)
                        found += psi is not None
                        missed += psi is None
    assert found > 400 and missed > 400  # the sweep sees both verdicts


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("make,n", [(once_punctured_torus, 3), (tetrahedron, 6)], ids=["torus", "tetrahedron"])
def test_one_edge_checks_match_the_reference_on_exact_labels(make, n, kind):
    rng = random.Random(59)
    for _ in range(20):
        assert all(isinstance(r, dict) for r in _assert_same_one_edge_checks(make(_typed_labels(rng, n, kind))))


def test_one_edge_checks_match_the_reference_on_random_connected_graphs():
    rng = random.Random(61)
    outcomes = []
    for _ in range(40):
        outcomes += _assert_same_one_edge_checks(_random_connected_graph(rng, 2 * rng.randint(1, 4)))
    refused = [r for r in outcomes if not isinstance(r, dict)]
    assert refused and len(refused) < len(outcomes)  # self-loops are refused alike, the rest reported alike


def test_one_edge_checks_match_the_reference_where_a_corner_overflows():
    # torus corners take two contributions each, so a label near the float limit sends one of them to +-inf
    big = (-1.7e308, -1e308, -0.6e308, 0.0, 0.6e308, 1e308, 1.7e308)
    outcomes = []
    for z in [(a, b, c) for a in big for b in big for c in big]:
        outcomes += _assert_same_one_edge_checks(once_punctured_torus(z))
    rng = random.Random(67)
    for _ in range(40):
        z = [rng.uniform(-2.0, 2.0) for _ in range(6)]
        z[rng.randrange(6)] = rng.choice(big)
        z[rng.randrange(6)] = rng.choice(big)
        outcomes += _assert_same_one_edge_checks(tetrahedron(z))
    refusals = {r[1] for r in outcomes if not isinstance(r, dict)}
    assert any(m.endswith("= inf is not a finite number") for m in refusals)
    assert any(m.endswith("= -inf is not a finite number") for m in refusals)
    assert sum(isinstance(r, dict) for r in outcomes) > 100


@pytest.mark.parametrize(
    "make,z,e",
    [
        (once_punctured_torus, (0, 10**308, 10**308), 0),  # int - float raised a bare OverflowError
        (once_punctured_torus, (0.0, 1e308, 1e308), 0),  # inf - inf: residual nan
        (tetrahedron, (1e308, 1e308, 0, 0, 0, 0), 0),  # one face at inf: max skipped its nan gap, residual 0.0
    ],
    ids=["int", "float", "one-face"],
)
def test_a_perimeter_past_the_float_range_is_refused(make, z, e):
    g = make(z)
    with pytest.raises(FatGraphError, match=r"^a face perimeter of labels \(.*\) is not a finite number$"):
        check_perimeters(g, e)
    assert _outcome(check_perimeters, g, e) == _outcome(_ref_perimeters, g, e)
    assert check_involution(g, e)["equal"]  # the labels themselves are finite, and flip back
