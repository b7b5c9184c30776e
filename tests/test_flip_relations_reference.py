"""The flip relation checks against a test-owned copy of their earlier form.

The reference below spells each flip sequence and each label gap out by hand,
as ``check_involution``, ``check_commutation`` and ``check_pentagon`` once
did.  The library now builds them from one flip-word walker and one label-gap
helper; every residual must match bit for bit, and every verdict and refusal
must match exactly, on seeded labels and on the graphs of a long flip walk.
"""

import random
from fractions import Fraction

import pytest

from shearlab.fatgraph import FatGraph, FatGraphError, edge_of, once_punctured_torus, opposite, tetrahedron
from shearlab.flips import check_commutation, check_involution, check_pentagon, flip
from shearlab.geodesics import float_report

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


def _assert_same(g):
    # the torus's three edges share both vertices, so its pairs all take the refusal path
    legal = 0
    for e in range(g.n_edges):
        assert _outcome(check_involution, g, e) == _outcome(_ref_involution, g, e)
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
