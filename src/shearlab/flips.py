"""Flip (Whitehead) moves: quadrilateral re-gluing, the phi-label law,
path transport, and the flip relations (involution, commutation, pentagon).

For an edge e with darts a = 2e, b = 2e+1 at distinct trivalent vertices the
four corner darts are

    P1 = sigma(a), Q1 = sigma^2(a)   at the vertex of a,
    P2 = sigma(b), Q2 = sigma^2(b)   at the vertex of b,

so the corners in cyclic order around the quadrilateral are
(P1, Q2, P2, Q1).  The flip re-glues e along the other diagonal, pairing
{Q1, P2} and {Q2, P1}, and updates labels by

    z_e -> -z_e,
    edge(P1), edge(P2)  +=  phi(z_e),
    edge(Q1), edge(Q2)  -=  phi(-z_e),        phi(z) = log(1 + e^z),

with contributions adding when one edge occupies two corners (the torus
doubling).  Alternate corners around the quadrilateral thus receive
+phi(z_e) and -phi(-z_e); this orientation is the one that preserves all
geodesic traces and face perimeters (phi(z) - phi(-z) = z makes the
cancellations exact).

Two dart assignments realize the re-glued pairing (which dart of e ends up
at which new vertex).  We pick the one determined by where the smallest
corner dart sits; the choice alternates under repeated flips, which makes
flip an exact involution on (sigma, labels) rather than an involution only
up to relabeling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .fatgraph import FatGraph, FatGraphError, edge_of, once_punctured_torus, opposite
from .geodesics import PathError, float_report, next_darts, validate_path

_TOL = 1e-12  # label agreement, and the residual bound of every flip relation


def phi(z: float) -> float:
    """log(1 + e^z), computed stably."""
    if z > 0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


@dataclass(frozen=True)
class FlipRecord:
    edge: int
    corners: tuple  # (P1, Q2, P2, Q1): cyclic order around the quadrilateral
    before: FatGraph
    after: FatGraph
    rule: str  # which dart assignment was used for the new gluing

    def to_json(self):
        return {
            "edge": self.edge,
            "corners": list(self.corners),
            "rule": self.rule,
            "before": self.before.to_json(),
            "after": self.after.to_json(),
        }


@functools.lru_cache(maxsize=256)
def _flip_plan(sigma, e):
    """The label-free part of flipping ``e``, or None for a self-loop.

    Returns (the re-glued graph with zero labels, corners (P1, Q2, P2, Q1),
    rule, edges of P1, P2, Q1, Q2).
    """
    a, b = 2 * e, 2 * e + 1
    if b in (sigma[a], sigma[sigma[a]]):
        return None
    p1, q1 = sigma[a], sigma[sigma[a]]
    p2, q2 = sigma[b], sigma[sigma[b]]

    new = list(sigma)
    if min(p1, p2, q1, q2) in (p1, p2):
        rule = "anti"
        # new vertex cycles (a, Q1, P2) and (b, Q2, P1)
        new[a], new[q1], new[p2] = q1, p2, a
        new[b], new[q2], new[p1] = q2, p1, b
    else:
        rule = "clock"
        # new vertex cycles (a, Q2, P1) and (b, Q1, P2)
        new[a], new[q2], new[p1] = q2, p1, a
        new[b], new[q1], new[p2] = q1, p2, b
    shape = FatGraph(new, [0] * (len(new) // 2))
    return shape, (p1, q2, p2, q1), rule, tuple(edge_of(d) for d in (p1, p2, q1, q2))


def flip(g: FatGraph, e: int) -> FlipRecord:
    """Flip edge ``e`` of ``g``.

    The re-glued sigma, the corners and the rule depend on ``(g.sigma, e)``
    alone and are planned once per pair (a small LRU cache); only the label
    law runs per call.  The after-graph's labels are still checked by the
    ``FatGraph`` label rule, so an overflow to inf raises ``FatGraphError``.
    """
    if not 0 <= e < g.n_edges:
        raise FatGraphError(f"edge {e} out of range")
    plan = _flip_plan(g.sigma, e)
    if plan is None:
        raise FatGraphError(f"edge {e} is a self-loop and cannot be flipped")
    shape, corners, rule, (ep1, ep2, eq1, eq2) = plan

    ze = float(g.z[e])
    z = [float(x) for x in g.z]
    z[e] = -ze if ze != 0.0 else 0.0
    up, down = phi(ze), -phi(-ze)
    z[ep1] += up
    z[ep2] += up
    z[eq1] += down
    z[eq2] += down
    return FlipRecord(e, corners, g, shape.with_labels(z), rule)


def transport_path(record: FlipRecord, path):
    """Rewrite a path word across the flip quadrilateral.

    Darts off the flipped edge are kept; traversals of the flipped edge are
    dropped and re-inserted exactly where the re-glued quadrilateral requires
    a crossing.  Each kept consecutive pair is checked against the after
    graph, so the result is valid by construction.
    """
    path = validate_path(record.before, path)
    e = record.edge
    after = record.after
    kept = [d for d in path if edge_of(d) != e]
    if not kept:
        raise PathError("path has no darts outside the flipped edge")
    out = []
    n = len(kept)
    for i, x in enumerate(kept):
        out.append(x)
        y = kept[(i + 1) % n]
        if y in next_darts(after, x):
            continue
        for w in (2 * e, 2 * e + 1):
            if w in next_darts(after, x) and y in next_darts(after, w):
                out.append(w)
                break
        else:
            raise PathError(f"cannot transport step {x} -> {y} across the flip")
    # rotate so the word starts at its smallest dart (canonical cyclic form)
    k = out.index(min(out))
    out = tuple(out[k:] + out[:k])
    return validate_path(after, out)


# -- graph equivalence --------------------------------------------------------


def find_isomorphism(g1: FatGraph, g2: FatGraph, edge_map=None):
    """Dart bijection taking (opp, sigma) of g1 to g2 and edge i to edge_map[i].

    Returns the dart map as a list, or None.  Labels must agree through
    edge_map within 1e-12.
    """
    if g1.n_darts != g2.n_darts:
        return None
    n = g1.n_darts
    if edge_map is None:
        edge_map = list(range(g1.n_edges))
    if _label_gap(g1, g2, edge_map) > _TOL:
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


def equivalent(g1: FatGraph, g2: FatGraph, edge_map=None) -> bool:
    return find_isomorphism(g1, g2, edge_map) is not None


# -- flip relations -----------------------------------------------------------


def _label_gap(g1: FatGraph, g2: FatGraph, edge_map=None) -> float:
    """The largest ``|g1.z[i] - g2.z[edge_map[i]]|``; the identity map when ``edge_map`` is None."""
    z2 = g2.z if edge_map is None else [g2.z[j] for j in edge_map]
    return max([abs(float(x) - float(y)) for x, y in zip(g1.z, z2)])


def _flip_word(g: FatGraph, edges) -> FatGraph:
    """The graph after flipping ``edges`` of ``g`` in order."""
    for e in edges:
        g = flip(g, e).after
    return g


def _shared_vertices(g: FatGraph, e1: int, e2: int) -> int:
    """How many vertices of g touch both e1 and e2."""
    darts1, darts2 = {2 * e1, 2 * e1 + 1}, {2 * e2, 2 * e2 + 1}
    return sum(1 for v in g.vertices() if darts1.intersection(v) and darts2.intersection(v))


def check_involution(g: FatGraph, e: int) -> dict:
    twice = _flip_word(g, (e, e))
    sigma_equal = twice.sigma == g.sigma
    return float_report("involution", _label_gap(twice, g), _TOL, sigma_equal, edge=e, sigma_equal=sigma_equal)


def check_commutation(g: FatGraph, e1: int, e2: int) -> dict:
    if _shared_vertices(g, e1, e2):
        raise FatGraphError(f"edges {e1} and {e2} share a vertex; commutation needs disjoint edges")
    ab, ba = _flip_word(g, (e1, e2)), _flip_word(g, (e2, e1))
    sigma_equal = ab.sigma == ba.sigma
    return float_report("commutation", _label_gap(ab, ba), _TOL, sigma_equal, edges=[e1, e2], sigma_equal=sigma_equal)


def check_pentagon(g: FatGraph, e1: int, e2: int) -> dict:
    """Five alternating flips return the graph up to transposing the two edges."""
    shared = _shared_vertices(g, e1, e2)
    if shared != 1:
        raise FatGraphError(f"pentagon needs edges sharing exactly one vertex; {e1},{e2} share {shared}")
    h = _flip_word(g, (e1, e2, e1, e2, e1))
    edge_map = list(range(g.n_edges))
    edge_map[e1], edge_map[e2] = e2, e1
    ok = equivalent(g, h, edge_map)  # which already bounds this same label gap by _TOL
    return float_report("pentagon", _label_gap(h, g, edge_map), _TOL, ok, edges=[e1, e2])


def check_perimeters(g: FatGraph, e: int) -> dict:
    """Every face perimeter is invariant under the flip of e."""
    after = flip(g, e).after
    before_vals = sorted([v for _, v in g.perimeters()])
    after_vals = sorted([v for _, v in after.perimeters()])
    residual = max(abs(x - y) for x, y in zip(before_vals, after_vals))
    return float_report("perimeter", residual, _TOL, len(before_vals) == len(after_vals), edge=e)


def torus_flip_map(labels):
    """Coordinate map of the z0-flip on the once-punctured torus.

    The after graph is relabeled to the standard anticlockwise edge order
    (the flipped edge stays in position 0), giving

        z0 -> -z0,  z1 -> z2 - 2 phi(-z0),  z2 -> z1 + 2 phi(z0).
    """
    after = flip(once_punctured_torus(labels), 0).after
    # anticlockwise edge cycle at the after-vertex of dart 0 is (e0, e2, e1)
    return tuple(float(after.z[edge_of(d)]) for d in after.vertices()[0])


def torus_modular_check(labels) -> dict:
    """U -> U^-1 and V -> e^{l_P/2} V^-1 / (U + U^-1) under the z0-flip.

    U = e^{z0/2}; V is the multiplicative coordinate of the non-flipped label
    that transforms contravariantly (z1 in this engine's edge numbering).
    """
    z0, z1, z2 = (float(x) for x in labels)
    new = torus_flip_map(labels)
    u, v = math.exp(z0 / 2.0), math.exp(z1 / 2.0)
    lp = z0 + z1 + z2
    u_new, v_new = math.exp(new[0] / 2.0), math.exp(new[1] / 2.0)
    res_u = abs(u_new - 1.0 / u)
    res_v = abs(v_new - math.exp(lp / 2.0) / (v * (u + 1.0 / u)))
    residual = max(res_u, res_v, abs(u_new * u - 1.0))
    return float_report("torus_modular", residual, _TOL, labels=[z0, z1, z2], after=list(new))
