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

The two corner terms share one exp and one log1p (``_phi_pair``): with
t = log1p(exp(-|z_e|)), (phi(z_e), -phi(-z_e)) is (z_e + t, -t) if z_e > 0
and (t, -(t - z_e)) otherwise, bit for bit, signed zeros included.

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
from operator import sub

from .fatgraph import FatGraph, FatGraphError, _spanning_walk, edge_of, once_punctured_torus, opposite, short_repr
from .geodesics import PathError, _steps, float_report, next_darts

_TOL = 1e-12  # label agreement, and the residual bound of every flip relation


def phi(z: float) -> float:
    """log(1 + e^z), computed stably: the first of ``_phi_pair``'s corner terms."""
    return _phi_pair(z)[0]


def _phi_pair(z: float) -> tuple:
    """``(phi(z), -phi(-z))`` from one exp and one log1p, bit for bit."""
    t = math.log1p(math.exp(-abs(z)))
    return (z + t, -t) if z > 0 else (t, -(t - z))


@dataclass(frozen=True)
class FlipRecord:
    edge: int
    corners: tuple  # (P1, Q2, P2, Q1): cyclic order around the quadrilateral
    before: FatGraph
    after: FatGraph
    rule: str  # which dart assignment was used for the new gluing


def _edge(g: FatGraph, e) -> int:
    """The one edge rule: ``e`` must be a plain ``int`` (no ``bool``) edge index of ``g``, else ``FatGraphError``."""
    if type(e) is not int:
        raise FatGraphError(f"edge {short_repr(e)} is not an integer edge index")
    if not 0 <= e < g.n_edges:
        raise FatGraphError(f"edge {short_repr(e)} out of range")
    return e


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
    law runs per call.  Only the four corner labels can leave the float
    range, so only they are checked; an overflow to inf goes through the
    ``FatGraph`` label rule and raises its ``FatGraphError``.
    The edge must pass the edge rule ``_edge``.
    """
    plan = _flip_plan(g.sigma, _edge(g, e))
    if plan is None:
        raise FatGraphError(f"edge {e} is a self-loop and cannot be flipped")
    shape, corners, rule, (ep1, ep2, eq1, eq2) = plan

    z = list(map(float, g.z))
    ze = z[e]
    z[e] = -ze if ze != 0.0 else 0.0
    up, down = _phi_pair(ze)
    z[ep1] += up
    z[ep2] += up
    z[eq1] += down
    z[eq2] += down
    # only a corner can overflow, and the four corners' sum is finite only if each is
    after = shape._relabel(tuple(z)) if math.isfinite(z[ep1] + z[ep2] + z[eq1] + z[eq2]) else shape.with_labels(z)
    record = object.__new__(FlipRecord)  # FlipRecord(...) without the frozen __init__'s __setattr__ per field
    record.__dict__.update(edge=e, corners=corners, before=g, after=after, rule=rule)
    return record


def transport_path(record: FlipRecord, path):
    """Rewrite a path word across the flip quadrilateral.

    Darts off the flipped edge are kept; traversals of the flipped edge are
    dropped and re-inserted exactly where the re-glued quadrilateral requires
    a crossing.  Each kept consecutive pair is checked against the after
    graph, so the result is valid by construction.
    """
    path = tuple(path)
    _steps(record.before, path)
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
    return tuple(out[k:] + out[:k])


# -- graph equivalence --------------------------------------------------------


def find_isomorphism(g1: FatGraph, g2: FatGraph, edge_map=None):
    """The dart bijection (a list) taking (opp, sigma) of g1 to g2 and edge i to edge_map[i], or None.

    It is read off g1's ``_spanning_walk`` from each seed of dart 0 and checked on every dart, so an
    empty or disconnected g1 has none.  Labels must agree through edge_map within 1e-12.  An
    edge_map that is not a list of g1.n_edges edge indices of g2 raises ``FatGraphError``.
    """
    if edge_map is None:
        edge_map = list(range(g1.n_edges))
    elif not (
        isinstance(edge_map, list)
        and len(edge_map) == g1.n_edges
        and all(type(j) is int and 0 <= j < g2.n_edges for j in edge_map)
    ):
        raise FatGraphError(f"edge_map {short_repr(edge_map)} is not a list of {g1.n_edges} edge indices of g2")
    n, walk = g1.n_darts, _spanning_walk(g1.sigma)
    if len(walk) + 1 != n or g2.n_darts != n or _label_gap(g1, g2, edge_map) > _TOL:
        return None
    for seed in (2 * edge_map[0], 2 * edge_map[0] + 1):
        psi = [seed] * n  # psi[0] = seed; the walk sets every other dart
        for parent, child, by_sigma in walk:
            psi[child] = g2.sigma[psi[parent]] if by_sigma else opposite(psi[parent])
        if len(set(psi)) == n and all(
            psi[g1.sigma[d]] == g2.sigma[psi[d]] and psi[opposite(d)] == opposite(psi[d])
            and edge_of(psi[d]) == edge_map[edge_of(d)]
            for d in range(n)
        ):
            return psi
    return None


# -- flip relations -----------------------------------------------------------


def _label_gap(g1: FatGraph, g2: FatGraph, edge_map=None) -> float:
    """The largest ``|g1.z[i] - g2.z[edge_map[i]]|``; the identity map when ``edge_map`` is None."""
    z2 = g2.z if edge_map is None else [g2.z[j] for j in edge_map]
    return max(map(abs, map(sub, map(float, g1.z), map(float, z2))))


def _flip_word(g: FatGraph, edges) -> FatGraph:
    """The graph after flipping ``edges`` of ``g`` in order."""
    for e in edges:
        g = flip(g, e).after
    return g


def _shared_vertices(g: FatGraph, e1: int, e2: int) -> int:
    """How many vertices of g touch both e1 and e2; both must pass the edge rule ``_edge`` first."""
    darts1, darts2 = ({2 * e, 2 * e + 1} for e in (_edge(g, e1), _edge(g, e2)))
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
    ok = find_isomorphism(g, h, edge_map) is not None  # which already bounds this same label gap by _TOL
    return float_report("pentagon", _label_gap(h, g, edge_map), _TOL, ok, edges=[e1, e2])


def check_perimeters(g: FatGraph, e: int) -> dict:
    """Every face perimeter is invariant under the flip of e."""
    after = flip(g, e).after
    before_vals = sorted([v for _, v in g.perimeters()])
    after_vals = sorted([v for _, v in after.perimeters()])
    residual = max(map(abs, map(sub, before_vals, after_vals)))
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
