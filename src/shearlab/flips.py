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
up to relabeling.  The label update is one law on tuples, ``_law``: ``flip``
and the involution and perimeter checks (which build no graph) share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul, sub

from .fatgraph import FatGraph, FatGraphError, _check_labels, _spanning_walk, _table, edge_of, opposite, short_repr
from .fatgraph import once_punctured_torus
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
    """The label-free part of flipping ``e``; a self-loop is refused (and not cached).

    Returns (the re-glued graph with zero labels, corners (P1, Q2, P2, Q1), rule,
    (e, edges of P1, P2, Q1, Q2), the face multiplicity vectors before and after).
    """
    a, b = 2 * e, 2 * e + 1
    if b in (sigma[a], sigma[sigma[a]]):
        raise FatGraphError(f"edge {e} is a self-loop and cannot be flipped")
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
    faces = tuple(tuple(_table(s)[1].values()) for s in (sigma, shape.sigma))
    return shape, (p1, q2, p2, q1), rule, (e, *(edge_of(d) for d in (p1, p2, q1, q2))), faces


def _law(plan, z) -> tuple:
    """The flipped labels of labels ``z`` as finite floats; only a corner can overflow, refused by the label rule."""
    e, ep1, ep2, eq1, eq2 = plan[3]
    z = list(map(float, z))
    ze = z[e]
    z[e] = -ze if ze != 0.0 else 0.0
    up, down = _phi_pair(ze)
    z[ep1] += up
    z[ep2] += up
    z[eq1] += down
    z[eq2] += down
    if not math.isfinite(z[ep1] + z[ep2] + z[eq1] + z[eq2]):  # finite only if each corner is
        _check_labels(z)
    return tuple(z)


def flip(g: FatGraph, e: int) -> FlipRecord:
    """Flip edge ``e`` of ``g``.

    The re-glued sigma, the corners and the rule depend on ``(g.sigma, e)``
    alone and are planned once per pair (a small LRU cache); only the label
    law ``_law``, which the involution and perimeter checks share, runs per
    call.  The edge must pass the edge rule ``_edge``.
    """
    plan = _flip_plan(g.sigma, _edge(g, e))
    record = object.__new__(FlipRecord)  # FlipRecord(...) without the frozen __init__'s __setattr__ per field
    record.__dict__.update(edge=e, corners=plan[1], before=g, after=plan[0]._relabel(_law(plan, g.z)), rule=plan[2])
    return record


def transport_path(record: FlipRecord, path):
    """Rewrite a path word across the flip quadrilateral.

    Darts off the flipped edge are kept; traversals of the flipped edge are
    dropped and re-inserted exactly where the re-glued quadrilateral requires
    a crossing.  Each kept consecutive pair is checked against the after
    graph, so the result is valid by construction.  A record whose after
    graph is not the flip of its edge is refused.
    """
    path = tuple(path)
    _steps(record.before, path)
    e = _edge(record.before, record.edge)
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
    if _flip_plan(record.before.sigma, e)[0].sigma != after.sigma:  # every step may fit a wrong after graph
        raise FatGraphError(f"the record's after graph is not the flip of edge {e}")
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
    if len(walk) + 1 != n or g2.n_darts != n or _label_gap(g1.z, g2.z, edge_map) > _TOL:
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


def _label_gap(z1, z2, edge_map=None) -> float:
    """The largest ``|z1[i] - z2[edge_map[i]]|`` of two label tuples; the identity map when ``edge_map`` is None."""
    z2 = z2 if edge_map is None else [z2[j] for j in edge_map]
    return max(map(abs, map(sub, map(float, z1), map(float, z2))))


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
    """Flipping e twice returns g: the law through the plan, then through the reverse plan."""
    plan = _flip_plan(g.sigma, _edge(g, e))
    back = _flip_plan(plan[0].sigma, e)
    sigma_equal = back[0].sigma == g.sigma
    twice = _law(back, _law(plan, g.z))
    return float_report("involution", _label_gap(twice, g.z), _TOL, sigma_equal, edge=e, sigma_equal=sigma_equal)


def check_commutation(g: FatGraph, e1: int, e2: int) -> dict:
    if _shared_vertices(g, e1, e2):
        raise FatGraphError(f"edges {e1} and {e2} share a vertex; commutation needs disjoint edges")
    ab, ba = _flip_word(g, (e1, e2)), _flip_word(g, (e2, e1))
    same = ab.sigma == ba.sigma
    return float_report("commutation", _label_gap(ab.z, ba.z), _TOL, same, edges=[e1, e2], sigma_equal=same)


def check_pentagon(g: FatGraph, e1: int, e2: int) -> dict:
    """Five alternating flips return the graph up to transposing the two edges."""
    shared = _shared_vertices(g, e1, e2)
    if shared != 1:
        raise FatGraphError(f"pentagon needs edges sharing exactly one vertex; {e1},{e2} share {shared}")
    h = _flip_word(g, (e1, e2, e1, e2, e1))
    edge_map = list(range(g.n_edges))
    edge_map[e1], edge_map[e2] = e2, e1
    ok = find_isomorphism(g, h, edge_map) is not None  # which already bounds this same label gap by _TOL
    return float_report("pentagon", _label_gap(h.z, g.z, edge_map), _TOL, ok, edges=[e1, e2])


def check_perimeters(g: FatGraph, e: int) -> dict:
    """Every face perimeter is invariant under the flip of e: the law once, summed over the plan's face tables.

    A perimeter past the float range is refused with ``FatGraphError``, as
    the label rule refuses a label: it would read as ``inf - inf = nan``.
    """
    plan = _flip_plan(g.sigma, _edge(g, e))
    z, (faces, faces_after) = _law(plan, g.z), plan[4]
    before_vals = sorted([sum(map(mul, mult, g.z)) for mult in faces])
    after_vals = sorted([sum(map(mul, mult, z)) for mult in faces_after])
    try:  # an exact int perimeter past the float range overflows here
        gaps = list(map(abs, map(sub, before_vals, after_vals)))
    except OverflowError:
        gaps = [math.inf]
    if not all(map(math.isfinite, gaps)):  # max() alone would skip a nan gap after the first
        raise FatGraphError(f"a face perimeter of labels {short_repr(g.z)} is not a finite number")
    return float_report("perimeter", max(gaps), _TOL, len(before_vals) == len(after_vals), edge=e)


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
