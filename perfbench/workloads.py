"""The four workloads of the shearlab benchmark.

Each workload has a ``setup(lib, seed)`` that builds its operands once (graphs,
``omega_matrix``, Weyl operators) and a ``checks(lib, state, seed)`` generator
that yields ``Check`` objects forever.  A check is one identity verified on
one seeded input: ``run()`` is the timed call sequence into the public
functions of ``shearlab`` and returns ``(passed, evidence)``; ``oracle(evidence)``
is untimed and compares the library's numbers with the benchmark's own float
2x2 matrix products.  ``lib`` is the imported ``shearlab`` package; every call
goes through its module attributes so that tracing (which rebinds them) sees
it.  All inputs come from ``random.Random(seed)``; words are drawn by the
benchmark's own walker, not by the library.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from typing import Callable, NamedTuple

import numpy as np

REL_TOL = 1e-9
HBARS = (0.2, 0.5, 1.0, 2.0)
SEMICLASSICAL_HBAR = 0.01
# Fraction of a check's strip half-width from which its failures are the known
# defect.  phi_hbar overflows from ~0.944 of its half-width pi(1+hbar) (its
# p_max = 40/decay makes exp(-ipz) exceed the double range); the semiclassical
# check also misses its tolerance from ~0.943 of its half-width pi, where
# log(1 + e^z) nears its branch points.  A failure below this fraction makes
# the run incorrect.
KNOWN_DEFECT_EDGE = 0.94
# Each kind's strip is cut into this many bands per hbar, and z visits every
# (hbar, band) once per round in seeded order, so the share of z near the edge,
# and with it pass_frac, barely moves with the seed.
STRIP_BANDS = 50


class Check(NamedTuple):
    kind: str
    run: Callable  # () -> (passed, evidence); the timed call sequence
    oracle: Callable | None = None  # (evidence) -> agrees; untimed
    known_defect: bool = False  # a failure here is the documented phi_hbar defect


# -- the benchmark's own combinatorics and float oracle -------------------------


def closed_word(sigma, rng, lo, hi, start=None):
    """Seeded closed dart word of length lo..hi by rejection over random turns."""
    n = len(sigma)
    for _ in range(100000):
        length = rng.randint(lo, hi)
        d0 = rng.randrange(n) if start is None else start
        word = [d0]
        for _ in range(length - 1):
            left = sigma[word[-1] ^ 1]
            word.append(left if rng.random() < 0.5 else sigma[left])
        left = sigma[word[-1] ^ 1]
        if d0 in (left, sigma[left]):
            return tuple(word)
    raise RuntimeError(f"no closed word of length {lo}..{hi} found")


_L = np.array([[0.0, 1.0], [-1.0, -1.0]])
_R = np.array([[1.0, 1.0], [-1.0, 0.0]])


def float_traces(sigma, word, z):
    """|Tr(T_n X_n ... T_1 X_1)| for each row of the label array ``z``."""
    z = np.asarray(z, dtype=float)
    M = np.broadcast_to(np.eye(2), (len(z), 2, 2))
    n = len(word)
    for k, d in enumerate(word):
        left = sigma[d ^ 1]
        nxt = word[(k + 1) % n]
        if nxt == left:
            T = _L
        elif nxt == sigma[left]:
            T = _R
        else:
            raise ValueError(f"step {d} -> {nxt} is not a turn")
        h = np.exp(z[:, d >> 1] / 2.0)
        X = np.zeros((len(z), 2, 2))
        X[:, 0, 1] = -h
        X[:, 1, 0] = 1.0 / h
        M = T @ X @ M
    return np.abs(M[:, 0, 0] + M[:, 1, 1])


def agrees(values, reference) -> bool:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return bool(np.all(np.abs(values - reference) <= REL_TOL * np.abs(reference)))


def labels(rng, n):
    return [rng.uniform(-2.0, 2.0) for _ in range(n)]


# -- exact_skein -----------------------------------------------------------------


def graphs_setup(lib, seed):
    """The torus and tetrahedron graphs with their omega matrices."""
    fg = lib.fatgraph
    graphs = (fg.once_punctured_torus(), fg.tetrahedron())
    return {"graphs": graphs, "omegas": tuple(g.omega_matrix() for g in graphs)}


def _skein(lib, g, p, q):
    geo = lib.geodesics
    gp = geo.geodesic_function(g, p)
    gq = geo.geodesic_function(g, q)
    pq, pqi = geo.product_traces(g, p, q)
    return gp * gq == pq + pqi, ((p, gp), (q, gq))


def _leibniz(lib, g, omega, a, b, c):
    geo = lib.geodesics
    bracket = lib.exppoly.poisson_bracket
    ga, gb, gc = (geo.geodesic_function(g, w) for w in (a, b, c))
    lhs = bracket(ga, gb * gc, omega)
    rhs = bracket(ga, gb, omega) * gc + gb * bracket(ga, gc, omega)
    return lhs == rhs, ((a, ga), (b, gb), (c, gc))


def _word_oracle(sigma, z):
    def oracle(evidence):
        return all(agrees(poly.evaluate(z), float_traces(sigma, w, [z])[0]) for w, poly in evidence)

    return oracle


def _length_cycle(lengths, arity, total):
    """Word-length tuples with a fixed total, in one order shared by all seeds.

    Check cost grows steeply with the total length of the words it combines,
    so drawing lengths at random would make the mix of cheap and dear checks
    differ from run to run.  The seed picks the words; their lengths are every
    combination whose total is nearest ``total``, cycled in a fixed order.
    """
    combos = list(itertools.product(lengths, repeat=arity))
    best = min(abs(sum(c) - total) for c in combos)
    combos = [c for c in combos if abs(sum(c) - total) == best]
    random.Random(0).shuffle(combos)
    return itertools.cycle(combos)


def word_lengths(sigma, lo, hi):
    """The lengths in lo..hi that closed words on this graph can have.

    A closed word of length n is a closed walk of n turns, so one exists iff
    the n-th power of the dart successor matrix has a non-zero trace (the
    torus graph has none of odd length, the tetrahedron none of length 5).
    """
    n = len(sigma)
    succ = np.zeros((n, n), dtype=np.int64)
    for d in range(n):
        left = sigma[d ^ 1]
        succ[d, left] = succ[d, sigma[left]] = 1
    return [k for k in range(lo, hi + 1) if np.trace(np.linalg.matrix_power(succ, k)) > 0]


def exact_skein_checks(lib, state, seed):
    """Skein on word pairs (4-12, total 16) sharing a base dart, alternating
    with Leibniz on triples (3-7, total 15), on the torus and the tetrahedron."""
    rng = random.Random(seed)
    sigmas = [g.sigma for g in state["graphs"]]
    pair_lengths = [_length_cycle(word_lengths(s, 4, 12), 2, 16) for s in sigmas]
    triple_lengths = [_length_cycle(word_lengths(s, 3, 7), 3, 15) for s in sigmas]
    i = 0
    while True:
        side = (i // 2) % 2
        g, omega = state["graphs"][side], state["omegas"][side]
        z = labels(rng, g.n_edges)
        if i % 2 == 0:
            start = rng.randrange(g.n_darts)
            p, q = (closed_word(g.sigma, rng, n, n, start=start) for n in next(pair_lengths[side]))
            run = lambda g=g, p=p, q=q: _skein(lib, g, p, q)
            kind = "skein"
        else:
            a, b, c = (closed_word(g.sigma, rng, n, n) for n in next(triple_lengths[side]))
            run = lambda g=g, o=omega, a=a, b=b, c=c: _leibniz(lib, g, o, a, b, c)
            kind = "leibniz"
        yield Check(kind, run, _word_oracle(g.sigma, z))
        i += 1


# -- quantum_ops -----------------------------------------------------------------


def simple_cycles(sigma):
    """One closed word per graph-simple cycle (no edge twice).

    A rotation of a word, or the reversed word, runs round the same cycle and
    has the same trace, so each cycle is kept once, as its least rotation in
    the orientation found first.
    """
    found = {}

    def extend(word, edges):
        left = sigma[word[-1] ^ 1]
        for nxt in (left, sigma[left]):
            if nxt == word[0]:
                k = word.index(min(word))
                found.setdefault(frozenset(edges), tuple(word[k:] + word[:k]))
            elif nxt >> 1 not in edges:
                extend(word + [nxt], edges | {nxt >> 1})

    for d in range(len(sigma)):
        extend([d], {d >> 1})
    return sorted(found.values())


def quantum_ops_setup(lib, seed):
    """Weyl operators of every graph-simple tetrahedron cycle, each from a seeded base dart.

    Those are its four triangles and three 4-cycles.  Using all of them,
    rather than a seeded sample, keeps the operator mix the same for every
    seed; the seed picks base darts and the order of the operand tuples.
    """
    g = lib.fatgraph.tetrahedron()
    omega = g.omega_matrix()
    rng = random.Random(seed)
    words = []
    for w in simple_cycles(g.sigma):
        k = rng.randrange(len(w))
        words.append(w[k:] + w[:k])
    ops = [lib.quantum.quantum_geodesic(g, w) for w in words]
    return {
        "graph": g,
        "omega": omega,
        "words": words,
        "ops": [op.operator for op in ops],
        "classical": [op.operator.at_rho_one() for op in ops],
    }


def _q_assoc(lib, om, A, B, C, Acl, Bcl):
    qmul = lib.exppoly.qmul
    ab = qmul(A, B, om)
    return qmul(ab, C, om) == qmul(A, qmul(B, C, om), om), ab


def _q_star(lib, om, A, B, C, Acl, Bcl):
    qmul = lib.exppoly.qmul
    ab = qmul(A, B, om)
    return ab.star() == qmul(B, A, om), ab


def _q_rho_one(lib, om, A, B, C, Acl, Bcl):
    ab = lib.exppoly.qmul(A, B, om)
    return ab.at_rho_one() == Acl * Bcl, ab


def _q_limit(lib, om, A, B, C, Acl, Bcl):
    ex = lib.exppoly
    return ex.classical_limit_commutator(A, B, om) == ex.poisson_bracket(Acl, Bcl, om), None


_QUANTUM_KINDS = {"assoc": _q_assoc, "star": _q_star, "rho_one": _q_rho_one, "limit": _q_limit}
# A check's cost takes a few discrete levels set by its kind and operand
# sizes (2 or 7 terms).  With the four kinds in equal shares the 90th
# percentile sat on a step between two levels and moved 5-8% from run to run;
# in this order both p50 and p90 fall inside wide bands of equal cost.
_QUANTUM_ORDER = ("assoc", "star", "limit", "assoc", "rho_one", "limit")


def quantum_ops_checks(lib, state, seed):
    """The kinds in ``_QUANTUM_ORDER``, on operand tuples drawn without replacement.

    The mix of operand sizes must be the same in every run, so each kind
    cycles through all its ordered operand tuples (343 triples for
    associativity, 49 pairs otherwise) in a seeded order, several times a run.
    """
    rng = random.Random(seed + 1)
    g, om, words, ops, cl = state["graph"], state["omega"], state["words"], state["ops"], state["classical"]
    tuples = {}
    for kind in _QUANTUM_KINDS:
        population = list(itertools.product(range(len(ops)), repeat=3 if kind == "assoc" else 2))
        rng.shuffle(population)
        tuples[kind] = itertools.cycle(population)
    i = 0
    while True:
        kind = _QUANTUM_ORDER[i % len(_QUANTUM_ORDER)]
        fn = _QUANTUM_KINDS[kind]
        a, b, *rest = next(tuples[kind])
        C = ops[rest[0]] if rest else None
        z = labels(rng, g.n_edges)

        def run(fn=fn, a=a, b=b, C=C):
            return fn(lib, om, ops[a], ops[b], C, cl[a], cl[b])

        def oracle(ab, a=a, b=b, z=z):
            if ab is None:
                ab = lib.exppoly.qmul(ops[a], ops[b], om)
            ref = float_traces(g.sigma, words[a], [z])[0] * float_traces(g.sigma, words[b], [z])[0]
            return agrees(ab.at_rho_one().evaluate(z), ref)

        yield Check(kind, run, oracle)
        i += 1


# -- flip_orbits -----------------------------------------------------------------

FLIP_BATCH = 32
FLIP_WORDS = 2


def _flip_step(lib, walk, side, edges, words, Z):
    """Flip one edge of the walk's graph and test invariance at every label row."""
    fl, geo = lib.flips, lib.geodesics
    g = walk[side]
    for e in edges:
        try:
            record = fl.flip(g, e)
            break
        except lib.fatgraph.FatGraphError:
            continue  # a self-loop edge: redraw
    else:
        raise RuntimeError("no flippable edge drawn")
    walk[side] = record.after
    pairs = []
    for w in words:
        try:
            w2 = fl.transport_path(record, w)
        except geo.PathError:
            continue
        pairs.append((w, w2, geo.geodesic_function(g, w), geo.geodesic_function(record.after, w2)))
    passed = True
    before = [[] for _ in pairs]
    after = [[] for _ in pairs]
    z_after = []
    for z in Z:
        gz = g.with_labels(z)
        flipped = fl.flip(gz, e).after
        z_after.append(flipped.z)
        for k, (_w, _w2, G, G2) in enumerate(pairs):
            before[k].append(G.evaluate(z))
            after[k].append(G2.evaluate(flipped.z))
        passed &= fl.check_involution(gz, e)["equal"] and fl.check_perimeters(gz, e)["equal"]
    for b, a in zip(before, after):
        passed &= agrees(a, b)
    return passed, (g.sigma, record.after.sigma, pairs, before, after, z_after)


def _flip_oracle(Z):
    def oracle(evidence):
        sigma, sigma2, pairs, before, after, z_after = evidence
        return all(
            agrees(before[k], float_traces(sigma, w, Z)) and agrees(after[k], float_traces(sigma2, w2, z_after))
            for k, (w, w2, _G, _G2) in enumerate(pairs)
        )

    return oracle


def flip_orbits_checks(lib, state, seed):
    rng = random.Random(seed + 2)
    walk = list(state["graphs"])
    i = 0
    while True:
        side = i % 2
        g = walk[side]
        edges = rng.sample(range(g.n_edges), g.n_edges)
        words = [closed_word(g.sigma, rng, 3, 8) for _ in range(FLIP_WORDS)]
        Z = [labels(rng, g.n_edges) for _ in range(FLIP_BATCH)]
        run = lambda side=side, edges=edges, words=words, Z=Z: _flip_step(lib, walk, side, edges, words, Z)
        yield Check("flip_step", run, _flip_oracle(Z))
        i += 1


# -- qdilog_strip ----------------------------------------------------------------

_QDILOG_KINDS = ("difference", "quasi1", "quasi2", "semiclassical")


def qdilog_strip_setup(lib, seed):
    return {}


# (expected value of the check's combination of phi_hbar values, tolerance)
_QDILOG_IDENTITIES = {
    "difference": (lambda z, h: z, 1e-8),
    "quasi1": (lambda z, h: 2j * math.pi * h / (1 + cmath.exp(-z)), 1e-6),
    "quasi2": (lambda z, h: 2j * math.pi / (1 + cmath.exp(-z / h)), 1e-6),
    "semiclassical": (lambda z, h: cmath.log(1 + cmath.exp(z)), 5e-3),
}


def _qdilog(lib, kind, z, hbar):
    report = lib.quantum.qdilog_check(kind, z, hbar)
    return bool(report["equal"]), (kind, z, hbar, report)


def _qdilog_oracle(evidence):
    """The report's verdict must match the identity at the benchmark's own tolerance."""
    kind, z, hbar, report = evidence
    expected, tol = _QDILOG_IDENTITIES[kind]
    residual = abs(complex(*report["value"]) - expected(z, hbar))
    return (residual <= tol) == bool(report["equal"])


def _strip_points(rng, hbars):
    """Endless (hbar, u): u uniform in [0, 1), stratified over STRIP_BANDS bands."""
    cells = list(itertools.product(hbars, range(STRIP_BANDS)))
    while True:
        rng.shuffle(cells)
        for hbar, band in cells:
            yield hbar, (band + rng.random()) / STRIP_BANDS


def qdilog_strip_checks(lib, state, seed):
    """Seeded z over each check's whole admissible strip.

    phi_hbar accepts |Im w| < pi(1+hbar).  The difference check evaluates it
    at z itself; quasi1 and quasi2 at z +- i pi hbar and z +- i pi, so their z
    is drawn from the narrower strip that keeps both points admissible.  The
    semiclassical check's strip is |Im z| < pi, where log(1 + e^z) has its
    branch points.
    """
    rng = random.Random(seed + 3)
    points = {
        kind: _strip_points(rng, (SEMICLASSICAL_HBAR,) if kind == "semiclassical" else HBARS)
        for kind in _QDILOG_KINDS
    }
    i = 0
    while True:
        kind = _QDILOG_KINDS[i % len(_QDILOG_KINDS)]
        hbar, u = next(points[kind])
        edge = math.pi if kind == "semiclassical" else math.pi * (1.0 + hbar)
        shift = {"quasi1": math.pi * hbar, "quasi2": math.pi}.get(kind, 0.0)
        half = edge - shift
        z = complex(rng.uniform(-3.0, 3.0), (2.0 * u - 1.0) * half)
        near_edge = abs(z.imag) + shift >= KNOWN_DEFECT_EDGE * edge
        run = lambda kind=kind, z=z, hbar=hbar: _qdilog(lib, kind, z, hbar)
        yield Check(kind, run, _qdilog_oracle, known_defect=near_edge)
        i += 1


class Workload(NamedTuple):
    setup: Callable
    checks: Callable
    yardstick: str  # the hostspeed yardstick that matches the timed work


WORKLOADS = {
    "exact_skein": Workload(graphs_setup, exact_skein_checks, "python"),
    "quantum_ops": Workload(quantum_ops_setup, quantum_ops_checks, "python"),
    "flip_orbits": Workload(graphs_setup, flip_orbits_checks, "python"),
    "qdilog_strip": Workload(qdilog_strip_setup, qdilog_strip_checks, "numpy"),
}
