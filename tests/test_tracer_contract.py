"""The benchmark's per-layer tracer still fits the library.

``perfbench/tracing.py`` wraps ``ExpPoly``'s special methods and the public
layer functions from outside ``src/``; a ring refactor that moves them
breaks traced benchmark runs.  This smoke test installs the tracer, runs one
skein pair, one ``qmul`` and one classical-limit commutator, and checks that
the spans counted work and that uninstalling restores the originals.
"""

import sys
from pathlib import Path

import pytest

import shearlab
from shearlab import exppoly, fatgraph, flips, geodesics, quantum
from shearlab.fatgraph import once_punctured_torus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
METHODS = ("__mul__", "__add__", "__eq__", "evaluate")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    import tracing

    return tracing


def test_tracer_counts_ring_work_and_restores(tracing):
    originals = {name: exppoly.ExpPoly.__dict__[name] for name in METHODS}
    qmul = exppoly.qmul
    torus = once_punctured_torus()
    omega = torus.omega_matrix()
    A = quantum.quantum_geodesic(torus, geodesics.TORUS_A).operator
    B = quantum.quantum_geodesic(torus, geodesics.TORUS_B).operator

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quantum.qmul is not qmul and shearlab.qmul is not qmul
        tracer.active = True
        assert geodesics.skein_check(torus, geodesics.TORUS_A, geodesics.TORUS_B)["equal"]
        assert exppoly.qmul(A, B, omega).at_rho_one() == A.at_rho_one() * B.at_rho_one()
        assert exppoly.classical_limit_commutator(A, B, omega) == exppoly.poisson_bracket(
            A.at_rho_one(), B.at_rho_one(), omega
        )
        tracer.active = False
    finally:
        tracer.uninstall()

    stats = tracer.snapshot()
    assert stats["exppoly.mul"]["calls"] > 0 and stats["exppoly.mul"]["pairs"] > 0
    assert stats["exppoly.qmul"]["calls"] == 3  # one direct, two inside the commutator
    assert stats["exppoly.qmul"]["pairs"] > 0
    assert stats["exppoly.bracket"]["calls"] == 1
    assert exppoly.qmul is qmul and quantum.qmul is qmul and shearlab.qmul is qmul
    assert all(exppoly.ExpPoly.__dict__[name] is fn for name, fn in originals.items())


def test_each_word_compiles_once_per_check(tracing):
    torus = once_punctured_torus()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for check in (geodesics.skein_check, geodesics.goldman_check):
            tracer.reset()
            assert check(torus, geodesics.TORUS_A, geodesics.TORUS_B)["equal"]
            assert tracer.snapshot()["geodesics.compile"]["calls"] == 2, check.__name__
        tracer.active = False
    finally:
        tracer.uninstall()


def test_pair_products_form_only_the_traces(tracing):
    torus = once_punctured_torus()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        # 6 products for Tr PQ and Tr PQ^-1, then Tr P Tr Q (skein) or the two halves (Goldman)
        for check, products in ((geodesics.skein_check, 7), (geodesics.goldman_check, 8)):
            tracer.reset()
            assert check(torus, geodesics.TORUS_A, geodesics.TORUS_B)["equal"]
            stats = tracer.snapshot()
            assert stats["exppoly.mul"]["calls"] == products, check.__name__
            assert stats.get("geodesics.mat_mul", {}).get("calls", 0) == 0, check.__name__
        tracer.active = False
    finally:
        tracer.uninstall()


def _flip_step(torus, labels):
    """One flip_orbits-style step: flip, transport, and per label vector the checks and traces."""
    record = flips.flip(torus, 0)
    moved = flips.transport_path(record, geodesics.TORUS_A)
    G = geodesics.geodesic_function(torus, geodesics.TORUS_A)
    G2 = geodesics.geodesic_function(record.after, moved)
    ok = True
    for z in labels:
        gz = torus.with_labels(z)
        flipped = flips.flip(gz, 0).after
        before, after = G.evaluate(z), G2.evaluate(flipped.z)
        ok &= abs(after - before) <= 1e-9 * abs(before)
        ok &= flips.check_involution(gz, 0)["equal"] and flips.check_perimeters(gz, 0)["equal"]
    return ok


def test_flip_step_counts_repeat_with_warm_caches(tracing):
    orbits = fatgraph.FatGraph.__dict__["_orbits"]
    torus = once_punctured_torus((0.3, -0.7, 1.1))
    labels = [(0.1 * k, -0.2 * k, 0.5) for k in range(4)]
    fatgraph._table.cache_clear()
    flips._flip_plan.cache_clear()
    assert _flip_step(torus, labels)  # untraced, to warm the caches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        passes = []
        for _ in range(2):
            tracer.reset()
            assert _flip_step(torus, labels)
            passes.append(tracing.counts_only(tracer.snapshot()))
        fatgraph._table.cache_clear()
        tracer.reset()
        assert _flip_step(torus, labels)
        cold = tracer.snapshot()
        tracer.active = False
    finally:
        tracer.uninstall()

    assert passes[0] == passes[1]
    assert "fatgraph.orbits" not in passes[0]
    assert passes[0]["flips.flip"]["calls"] == 1 + 4 * len(labels)  # step, trace, involution x2, perimeter
    assert passes[0]["flips.check"]["calls"] == 2 * len(labels)
    assert passes[0]["exppoly.evaluate"]["calls"] == 2 * len(labels)
    assert cold["fatgraph.orbits"]["calls"] == 2  # a miss computes the torus's and the flipped sigma's table
    assert fatgraph.FatGraph.__dict__["_orbits"] is orbits
