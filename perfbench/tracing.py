"""Per-layer spans for the shearlab benchmark, installed from outside ``src/``.

A ``Tracer`` wraps the public layer functions of ``shearlab`` (and the
special methods of ``ExpPoly``, patched on the class) with spans.  Each span
counts its calls plus any work counts of its layer (term pairs, darts, nodes,
refusals), and accumulates *self* time: the span's duration minus the time
covered by spans it caused.  Spans are aggregated in memory per layer name;
nothing is written until the benchmark reads ``snapshot()``.

``install`` rebinds a function under every ``shearlab`` module name that binds
it (``quantum.qmul`` is the same object as ``exppoly.qmul``), so calls through
any import path are traced.  ``uninstall`` restores the originals, so untraced
phases run the unmodified library.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _pairs(a, b):
    """|a| * |b| with a scalar counting as one term."""
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _mul_counts(args, kwargs, out):
    return {"pairs": _pairs(args[0], args[1]), "out_terms": len(out.terms)}


def _binary_pairs(args, kwargs, out):
    return {"pairs": _pairs(args[0], args[1])}


def _evaluate_terms(args, kwargs, out):
    return {"terms": len(args[0].terms)}


def _compile_darts(args, kwargs, out):
    return {"darts": len(args[1])}


def _trace_terms(args, kwargs, out):
    return {"terms": len(out.terms)}


def _quadrature_nodes(args, kwargs, out):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"nodes": params.nodes}


# (module, attribute, span name, counter, exception counted as a refusal)
FUNCTION_SPANS = (
    ("exppoly", "poisson_bracket", "exppoly.bracket", _binary_pairs, None),
    ("exppoly", "qmul", "exppoly.qmul", _binary_pairs, None),
    ("geodesics", "path_matrix", "geodesics.compile", _compile_darts, None),
    ("geodesics", "geodesic_function", "geodesics.trace", _trace_terms, None),
    ("geodesics", "mat_mul", "geodesics.mat_mul", None, None),
    ("geodesics", "product_traces", "geodesics.product_traces", None, None),
    ("flips", "flip", "flips.flip", None, "FatGraphError"),
    ("flips", "transport_path", "flips.transport", None, "PathError"),
    ("flips", "check_involution", "flips.check", None, None),
    ("flips", "check_perimeters", "flips.check", None, None),
    ("quantum", "phi_hbar", "quantum.phi_hbar", _quadrature_nodes, None),
    ("quantum", "qdilog_check", "quantum.check", None, None),
    ("quantum", "quantum_geodesic", "quantum.qgeodesic", None, None),
)

# (module, class, method, span name, counter)
METHOD_SPANS = (
    ("exppoly", "ExpPoly", "__mul__", "exppoly.mul", _mul_counts),
    ("exppoly", "ExpPoly", "__add__", "exppoly.add", None),
    ("exppoly", "ExpPoly", "__eq__", "exppoly.eq", None),
    ("exppoly", "ExpPoly", "evaluate", "exppoly.evaluate", _evaluate_terms),
    ("fatgraph", "FatGraph", "_orbits", "fatgraph.orbits", None),
    ("fatgraph", "FatGraph", "omega_matrix", "fatgraph.omega", None),
)


def _shearlab_modules():
    return [m for name, m in list(sys.modules.items()) if name == "shearlab" or name.startswith("shearlab.")]


class Tracer:
    """Aggregated spans with self time; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self._stack = []
        self._undo = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))

    def wrap(self, name, fn, counter=None, refusal=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if refusal is not None and type(exc).__name__ == refusal:
                    tracer.stats[name]["refused"] += 1
                raise
            finally:
                elapsed = _clock() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                st = tracer.stats[name]
                st["calls"] += 1
                st["self_s"] += elapsed - children[0]
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    tracer.stats[name][key] += value
            return out

        return span

    def install(self):
        """Wrap every traced layer of the currently imported ``shearlab``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        bound = _shearlab_modules()
        mods = {m.__name__.rpartition(".")[2]: m for m in bound}
        for mod_name, attr, name, counter, refusal in FUNCTION_SPANS:
            orig = getattr(mods[mod_name], attr)
            wrapper = self.wrap(name, orig, counter, refusal)
            for mod in bound:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method, name, counter in METHOD_SPANS:
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[method]
            self._undo.append((cls, method, orig))
            setattr(cls, method, self.wrap(name, orig, counter))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def snapshot(self):
        """Plain dict copy of the aggregated spans."""
        return {name: dict(st) for name, st in self.stats.items()}


def counts_only(snapshot):
    """The integer work counts of a snapshot (everything but times)."""
    return {
        name: {k: int(v) for k, v in st.items() if k != "self_s"}
        for name, st in sorted(snapshot.items())
    }
