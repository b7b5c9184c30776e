"""Command-line surface: graph ingestion, evaluation, flips, and check suites.

All output on stdout is JSON; diagnostics go to stderr.  Exit codes:
0 = all checks pass, 1 = a check failed, 2 = usage/IO/format error.
Runs are deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import flips, geodesics, quantum
from .exppoly import poisson_bracket
from .fatgraph import FatGraph, FatGraphError, TopologyReport, once_punctured_torus, tetrahedron
from .geodesics import PathError, exact_report, float_report
from .quantum import QuantumError

DEFAULT_SEED = 20260825


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False))


def _load_graph(spec: str) -> tuple[FatGraph, TopologyReport]:
    """The built-in or stored graph, validated once for every command, and its topology."""
    if spec == "torus":
        g = once_punctured_torus()
    elif spec == "tetrahedron":
        g = tetrahedron()
    else:
        g = FatGraph.load(spec)
    return g, g.validate()


def _parse_path(text: str):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _seeded_labels(rng, n: int):
    return [rng.uniform(-2.0, 2.0) for _ in range(n)]


# -- check suites -------------------------------------------------------------


def _suite_skein(seed: int, cases: int):
    reports = []
    torus = once_punctured_torus()
    reports.append(geodesics.skein_check(torus, geodesics.TORUS_A, geodesics.TORUS_B))
    rng = random.Random(seed)
    for g, tag in ((torus, "torus"), (tetrahedron(), "tetrahedron")):
        for i in range(cases):
            start = rng.randrange(g.n_darts)
            p = geodesics.random_closed_path(g, rng, 2, 6, start=start)
            q = geodesics.random_closed_path(g, rng, 2, 6, start=start)
            rep = geodesics.skein_check(g, p, q)
            rep.update({"graph": tag, "case": i, "p": list(p), "q": list(q)})
            reports.append(rep)
    return reports


def _suite_goldman(seed: int, cases: int):
    torus = once_punctured_torus()
    # the (A, B) pair and its two images under the order-3 graph rotation
    # (darts +2 mod 6), which keeps the words based at a common dart
    pairs = [
        (geodesics.TORUS_A, geodesics.TORUS_B),
        ((2, 1), (2, 5)),
        ((4, 3), (4, 1)),
    ]
    reports = [geodesics.goldman_check(torus, p, q) for p, q in pairs]
    # torus algebra form: {G_A, G_B} = (1/2) G_A G_B - G_{AB^-1}
    ga = geodesics.geodesic_function(torus, geodesics.TORUS_A)
    gb = geodesics.geodesic_function(torus, geodesics.TORUS_B)
    gc = geodesics.geodesic_function(torus, geodesics.TORUS_ABINV)
    lhs = poisson_bracket(ga, gb, torus.omega_matrix())
    rhs = Fraction(1, 2) * ga * gb - gc
    return reports + [exact_report("goldman_algebra_form", lhs, rhs)]


def _suite_casimir(seed: int, cases: int):
    torus = once_punctured_torus()
    omega = torus.omega_matrix()
    C = geodesics.torus_casimir(torus)
    reports = []
    for name, word in (("A", geodesics.TORUS_A), ("B", geodesics.TORUS_B), ("ABinv", geodesics.TORUS_ABINV)):
        br = poisson_bracket(C, geodesics.geodesic_function(torus, word), omega)
        reports.append(exact_report(f"casimir_central_{name}", br, 0))
    rng = random.Random(seed)
    invariance = []
    for _ in range(cases):
        labels = _seeded_labels(rng, 3)
        residual = abs(C.evaluate(labels) - C.evaluate(flips.flip(once_punctured_torus(labels), 0).after.z))
        invariance.append(float_report("casimir_flip_invariance", residual, 1e-10))
    return reports + [_summary("casimir_flip_invariance", invariance)]


def _summary(name: str, reports) -> dict:
    """One report for a loop of float checks: how many, the worst residual, all equal."""
    return {
        "name": name,
        "cases": len(reports),
        "residual": max([0.0] + [r["residual"] for r in reports]),
        "equal": all(r["equal"] for r in reports),
    }


def _suite_relations(seed: int, cases: int):
    rng = random.Random(seed)

    def torus():
        return once_punctured_torus(_seeded_labels(rng, 3))

    def tet():
        return tetrahedron(_seeded_labels(rng, 6))

    # arguments are evaluated left to right, so the draws keep their order
    involution, perimeter = [], []
    for _ in range(cases):
        involution += [flips.check_involution(torus(), 0), flips.check_involution(tet(), rng.randrange(6))]
    commutation = [flips.check_commutation(tet(), 0, 5) for _ in range(cases)]
    pentagon = [flips.check_pentagon(tet(), 0, 1) for _ in range(cases)]
    for _ in range(cases):
        perimeter += [flips.check_perimeters(torus(), 0), flips.check_perimeters(tet(), rng.randrange(6))]
    modular = [flips.torus_modular_check(_seeded_labels(rng, 3)) for _ in range(cases)]
    return [
        _summary("involution", involution),
        _summary("commutation", commutation),
        _summary("pentagon", pentagon),
        _summary("perimeter", perimeter),
        _summary("torus_modular", modular),
    ]


def _suite_qskein(seed: int, cases: int):
    torus = once_punctured_torus()
    A = quantum.quantum_geodesic(torus, geodesics.TORUS_A)
    B = quantum.quantum_geodesic(torus, geodesics.TORUS_B)
    _, skein_rep = quantum.qskein_decompose(torus, A, B)
    comm_rep = quantum.qcommutator_check(torus, A, B)
    _, loop_rep = quantum.empty_loop_constant(torus, A)
    central = quantum.quantum_centrality_check(torus, A)
    return [skein_rep, comm_rep, loop_rep, central]


# (identity, hbar, z grid) of each qdilog report
_QDILOG_GRID = (
    *(("difference", hbar, [0.5 * k for k in range(-6, 7)]) for hbar in (0.1, 0.5, 1.0)),
    ("quasi1", 0.4, [-2.0 + 0.45 * k for k in range(10)]),
    ("semiclassical", 0.01, [-2.0 + 0.5 * k for k in range(9)]),
)


def _suite_qdilog(seed: int, cases: int):
    reports = []
    for kind, hbar, grid in _QDILOG_GRID:
        rep = _summary(f"qdilog_{kind}", [quantum.qdilog_check(kind, z, hbar) for z in grid])
        del rep["cases"]  # a fixed grid, not the --cases count
        reports.append({**rep, "hbar": hbar})
    return reports


_SUITES = {
    "skein": _suite_skein,
    "goldman": _suite_goldman,
    "casimir": _suite_casimir,
    "relations": _suite_relations,
    "qskein": _suite_qskein,
    "qdilog": _suite_qdilog,
}


# -- argument parsing ---------------------------------------------------------


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="shearlab")
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph validation and info")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    for name in ("validate", "info"):
        p = graph_sub.add_parser(name)
        p.add_argument("file")

    geo = sub.add_parser("geodesic", help="geodesic functions")
    geo_sub = geo.add_subparsers(dest="geodesic_command", required=True)
    p = geo_sub.add_parser("eval")
    p.add_argument("file")
    p.add_argument("--path", required=True, help="closed dart sequence, e.g. '0,5'")

    p = sub.add_parser("flip", help="flip an edge")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True)

    p = sub.add_parser("check", help="identity check suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cases", type=int, default=25)

    p = sub.add_parser("qdilog", help="quantum dilogarithm evaluation")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--hbar", type=float, required=True)
    p.add_argument(
        "--check",
        choices=["difference", "quasi1", "quasi2", "semiclassical"],
        default="difference",
    )
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "graph":
            g, report = _load_graph(args.file)
            if args.graph_command == "validate":
                _emit({"status": "ok", "topology": report.to_json()})
            else:
                _emit(
                    {
                        "faces": [list(f) for f in g.faces()],
                        "graph": g.to_json(),
                        "omega": g.omega_matrix(),
                        "perimeters": [{"multiplicity": list(m), "value": v} for m, v in g.perimeters()],
                        "topology": report.to_json(),
                    }
                )
            return 0

        if args.command == "geodesic":
            g, _ = _load_graph(args.file)
            path = _parse_path(args.path)
            trace = geodesics.geodesic_function(g, path)
            _emit(
                {
                    "path": list(path),
                    "terms": trace.to_json(),
                    "turns": geodesics.turn_sequence(g, path),
                    "value": trace.evaluate([float(x) for x in g.z]),
                }
            )
            return 0

        if args.command == "flip":
            g, _ = _load_graph(args.file)
            record = flips.flip(g, args.edge)
            _emit(
                {
                    "after": record.after.to_json(),
                    "record": {
                        "corners": list(record.corners),
                        "edge": record.edge,
                        "rule": record.rule,
                    },
                }
            )
            return 0

        if args.command == "check":
            if args.cases < 0:
                raise ValueError(f"--cases must be non-negative, got {args.cases}")
            reports = _SUITES[args.suite](args.seed, args.cases)
            failed = [r for r in reports if not r.get("equal", False)]
            _emit({"reports": reports, "seed": args.seed, "status": "pass" if not failed else "fail"})
            if failed:
                print(f"{len(failed)} check(s) failed", file=sys.stderr)
                return 1
            return 0

        if args.command == "qdilog":
            rep = quantum.qdilog_check(args.check, args.z, args.hbar)
            rep["status"] = "pass" if rep["equal"] else "fail"
            _emit(rep)
            return 0 if rep["equal"] else 1

    except (FatGraphError, PathError, QuantumError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
