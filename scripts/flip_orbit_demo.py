#!/usr/bin/env python3
"""Walk a random flip sequence and report the invariants along the orbit.

At every step the face perimeters and the Casimir value (on the torus graph)
must stay constant while the labels move; the script prints both.

Usage: python scripts/flip_orbit_demo.py [--graph torus|tetrahedron] [--steps 8] [--seed N]
"""

import argparse
import random
import sys

from shearlab.fatgraph import FatGraphError, once_punctured_torus, tetrahedron
from shearlab.flips import flip
from shearlab.geodesics import torus_casimir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", choices=["torus", "tetrahedron"], default="torus")
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20260825)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    if args.graph == "torus":
        g = once_punctured_torus([rng.uniform(-1.5, 1.5) for _ in range(3)])
    else:
        g = tetrahedron([rng.uniform(-1.5, 1.5) for _ in range(6)])

    casimir = torus_casimir(once_punctured_torus()) if args.graph == "torus" else None

    def report(step, g, edge=None):
        perims = sorted(value for _, value in g.perimeters())
        line = f"step {step:2d}" + (f" flip e{edge}" if edge is not None else " start  ")
        line += "  z = [" + ", ".join(f"{float(z):+.4f}" for z in g.z) + "]"
        line += "  perimeters = [" + ", ".join(f"{p:+.4f}" for p in perims) + "]"
        if casimir is not None:
            line += f"  C = {casimir.evaluate([float(z) for z in g.z]):+.10f}"
        print(line)

    report(0, g)
    for step in range(1, args.steps + 1):
        while True:
            e = rng.randrange(g.n_edges)
            try:
                g = flip(g, e).after
                break
            except FatGraphError:
                continue  # self-loop edges cannot flip; draw again
        report(step, g, e)
    return 0


if __name__ == "__main__":
    sys.exit(main())
