#!/usr/bin/env python3
"""Scan quantum-dilogarithm identity residuals over a (z, hbar) grid.

Prints, for each hbar, the worst residual of each identity over the z grid.

Usage: python scripts/qdilog_scan.py [--zmin -3] [--zmax 3] [--steps 13]
"""

import argparse
import sys

from shearlab.quantum import qdilog_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zmin", type=float, default=-3.0)
    parser.add_argument("--zmax", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--hbar", type=float, nargs="+", default=[0.1, 0.5, 1.0])
    args = parser.parse_args()

    zs = [
        args.zmin + (args.zmax - args.zmin) * k / (args.steps - 1)
        for k in range(args.steps)
    ]
    checks = ("difference", "quasi1", "quasi2")
    print(f"{'hbar':>6s} " + " ".join(f"{c:>14s}" for c in checks))
    all_ok = True
    for hbar in args.hbar:
        worst = {}
        for c in checks:
            reports = [qdilog_check(c, z, hbar) for z in zs]
            worst[c] = max(r["residual"] for r in reports)
            all_ok &= all(r["equal"] for r in reports)
        print(f"{hbar:6.2f} " + " ".join(f"{worst[c]:14.3e}" for c in checks))

    # semiclassical comparison at small hbar
    reports = [qdilog_check("semiclassical", z, 0.01) for z in zs if abs(z) <= 2]
    worst = max(r["residual"] for r in reports)
    print(f"semiclassical (hbar=0.01, |z|<=2): worst residual {worst:.3e}")
    all_ok &= all(r["equal"] for r in reports)
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
