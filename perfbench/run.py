#!/usr/bin/env python3
"""Closed-loop benchmark of the shearlab library, one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_skein --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy.  With ``--trace 0`` the run sets up its operands several times
(reporting the median set-up time), then runs seeded checks one after
another for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over a fixed,
seed-determined prefix of checks and reports the per-layer metrics, the
per-suite times of an in-process ``shearlab check`` smoke pass and the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0 only
when the run is correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

# The benchmark starts no threads, and neither may numpy's BLAS: an idle pool
# spins on the second core of a small host, and starting it made every fresh
# import 60-80 ms slower and far less steady.  Set before numpy loads, and
# inherited by the set-up children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from hostspeed import IMPORT_REFERENCE_S, IMPORT_YARDSTICK, WINDOW, HostSpeed
from tracing import Tracer, counts_only
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COUNTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 11
MIN_CHECKS = 100
# Checks in one traced pass: about a second of untraced work on a 2-core host.
PASS_CHECKS = {"exact_skein": 40, "quantum_ops": 150, "flip_orbits": 60, "qdilog_strip": 600}
MIN_PASS_PAIRS = 2
CLI_SUITES = ("skein", "goldman", "casimir", "relations", "qskein", "qdilog")

# Per-layer metrics reported by a traced run: (span, field, unit).
LAYER_METRICS = (
    ("exppoly.mul", "calls", "count"),
    ("exppoly.mul", "pairs", "count"),
    ("exppoly.mul", "self_s", "s"),
    ("exppoly.mul", "merge_ratio", "ratio"),
    ("exppoly.add", "self_s", "s"),
    ("exppoly.eq", "self_s", "s"),
    ("exppoly.bracket", "calls", "count"),
    ("exppoly.bracket", "pairs", "count"),
    ("exppoly.bracket", "self_s", "s"),
    ("exppoly.qmul", "calls", "count"),
    ("exppoly.qmul", "pairs", "count"),
    ("exppoly.qmul", "self_s", "s"),
    ("exppoly.evaluate", "calls", "count"),
    ("exppoly.evaluate", "terms", "count"),
    ("exppoly.evaluate", "self_s", "s"),
    ("geodesics.compile", "calls", "count"),
    ("geodesics.compile", "darts", "count"),
    ("geodesics.compile", "self_s", "s"),
    ("geodesics.trace", "terms", "count"),
    ("geodesics.mat_mul", "calls", "count"),
    ("geodesics.mat_mul", "self_s", "s"),
    ("geodesics.product_traces", "self_s", "s"),
    ("flips.flip", "calls", "count"),
    ("flips.flip", "refused", "count"),
    ("flips.flip", "self_s", "s"),
    ("flips.transport", "calls", "count"),
    ("flips.transport", "refused", "count"),
    ("flips.transport", "self_s", "s"),
    ("flips.check", "self_s", "s"),
    ("fatgraph.orbits", "self_s", "s"),
    ("fatgraph.omega", "calls", "count"),
    ("fatgraph.omega", "self_s", "s"),
    ("quantum.phi_hbar", "calls", "count"),
    ("quantum.phi_hbar", "nodes", "count"),
    ("quantum.phi_hbar", "self_s", "s"),
    ("quantum.check", "self_s", "s"),
    ("quantum.qgeodesic", "self_s", "s"),
)
# Layers that run in set-up, not in checks: reported from a traced set-up.
SETUP_SPANS = ("quantum.qgeodesic", "fatgraph.omega")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_shearlab():
    """Import ``shearlab`` from this checkout's ``src/``."""
    lib = importlib.import_module("shearlab")
    if os.path.dirname(os.path.abspath(lib.__file__)) != os.path.join(SRC, "shearlab"):
        raise ImportError(f"shearlab imported from {lib.__file__}, not from {SRC}")
    return lib


# One set-up in a fresh interpreter: ``import shearlab`` with nothing but the
# standard library loaded before it, then the workload's operands.  Importing
# the benchmark's own modules (and numpy with them, when shearlab has not
# already loaded it) falls between the two timed spans.
_SETUP_CHILD = """
import sys, time
src, here, name, seed = sys.argv[1:]
sys.path[:0] = [src, here]
start = time.perf_counter()
import shearlab
imported = time.perf_counter()
from workloads import WORKLOADS
resumed = time.perf_counter()
WORKLOADS[name].setup(shearlab, int(seed))
print(imported - start + time.perf_counter() - resumed)
"""


def _child_seconds(code, *args):
    """The seconds a fresh interpreter running ``code`` reports on stdout."""
    child = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(child.stdout)


def _setup(name, workload, seed):
    """Set-up time from SETUP_REPEATS fresh interpreters, scaled to the reference host.

    Each child reports its own time, so interpreter start-up is not counted
    but every import shearlab makes is.  Each set-up child is followed by an
    import-yardstick child; the time is the median set-up over the median
    yardstick, times the yardstick's reference time.  The operands used by
    the checks are then built once more in this process, untimed.
    """
    raw, yardstick = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_child_seconds(_SETUP_CHILD, SRC, HERE, name, str(seed)))
        yardstick.append(_child_seconds(IMPORT_YARDSTICK))
    setup_s = statistics.median(raw) / statistics.median(yardstick) * IMPORT_REFERENCE_S
    lib = _import_shearlab()
    return lib, workload.setup(lib, seed), setup_s


class Tally:
    """Checks attempted, known-defect failures and unexpected failures.

    A check that misses its identity where the documented ``phi_hbar`` defect
    lies, with the oracle agreeing with the library's verdict, is a *known*
    failure: it lowers ``pass_frac`` but is not a failed operation.  Any other
    failure is *unexpected* and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.known = 0
        self.unexpected = []

    @property
    def failed(self):
        return len(self.unexpected)

    def pass_frac(self):
        return 1.0 - (self.known + self.failed) / self.attempted

    def record(self, check, passed, oracle_ok, error=None):
        self.attempted += 1
        if passed and oracle_ok:
            return
        if check.known_defect and oracle_ok:
            self.known += 1
            return
        what = error or ("identity failed" if not passed else "float oracle disagrees")
        self.unexpected.append(f"{check.kind}: {what}")


def _run_check(check, tally, tracer=None):
    """Time one check's call sequence, then verify it against the oracle untimed."""
    error = None
    start = time.perf_counter()
    try:
        passed, evidence = check.run()
    except Exception as exc:  # a raising check is a failed check, not a crashed run
        passed, evidence, error = False, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    oracle_ok = True
    if error is None and check.oracle is not None:
        if tracer is not None:
            tracer.active = False
        try:
            oracle_ok = bool(check.oracle(evidence))
        finally:
            if tracer is not None:
                tracer.active = True
    tally.record(check, passed, oracle_ok, error)
    return elapsed


def _timed_phase(lib, workload, state, seed, seconds, tally, speed):
    """Latencies of checks run back to back for ``seconds``, scaled to the reference host."""
    checks = workload.checks(lib, state, seed)
    timings = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timings) < MIN_CHECKS:
        check = next(checks)
        speed.maybe_sample()
        timings.append((time.perf_counter(), _run_check(check, tally)))
    speed.sample(WINDOW)
    return [elapsed * speed.scale(at) for at, elapsed in timings]


def _pass(lib, workload, state, seed, n, tally, tracer=None):
    checks = workload.checks(lib, state, seed)
    total = 0.0
    for _ in range(n):
        total += _run_check(next(checks), tally, tracer)
    return total


def _traced(tracer, fn, *args):
    """Run ``fn`` with every layer wrapped; return the spans and ``fn``'s result."""
    tracer.reset()
    tracer.install()
    tracer.active = True
    try:
        result = fn(*args)
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer.snapshot(), result


def _source_digest():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "shearlab"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _counts_gate(name, seed, counts):
    """Counts must repeat exactly for one seed and one source tree, across runs too."""
    os.makedirs(COUNTS_DIR, exist_ok=True)
    path = os.path.join(COUNTS_DIR, f"counts-{name}-{seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh) == counts
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    os.replace(tmp, path)
    return True


def _cli_smoke(problems):
    cli = importlib.import_module("shearlab.cli")
    times = {}
    for suite in CLI_SUITES:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.run(["check", suite])
        times[suite] = time.perf_counter() - start
        if code != 0:
            problems.append(f"shearlab check {suite} exited {code}")
    return times


def _layer_value(snapshots, span, field):
    if field == "self_s":
        return statistics.median(s.get(span, {}).get("self_s", 0.0) for s in snapshots)
    st = snapshots[0].get(span, {})
    if field == "merge_ratio":
        return st.get("out_terms", 0) / st["pairs"] if st.get("pairs") else 0.0
    return int(st.get(field, 0))


def _trace_run(name, lib, workload, state, seed, seconds, tally, problems):
    tracer = Tracer()
    n = PASS_CHECKS[name]
    plain, traced, snapshots = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_PASS_PAIRS or time.perf_counter() - start < seconds:
        plain.append(_pass(lib, workload, state, seed, n, tally))
        spans, secs = _traced(tracer, _pass, lib, workload, state, seed, n, tally, tracer)
        snapshots.append(spans)
        traced.append(secs)
    setup_snaps = [_traced(tracer, workload.setup, lib, seed)[0] for _ in range(2)]

    check_counts = [counts_only(s) for s in snapshots]
    setup_counts = [counts_only(s) for s in setup_snaps]
    if any(c != check_counts[0] for c in check_counts) or setup_counts[0] != setup_counts[1]:
        problems.append("work counts differ between passes of one seed")
    elif not _counts_gate(name, seed, {"checks": check_counts[0], "setup": setup_counts[0]}):
        problems.append("work counts differ from an earlier run of this seed")

    metrics = {}
    for span, field, unit in LAYER_METRICS:
        source = setup_snaps if span in SETUP_SPANS else snapshots
        metrics[f"{span}.{field}"] = {"value": _layer_value(source, span, field), "unit": unit}
    for suite, secs in _cli_smoke(problems).items():
        metrics[f"cli.suite.{suite}_s"] = {"value": secs, "unit": "s"}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def _end_to_end(latencies, tally, setup_s):
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "checks_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "check_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "check_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "pass_frac": {"value": tally.pass_frac(), "unit": "frac"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _stamp(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "shearlab", "__init__.py")):
        return _fail(f"no shearlab sources under {SRC}; run from a full checkout")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    # phi_hbar's known overflow near the strip edge warns once per call
    warnings.simplefilter("ignore", RuntimeWarning)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    speed = HostSpeed(workload.yardstick)
    lib, state, setup_s = _setup(args.workload, workload, args.seed)

    tally = Tally()
    problems = []
    if args.trace:
        metrics = _trace_run(args.workload, lib, workload, state, args.seed, args.seconds, tally, problems)
    else:
        latencies = _timed_phase(lib, workload, state, args.seed, args.seconds, tally, speed)
        metrics = _end_to_end(latencies, tally, setup_s)

    problems.extend(tally.unexpected[:10])
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": _stamp(args)}, sort_keys=True))
    print(
        f"# {args.workload} seed={args.seed}: {tally.attempted} checks, {tally.known} known-defect"
        f" failures, {tally.failed} unexpected (failed_frac={1.0 - tally.pass_frac():.4f})"
    )
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
