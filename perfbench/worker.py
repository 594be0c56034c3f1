"""One benchmark process: build a workload's inputs, then run passes over them.

Started by run.py with the BLAS thread variables already pinned and
PYTHONPATH pointing at the checkout's src/. Prints one JSON line with the
samples it took. Modes:

  setup    build the inputs and exit; run.py times process start to ready
  measure  --seconds worth of untraced passes (at least three)
  trace    the same checks plus the workload's long checks: a warm-up pass,
           then pairs of untraced and traced passes until --seconds have
           passed (at least one pair); writes the spans

The host this was tuned on is shared, and its speed swings between 1x and 2x
for stretches of seconds to minutes. wall_s therefore takes each check's
fastest time over passes spread across the run. Between checks, at most every
half second, the worker also times a fixed reference computation that uses no
cqdual code. run.py divides wall_s by the reference's fastest time, which
cancels the slow stretches that outlast a whole run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback

MIN_MEASURE_PASSES = 3
COVERAGE_FLOOR = 0.95
REFERENCE_EVERY_S = 0.5


def run_pass(checks, before_check=None) -> dict:
    """Run every check, catching failures so the pass always completes."""
    results = []
    t0 = time.perf_counter()
    for check in checks:
        if before_check is not None:
            before_check()
        c0 = time.perf_counter()
        error = None
        try:
            gaps = check.run()
        except Exception:  # a raising check is a failed check; the pass goes on
            gaps = []
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - c0
        ok = error is None and all(gap <= tol for _, gap, tol in gaps)
        results.append({"name": check.name, "ok": ok, "seconds": dt, "error": error,
                        "gaps": [(label, float(gap), tol) for label, gap, tol in gaps]})
    return {"seconds": time.perf_counter() - t0, "checks": results}


def scored(passes: list[dict]) -> dict:
    checks = [c for p in passes for c in p["checks"]]
    ratios = [gap / tol for c in checks for _, gap, tol in c["gaps"] if tol > 0]
    return {
        "attempted": len(checks),
        "failed": sum(not c["ok"] for c in checks),
        "failures": [{k: c[k] for k in ("name", "error", "gaps")} for c in checks if not c["ok"]][:10],
        "worst_gap_ratio": max(ratios, default=0.0),
    }


def outcome(p: dict) -> list:
    """What a pass computed, with timings dropped; equal outcomes mean equal gaps."""
    return [(c["name"], c["ok"], repr(c["gaps"]), c["error"] is None) for c in p["checks"]]


def peak_rss_kb() -> int:
    """Largest resident set of this process or any finished child (cli_readme's CLI runs)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def reference_seconds() -> float:
    """Time a fixed computation that uses no cqdual code.

    It mixes interpreter work and small eigensolves, the two costs the timed
    checks are made of, so its time tracks how fast the host runs them.
    """
    import numpy as np

    mats = [np.eye(n) + np.ones((n, n)) / n for n in (4, 8, 16)]
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    for _ in range(400):
        for m in mats:
            np.linalg.eigh(m)
    return time.perf_counter() - t0


def measure(workload, seconds: float) -> dict:
    count = max(MIN_MEASURE_PASSES, math.ceil(seconds / workload.pass_estimate_s))
    reference: list[float] = []
    last = [-REFERENCE_EVERY_S]

    def sample_reference():
        if time.monotonic() - last[0] >= REFERENCE_EVERY_S:
            reference.append(reference_seconds())
            last[0] = time.monotonic()

    passes = [run_pass(workload.checks, sample_reference) for _ in range(count)]
    sample_reference()
    fastest = {c["name"]: min(p["checks"][k]["seconds"] for p in passes)
               for k, c in enumerate(passes[0]["checks"])}
    # the median check for `typical` workloads, else the whole pass
    wall = statistics.median(fastest.values()) if workload.typical else sum(fastest.values())
    return {"wall_s": wall, "reference_s": reference, "check_fastest_s": fastest,
            "pass_seconds": [p["seconds"] for p in passes], **scored(passes)}


def trace(workload, seconds: float, ready: float, spans_path: str, extra: dict) -> dict:
    import importlib

    from tracer import TRACED, Tracer, write_spans

    for mod in TRACED:
        importlib.import_module(f"cqdual.{mod}")
    checks = workload.checks + workload.long_checks
    # The first pass in a process runs slower (allocator and cache warm-up),
    # which would bias the overhead of whichever pass came first.
    warmup = run_pass(checks)
    plain, traced, tracers = [], [], []
    while not traced or time.monotonic() - ready < seconds:
        plain.append(run_pass(checks))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(checks))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    per_pass = [t.metrics() for t in tracers]
    names = {name for m in per_pass for name in m}
    layers = {name: statistics.median(m.get(name, 0) for m in per_pass) for name in names}
    coverage = [t.root_seconds() / p["seconds"] for t, p in zip(tracers, traced)]
    write_spans(spans_path, tracers, extra)
    return {
        "layers": layers,
        "overhead_seconds": [b["seconds"] - a["seconds"] for a, b in zip(plain, traced)],
        "coverage": coverage,
        "identical_gaps": all(outcome(warmup) == outcome(p) for p in plain + traced),
        "coverage_ok": min(coverage) >= COVERAGE_FLOOR,
        "check_seconds": [c["seconds"] for p in plain for c in p["checks"]],
        **scored([warmup, *plain, *traced]),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.mode == "trace")
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "measure":
        result.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        extra = {"workload": args.workload, "seed": args.seed}
        result.update(trace(workload, args.seconds, ready, args.spans, extra))
    result["peak_rss_kb"] = peak_rss_kb()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
