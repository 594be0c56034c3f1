"""cqdual benchmark: time to a verdict on the paper's identities, per workload.

    python3 perfbench/run.py --workload identity_corpus --seed 20240811 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in fresh worker processes with the BLAS and OpenMP thread
counts pinned to the number of usable cores. With --trace 0 the run reports
the end-to-end metrics (wall_ref, setup_s, peak_rss_mb); with --trace 1 a
separate traced run reports per-layer metrics. Every check is scored against
the acceptance tolerances; `attempted` and `failed` count checks. The last
line of stdout is the result as one JSON object; the full record, with the
environment and every sample, goes to .perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity_corpus", "polar_depth", "coded_blocklength", "cli_readme")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4  # set-up-only processes, besides the measuring one
TIME_LIMIT = 170.0  # whole run, seconds


def pinned_env() -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0))
    pins = {var: str(nproc) for var in THREAD_VARS}
    env = dict(os.environ, **pins)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env, pins


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(env: dict, deadline: float, *args: str) -> tuple[dict, float]:
    """Run one worker; return its JSON result and the seconds from spawn to ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {' '.join(args)} passed the run's time limit") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20240811)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cqdual" / "__init__.py").is_file():
        print(f"perfbench: no cqdual sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds through spawn(), which then stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT
    env, pins = pinned_env()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            spans = out_dir / f"{stem}-spans.json"
            res, _ = spawn(env, deadline, *common, "--mode", "trace", "--spans", str(spans))
        else:
            # half the set-up probes before the measuring worker and half
            # after, so that one slow stretch of the host does not hold them all
            setups = [spawn(env, deadline, *common, "--mode", "setup")[1]
                      for _ in range(SETUP_PROBES // 2)]
            res, setup = spawn(env, deadline, *common, "--mode", "measure")
            setups.append(setup)
            setups += [spawn(env, deadline, *common, "--mode", "setup")[1]
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        samples = {"check_ms": [1e3 * s for s in res["check_seconds"]],
                   "tracing_overhead_s": res["overhead_seconds"], "span_coverage": res["coverage"]}
        harness = {
            "check.p50_ms": percentile(samples["check_ms"], 50),
            "check.p95_ms": percentile(samples["check_ms"], 95),
            "worst_gap_ratio": res["worst_gap_ratio"],
            "tracing_overhead_s": statistics.median(res["overhead_seconds"]),
            "span_coverage": min(res["coverage"]),
        }
        metrics = {name: harness.get(name, res["layers"].get(name, 0))
                   for name, _, _ in per_layer_metrics()}
        correct = res["failed"] == 0 and res["identical_gaps"] and res["coverage_ok"]
        if not res["identical_gaps"]:
            print("perfbench: traced and untraced passes gave different check results",
                  file=sys.stderr)
    else:
        samples = {"pass_s": res["pass_seconds"], "reference_s": res["reference_s"],
                   "setup_s": setups}
        metrics = {"wall_ref": res["wall_s"] / min(res["reference_s"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        correct = res["failed"] == 0

    units = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
    units.update({name: unit for name, unit, _ in per_layer_metrics()})
    environment = {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "thread_pins": pins, **res["environment"],
    }
    summary = {name: quartiles(vals) for name, vals in samples.items()}
    for name, q in summary.items():
        print(f"{args.workload} {name}: median {q['median']:.6g} "
              f"q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']}")
    for failure in res["failures"]:
        print(f"FAIL {failure['name']}: {failure['error'] or failure['gaps']}", file=sys.stderr)
    if "wall_s" in res:
        print(f"{args.workload} wall_s: {res['wall_s']:.6g} s, reference "
              f"{min(res['reference_s']):.6g} s")
    print(f"{args.workload}: {res['attempted']} checks, {res['failed']} failed, "
          f"worst gap/tol {res['worst_gap_ratio']:.3g}; threads pinned to {environment['nproc']}")

    result = {
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": float(val), "unit": units[name]} for name, val in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "samples": samples,
              "summary": summary, "wall_s": res.get("wall_s"),
              "check_fastest_s": res.get("check_fastest_s"),
              "failures": res["failures"], "result": result}
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
