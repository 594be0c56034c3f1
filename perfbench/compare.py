"""Compare sets of benchmark records, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the records run.py writes to .perfbench_out/ (one per
run, usually one run per seed). For every (workload, metric) pair it prints
the median, quartiles and count of the runs' values and their spread, the
distance between the quartiles as a share of the median, against the bound in
BENCHMARK.json. Given a second set, it also prints how far the new median
moved against the bound. Records taken under different thread pins are not
comparable: the script refuses them. Exit status is 1 when a spread or a move
passes its bound, 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def pin_key(rec: dict) -> tuple:
    env = rec["environment"]
    return env["nproc"], tuple(sorted(env["thread_pins"].items()))


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    if not all(sets):
        print("compare: a directory holds no end-to-end records", file=sys.stderr)
        return 2
    pins = {pin_key(r) for s in sets for r in s}
    if len(pins) > 1:
        print(f"compare: records were taken under different thread pins {sorted(pins)}; "
              "refusing to compare", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower_better = metric["better"] == "lower"
        for workload in sorted({r["workload"] for s in sets for r in s}):
            medians = []
            for label, records in zip(("base", "new"), sets):
                vals = [r["result"]["metrics"][name]["value"] for r in records
                        if r["workload"] == workload]
                if not vals:
                    continue
                q1, med, q3 = stats(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                over = name != "setup_s" and spread > bound
                bad += over
                print(f"{label} {workload:18s} {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"n {len(vals)} spread {spread:.3f} (bound {bound}, target < {bound / 3:.3f})"
                      f"{'  OVER BOUND' if over else ''}")
            if len(medians) == 2:
                move = (medians[1] - medians[0]) / medians[0]
                worse = move > bound if lower_better else -move > bound
                bad += worse
                print(f"move {workload:18s} {name:12s} {move:+.3f} of base median"
                      f"{'  WORSE THAN BOUND' if worse else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
