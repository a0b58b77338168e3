#!/usr/bin/env python3
"""Self-check of the benchmark harness.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py [--days 2] [--seed 7]

For each workload named in BENCHMARK.json, runs a short version (a couple of
days, two clusters) twice with the same seed in each mode: --trace 0 for the
end-to-end metrics and --trace 1 for the per-layer ones. Checks that

  * each run passes its own output-digest check and exits 0;
  * every metric BENCHMARK.json names is printed as a `metric NAME VALUE
    UNIT` line and appears in the JSON result, with the unit BENCHMARK.json
    gives it;
  * the simulated Table-1 quantities and the reuse counts repeat exactly
    across the two runs.

Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Metrics that depend only on the seed, never on timing.
REPEATABLE = {
    0: ["view_hits_per_job", "sim_cpu_s_per_job", "sim_latency_s_per_job"],
    1: ["storage.views_created", "storage.reuse_per_view",
        "core.repository_groups", "views.invalidations",
        "view_selection.candidates_considered",
        "sharing.windows", "sharing.streams", "sharing.hit_ratio"],
}


def fail(message: str) -> None:
    print(f"selfcheck: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, seed: int, trace: int, days: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--days", str(days), "--clusters", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = (float(fields[2]), fields[3])
    return result, printed


def check(workload: str, trace: int, metrics, first, second) -> None:
    label = f"{workload} --trace {trace}"
    for result, printed in (first, second):
        if not result["correct"] or result["failed"] != 0:
            fail(f"{label}: run not correct: {result}")
        if result["attempted"] < 1:
            fail(f"{label}: no jobs attempted")
        if set(result["metrics"]) != {m["name"] for m in metrics}:
            fail(f"{label}: result metrics {sorted(result['metrics'])} "
                 f"differ from BENCHMARK.json")
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            if name not in printed:
                fail(f"{label}: metric {name} not printed")
            value, printed_unit = printed[name]
            entry = result["metrics"][name]
            if printed_unit != unit or entry["unit"] != unit:
                fail(f"{label}: {name} unit {printed_unit}/{entry['unit']},"
                     f" BENCHMARK.json says {unit}")
            if not math.isfinite(entry["value"]) or entry["value"] != value:
                fail(f"{label}: {name} printed {value}, result "
                     f"{entry['value']}")
    for name in REPEATABLE[trace]:
        a = first[0]["metrics"][name]["value"]
        b = second[0]["metrics"][name]["value"]
        if a != b:
            fail(f"{label}: {name} did not repeat: {a} vs {b}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in groups.items():
            first = run(workload, args.seed, trace, args.days)
            second = run(workload, args.seed, trace, args.days)
            check(workload, trace, metrics, first, second)
            print(f"selfcheck: ok {workload} --trace {trace}: "
                  f"{len(metrics)} metrics, repeatable "
                  f"{', '.join(REPEATABLE[trace])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
