#!/usr/bin/env python3
"""Builds and runs the CloudViews end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the engine library from src/ plus the
benchmark program, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the program with the given arguments and
relays its output. The last line of standard output is the program's JSON
result. Build logs go to standard error. Per-run records and Chrome traces
land in <build dir>/results. Exits non-zero, without a result line, when the
build or the run fails; exits non-zero when an output digest mismatches.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd) -> bool:
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(out: Path) -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: engine sources (src/) not found", file=sys.stderr)
        return False
    if not (out / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", str(out), "-j", jobs])


def main(argv) -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "cloudviews_perfbench"), *argv, "--out", str(results)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 and '"correct":false' not in proc.stdout:
        # A crash or usage error: keep its output off stdout so no partial
        # result is mistaken for one.
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
