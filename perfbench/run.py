#!/usr/bin/env python3
"""CalTrain end-to-end benchmark entry point.

    python3 perfbench/run.py --workload round|ingest|forensics \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the `perfbench` load generator
and the caltrain library from source (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, relays its output and exits with its status.  The last line
of standard output is the run's JSON result.  The result's metric names
are checked against BENCHMARK.json: the end-to-end set for --trace 0,
the per-layer set for --trace 1.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def expected_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    out = build_dir()
    try:
        if not build(out):
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    args = [str(out / "perfbench"), *argv,
            "--work-dir", str(out.parent / "perfbench-work")]
    try:
        done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    expected = expected_metrics(trace)
    got = set(result.get("metrics", {}))
    if expected is not None and got != expected:
        print(f"perfbench: metric set mismatch: missing "
              f"{sorted(expected - got)}, unexpected {sorted(got - expected)}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
