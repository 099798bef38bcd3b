#!/usr/bin/env python3
"""Self-test of the CalTrain benchmark.

    python3 perfbench/selftest.py

From the root of a checkout:
  1. a shortened (--quick) run of every workload, untraced and traced,
     must pass its checks and emit every metric BENCHMARK.json names,
     each with its unit;
  2. deliberately wrong inputs must fail the matching check:
     reassembling each release with another participant's key (round)
     and a probe set with no triggered probes (forensics);
  3. a directory holding only BENCHMARK.json and the benchmark's files
     must make run.py exit nonzero without printing a result.
Exits 0 when every case behaves as expected.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace, *extra, env=None):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          env=env)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout


def expect(ok, what, failures):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(ROOT, workload, trace, "--quick")
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            metrics = (result or {}).get("metrics", {})
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and {n: m["unit"] for n, m in metrics.items()} == units)
            expect(ok, f"{workload} --trace {trace}: checks pass, "
                       f"{len(units)} metrics with units", failures)

    for workload, fault, check in (
            ("round", "wrong-release-key",
             "every release reassembles with its owner's key"),
            ("forensics", "no-triggered-probes",
             "triggered probes flip to the target")):
        code, result, out = run(ROOT, workload, 0, "--quick", "--fault", fault)
        failed_check = any(line.startswith("check FAIL") and check in line
                           for line in out.splitlines())
        ok = (code != 0 and result is not None and not result["correct"]
              and not result["metrics"] and failed_check)
        expect(ok, f"{workload} --fault {fault}: check '{check}' fails",
               failures)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    # Build inside the bare copy, never into an existing build tree.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, result, _ = run(bare, "round", 0, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "bare directory: nonzero exit, no result", failures)

    print("selftest:", "PASS" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
