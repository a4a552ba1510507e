#!/usr/bin/env python3
"""Builds and runs the end-to-end audit benchmark.

    python3 auditbench/run.py --workload audit_csv --seed 1 --seconds 20 --trace 0
    python3 auditbench/run.py --workload all            # every workload in turn

Run it from the root of a checkout. It builds the xfair library from
src/ together with the benchmark binary (auditbench/audit_bench.cc) in
$CARGO_TARGET_DIR/auditbench (default .bench_build/auditbench), runs it,
and passes its output through; the last stdout line is the result
JSON. --save FILE appends {"workload", "seed", "trace", "fingerprint",
"result"} to FILE for compare.py. The exit code is non-zero when the build fails, an output
check fails, or the benchmark does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["audit_csv", "monitor_stream", "explain_slices"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "auditbench")


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("auditbench: no src/ to build next to auditbench/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "auditbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the benchmark output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "audit_bench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result or None, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        print(f"auditbench: {workload} did not finish in time", file=sys.stderr)
        return 1, None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return proc.returncode or 1, None, lines
    return proc.returncode, result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="append the result record to this file")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        status, result, lines = run_one(binary, workload, args.seed, args.seconds,
                                        args.trace)
        code = code or status
        if result is None:
            return code or 1
        if args.save:
            fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                                if line.startswith("fingerprint ")), None)
            with open(args.save, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": args.seed,
                                    "trace": args.trace, "fingerprint": fingerprint,
                                    "result": result}) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if len(workloads) == 1:
        print(lines[-1])
    else:
        print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
