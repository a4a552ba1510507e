#!/usr/bin/env python3
"""Self-test of the audit benchmark's gates: every gate must be able to fail.

    python3 auditbench/selftest.py

1. Output checks: `audit_bench --selftest` feeds each check real outputs
   and a corrupted copy (one flipped report byte, a wrong burden failure
   count, one shifted alarm seq, a 1-ulp TreeSHAP change, a broken
   prediction, a changed digest) and fails unless each check rejects it.
2. Names: a short untraced and a short traced run of every workload pass
   their checks and report exactly the end-to-end and per-layer metric
   names of BENCHMARK.json.
3. Comparison: the untraced results compared with themselves pass, and a
   copy in which one end-to-end metric of one workload is made 2x worse
   fails compare.py, for every metric and workload.
"""

import contextlib
import copy
import io
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402


def main():
    failures = []
    binary = run.build()
    if binary is None:
        return 2
    work = os.path.join(run.build_dir(), "work")
    proc = subprocess.run([binary, "--selftest", "--workdir", work], text=True,
                          stdout=subprocess.PIPE, timeout=300)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures.append("an output check accepted corrupted output")

    spec = compare.load_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    runs = {}
    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layer)):
            with contextlib.redirect_stdout(io.StringIO()):
                code, result, _ = run.run_one(binary, workload, 1, 1, trace)
            ok = code == 0 and result is not None and result["correct"]
            ok = ok and set(result["metrics"]) == names
            print(f"{'ok  ' if ok else 'FAIL'}  {workload} trace {trace}: checks pass, "
                  "metric names match BENCHMARK.json")
            if not ok:
                failures.append(f"{workload} trace {trace} run")
            elif trace == 0:
                runs[workload] = [result]
    if failures:
        return report(failures)

    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        same = compare.compare(spec, runs, copy.deepcopy(runs))
    print(f"{'ok  ' if not same else 'FAIL'}  results compared with themselves pass")
    if same:
        failures.append("self-comparison failed: " + "; ".join(same))
    for workload in runs:
        for metric in spec["end_to_end"]:
            planted = copy.deepcopy(runs)
            value = planted[workload][0]["metrics"][metric["name"]]
            value["value"] *= 2 if metric["better"] == "lower" else 0.5
            with contextlib.redirect_stdout(quiet):
                caught = compare.compare(spec, runs, planted)
            if not caught:
                failures.append(f"2x worse {workload}.{metric['name']} passed the comparison")
    print(f"{'ok  ' if not failures else 'FAIL'}  a 2x worse end-to-end metric fails the "
          f"comparison ({len(runs) * len(spec['end_to_end'])} planted cases)")
    return report(failures)


def report(failures):
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "all gates can fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
