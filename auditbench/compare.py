#!/usr/bin/env python3
"""Summarises and compares end-to-end results saved by run.py --save.

    python3 auditbench/compare.py runs.jsonl              # medians and spreads
    python3 auditbench/compare.py parent.jsonl change.jsonl

With one file it prints, per workload and end-to-end metric, the median
of the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(n=4)) as a share of the median. It fails
when a spread other than setup_s exceeds the metric's bound in
BENCHMARK.json. With two files it fails when a median of the second is
worse than the first's by more than the bound, or when the second has
incorrect or more failed runs, and warns when the two were measured on
different machine fingerprints.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """Untraced records grouped by workload, and the machine fingerprints
    they were measured on: ({workload: [result, ...]}, {fingerprint})."""
    runs, fingerprints = {}, set()
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
                    fingerprints.add(json.dumps(rec.get("fingerprint"), sort_keys=True))
    return runs, fingerprints


def values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worsening(metric, base, new):
    """Share of the base median by which `new` is worse (negative: better)."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def summarise(spec, runs):
    problems = []
    for workload, results in sorted(runs.items()):
        for r in results:
            if not r["correct"]:
                problems.append(f"{workload}: a run failed its output checks")
        for m in spec["end_to_end"]:
            vals = values(results, m["name"])
            s = spread(vals)
            print(f"{workload:15s} {m['name']:18s} median {statistics.median(vals):14.6g} "
                  f"{m['unit']:5s} spread {s:7.4f} (bound {m['bound']}, "
                  f"{len(vals)} runs){'  > bound/3' if s > m['bound'] / 3 else ''}")
            if m["name"] != "setup_s" and s > m["bound"]:
                problems.append(f"{workload}.{m['name']}: spread {s:.4f} > bound {m['bound']}")
    return problems


def compare(spec, base_runs, new_runs):
    problems = []
    for workload, base in sorted(base_runs.items()):
        new = new_runs.get(workload)
        if not new:
            problems.append(f"{workload}: no runs in the second file")
            continue
        if not all(r["correct"] for r in new):
            problems.append(f"{workload}: a run failed its output checks")
        failed = lambda rs: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        if failed(new) > failed(base):
            problems.append(f"{workload}: more failed operations")
        for m in spec["end_to_end"]:
            b = statistics.median(values(base, m["name"]))
            n = statistics.median(values(new, m["name"]))
            w = worsening(m, b, n)
            print(f"{workload:15s} {m['name']:18s} {b:14.6g} -> {n:14.6g} {m['unit']:5s} "
                  f"worse by {w:+.4f} (bound {m['bound']})")
            if w > m["bound"]:
                problems.append(f"{workload}.{m['name']}: worse by {w:.4f} > bound {m['bound']}")
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 2:
        problems = summarise(spec, load_runs(argv[1])[0])
    else:
        (base, base_fp), (new, new_fp) = load_runs(argv[1]), load_runs(argv[2])
        if base_fp != new_fp:
            # Absolute times compare like with like only on one machine setup.
            print("WARNING: the files were measured on different machine fingerprints:",
                  *sorted(base_fp | new_fp), sep="\n  ")
        problems = compare(spec, base, new)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
