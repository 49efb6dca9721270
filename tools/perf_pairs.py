#!/usr/bin/env python3
"""Alternating parent/change pairs of two perfbench binaries.

    tools/perf_pairs.py --parent <perfbench> --change <perfbench> \\
        --workload <name> --seed <n> [--pairs 10] [--json <out>]

Pair i runs both binaries on the same workload and seed for the
benchmark's `run_seconds`, the parent first in even pairs and the change
first in odd ones. For every end-to-end metric that BENCHMARK.json
declares it prints each side's median and quartiles, the pairs the change
won (ties count for neither side) and a verdict:

  gain        at least 10 pairs were run, the change won at least 9/10 of
              them and its median is better than the parent's by more than
              the parent's IQR
  too few pairs
              the same, but fewer than 10 pairs were run: no gain can be
              claimed from them
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's IQR is wider than that bound and not every run
              of the change beats every run of the parent
  same        none of the above

--json writes the commands, host_cpus, every run's value and the summary.
The exit code is 1 if any run fails, reports a failed op or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MIN_PAIRS = 10  # fewest pairs a gain may be claimed from


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(q):
    return "%.4g/%.4g/%.4g" % (q["q1"], q["median"], q["q3"])


def summarize(parent, change, better, bound):
    """Summary of one metric over paired runs; parent[i] and change[i] are
    the two sides of pair i."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    gap = sign * (cm - pm)  # > 0: the change's median is better
    iqr = p3 - p1
    pairs = len(parent)
    if won * 10 >= pairs * 9 and gap > iqr:
        verdict = "gain" if pairs >= MIN_PAIRS else "too few pairs"
    elif -gap > bound * abs(pm):
        verdict = "worse"
    elif iqr > bound * abs(pm) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "pairs": pairs, "won": won, "lost": lost,
        "median_ratio": cm / pm if pm else None,
        "parent_iqr": iqr, "verdict": verdict,
    }


def run(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError("%s: correct=%s failed=%s" % (
            " ".join(cmd), result.get("correct"), result.get("failed")))
    return cmd, result


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent perfbench binary")
    ap.add_argument("--change", required=True, help="changed perfbench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", default=None, help="write the record here")
    args = ap.parse_args()

    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs = {"parent": [], "change": []}
    commands = {}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary = args.parent if side == "parent" else args.change
                cmd, result = run(binary, args.workload, args.seed, seconds)
                commands[side] = " ".join(cmd)
                runs[side].append(
                    {m["name"]: result["metrics"][m["name"]]["value"]
                     for m in metrics})
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    except RuntimeError as err:
        print("perf_pairs: %s" % err, file=sys.stderr)
        return 1

    summary = {}
    print("%s seed %d, %d pairs of %g s, host_cpus %d" % (
        args.workload, args.seed, args.pairs, seconds, os.cpu_count() or 0))
    print("%-18s %30s %30s %7s  %s" % (
        "metric", "parent q1/median/q3", "change q1/median/q3", "won",
        "verdict"))
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], m["better"],
                      m["bound"])
        summary[name] = s
        print("%-18s %30s %30s %7s  %s" % (
            name, fmt(s["parent"]), fmt(s["change"]),
            "%d/%d" % (s["won"], s["pairs"]), s["verdict"]))

    if args.json:
        record = {
            "workload": args.workload, "seed": args.seed,
            "pairs": args.pairs, "seconds": seconds,
            "host_cpus": os.cpu_count(), "commands": commands,
            "runs": runs, "summary": summary,
        }
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
