#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs it.

One workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints the runner's output; its last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 also writes the recorded
spans to <build dir>/spans/<workload>-seed<n>.json.

Every workload, every metric by name and unit, end-to-end and per layer:

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Smoke check (one iteration of each workload in both modes; fails unless
every metric named in BENCHMARK.json is emitted with its unit and every
output is correct):

    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR, or .bench_build in the current
directory when that is unset.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def check_result(spec, workload, trace, result):
    """Returns a list of problems with one run's result."""
    if result is None:
        return ["%s trace=%d: no result" % (workload, trace)]
    problems = []
    if not result.get("correct"):
        problems.append("%s trace=%d: correct is false" % (workload, trace))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in wanted:
        if m["name"] not in got:
            problems.append("%s trace=%d: missing %s" % (workload, trace, m["name"]))
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s trace=%d: %s unit %s, expected %s" % (
                workload, trace, m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("%s trace=%d: unlisted metrics %s" % (workload, trace, sorted(extra)))
    return problems


def run_all(binary, seed, seconds, smoke):
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        results = {}
        found = []
        for trace in (0, 1):
            code, result = run_one(binary, name, seed, seconds, trace, echo=False)
            if code != 0:
                found.append("%s trace=%d: exit code %d" % (name, trace, code))
            found += check_result(spec, name, trace, result)
            results[trace] = result or {}
        problems += found
        if smoke:
            print("smoke %-22s %s" % (name, "FAIL" if found else "ok"))
            continue
        print("\n== %s (seed %d): %s" % (name, seed, w["why"]))
        for trace in (0, 1):
            r = results[trace]
            print("  %s: correct=%s attempted=%s failed=%s" % (
                "end-to-end" if trace == 0 else "per-layer (traced)",
                r.get("correct"), r.get("attempted"), r.get("failed")))
            for key, m in r.get("metrics", {}).items():
                print("    %-34s %16.6g  %s" % (key, m["value"], m["unit"]))
    for p in problems:
        print("FAIL: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.smoke or args.workload):
        ap.error("give --workload, --all or --smoke")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return run_all(binary, args.seed, 0, smoke=True)
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    if args.all:
        return run_all(binary, args.seed, seconds, smoke=False)
    code, _ = run_one(binary, args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
