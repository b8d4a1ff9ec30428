#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
load generator (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/; later calls only rebuild what changed. The
load generator's report goes to stdout, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list (the traced run also writes its spans to
.bench_build/spans/). The exit code is nonzero when the build fails, an
output check fails, or the result does not match BENCHMARK.json.

Extra flags: --corrupt-one-read (seed one bad read; the run must fail)
and --self-test (the load generator's own checks).
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the load generator; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with a result line against BENCHMARK.json (empty if none)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has no finite value")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name} unit {m.get('unit')} != {expected[name]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-one-read", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workdir", workdir]
    if args.self_test:
        sys.exit(subprocess.run(cmd + ["--self-test"]).returncode)
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt_one_read:
        cmd.append("--corrupt-one-read")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})", 5)
    problems = check_result(result, expected_metrics(args.trace))
    if problems:
        print("\n".join(lines[:-1]))
        fail("; ".join(problems), 6)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and (result["failed"] or not result["correct"]):
        fail("the run reported failures but exited 0", 7)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
