#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload sweep_sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds the harness from
source (perfbench/CMakeLists.txt, which compiles the library through the
repository's own build file) into .bench_build/perfbench, runs it, and
passes its log through. The harness's closing "RESULT {...}" line is
turned into one JSON object: {"correct", "attempted", "failed",
"metrics"}, where "metrics" holds exactly the end_to_end metrics that
BENCHMARK.json lists (--trace 0) or its per_layer metrics (--trace 1).

The exit status is the harness's: non-zero when an output check failed.
It is also non-zero, with no result printed, when the build fails, for
example in a directory without the library's sources.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The harness itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the checkout root: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("building the harness failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    wanted = bench["per_layer" if args.trace else "end_to_end"]

    binary = build()
    trace_file = os.path.join(
        BUILD, f"trace-{args.workload}-{args.seed}.json")
    # The library reads SPARSENN_* variables (a dataset directory, a
    # forced scalar kernel); the benchmark's inputs come only from --seed.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPARSENN_")}
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", trace_file]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness ran longer than {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if result is None:
        fail(f"the harness exited {proc.returncode} without a result")

    measured = result["layer" if args.trace else "e2e"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in measured or measured[name]["value"] is None:
            fail(f"the harness did not measure {name}")
        if measured[name]["unit"] != spec["unit"]:
            fail(f"{name} is in {measured[name]['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[name] = measured[name]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
