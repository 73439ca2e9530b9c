#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the library and the lps_e2e program from source (CMake, Release)
and runs one workload:

    python3 perfbench/run.py --workload serve_social --seed 1 \
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans under the build directory's traces/). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own helper tests instead.

The build directory is $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench at the repository root when that is unset.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_social", "churn_serve", "set_fixpoint")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    binary = os.path.join(build_dir(), "lps_e2e")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} exited with code {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        log("last line is not a JSON result")
        return 1
    want = declared_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        log("metrics differ from BENCHMARK.json: printed %s, declared %s"
            % (sorted(result["metrics"]), sorted(want)))
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    if args.self_test:
        if not build("perfbench_test"):
            return 2
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_test")]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build("lps_e2e"):
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
