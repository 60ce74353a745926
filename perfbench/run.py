#!/usr/bin/env python3
"""Builds and runs the SecureStore benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sw-small --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Every run measures for BENCHMARK.json's run_seconds: the bounds there were
measured at that length. --seconds is accepted for callers that always pass
the run length, and must equal run_seconds.

The store's libraries are compiled from ./src together with the benchmark
(CMake, out of tree in $CARGO_TARGET_DIR or .bench_build). The benchmark's
data directories live under .bench_data and are removed when a run ends.
The last line of stdout is the result JSON; the exit code is the
benchmark's (non-zero on a failed correctness check, an invalid open loop,
or a build failure).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("store sources (src/) not found next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "securestore_bench", "timing_transport_selftest"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the root of the checkout")
    with open(path) as f:
        return json.load(f)


def check_result(spec, line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"result metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the timing-transport self-test instead of a workload")
    args = parser.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        fail(f"--seconds {args.seconds:g} differs from BENCHMARK.json's run_seconds {seconds}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "timing_transport_selftest")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required")

    data_dir = os.path.join(ROOT, ".bench_data")
    os.makedirs(data_dir, exist_ok=True)
    command = [os.path.join(build_dir, "securestore_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--data-dir", data_dir]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not lines:
        fail("benchmark printed nothing")
    check_result(spec, lines[-1], args.trace)


if __name__ == "__main__":
    main()
