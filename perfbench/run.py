#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload kv_write --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the simulator's sources plus the driver, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The driver's output is
passed through; its last line is the JSON result. The metric names in it are
checked against BENCHMARK.json, and the exit code is non-zero when the build
fails, a correctness check fails or the names disagree.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    driver = build()
    # The driver parses the repository's --flag=value form only.
    cmd = [driver, f"--workload={args.workload}", f"--seed={args.seed % 2**64}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 3)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode} and printed no result", 3)
    got = set(result["metrics"])
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metric names differ from BENCHMARK.json: missing {sorted(expected - got)}, "
             f"extra {sorted(got - expected)}", 3)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
