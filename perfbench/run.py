#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bus-live-sharded|ch-live-tcp>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--perturb <q6|scan|row>]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root) as an optimized CMake build of perfbench/
and the AETS sources under src/; build output goes to stderr. The benchmark
prints its metric table and, last, a JSON object with every metric it
measured. This script passes the table through and ends stdout with the JSON
result that BENCHMARK.json describes: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The exit code is non-zero, and no
result is printed, when the build fails, a check fails or a metric is
missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bus-live-sharded", "ch-live-tcp")


def build(build_dir):
    src = os.path.join(ROOT, "perfbench")
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", choices=("q6", "scan", "row"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", os.path.join(build_root, "work")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed with exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("perfbench: metric %s missing or in another unit" % m["name"], file=sys.stderr)
            return 1
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
