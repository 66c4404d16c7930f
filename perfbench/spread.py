#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 10]
                                [--trace 0|1] [--both]

For every metric of the chosen mode it prints the median over the runs and
the distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json sets.
With --both it runs each seed untraced and traced and also prints, for every
end-to-end metric, the traced median's change from the untraced one: the
tracing overhead.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = re.compile(r"^(\S+)\s+(-?[0-9.eE+-]+|nan)\s+(\S+)")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        sys.exit("seed %d trace %d failed:\n%s" % (seed, trace, proc.stdout[-2000:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    table = {}
    for line in lines[:-1]:
        m = ROW.match(line)
        if m and m.group(2) != "nan":
            table[m.group(1)] = float(m.group(2))
    return result, table


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--both", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    modes = (0, 1) if args.both else (args.trace,)
    values = {mode: {} for mode in modes}
    shares = set()
    for seed in seeds_of(args.seeds):
        for mode in modes:
            result, table = run(args.workload, seed, args.seconds, mode)
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[mode].setdefault(name, []).append(m["value"])
            if mode == 1:
                for e in spec["end_to_end"]:
                    if e["name"] in table:
                        values[mode].setdefault("traced " + e["name"], []).append(table[e["name"]])
        print("seed %d done" % seed, file=sys.stderr)
    print("%-40s %14s %9s %7s  %s" % ("metric", "median", "iqr/med", "bound", "values"))
    for mode in modes:
        for name, vals in values[mode].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            print("%-40s %14.6g %9.4f %7s  %s" % (name, med, spread, bound if bound else "",
                                                  " ".join("%.4g" % v for v in vals)))
    if args.both:
        print("tracing overhead (traced median / untraced median - 1):")
        for e in spec["end_to_end"]:
            traced = values[1].get("traced " + e["name"])
            plain = values[0].get(e["name"])
            if traced and plain:
                print("  %-30s %+.1f%%" % (e["name"],
                                           100 * (statistics.median(traced) /
                                                  statistics.median(plain) - 1)))
    print("failed share per run: %s" % sorted(shares))


if __name__ == "__main__":
    main()
