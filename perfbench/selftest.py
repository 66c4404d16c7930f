#!/usr/bin/env python3
"""Checker self-test: shows that the benchmark's checks catch wrong answers.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seconds 3]

Runs ch-live-tcp once clean (it must pass) and once per perturbation. Each
perturbation corrupts one observed output after the measured phase: one Q6
revenue, one scan row_count, one final-state row of the backup. Every
perturbed run must fail with a non-zero exit, print no result line and name
the corrupted output among its failed checks. Exits 0 when all four runs
behave so.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = [
    (None, None),
    ("q6", "Q6 answer"),
    ("scan", "scan of table"),
    ("row", "final state"),
]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ok = True
    for perturb, expect in CASES:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               "ch-live-tcp", "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        if perturb:
            cmd += ["--perturb", perturb]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        printed_result = last[0].startswith("{")
        if perturb is None:
            good = proc.returncode == 0 and printed_result
            what = "clean run passes"
        else:
            fails = [l for l in proc.stdout.splitlines() if l.strip().startswith("FAIL")]
            good = (proc.returncode != 0 and not printed_result and
                    any(expect in l for l in fails))
            what = "perturbed %s is caught" % perturb
            for l in fails[:3]:
                print("    " + l.strip())
        print("%s: %s (exit %d)" % ("ok  " if good else "FAIL", what, proc.returncode))
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
