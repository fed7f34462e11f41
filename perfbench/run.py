#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the subsum broker network.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7-publish --seed 1 --seconds 10 --trace 0

Every run first configures and builds perfbench/ (which compiles the
library from ../src) into the build directory: $CARGO_TARGET_DIR if set,
else .bench_build. Only the first run compiles everything; later runs
rebuild what changed. Build output goes to stderr; the benchmark's own
output goes to stdout, whose last line is the JSON result. The exit code is the benchmark's: 0 when every output check
passed, 1 when one failed, 2 on bad arguments.

    python3 perfbench/run.py --selftest

proves the output checker: for each workload it requires a clean run to
pass, and a run with a dropped, one with a duplicated and one with a false
notification injected into the received set to fail.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fig7-publish", "cw24-churn", "sim-scale"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns its path."""
    out = build_dir()
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(r.returncode or 1)
    return os.path.join(out, "perfbench")


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inject", args.inject, "--work-dir", os.path.join(build_dir(), "perfbench-work")]
    return subprocess.run(cmd, cwd=ROOT).returncode


def selftest(binary, workloads):
    failures = 0
    for w in workloads:
        for fault in ["none", "drop", "dup", "false"]:
            cmd = [binary, "--workload", w, "--seed", "1", "--seconds", "2", "--trace", "0",
                   "--inject", fault, "--work-dir", os.path.join(build_dir(), "perfbench-work")]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            if fault == "none":
                ok = r.returncode == 0 and '"correct": true' in last
                verdict = "passes" if ok else "FAILS"
            else:
                ok = r.returncode == 1 and '"correct": false' in last
                verdict = "caught" if ok else "NOT CAUGHT"
            print("%-13s inject %-5s -> exit %d, %s" % (w, fault, r.returncode, verdict))
            failures += 0 if ok else 1
    print("selftest: %s" % ("ok" if failures == 0 else "%d runs went wrong" % failures))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inject", choices=["none", "drop", "dup", "false"], default="none")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary, [args.workload] if args.workload else WORKLOADS))
    sys.exit(run(binary, args))


if __name__ == "__main__":
    main()
