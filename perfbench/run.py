#!/usr/bin/env python3
"""Build the benchmark from the repository's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits 2 when the
library sources are missing or the build fails, without printing a result.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own code.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# A run measures at most 60 s per phase plus set-up; anything longer hangs.
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src", "bwc")):
        print("perfbench: library sources not found at %s"
              % os.path.join(ROOT, "src", "bwc"), file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", target,
         "-j", str(len(os.sched_getaffinity(0)))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(2)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    out = build_dir()
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", os.path.join(out, "work"),
               "--trace-out", os.path.join(
                   out, "trace-%s-%s.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
