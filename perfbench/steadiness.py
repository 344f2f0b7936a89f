#!/usr/bin/env python3
"""Run one workload N times and judge whether its end-to-end metrics are steady.

    python3 perfbench/steadiness.py --workload replay_2d [--runs 10] [--sets 2]

Run k uses seed k and lasts run_seconds from BENCHMARK.json. For every end-to-end metric in BENCHMARK.json
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the metric's bound:
  steady       spread <= bound / 3
  within       spread <= bound
  NOISY        spread >  bound
setup_s is not judged on spread. With --sets 2 the runs are made twice
(the second set reuses the first set's seeds), and each metric's second
median must not be worse than the first by more than its bound. Exits 1
when any verdict fails or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: workload %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("run reported incorrect output: seed %d" % seed)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def run_set(workload, seeds, seconds, label):
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds))
        print("  %s run %d/%d (seed %d) done" % (label, len(runs), len(seeds),
                                                seed), file=sys.stderr)
    return runs


def report(spec, runs, label):
    ok = True
    names = [m["name"] for m in spec["end_to_end"]]
    print("%s: %d runs" % (label, len(runs)))
    print("  ".join(["run"] + names))
    for i, r in enumerate(runs):
        print("  ".join(["%3d" % (i + 1)] + ["%.6g" % r[n] for n in names]))
    print("%-20s %14s %14s %14s %8s %7s  %s" % (
        "metric", "median", "Q1", "Q3", "spread", "bound", "verdict"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, med, q3, s = spread([r[name] for r in runs])
        if name == "setup_s":
            verdict = "(not judged)"
        elif s <= bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within"
        else:
            verdict, ok = "NOISY", False
        print("%-20s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%  %s" % (
            name, med, q1, q3, 100 * s, 100 * bound, verdict))
    return ok


def compare(spec, first, second):
    ok = True
    print("second set vs first set (worse by at most the bound)")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        m1 = statistics.median(r[name] for r in first)
        m2 = statistics.median(r[name] for r in second)
        change = (m2 - m1) / m1 if m1 else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = "agree" if worse <= bound else "DISAGREE"
        ok = ok and worse <= bound
        print("%-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s" % (
            name, m1, m2, 100 * change, 100 * bound, verdict))
    return ok


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seeds = list(range(1, args.runs + 1))
    sets = [run_set(args.workload, seeds, spec["run_seconds"],
                    "set %d" % (i + 1))
            for i in range(args.sets)]
    ok = True
    for i, runs in enumerate(sets):
        ok = report(spec, runs, "%s set %d" % (args.workload, i + 1)) and ok
    if len(sets) == 2:
        ok = compare(spec, sets[0], sets[1]) and ok
    print("verdict: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
