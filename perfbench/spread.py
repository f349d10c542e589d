#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark is judged.

    python3 perfbench/spread.py --workload gridcv [--seeds 1-10 | --held-out]
        [--save FILE] [--compare FILE]

Runs perfbench/run.py once per seed, untraced, for run_seconds of
BENCHMARK.json unless --seconds is given. The seeds default to the
development seeds of perfbench/seeds.json; --held-out takes its held-out
seeds. Prints, per end-to-end metric, the median of
the values and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Exits 1 when a run fails or a spread exceeds its bound.
setup_s is exempt, as in the benchmark's acceptance rule: set-up takes
from under a millisecond to tens of milliseconds, so its spread over runs
mostly shows the host's slow phases. Its gate is the median instead: a
later set of runs must not read worse than an earlier one by more than
the bound, which --compare checks. --save writes the values of this set
to FILE; --compare reads an earlier set from FILE and exits 1 when a
median, setup_s's too, reads worse than that set's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seeds)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seeds of perfbench/seeds.json")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save", help="write this set's values to FILE")
    parser.add_argument("--compare",
                        help="check medians against a set saved in FILE")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "seeds.json")) as f:
        recorded = json.load(f)
    if args.seeds is None:
        args.seeds = seeds(recorded["held_out" if args.held_out
                                    else "development"])
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    saved = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            run = subprocess.run(
                ["python3", os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(run.stdout.strip().split("\n")[-1]) \
                if run.stdout.strip() else {}
            if run.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (workload, seed,
                                                       run.returncode))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        saved[workload] = values
        print("%s over seeds %s:" % (workload, args.seeds))
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                ok = False
            print("  %-16s median %12.6g %-5s spread %6.3f (bound %.2f) %s" %
                  (metric["name"], median, metric["unit"], spread,
                   metric["bound"], verdict))
            before = earlier.get(workload, {}).get(metric["name"])
            if before:
                was = statistics.median(before)
                worse = (median - was if metric["better"] == "lower"
                         else was - median) / was
                drift = "WORSE" if worse > metric["bound"] else "ok"
                if worse > metric["bound"]:
                    ok = False
                print("  %-16s median was %12.6g, now %+.3f worse: %s" %
                      ("", was, worse, drift))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
