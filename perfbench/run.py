#!/usr/bin/env python3
"""End-to-end benchmark of MEMPHIS: builds the harness, runs one workload.

    python3 perfbench/run.py --workload gridcv --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the directory holding CMakeLists.txt,
src/ and perfbench/). The first run configures and builds the libraries and
the harness under .bench_build/ (or $CARGO_TARGET_DIR when it is a relative
path); later runs only check the build is current.

Prints every metric by name with its unit, the build and host the numbers
came from, and as the last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The full report, with the per-layer span
table, is written to .bench_build/perfbench/results/. Exits 0 only when every
output matched the reference interpreter, every accounting check held and
the exact-repeat counters agreed with earlier runs of the same seed.

Set-up time depends on where the process's code and data land in memory:
with address-space randomisation, the median set-up of one process falls
into one of two modes about 1.8x apart. So an untraced run also times the
set-up alone in SETUP_PROCESSES fresh processes, and setup_s is the mean of
all the processes' median set-ups.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = "memphis_perfbench"
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 8


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base) or base.startswith(".."):
        base = ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the harness; returns the binary path."""
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", 3)
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", HARNESS, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed, see " + log_path, 3)
    return os.path.join(out, HARNESS)


def source_digest():
    """Content hash of everything the measured program is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def provenance(out, removed_env):
    info = {"source_sha256": source_digest(), "git_commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            info["git_commit"] = result.stdout.strip()
    with open(os.path.join(out, "build_info.json")) as f:
        info["build"] = json.load(f)
    info["nproc"] = os.cpu_count()
    info["cpu_model"], info["cpu_flags"] = None, None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["cpu_model"] is None:
                    info["cpu_model"] = value.strip()
                elif key == "flags" and info["cpu_flags"] is None:
                    info["cpu_flags"] = value.strip()
    except OSError:
        pass
    info["memphis_env_overrides"] = removed_env
    return info


def check_repeat(out, workload, seed, digest, repeat):
    """Exact-repeat counters of a seed must match every earlier run of the
    same sources; returns a failure message or None."""
    if not repeat:
        return None
    path = os.path.join(out, "repeat", "%s-%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier.get("source_sha256") == digest:
            diffs = ["%s %r != earlier %r" % (k, repeat.get(k), v)
                     for k, v in sorted(earlier["repeat"].items())
                     if repeat.get(k) != v]
            return "determinism defect across runs: " + "; ".join(diffs) \
                if diffs else None
    with open(path, "w") as f:
        json.dump({"source_sha256": digest, "repeat": repeat}, f)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s missing: run from a MEMPHIS source tree" % needed, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)

    # Measure the program as it ships: no MEMPHIS_* overrides reach it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMPHIS_")}
    removed = sorted(k for k in os.environ if k.startswith("MEMPHIS_"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", results]
    start = time.monotonic()

    def harness(extra):
        timeout = RUN_TIMEOUT_S - (time.monotonic() - start)
        try:
            return subprocess.run(command + extra, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1, timeout))
        except subprocess.TimeoutExpired:
            fail("harness exceeded %d s" % RUN_TIMEOUT_S, 4)

    setups = []
    for _ in range(0 if args.trace else SETUP_PROCESSES):
        alone = harness(["--setup-only", "1"])
        try:
            setups.append(json.loads(alone.stdout.rstrip("\n").split(
                "\n")[-1])["e2e"]["setup_s"]["value"])
        except (ValueError, KeyError, IndexError):
            sys.stderr.write(alone.stdout[-2000:] + alone.stderr[-2000:])
            fail("set-up timing printed no report (exit %d)" %
                 alone.returncode, 4)
    run = harness([])
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(run.stdout[-2000:] + run.stderr[-2000:])
        fail("harness printed no report (exit %d)" % run.returncode, 4)
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(run.stderr)

    if setups and "setup_s" in report["e2e"]:
        setups.append(report["e2e"]["setup_s"]["value"])
        report["e2e"]["setup_s"]["value"] = sum(setups) / len(setups)
        print("setup_s per process: " +
              " ".join("%.6g" % value for value in setups))

    info = provenance(out, removed)
    failures = list(report["failures"])
    repeat_failure = check_repeat(out, args.workload, args.seed,
                                  info["source_sha256"], report["repeat"])
    if repeat_failure:
        failures.append(repeat_failure)
    metrics = {}
    table = report["layer" if args.trace else "e2e"]
    for name in names:
        metric = table.get(name)
        if metric is None or metric["value"] is None or \
                not math.isfinite(metric["value"]):
            failures.append("metric %s missing or not finite" % name)
            continue
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}

    failed = report["failed"] + len(failures) - len(report["failures"])
    correct = report["correct"] and failed == 0 and run.returncode == 0
    for failure in failures[len(report["failures"]):]:
        print("FAIL  " + failure)
    print("build %s %s, flags '%s', %s; sources %s; git %s" % (
        info["build"]["build_type"], info["build"]["compiler"],
        info["build"]["cxx_flags"].strip(), info["build"]["cxx_standard"],
        info["source_sha256"][:16], info["git_commit"] or "n/a"))
    print("host nproc=%s cpu=%s flags=%s; MEMPHIS_* overrides removed: %s" % (
        info["nproc"], info["cpu_model"],
        hashlib.sha256((info["cpu_flags"] or "").encode()).hexdigest()[:12],
        ", ".join(removed) or "none"))
    print("harness %.2f s" % (time.monotonic() - start))

    record = dict(report, provenance=info, failures=failures, correct=correct,
                  failed=failed)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
