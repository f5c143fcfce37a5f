#!/usr/bin/env python3
"""Build and run the live one-to-many benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 livebench/run.py --workload fanout-whale --seed 1 --seconds 10 --trace 0

builds the Go program in livebench/ from the checkout's source into
.bench_build/ (the Go build cache lives there too, so nothing is written
outside the checkout), runs it, and passes its output through: the last
line of standard output is the run's JSON result.

Steadiness mode runs every workload K times, interleaved and each in a
fresh process with its own seed, and prints each end-to-end metric's
median, quartiles and quartile spread against its bound in BENCHMARK.json:

    python3 livebench/run.py --steadiness 10 [--seconds 10] [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "livebench")
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("livebench: build failed")


def run_once(args, capture):
    """Runs the built program once; returns its stdout when capture is set."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("livebench: run exceeded %ds" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("livebench: run failed with exit code %d" % proc.returncode)
    return proc.stdout.decode() if capture else None


def steadiness(k, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    fail_share = {w: set() for w in workloads}
    for i in range(k):
        for w in workloads:
            out = run_once(["--workload", w, "--seed", str(first_seed + i),
                            "--seconds", str(seconds), "--trace", "0"], capture=True)
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit("livebench: %s seed %d failed its oracle" % (w, first_seed + i))
            fail_share[w].add(res["failed"] / res["attempted"])
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print("run %d/%d %s done" % (i + 1, k, w), file=sys.stderr, flush=True)
    steady = True
    print("%-14s %-22s %14s %14s %14s %8s %6s" % ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in workloads:
        for m, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[w][m], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s" and spread > bound / 3:
                flag, steady = "  > bound/3", False
            print("%-14s %-22s %14.4f %14.4f %14.4f %8.4f %6.2f%s" % (w, m, q1, med, q3, spread, bound, flag))
        if len(fail_share[w]) != 1:
            steady = False
            print("%s: failed share differs between runs: %s" % (w, sorted(fail_share[w])))
    return steady


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", help="fanout-* only: run this system preset instead")
    ap.add_argument("--steadiness", type=int, metavar="K", help="run every workload K times")
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    if a.steadiness is None and not a.workload:
        ap.error("--workload or --steadiness is required")
    build()
    if a.steadiness is not None:
        if a.steadiness < 2:
            ap.error("--steadiness needs at least 2 runs per workload")
        sys.exit(0 if steadiness(a.steadiness, a.seconds, a.first_seed) else 1)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.preset:
        args += ["--preset", a.preset]
    sys.stdout.flush()
    run_once(args, capture=False)


if __name__ == "__main__":
    main()
