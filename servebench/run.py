#!/usr/bin/env python3
"""Serving benchmark of the AIrchitect v2 recommendation server.

Run from the repository root:

    python3 servebench/run.py --workload oneshot-open --seed 1 --seconds 15 --trace 0

Builds the repository's `serve` binary and the `servebench` harness
(release, into $CARGO_TARGET_DIR, default `.bench_build`), then replaces
itself with the harness, which trains the fixture, drives the workload
against fresh `serve` processes and prints one JSON result as the last
line of stdout (see src/main.rs). Each run also appends its record to
`.servebench/results.jsonl`.

    python3 servebench/run.py compare A.jsonl B.jsonl

prints, per workload and metric, the median and quartile spread of two
result logs, and refuses logs made under different SIMD kernels.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot-open", "engine-closed", "hot-closed")


def build(target):
    """Builds both binaries; returns their paths or exits non-zero."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ai2-serve", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "serve"), os.path.join(release, "servebench")


def commit_id():
    """The checkout's commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(argv):
    p = argparse.ArgumentParser(description="serving benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("servebench: no Cargo.toml beside the benchmark; run it from a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    serve_bin, bench_bin = build(target)
    state = os.path.join(ROOT, ".servebench")
    work = os.path.join(state, "run-%d" % os.getpid())
    sys.stdout.flush()
    sys.stderr.flush()
    # exec: the harness keeps this PID, so whoever started the benchmark
    # can stop it (and, through it, the server child) directly
    os.execv(bench_bin, [
        bench_bin,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", serve_bin,
        "--pipelines", os.path.join(HERE, "pipelines.json"),
        "--work", work,
        "--log", os.path.join(state, "results.jsonl"),
        "--commit", commit_id(),
    ])


def load_log(path):
    """{(workload, trace): {metric: [values]}} and the set of kernels."""
    runs, kernels = {}, set()
    with open(path) as f:
        for line in f:
            entry = json.loads(line)
            rec = entry["servebench_record"]
            kernels.add(rec["kernel"])
            per = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in entry["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return runs, kernels


def spread(values):
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / abs(q2) if q2 else float("inf")


def compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare A.jsonl B.jsonl")
    (a, ka), (b, kb) = load_log(argv[0]), load_log(argv[1])
    if len(ka | kb) != 1:
        sys.exit("servebench: refusing to compare runs made under different SIMD kernels: %s"
                 % sorted(ka | kb))
    print("%-14s %-5s %-26s %12s %8s %12s %8s" % ("workload", "trace", "metric",
                                                  "median A", "IQR/med", "median B", "IQR/med"))
    for key in sorted(set(a) & set(b)):
        for name in sorted(set(a[key]) & set(b[key])):
            ma, sa = spread(a[key][name])
            mb, sb = spread(b[key][name])
            print("%-14s %-5s %-26s %12.4g %8.3f %12.4g %8.3f" % (key[0], key[1], name, ma, sa, mb, sb))


if __name__ == "__main__":
    if sys.argv[1:2] == ["compare"]:
        compare(sys.argv[2:])
    else:
        run(sys.argv[1:])
