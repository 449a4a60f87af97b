#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds the
benchmark (the library plus perfbench/*.cc) under .bench_build/perfbench;
later calls only rebuild what changed. Each run is one perfbench process
under the benchmark's fixed execution environment (ENV below). Its
stdout ends with one JSON line: correct, attempted, failed and metrics.
--trace 1 also writes the run's spans to
.bench_build/perfbench/trace-<workload>-<seed>.jsonl.

--self-check runs every workload briefly and checks that every metric in
BENCHMARK.json is emitted with its unit and that every correctness check
fails when its expected value is corrupted. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("train", "sweep", "serve", "explore")

# Pool (2 threads: 1 worker + the calling thread), service dispatcher and
# the single load-generating thread never exceed 4 cores. Every other
# SUPERBNN_* variable is removed so nothing else steers the run.
ENV = {
    "SUPERBNN_THREADS": "2",
    "SUPERBNN_NUMA": "off",
    "SUPERBNN_PIN": "0",
    "SUPERBNN_SERVE_MAX_BATCH": "16",
    "SUPERBNN_SERVE_LINGER_US": "200",
    "SUPERBNN_SERVE_QUEUE": "256",
}

RUN_TIMEOUT_S = 170

# Correctness checks the self-check sabotages: (check, workload, trace).
CORRUPTIONS = (
    ("train_loss", "train", 0),
    ("train_accuracy", "train", 0),
    ("train_trace", "train", 1),
    ("sweep_bytes", "sweep", 0),
    ("sweep_chip", "sweep", 1),
    ("serve_scores", "serve", 0),
    ("serve_drop", "serve", 0),
    ("explore_candidates", "explore", 0),
    ("explore_plan", "explore", 0),
    ("explore_trace", "explore", 1),
)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark; cmake output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources are missing next to perfbench/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, corrupt=None):
    """Run one perfbench process; return (stdout lines, result dict)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SUPERBNN_")}
    env.update(ENV)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.jsonl" % (workload, seed))]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s run exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    return lines, result


def check_metrics(result, trace):
    """Every expected metric present, with its unit, and nothing else."""
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "missing %s, unexpected %s, wrong unit %s" % (
            missing, extra, units)
    return None


def self_check():
    build()
    problems = []

    def expect(ok, what):
        print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        _, result = run(workload, 1, 1, 0)
        mismatch = check_metrics(result, 0)
        expect(result["correct"] and result["failed"] == 0,
               "%s: correct with no failed ops" % workload)
        expect(mismatch is None, "%s: end-to-end metrics and units (%s)"
               % (workload, mismatch or "all present"))
    _, result = run("train", 1, 1, 1)
    mismatch = check_metrics(result, 1)
    expect(result["correct"] and result["failed"] == 0,
           "traced run: correct with no failed ops")
    expect(mismatch is None, "traced run: per-layer metrics and units (%s)"
           % (mismatch or "all present"))
    for check, workload, trace in CORRUPTIONS:
        _, result = run(workload, 1, 1, trace, corrupt=check)
        expect(not result["correct"] and result["failed"] > 0,
               "%s: corrupting %s counts failed ops (%d of %d)"
               % (workload, check, result["failed"], result["attempted"]))
    if problems:
        fail("self-check failed: %d problem(s)" % len(problems))
    print("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        self_check()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build()
    lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    mismatch = check_metrics(result, args.trace)
    if mismatch:
        fail("metric set differs from BENCHMARK.json: " + mismatch)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
