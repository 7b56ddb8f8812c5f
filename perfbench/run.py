#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dse-grid --seed 2018 --seconds 45 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --self-test     # unit tests of the metric math

Builds perfbench/ (which pulls in ltrf_core from the enclosing source
tree) as a Release build under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs ltrf_perfbench, checks that its result
line carries exactly the metrics BENCHMARK.json declares, and prints
the program's report with the result as the last line. Exits non-zero
without a result when the build, the run, or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dse-grid", "dse-warm")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(targets):
    bdir = build_dir()
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]]
    steps += [["cmake", "--build", bdir, "--target", t, "-j", jobs()] for t in targets]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return bdir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(bdir, workload, seed, seconds, trace):
    """Run one workload; return (report lines, result dict) or fail."""
    cmd = [os.path.join(bdir, "ltrf_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", bdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        fail("%s result does not match BENCHMARK.json: missing %s, extra %s"
             % (workload, sorted(set(want) - set(got)),
                sorted(k for k in got if want.get(k) != got[k])))
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if args.self_test:
        bdir = build(["perfbench_metrics_test"])
        sys.exit(subprocess.run(["ctest", "--test-dir", bdir, "-R", "perfbench",
                                 "--output-on-failure"]).returncode)

    bdir = build(["ltrf_perfbench"])
    if args.workload:
        lines, result = run_one(bdir, args.workload, args.seed, args.seconds,
                                args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return

    # No workload named: every workload untraced, then traced.
    ok = True
    for trace in (0, 1):
        for w in WORKLOADS:
            lines, result = run_one(bdir, w, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
