#!/usr/bin/env python3
"""Builds and runs the lcert end-to-end benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The first run configures and builds the library and the benchmark binary in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. Build output goes to stderr; stdout carries the
binary's provenance and sample-count lines and, last, its result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-cold", "verify-mixed", "edit-stream")
DEFAULT_SEED = 1  # the seed a change is tuned and measured on
CONFIRM_SEED = 2  # a seed not used while writing a change, to confirm a claim
RUN_TIMEOUT_S = 165  # a run, build check included, must end within 180 s


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "lcert_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "lcert_perfbench")


def git_provenance():
    """(sha, dirty) of the checkout, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def run_binary(binary, args, timeout):
    """Runs the binary; returns (returncode, stdout). Kills it on timeout."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % timeout)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Tiny-n runs must emit exactly the metrics BENCHMARK.json names, with
    their units, and a planted wrong certificate or verdict must be counted
    as a failed operation."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            code, out = run_binary(binary, args, RUN_TIMEOUT_S)
            res = result_of(out) if code == 0 else None
            tag = "%s trace=%d" % (workload, trace)
            if res is None:
                problems.append("%s: exit code %d, no result" % (tag, code))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got
                               if k in expected[trace] and got[k] != expected[trace][k])
                problems.append("%s: metrics missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, wrong))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%d attempted=%d"
                                % (tag, res["correct"], res["failed"], res["attempted"]))
    for plant in ("cert", "verdict"):
        args = ["--workload", "certify-cold", "--seed", str(DEFAULT_SEED), "--seconds", "1",
                "--trace", "0", "--smoke", "--plant", plant]
        code, out = run_binary(binary, args, RUN_TIMEOUT_S)
        res = result_of(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append("planted wrong %s was not counted as a failure: %s" % (plant, res))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    sha, dirty = git_provenance()
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, args.workload + ".json")  # the latest traced run
    cmd_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-out", trace_out, "--git-sha", sha, "--git-dirty", dirty]
    code, out = run_binary(binary, cmd_args, RUN_TIMEOUT_S)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
