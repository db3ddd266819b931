#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds perfbench/ (and with it the
runtime in src/) with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs the workload, prints every metric by name and unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the untraced binary
for a baseline, then the traced binary, and prints the per-layer metrics,
the reconciliation table and the tracing overhead.  Exit code 0 when every
correctness check passed, 1 when one fired, 2 on a build or usage error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lan_storm", "glb_chaos", "mobility_mix")
TIMEOUT_S = 170  # whole command, build excluded


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "sharded.hpp")):
        fail("runtime sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_traced"])
    for step in steps:
        # Build output goes to stderr: stdout carries the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git(*args):
    """Output of a git command run on the checkout, or None without git."""
    # The ceiling keeps git from answering for a repository that merely
    # contains the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The commit, marked dirty with a digest of the sources when src/ or
    perfbench/ differ from it; the digest alone when there is no git."""
    commit = git("rev-parse", "HEAD")
    if commit:
        if git("status", "--porcelain", "--", "src", "perfbench") == "":
            return commit
        return commit + "+dirty:" + tree_digest()
    return "tree-sha1:" + tree_digest()


def tree_digest():
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_binary(binary, args, deadline_s):
    """Runs one benchmark binary; echoes its report, returns its JSON."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=deadline_s)
    except subprocess.TimeoutExpired:
        fail(os.path.basename(binary) + " timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(os.path.basename(binary) + " printed nothing (exit %d)" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("unreadable result line: " + lines[-1], 1)
    result["exit_code"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")), "perfbench"))
    build(build_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--commit", source_id()]

    if args.trace == 0:
        result = run_binary(os.path.join(build_dir, "perfbench"),
                            common + ["--seconds", str(args.seconds)], TIMEOUT_S)
        metrics = result["metrics"]
        correct = result["correct"] and result["exit_code"] == 0
        attempted, failed = result["attempted"], result["failed"]
    else:
        # Untraced baseline first, then the traced run: the ratio of their
        # ops_per_s is the tracing overhead (spans, window timing and the
        # counting allocator together).
        base = run_binary(os.path.join(build_dir, "perfbench"),
                          common + ["--seconds", str(max(1.0, args.seconds / 2))],
                          TIMEOUT_S / 3)
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        span_file = os.path.join(trace_dir, "%s-seed%d.spans.tsv" % (args.workload, args.seed))
        traced = run_binary(os.path.join(build_dir, "perfbench_traced"),
                            common + ["--seconds", str(args.seconds), "--trace", "1",
                                      "--span-out", span_file],
                            TIMEOUT_S * 2 / 3)
        metrics = traced["metrics"]
        overhead = 1.0 - traced["ops_per_s"] / base["ops_per_s"]
        metrics["trace.overhead"] = {"value": overhead, "unit": "fraction"}
        print("trace.overhead = %r fraction (traced %.6g vs untraced %.6g ops/s)"
              % (overhead, traced["ops_per_s"], base["ops_per_s"]))
        print("span sample: " + os.path.relpath(span_file, os.getcwd()))
        correct = all(r["correct"] and r["exit_code"] == 0 for r in (base, traced))
        attempted, failed = traced["attempted"], traced["failed"]

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
