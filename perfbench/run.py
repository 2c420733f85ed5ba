#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload ray_farm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the perfbench binary
into .bench_build/perfbench at the checkout root (build output goes to
stderr); later calls only rebuild what changed.  The binary's last stdout
line is the result JSON.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("ray_farm", "sieve_pipeline", "bulk_pingpong")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the perfbench target; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def source_id():
    """git sha (when the checkout is a repository) plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or "none"
    return "git:%s,src:%s" % (sha, digest.hexdigest()[:16])


def run_binary(args, capture):
    """Runs the built binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def workload_args(workload, seed, seconds, trace, tiny=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--source-id", source_id()]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    if tiny:
        args.append("--tiny")
    return args


def self_test():
    """Schema check: every workload, untraced and traced, at tiny size.

    Asserts the result shape, that every metric BENCHMARK.json names is
    printed with its unit, that no run failed, and that the run context is
    present.  Asserts no absolute values.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    context_keys = {"workload", "seed", "nproc", "compiler", "build_type",
                    "assertions", "source", "ops", "ops_failed", "wall_s",
                    "setup_s"}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            code, out = run_binary(
                workload_args(workload, 1, 1, trace, tiny=True), capture=True)
            lines = (out or "").strip().splitlines()
            if code != 0 or len(lines) < 2:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            context = json.loads(lines[-2].partition("context ")[2] or "{}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if (result["correct"] is not True or result["failed"] != 0 or
                    not isinstance(result["attempted"], int) or
                    result["attempted"] < 1 or context.get("ops_failed") != 0):
                problems.append("%s: failed runs" % label)
            metrics = result["metrics"]
            if set(metrics) != set(want[trace]):
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (label, sorted(set(metrics) ^
                                                 set(want[trace]))))
            for name, unit in want[trace].items():
                m = metrics.get(name, {})
                if (set(m) != {"value", "unit"} or m["unit"] != unit or
                        not isinstance(m["value"], (int, float))):
                    problems.append("%s: metric %s is %r" % (label, name, m))
            missing = context_keys - set(context)
            if missing:
                problems.append("%s: context lacks %s" % (label,
                                                          sorted(missing)))
            print("self-test: %s %s" % (label, "ok" if len(problems) == before
                                          else "FAILED"))
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and not opts.workload:
        parser.error("--workload is required")
    build()
    if opts.self_test:
        return self_test()
    code, _ = run_binary(workload_args(opts.workload, opts.seed, opts.seconds,
                                       opts.trace), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
