#!/usr/bin/env python3
"""Benchmark entry point.

Builds hecsim_cli and the benchmark driver from this checkout (an
incremental no-op after the first run), then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.

Build products and run scratch go to $CARGO_TARGET_DIR (default
.bench_build) under the working directory. The library pool is pinned to
HEC_THREADS = min(nproc, 4) threads; sharded operations use one worker
process fewer.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_THREADS = 4


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures and builds `targets` (incrementally); returns the build
    directory."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target"] + targets,
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                sys.exit(1)
    return out


def pinned_env():
    threads = min(os.cpu_count() or 1, MAX_THREADS)
    env = dict(os.environ)
    env["HEC_THREADS"] = str(threads)
    return env, threads


def self_test():
    out = build(["perfbench_selftest", "perfbench_driver", "hecsim_cli"])
    env, _ = pinned_env()
    code = subprocess.call([os.path.join(out, "perfbench_selftest"),
                            os.path.join(out, "hecsim", "tools", "hecsim_cli")], env=env)
    if code == 0:
        code = subprocess.call(
            [sys.executable, os.path.join(HERE, "tests", "test_contract.py"),
             os.path.join(out, "perfbench_driver")], env=env)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench_driver", "hecsim_cli"])
    env, threads = pinned_env()
    runs = os.path.join(build_root(), "runs")
    command = [
        os.path.join(out, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(runs, "%s-%d" % (args.workload, os.getpid())),
        "--trace-dir", os.path.join(build_root(), "traces"),
        "--cli", os.path.join(out, "hecsim", "tools", "hecsim_cli"),
        "--threads", str(threads),
    ]
    return subprocess.call(command, env=env)


if __name__ == "__main__":
    sys.exit(main())
