#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload table2|corpus_grid|service_mixed \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the sbce library from ../src plus the benchmark) into
.bench_build, or into $CARGO_TARGET_DIR when that is set; later runs only
re-check the build. Build output goes to stderr. The benchmark's stdout is
passed through unchanged: its last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("table2", "corpus_grid", "service_mixed")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    # Read this work tree only: no parent directories, no user or system
    # git configuration.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: run from the root of a source checkout "
              "(no src/CMakeLists.txt here)", file=sys.stderr)
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # The daemon's AF_UNIX socket goes under the build directory, named by
    # a relative path so it stays short.
    socket_dir = os.path.relpath(out_dir, ROOT)
    if socket_dir.startswith(".."):
        socket_dir = ".bench_build"
        os.makedirs(socket_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", BENCH_DIR, "--commit", commit(),
               "--socket-dir", socket_dir]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
