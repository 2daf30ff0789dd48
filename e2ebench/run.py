#!/usr/bin/env python3
"""Builds and runs the end-to-end commit/read benchmark.

    python3 e2ebench/run.py --workload oltp_point --seed 1 --seconds 25

Run it from a checkout of the repository. It configures and builds
e2ebench/ (a CMake package that compiles the library from src/) into
.bench_build/e2ebench in Release mode, then runs one workload. Build logs
go to stderr; the last stdout line is the JSON result. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work")
WORKLOADS = ("oltp_point", "batch_rules", "graph_views")
RUN_TIMEOUT_S = 170


def source_revision():
    """A hash of the benchmarked sources, plus the git commit when known."""
    digest = hashlib.sha256()
    for sub in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    revision = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        if git.returncode == 0:
            revision = "git:" + git.stdout.strip()[:12] + " " + revision
    return revision


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "api.h")):
        print("e2ebench: library sources not found under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("e2ebench: build failed: %s" % error, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", WORK, "--revision", source_revision()],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
