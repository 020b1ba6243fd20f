#!/usr/bin/env python3
"""Builds and runs the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds the
planner library and the driver into .bench_build/ (under two minutes on
four cores); later runs only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the driver's JSON result. Exits
non-zero, without a result, when the sources are missing or the build or
the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("plan_cold", "serve_zipf", "serve_calibrate")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def revision():
    """The git commit inside a clone, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="timed operations instead of --seconds")
    parser.add_argument("--search-threads", type=int, default=0,
                        help="plan_cold sweep threads (default min(4, nproc))")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("perfbench: no src/ here; run from the root of a checkout",
              file=sys.stderr)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ops", str(args.ops),
               "--search-threads", str(args.search_threads),
               "--out-dir", os.path.join(BUILD_DIR, "perfbench-results"),
               "--git-revision", revision()]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 1
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
