#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the TGMiner user path.

Run from the root of a source checkout:

  python3 bench/e2e/run.py --workload hunt --seed 7 --seconds 30 --trace 0
  python3 bench/e2e/run.py --workload hunt --seed 7 --seconds 30 --trace 1
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py --write-queries bench/e2e/queries

The benchmark binary (tgm_e2e) is configured with CMake in Release mode
and built into build/e2e; the first run builds the library, later runs
only rebuild what changed. Build output goes to stderr. `--seconds` is
required with `--workload`: it limits the timed passes, whose number the
workload fixes. `--trace 1` runs the per-layer variant and keeps its spans
in build/e2e/traces/. The last line of stdout is the binary's JSON result;
the exit code is the binary's, or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "tgm_e2e")
WORKLOADS = ["discover", "hunt", "watch-many", "watch-guarded"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds tgm_e2e; returns True on success."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "tgm_e2e"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"error: {' '.join(step)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"error: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="time limit of the timed passes (with --workload)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size (self-check)")
    parser.add_argument("--write-queries", metavar="DIR",
                        help="regenerate the hunt query fixtures into DIR")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.write_queries):
        parser.error("one of --workload, --smoke, --write-queries is needed")
    if args.workload and args.seconds is None:
        parser.error("--seconds is required with --workload")

    if not build():
        return 2

    cmd = [BINARY, "--queries=" + os.path.join(HERE, "queries")]
    if args.write_queries:
        cmd.append("--write_queries=" + os.path.abspath(args.write_queries))
    elif args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload=" + args.workload, f"--seed={args.seed}",
                f"--seconds={args.seconds}"]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd.append("--trace=" + os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json"))
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: tgm_e2e did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
