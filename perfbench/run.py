#!/usr/bin/env python3
"""Builds and runs the repo benchmark; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The measuring program is configured and built
from source into .bench_build/perfbench (incrementally after the first run),
then runs the workload. Build output goes to stderr; the program's report goes
to stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, when the
library sources are missing, the build fails, or a correctness check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "vrep_perfbench"
WORKLOADS = ("dc_smp", "blob_tcp", "kv_ryw", "shard_2pc")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"run.py: '{' '.join(step)}' failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(BUILD / f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        sys.exit(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
