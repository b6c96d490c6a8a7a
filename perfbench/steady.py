#!/usr/bin/env python3
"""Steadiness check for the repo benchmark; see README.md in this directory.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1000]
                                [--seconds S] [--base OTHER_TREE]

Runs perfbench/run.py --runs times per workload, each run with its own seed
(--seed, --seed + 1, ...), and prints, for each end-to-end metric of
BENCHMARK.json, the median, the quartiles and the spread (the distance between
the quartiles as a share of the median) against the metric's bound.

With --base, the same runs are made in a second tree as well (for example a
clone of the parent commit), alternating which tree runs first, and the change
of each median against the base is printed beside the bound. `--base .` runs
one tree twice: the same code must agree with itself within the bounds.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"steady.py: {workload} seed {seed} in {tree} failed:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(metric, base, change):
    """How much worse `change` reads than `base`, as a share of `base`."""
    delta = (change - base) / base
    return delta if metric["better"] == "lower" else -delta


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--base", type=Path, help="a second tree to compare against")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 to give quartiles")

    trees = {"change": ROOT}
    if args.base:
        trees["base"] = args.base.resolve()
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = {side: [] for side in trees}
        for i in range(args.runs):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for side in order:
                runs[side].append(run_once(trees[side], workload, args.seed + i, args.seconds))
            print(f"# {workload} run {i + 1}/{args.runs} done", file=sys.stderr)
        print(f"{workload} ({args.runs} runs per side, seeds {args.seed}..{args.seed + args.runs - 1})")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>7} {'base med':>12} {'worse by':>9}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, spread = summary([r[name] for r in runs["change"]])
            # setup_s is held to its median only; every other spread must
            # stay well inside its bound for a regression to be visible.
            steady = name == "setup_s" or spread < bound / 3
            line = (f"  {name:<16} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%} "
                    f"{bound:>7.0%}")
            worse = 0.0
            if "base" in runs:
                base_median = summary([r[name] for r in runs["base"]])[0]
                worse = worse_by(metric, base_median, median)
                line += f" {base_median:>12.4f} {worse:>9.2%}"
            ok = ok and steady and worse <= bound
            print(line + ("" if steady else "  UNSTEADY") + ("" if worse <= bound else "  WORSE"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
