#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each workload, from the
root of the checkout, and prints for every end-to-end metric the median of
its values and the distance between their first and third quartiles as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound. Exits non-zero if a run fails, reports an incorrect output,
or a spread other than setup_s reaches its bound.

    python3 perfbench/steadiness.py --seeds 10 [--workload robust-adaptive]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload (seeds 1..N)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="workload(s) to run (default: all)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    steady = True
    for workload in workloads:
        results = [run_once(spec, workload, seed, 0) for seed in seeds]
        for seed, result in zip(seeds, results):
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect output ({result['failed']} failed)")
                steady = False
        print(f"{workload}: {len(results)} runs, seeds {seeds.start}..{seeds.stop - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "WIDE")
            if spread >= bound and name != "setup_s":
                steady = False
            print(
                f"  {name:<14} median {median:<12.6g} spread {spread:7.2%}"
                f"  bound {bound:.0%}  {verdict}  [{' '.join(f'{v:.4g}' for v in values)}]"
            )
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
