#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):
    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]

Runs each workload `--runs` times with consecutive seeds, at the
`run_seconds` BENCHMARK.json sets, and reports for every end-to-end
metric its median and the distance between its first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The
benchmark is steady when every spread except setup_s stays under a third
of the metric's bound; the exit code is 1 when any spread exceeds its
bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's metrics here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    record = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                runs.append(run_once(bench["command"], workload, seed,
                                     bench["run_seconds"]))
            except RuntimeError as err:
                print(f"FAIL: {err}")
                failed = True
        record[workload] = runs
        if len(runs) < 2:
            continue
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            med, s = spread([r[name] for r in runs])
            verdict = "ok" if s <= bound / 3 else (
                "wide" if s <= bound else "OVER")
            if name != "setup_s" and s > bound:
                failed = True
            print(f"  {name:20s} median {med:14.6g}  spread {s:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
