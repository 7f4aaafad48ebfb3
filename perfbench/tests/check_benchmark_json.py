#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark binary and its own limits.

Usage (from the repository root):
    python3 perfbench/tests/check_benchmark_json.py

Builds the benchmark through perfbench/run.py, asks it for the metrics it
prints (--list-metrics), and fails when BENCHMARK.json names a different
set, or breaks a limit the file format sets: name and unit spelling,
bounds of at most 0.25 with setup_s holding the largest, one-line reasons
of at most 200 characters.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    listed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--list-metrics"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout.split("\n")
    printed = {"end_to_end": [], "per_layer": []}
    for line in listed:
        if line:
            kind, name, unit = line.split()
            printed[kind].append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in bench[kind]]
        if declared != printed[kind]:
            problems.append(f"{kind} in BENCHMARK.json differs from the "
                            f"binary's: {declared} vs {printed[kind]}")
        for m in bench[kind]:
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                problems.append(f"bad name or unit: {m}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better': {m}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"a bound is outside (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    names = [w["name"] for w in bench["workloads"]]
    if len(set(names)) != len(names) or not 2 <= len(names) <= 8:
        problems.append(f"workload names: {names}")
    for w in bench["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"'why' of {w['name']} is not one short line")
    for p in problems:
        print("FAIL:", p)
    if not problems:
        print("BENCHMARK.json matches the benchmark")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
