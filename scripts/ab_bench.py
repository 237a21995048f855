#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised as BENCH_<n>.json.

    python3 scripts/ab_bench.py --parent ../parent --change ../change \\
        --pairs 10 --seed 100 --traced-pairs 3 --out BENCH_2.json

Each pair runs `perfbench/run.py` once in each checkout with the same workload
and seed, one process at a time; which side goes first alternates from pair to
pair, and every pair uses a fresh seed.  The two checkouts' resolved paths
must be of equal length, because peak RSS shifts with the path's length.  For every end-to-end metric the
summary holds each side's median and quartiles, the number of pairs the change
won, the number of pairs whose two values are exactly equal (for
`loss_final`, the seeds on which the change keeps the parent's bits), and
whether the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json.  Traced pairs give per-layer medians.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: failed output check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def pairs(sides: dict, workload: str, n: int, seed: int, trace: int) -> dict:
    runs = {side: [] for side in sides}
    for i in range(n):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run(sides[side], workload, seed + i, trace))
            print(f"{workload} trace={trace} pair {i} {side} done", file=sys.stderr, flush=True)
    return runs


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list, change: list) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": p,
        "change": c,
        "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "identical": sum(a == b for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gain": gap,
        "parent_iqr": p["q3"] - p["q1"],
        "regression": -gap > metric["bound"] * abs(p["median"]),
    }


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    for line in cpuinfo.read_text().splitlines() if cpuinfo.exists() else []:
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def git_id(checkout: Path) -> str:
    """The checkout's `git describe`, or "" when it is not a git work tree."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def _at_least_two(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs for quartiles, got {n}")
    return n


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"need a count of 0 or more, got {n}")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=_at_least_two, default=10, help="pairs per workload, >= 2 for quartiles")
    ap.add_argument("--traced-pairs", type=_non_negative, default=3)
    ap.add_argument("--seed", type=int, default=100, help="first seed; pair i uses seed + i")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        # peak_rss_mb shifts by about 1 MiB with the length of the checkout path
        ap.error(f"checkout paths differ in length: {sides['parent']} and {sides['change']}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [name for name in args.workloads or [] if name not in known]
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {known}")
    names = args.workloads or known
    commits = {side: git_id(path) for side, path in sides.items()}
    for side, commit in commits.items():
        if not commit:
            ap.error(f"the {side} checkout {sides[side]} is not a git work tree, so the report cannot name its commit")
    report = {
        "machine": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "commits": commits,
        "protocol": {"pairs": args.pairs, "traced_pairs": args.traced_pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
                     "run_seconds": spec["run_seconds"], "order": "alternating, parent first on even pairs"},
        "end_to_end": {},
        "per_layer": {},
    }
    for name in names:
        runs = pairs(sides, name, args.pairs, args.seed, trace=0)
        report["end_to_end"][name] = {
            m["name"]: compare(m, [r[m["name"]] for r in runs["parent"]], [r[m["name"]] for r in runs["change"]])
            for m in spec["end_to_end"] if m["name"] in runs["parent"][0]
        }
        if args.traced_pairs:
            traced = pairs(sides, name, args.traced_pairs, args.seed, trace=1)
            report["per_layer"][name] = {
                m["name"]: {side: statistics.median(r[m["name"]] for r in traced[side]) for side in sides}
                for m in spec["per_layer"]
            }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
