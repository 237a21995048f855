#!/usr/bin/env python3
"""tpmamba benchmark: training steps and sliding-window inference.

    python3 perfbench/run.py --workload train_deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the repository root.  A single-workload run imports the package from
``src/`` in this process with BLAS pinned to one thread, prints every metric
with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` reports the
per-layer metrics from a traced run.  Without ``--workload`` each workload
runs in its own process, one at a time, untraced and then traced.
"""

import os
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args, spec) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # numpy and tpmamba load here; their import time is set-up

    import_s = time.perf_counter() - T0
    wl = workloads.workloads()[args.workload]
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
            result = workloads.run_traced(wl, args.seed, args.seconds, workdir, trace_path)
            listed = spec["per_layer"]
        else:
            result = workloads.run_untraced(wl, args.seed, args.seconds, workdir, import_s)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    kind = "traced" if args.trace else "untraced"
    print(f"== {args.workload} seed {args.seed} ({kind}, {args.seconds} s)")
    for m in listed:
        value = float(result["metrics"].get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:>14.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited with code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tpmamba" / "__init__.py").is_file():
        print(f"error: no tpmamba package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec) if args.workload else run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
