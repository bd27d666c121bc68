"""Measure every workload over several seeds and write bench/baseline.json.

    python3 bench/baseline.py [--runs 10] [--order-seed 0] [--seconds S]

Runs the command of BENCHMARK.json once per run: `--runs` untraced
runs per workload, each with its own `--seed`, then one traced run per
workload.  The untraced runs of all workloads are interleaved in an order
shuffled by `--order-seed`, so a slow spell of the host is shared out among
workloads instead of landing on one.  For each end-to-end metric it reports
the median and the spread (q3 - q1) / median of the per-run values, with the
quartiles from `statistics.quantiles(values, n=4)`, and compares the spread
with the metric's bound in BENCHMARK.json.  It also records the host: nproc,
Python, numpy and scipy versions, and cache sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TRACE_COUNTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]  # the human-readable lines, raw medians included
    result["seed"] = seed
    result["run_s"] = time.monotonic() - t0
    return result


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as Linux reports them; empty elsewhere."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return caches


def host() -> dict:
    import numpy
    import scipy

    largest = max(
        (w.M + 1) * TRACE_COUNTS[w.name]["mesh.dofs"] * 8 for w in WORKLOADS.values()
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": cache_sizes(),
        "cache_note": (
            f"Every working set is cache-resident: the largest array, one time level "
            f"of the surface, is {largest / 2**20:.2f} MiB, and the LU factors and "
            f"quadrature operators are smaller.  No bandwidth or roofline figure is "
            f"claimed."
        ),
    }


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()

    jobs = [(name, seed) for name in WORKLOADS for seed in range(1, args.runs + 1)]
    random.Random(args.order_seed).shuffle(jobs)
    runs = {name: [] for name in WORKLOADS}
    for i, (name, seed) in enumerate(jobs, 1):
        result = run(name, seed, args.seconds, 0)
        runs[name].append(result)
        print(f"[{i}/{len(jobs)}] {name} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    traced = {name: run(name, 1, args.seconds, 1) for name in WORKLOADS}

    report = {"host": host(), "run_seconds": args.seconds, "order_seed": args.order_seed,
              "order": [f"{name}/{seed}" for name, seed in jobs], "workloads": {}}
    steady = True
    for name, w in WORKLOADS.items():
        entry = {"judges": w.judges, "end_to_end": {}, "runs": runs[name],
                 "traced": traced[name]}
        for metric in SPEC["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs[name]])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            ok = metric["name"] == "setup_s" or stats["spread"] <= metric["bound"] / 3
            steady = steady and ok
            print(f"{name:20s} {metric['name']:12s} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']}, "
                  f"{'within a third' if stats['spread'] <= metric['bound'] / 3 else 'WIDER than a third'})")
        failed = sum(r["failed"] for r in runs[name]) + traced[name]["failed"]
        entry["all_correct"] = all(r["correct"] for r in runs[name]) and traced[name]["correct"]
        entry["failed_runs"] = failed
        report["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}; every spread within a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
