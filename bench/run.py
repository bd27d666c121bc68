"""pbemoc benchmark: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src` directory, never from an installed copy.  With `--trace 0`
the run starts one untraced child process after another until S seconds
have passed, each child a complete user run (import, problem, mesh, solve,
error evaluation), and reports the end-to-end metrics as medians over the
children, with the times divided by the host speed that a calibration
chunk measures around them (see CALIBRATION_REFERENCE_S).  With `--trace 1`
it starts traced children for S seconds instead and reports the per-layer
metrics as medians, as measured.  Every child's output is checked; a child
that fails a check counts as failed, not as measured.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE, TRACE_COUNTS, TRACE_PIPELINE_WORKERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# (name, unit) in print order
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("pbemoc.import_s", "s"),
    ("harness.problem_s", "s"),
    ("mesh.build_s", "s"),
    ("mesh.dofs", "count"),
    ("fem.assemble_s", "s"),
    ("fem.factor_s", "s"),
    ("fem.factor_nnz", "count"),
    ("stepper.precompute_s", "s"),
    ("stepper.initialize_s", "s"),
    ("fem.project_us", "us"),
    ("stepper.step_slice_us.p50", "us"),
    ("stepper.step_slice_us.p90", "us"),
    ("stepper.boundary_us", "us"),
    ("characteristics.blend_us", "us"),
    ("harness.source_us", "us"),
    ("fem.load_us", "us"),
    ("fem.massvec_us", "us"),
    ("fem.solve_us", "us"),
    ("stepper.glue_share", "ratio"),
    *(
        (f"pipeline.{kind}_s.w{p}", "s")
        for kind in ("busy", "wait")
        for p in range(TRACE_PIPELINE_WORKERS)
    ),
    ("pipeline.imbalance", "ratio"),
    ("pipeline.messages", "count"),
    ("pipeline.bytes_computed", "B"),
    ("pipeline.speedup_vs_seq", "ratio"),
    ("characteristics.cfl_ratio", "ratio"),
    ("stepper.slices", "count"),
    ("fem.solves", "count"),
    ("fem.residual_max", "ratio"),
    ("trace.overhead_s", "s"),
)
# derived from sizes rather than timed or counted in the program
COMPUTED = {"fem.factor_nnz", "pipeline.bytes_computed"}

# end-to-end children per run at least, whatever --seconds says
MIN_CHILDREN = 3
# seconds after which no child may still run, so that a run always ends
# within three minutes
RUN_DEADLINE_S = 150.0
# relative tolerance on the worst-slice errors: admits a change of summation
# order in the last bits, not a change of the discretization
ERROR_RTOL = 1e-9

# The host's speed drifts by tens of percent over seconds to minutes (see
# README.md), which a run of a minute or less does not average out.  So an
# untraced run times a fixed calibration chunk (calibrate) before every child
# and after the last, and divides each time metric's median by the host speed:
# the mean calibration time over CALIBRATION_REFERENCE_S, the median chunk
# time on the reference host (2 vCPUs of an Intel Xeon, Sapphire Rapids
# class).  The times reported are seconds at that reference speed; the
# measured medians are printed beside them.
CALIBRATION_REFERENCE_S = 0.030
CALIBRATION_CHUNKS = 8
SCALED = ("setup_s", "solve_s", "wall_s")
# one thread per child for every BLAS/OpenMP runtime numpy or scipy may load
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def calibrate() -> float:
    """Median time of a fixed chunk of numeric and interpreter work, in seconds.

    The chunk mixes what a time step does (sparse LU solves and products on a
    small 2-D operator, elementwise transcendentals, many small Python calls)
    but runs no pbemoc code, so the program under test cannot change it.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 24
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    a = (sp.kron(eye, line) + sp.kron(line, eye) + 0.1 * sp.identity(n * n)).tocsr()
    lu = spla.splu(a.tocsc())
    x0 = np.linspace(0.0, 1.0, n * n)

    def chunk():
        v = x0.copy()
        for _ in range(320):
            v = 0.5 * lu.solve(a @ v) + 0.5 * np.sin(v) * np.exp(-np.abs(v))
        total = 0.0
        for i in range(32000):
            item = {"i": i, "v": float(i) * 0.5}
            total += item["v"] + len(str(i))
        return total

    times = []
    for _ in range(CALIBRATION_CHUNKS):
        t0 = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ChildFailed(Exception):
    """A child crashed, timed out or printed output that failed a check."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(args: list, timeout: float) -> dict:
    """Run child.py with `args`; return the JSON object it prints last."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:2]} timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"child {args[:2]} printed no result: {proc.stdout[-200:]!r}") from exc


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ERROR_RTOL * abs(b)


def error_problems(name: str, out: dict) -> list:
    ref = REFERENCE[name]
    if close(out["l2"], ref["l2"]) and close(out["h1"], ref["h1"]):
        return []
    return [
        f"worst-slice errors (L2 {out['l2']!r}, H1 {out['h1']!r}) differ from "
        f"the reference (L2 {ref['l2']!r}, H1 {ref['h1']!r})"
    ]


def check_e2e(name: str, out: dict) -> None:
    w = WORKLOADS[name]
    problems = error_problems(name, out)
    if not out["finite"]:
        problems.append("non-finite value in the final surface")
    if w.P > 1 and out["messages"] != (w.P - 1) * w.N:
        problems.append(f"{out['messages']} messages, expected (P-1)*N = {(w.P - 1) * w.N}")
    for key, _ in END_TO_END:
        if not (math.isfinite(out[key]) and out[key] > 0.0):
            problems.append(f"{key} = {out[key]!r}")
    if problems:
        raise ChildFailed("; ".join(problems))


def check_trace(name: str, out: dict) -> None:
    expected = TRACE_COUNTS[name]
    metrics = out["metrics"]
    problems = error_problems(name, out)
    if not out["finite"]:
        problems.append("non-finite metric or surface value")
    if not out["traced_equal"]:
        problems.append("traced surface differs bitwise from run_sequential's")
    if not out["pipeline_equal"]:
        problems.append("pipeline surface differs bitwise from the sequential one")
    for key, value in expected.items():
        if metrics[key] != value:
            problems.append(f"count {key} = {metrics[key]!r}, expected exactly {value!r}")
    missing = [key for key, _ in PER_LAYER if key not in metrics]
    if missing:
        problems.append(f"missing metrics {missing}")
    if problems:
        raise ChildFailed("; ".join(problems))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children of one workload for `seconds`; return the result object."""
    run_child(["warm"], RUN_DEADLINE_S)  # byte-compiles src once, untimed
    start = time.monotonic()
    samples, failures, durations, calibrations = [], [], [], []
    minimum = 1 if trace else MIN_CHILDREN
    while True:
        elapsed = time.monotonic() - start
        # no child starts that would, at the usual pace, end past the deadline
        expected = statistics.median(durations) if durations else 0.0
        if len(durations) >= minimum and elapsed + expected > seconds:
            break
        if elapsed >= RUN_DEADLINE_S:
            break
        t0 = time.monotonic()
        try:
            if trace:
                out = run_child(["trace", name, str(seed)], RUN_DEADLINE_S - elapsed)
                check_trace(name, out)
                samples.append(out["metrics"])
            else:
                calibrations.append(calibrate())
                out = run_child(["e2e", name, str(monotonic_ns())], RUN_DEADLINE_S - elapsed)
                check_e2e(name, out)
                samples.append(out)
        except ChildFailed as exc:
            failures.append(str(exc))
            print(f"FAILED child {len(durations) + 1}: {exc}")
        durations.append(time.monotonic() - t0)

    speed = 1.0
    if not trace:
        calibrations.append(calibrate())
        speed = statistics.fmean(calibrations) / CALIBRATION_REFERENCE_S
    metrics, raw = {}, {}
    for key, unit in PER_LAYER if trace else END_TO_END:
        values = [s[key] for s in samples]
        if not values:
            continue
        # counts repeat exactly; report them as the integers they are
        raw[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        value = raw[key] / speed if key in SCALED else raw[key]
        metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": not failures and bool(samples),
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": metrics,
        "raw": raw,
        "speed": speed,
        "samples": samples,
    }


def describe(name: str, seed: int, trace: bool, result: dict) -> list:
    w = WORKLOADS[name]
    lines = [
        f"workload {name}: P{w.order}, h=1/{w.h_cells}, M={w.M}, tau=iota=1/{w.M}, "
        f"N={w.N}, {'pipeline P=' + str(w.P) if w.P > 1 else 'sequential'}; "
        f"seed {seed}, {'traced' if trace else 'untraced'}, "
        f"{result['attempted']} runs, {result['failed']} failed",
    ]
    samples = result["samples"]
    for key, unit in PER_LAYER if trace else END_TO_END:
        if key not in result["metrics"]:
            continue
        values = [s[key] for s in samples]
        note = " (computed, not measured)" if key in COMPUTED else ""
        if key in SCALED:
            note = f" (measured median {result['raw'][key]:.6g} {unit} / host speed)"
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  [measured q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"
        lines.append(f"  {key:28s} {result['metrics'][key]['value']:.6g} {unit}{note}{spread}")
    if not trace:
        lines.append(
            f"  host speed: mean calibration / reference = {result['speed']:.4f} "
            f"({CALIBRATION_REFERENCE_S} s reference)"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pbemoc" / "__init__.py").is_file():
        print(f"error: no pbemoc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:  # the untimed warm-up import failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in describe(args.workload, args.seed, bool(args.trace), result):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    if not result["metrics"]:
        print("error: no child run succeeded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
