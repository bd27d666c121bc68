"""One benchmark measurement in a fresh interpreter.

Started by run.py, never imported.  Usage:

    python3 bench/child.py e2e   WORKLOAD SPAWN_NS
    python3 bench/child.py trace WORKLOAD SEED
    python3 bench/child.py warm

SPAWN_NS is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so set-up and wall times include interpreter start-up.
SEED picks the (n, m) slices that feed the per-call kernel timings.
`e2e` times one user-visible run with no instrumentation; `trace` drives the
same problem through the public per-slice API, recording a span around every
call into a layer, and times the kernels on the run's own operators and
slices.  Each mode prints one JSON object as its last line of output; `warm`
only imports the package, so that byte-code compilation is not timed, and
prints an empty one.

The parent puts the checkout's `src` directory on PYTHONPATH; this file
checks that `pbemoc` was imported from there.
"""

import json
import os
import random
import resource
import sys
import time

from workloads import TRACE_PIPELINE_WORKERS, WORKLOADS

# sampled (n, m) slices and repetitions per sample for the per-call timings
KERNEL_SAMPLES = 128
KERNEL_REPEATS = 3
# repetitions of the side measurements of assembly and factorization
SIDE_REPEATS = 3


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def check_origin(pbemoc) -> None:
    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    origin = os.path.realpath(pbemoc.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"pbemoc was imported from {origin}, not from {src}")


def worst_errors(problem, mesh, basis, lgrid, T, surface):
    from pbemoc import ErrorEvaluator

    evaluator = ErrorEvaluator(mesh, basis)
    worst_l2 = worst_h1 = 0.0
    for m in range(1, lgrid.M + 1):
        exact, exact_grad = problem.exact_at(T, float(lgrid.nodes[m]))
        l2, h1 = evaluator.norms(surface.slices[m].values, exact, exact_grad)
        worst_l2 = max(worst_l2, l2)
        worst_h1 = max(worst_h1, h1)
    return worst_l2, worst_h1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def e2e(w, spawn_ns: int) -> dict:
    import pbemoc
    from pbemoc import TimeGrid, build_structured_mesh, mms_problem, reference_basis

    problem = mms_problem()
    mesh = build_structured_mesh(problem.domain, w.h, w.order)
    basis = reference_basis(w.order)
    ready_ns = now_ns()
    check_origin(pbemoc)

    lgrid, tgrid = problem.lgrid(w.M), TimeGrid(w.T, w.N)
    t0 = time.perf_counter()
    if w.P > 1:
        run = pbemoc.run_pipeline(problem, mesh, basis, lgrid, tgrid, w.P)
        surface, messages = run.surface, run.messages_sent
    else:
        surface, messages = pbemoc.run_sequential(problem, mesh, basis, lgrid, tgrid), None
    solve_s = time.perf_counter() - t0
    l2, h1 = worst_errors(problem, mesh, basis, lgrid, w.T, surface)
    end_ns = now_ns()

    import numpy as np

    return {
        "setup_s": (ready_ns - spawn_ns) * 1e-9,
        "solve_s": solve_s,
        "wall_s": (end_ns - spawn_ns) * 1e-9,
        "peak_rss_mb": peak_rss_mb(),
        "l2": l2,
        "h1": h1,
        "finite": bool(np.isfinite(surface.as_matrix()).all()),
        "messages": messages,
    }


class Counter:
    """Counts calls through a bound method it stands in for."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def trace(w, seed: int) -> dict:
    t0 = time.perf_counter()
    import pbemoc
    from pbemoc import (
        SolutionSurface,
        TimeGrid,
        assemble_convection,
        assemble_mass,
        assemble_stiffness,
        boundary_slice,
        build_structured_mesh,
        check_cfl,
        combine_backtraced,
        initialize,
        mms_problem,
        precompute_operators,
        reference_basis,
        run_pipeline,
        run_sequential,
        step_slice,
    )
    from pbemoc.fem import make_solver

    t1 = time.perf_counter()
    problem = mms_problem()
    t2 = time.perf_counter()
    mesh = build_structured_mesh(problem.domain, w.h, w.order)
    t3 = time.perf_counter()
    basis = reference_basis(w.order)
    check_origin(pbemoc)

    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    out = {
        "pbemoc.import_s": t1 - t0,
        "harness.problem_s": t2 - t1,
        "mesh.build_s": t3 - t2,
        "mesh.dofs": mesh.num_nodes,
    }
    lgrid, tgrid = problem.lgrid(w.M), TimeGrid(w.T, w.N)
    out["characteristics.cfl_ratio"] = check_cfl(tgrid.tau, lgrid, problem.G).ratio

    # untraced reference surface; this first run also pays the lazy set-up,
    # so overhead and speed-up compare against a second untraced run below
    reference = run_sequential(problem, mesh, basis, lgrid, tgrid)
    reference_bytes = reference.as_matrix().tobytes()

    # traced sequential loop over the public per-slice API
    rng = random.Random(seed)
    picks = rng.sample(range(w.N * w.M), KERNEL_SAMPLES)
    sampled = {(1 + k // w.M, 1 + k % w.M) for k in picks}
    inputs = []  # (n, m, left, same) of the sampled slices
    step_ns = np.empty(w.N * w.M, dtype=np.int64)
    boundary_ns = np.empty(w.N, dtype=np.int64)

    t_start = time.perf_counter()
    ops = precompute_operators(mesh, basis, problem, tgrid.tau, lgrid)
    t_pre = time.perf_counter()
    solves = Counter(ops.solve_system)
    projections = Counter(ops.projector.project)
    ops.solve_system = solves
    ops.projector.project = projections
    surface = initialize(mesh, basis, problem, lgrid, ops)
    t_init = time.perf_counter()
    calls = 0
    for n in range(1, w.N + 1):
        s0 = time.perf_counter_ns()
        slices = [boundary_slice(n, tgrid, mesh, basis, problem, ops)]
        boundary_ns[n - 1] = time.perf_counter_ns() - s0
        for m in range(1, w.M + 1):
            if (n, m) in sampled:
                inputs.append((n, m, surface.slices[m - 1], surface.slices[m]))
            s0 = time.perf_counter_ns()
            slices.append(step_slice(surface, m, n, ops))
            step_ns[calls] = time.perf_counter_ns() - s0
            calls += 1
        surface = SolutionSurface(n, tuple(slices))
    traced_solve_s = time.perf_counter() - t_start
    ops.solve_system = solves.fn
    ops.projector.project = projections.fn

    out["stepper.precompute_s"] = t_pre - t_start
    out["stepper.initialize_s"] = t_init - t_pre
    out["stepper.step_slice_us.p50"] = float(np.percentile(step_ns, 50)) * 1e-3
    out["stepper.step_slice_us.p90"] = float(np.percentile(step_ns, 90)) * 1e-3
    out["stepper.boundary_us"] = float(np.median(boundary_ns)) * 1e-3
    out["stepper.slices"] = calls
    out["fem.solves"] = solves.calls + projections.calls
    traced_equal = surface.as_matrix().tobytes() == reference_bytes

    t0 = time.perf_counter()
    again = run_sequential(problem, mesh, basis, lgrid, tgrid)
    seq_solve_s = time.perf_counter() - t0
    traced_equal = traced_equal and again.as_matrix().tobytes() == reference_bytes
    out["trace.overhead_s"] = traced_solve_s - seq_solve_s

    # side measurements of assembly and factorization on the run's problem
    def assemble():
        assemble_mass(mesh, basis)
        assemble_stiffness(mesh, basis, problem.epsilon)
        assemble_convection(mesh, basis, problem.b)

    out["fem.assemble_s"] = median_time(assemble, SIDE_REPEATS)
    out["fem.factor_s"] = median_time(lambda: make_solver(ops.system_bc), SIDE_REPEATS)
    lu = spla.splu(sp.csc_matrix(ops.system_bc))
    out["fem.factor_nnz"] = int(lu.L.nnz + lu.U.nnz)  # computed: fill of the default LU

    # per-call kernel timings on the sampled slices, chained in hot-path order
    # as the loop runs them; the projection is timed in a loop of its own
    kernels = {name: [] for name in ("blend", "source", "load", "massvec", "solve", "project")}
    paired_step = []  # step_slice on the same inputs, timed beside the kernels
    residual_max = 0.0
    inv_tau = 1.0 / ops.tau
    qx, qy = ops.load.x, ops.load.y
    for _ in range(KERNEL_REPEATS):
        for n, m, left, same in inputs:
            alpha = float(ops.alphas[m])
            t = n * ops.tau
            l_m = float(lgrid.nodes[m])
            c0 = time.perf_counter_ns()
            z = combine_backtraced(left, same, alpha)
            c1 = time.perf_counter_ns()
            f = problem.f(t, l_m, qx, qy)
            c2 = time.perf_counter_ns()
            load = ops.load.assemble_values(f)
            c3 = time.perf_counter_ns()
            mz = ops.mass @ z.values
            c4 = time.perf_counter_ns()
            rhs = mz * inv_tau + load
            rhs[ops.boundary_idx] = 0.0
            c5 = time.perf_counter_ns()
            sol = ops.solve_system(rhs)
            c6 = time.perf_counter_ns()
            # a stand-in level n-1 surface holding the two slices step_slice reads
            prev = SolutionSurface(n - 1, (left,) * m + (same,))
            c7 = time.perf_counter_ns()
            step_slice(prev, m, n, ops)
            paired_step.append(time.perf_counter_ns() - c7)
            for name, dt in zip(kernels, (c1 - c0, c2 - c1, c3 - c2, c4 - c3, c6 - c5)):
                kernels[name].append(dt)
            residual = np.linalg.norm(rhs - ops.system_bc @ sol) / np.linalg.norm(rhs)
            residual_max = max(residual_max, float(residual))
    for n, m, _, _ in inputs:
        l_m = float(lgrid.nodes[m])
        c0 = time.perf_counter_ns()
        ops.projector.project(
            lambda x, y: problem.z_init(l_m, x, y),
            lambda x, y: problem.z_init_grad(l_m, x, y),
        )
        kernels["project"].append(time.perf_counter_ns() - c0)
    med = {name: float(np.median(v)) * 1e-3 for name, v in kernels.items()}
    out["characteristics.blend_us"] = med["blend"]
    out["harness.source_us"] = med["source"]
    out["fem.load_us"] = med["load"]
    out["fem.massvec_us"] = med["massvec"]
    out["fem.solve_us"] = med["solve"]
    out["fem.project_us"] = med["project"]
    out["fem.residual_max"] = residual_max
    kernel_sum = sum(med[name] for name in ("blend", "source", "load", "massvec", "solve"))
    out["stepper.glue_share"] = 1.0 - kernel_sum / (float(np.median(paired_step)) * 1e-3)

    # the pipeline on the same problem, against the untraced sequential run
    t0 = time.perf_counter()
    run = run_pipeline(problem, mesh, basis, lgrid, tgrid, TRACE_PIPELINE_WORKERS)
    pipe_solve_s = time.perf_counter() - t0
    pipeline_equal = run.surface.as_matrix().tobytes() == reference_bytes
    busy = list(run.worker_busy_seconds)
    for p, b in enumerate(busy):
        out[f"pipeline.busy_s.w{p}"] = b
        out[f"pipeline.wait_s.w{p}"] = run.wall_seconds - b
    out["pipeline.imbalance"] = max(busy) / (sum(busy) / len(busy))
    out["pipeline.messages"] = run.messages_sent
    # computed, not measured: one slice of num_nodes float64 values per message
    out["pipeline.bytes_computed"] = run.messages_sent * mesh.num_nodes * 8
    out["pipeline.speedup_vs_seq"] = seq_solve_s / pipe_solve_s

    l2, h1 = worst_errors(problem, mesh, basis, lgrid, w.T, reference)
    values = np.array(list(out.values()), dtype=float)
    return {
        "metrics": out,
        "l2": l2,
        "h1": h1,
        "traced_equal": traced_equal,
        "pipeline_equal": pipeline_equal,
        "finite": bool(np.isfinite(values).all() and np.isfinite(reference.as_matrix()).all()),
    }


def main(argv) -> None:
    mode = argv[1]
    if mode == "warm":
        import pbemoc

        check_origin(pbemoc)
        print("{}")
        return
    w = WORKLOADS[argv[2]]
    result = e2e(w, int(argv[3])) if mode == "e2e" else trace(w, int(argv[3]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
