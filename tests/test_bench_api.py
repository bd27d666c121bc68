"""The package names and attributes `bench/child.py` reads, exercised on a
small problem, so a refactor cannot silently break the traced benchmark, and
the bench's error pass checked against the library's on the bench problems."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pbemoc import (
    ErrorEvaluator,
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

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_workloads() -> dict:
    """The workloads of bench/workloads.py, which imports only the standard library."""
    if "bench_workloads" not in sys.modules:  # its dataclasses look their module up
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"].WORKLOADS


class Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_traced_loop_and_kernel_chain_of_the_bench():
    problem = mms_problem()
    order, M, N = 2, 6, 4
    mesh = build_structured_mesh(problem.domain, 0.25, order)
    basis = reference_basis(order)
    lgrid, tgrid = problem.lgrid(M), TimeGrid(N / M, N)
    assert check_cfl(tgrid.tau, lgrid, problem.G).ratio <= 1.0
    reference = run_sequential(problem, mesh, basis, lgrid, tgrid).as_matrix().tobytes()

    # the traced loop over the public per-slice API, with counted solves
    ops = precompute_operators(mesh, basis, problem, tgrid.tau, lgrid)
    solves = Counter(ops.solve_system)
    projections = Counter(ops.projector.project)
    ops.solve_system = solves
    ops.projector.project = projections
    surface = initialize(mesh, basis, problem, lgrid, ops)
    inputs = []
    for n in range(1, N + 1):
        slices = [boundary_slice(n, tgrid, mesh, basis, problem, ops)]
        for m in range(1, M + 1):
            inputs.append((n, m, surface.slices[m - 1], surface.slices[m]))
            slices.append(step_slice(surface, m, n, ops))
        surface = SolutionSurface(n, tuple(slices))
    assert surface.as_matrix().tobytes() == reference
    assert solves.calls == M * N
    assert projections.calls == (M + 1) + N
    ops.solve_system = solves.fn
    ops.projector.project = projections.fn

    # the per-layer kernel chain evaluates the source pointwise: on a copy
    # whose source is a plain callable it gives step_slice's bytes, and on
    # the separable problem, whose load is formed from field loads, it agrees
    # with step_slice to rounding
    plain = dataclasses.replace(problem, f=lambda t, l, x, y: problem.f(t, l, x, y))
    plain_ops = precompute_operators(mesh, basis, plain, tgrid.tau, lgrid)
    for chain_ops, bitwise in ((plain_ops, True), (ops, False)):
        inv_tau = 1.0 / chain_ops.tau
        qx, qy = chain_ops.load.x, chain_ops.load.y
        for n, m, left, same in inputs[:: M + 1]:
            z = combine_backtraced(left, same, float(chain_ops.alphas[m]))
            f = problem.f(n * chain_ops.tau, float(lgrid.nodes[m]), qx, qy)
            rhs = (chain_ops.mass @ z.values) * inv_tau + chain_ops.load.assemble_values(f)
            rhs[chain_ops.boundary_idx] = 0.0
            sol = chain_ops.solve_system(rhs)
            prev = SolutionSurface(n - 1, (left,) * m + (same,))
            stepped = step_slice(prev, m, n, chain_ops).values
            if bitwise:
                assert sol.tobytes() == stepped.tobytes()
            else:
                assert np.abs(sol - stepped).max() <= 1e-13 * np.abs(stepped).max()
            residual = np.linalg.norm(rhs - chain_ops.system_bc @ sol) / np.linalg.norm(rhs)
            assert residual < 1e-12
    l_m = float(lgrid.nodes[1])
    ops.projector.project(
        lambda x, y: problem.z_init(l_m, x, y),
        lambda x, y: problem.z_init_grad(l_m, x, y),
    )

    # side measurements and the pipeline on the same problem
    assemble_mass(mesh, basis)
    assemble_stiffness(mesh, basis, problem.epsilon)
    assemble_convection(mesh, basis, problem.b)
    make_solver(ops.system_bc)
    run = run_pipeline(problem, mesh, basis, lgrid, tgrid, 2)
    assert run.surface.as_matrix().tobytes() == reference
    assert run.messages_sent == N
    assert len(run.worker_busy_seconds) == 2 and run.wall_seconds > 0.0

    evaluator = ErrorEvaluator(mesh, basis)
    exact, exact_grad = problem.exact_at(tgrid.T, float(lgrid.nodes[M]))
    l2, h1 = evaluator.norms(run.surface.slices[M].values, exact, exact_grad)
    assert 0.0 < l2 < h1 < 1.0
    assert mesh.num_nodes == 81


@pytest.mark.parametrize("name", ["seq-p2-many-slices", "seq-p1-wide-mesh"])
def test_library_and_bench_error_passes_agree_bitwise(name):
    # run_single's worst_norms against the per-slice loop of bench/child.py,
    # which freezes (T, l_m) with exact_at and measures one slice at a time
    w = bench_workloads()[name]
    problem = mms_problem()
    mesh = build_structured_mesh(problem.domain, w.h, w.order)
    basis = reference_basis(w.order)
    lgrid, tgrid = problem.lgrid(w.M), TimeGrid(w.T, w.N)
    surface = run_sequential(problem, mesh, basis, lgrid, tgrid)
    evaluator = ErrorEvaluator(mesh, basis)
    library = evaluator.worst_norms(
        surface.as_matrix()[1:], problem.exact, problem.exact_grad, w.T, lgrid.nodes[1:], w.N, 1
    )
    worst_l2 = worst_h1 = 0.0
    for m in range(1, lgrid.M + 1):
        l2, h1 = evaluator.norms(surface.slices[m].values, *problem.exact_at(w.T, float(lgrid.nodes[m])))
        worst_l2, worst_h1 = max(worst_l2, l2), max(worst_h1, h1)
    assert library == (worst_l2, worst_h1)  # positive and finite, so equal as bits
