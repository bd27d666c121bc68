"""Acceptance suite: one test per exit criterion, each recorded for the
terminal summary.  Criteria 1-3 reproduce the convergence tables' orders,
criterion 4 checks pipeline/sequential equivalence, criterion 5 the scaling
properties, criterion 6 the invariant bundle, and criterion 7 the dense
brute-force cross-checks.
"""

import time

import numpy as np
import pytest

from pbemoc.characteristics import LGrid, TimeGrid, check_cfl, foot_weights
from pbemoc.fem import (
    LoadAssembler,
    RitzProjector,
    SolverConfig,
    apply_dirichlet,
    assemble_convection,
    assemble_mass,
    assemble_stiffness,
    make_solver,
)
from pbemoc.harness import characteristics_study, convergence_study, weak_scaling_study
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, quadrature_rule, reference_basis
from pbemoc.pipeline import run_pipeline, usable_cpus
from pbemoc.stepper import ProblemSpec, initialize, precompute_operators, run_sequential, step_slice

import oracles
from conftest import record_criterion


def test_criterion_1_p1_spatial_convergence(mms):
    t0 = time.time()
    rows = convergence_study((2.0**-2, 2.0**-3, 2.0**-4), order=1, coupling="h2", problem=mms)
    l2_order, h1_order = rows[-1].l2_order, rows[-1].h1_order
    ok = abs(l2_order - 2.0) <= 0.20 and abs(h1_order - 1.0) <= 0.10
    record_criterion(
        1,
        "P1 spatial convergence, tau=iota=h^2",
        ok,
        f"l2 order {l2_order:.4f} (target 2.0+-0.20), h1 order {h1_order:.4f} "
        f"(target 1.0+-0.10), {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_2_p2_spatial_convergence(mms):
    t0 = time.time()
    rows = convergence_study((2.0**-1, 2.0**-2, 2.0**-3), order=2, coupling="h3", problem=mms)
    l2_order, h1_order = rows[-1].l2_order, rows[-1].h1_order
    ok = abs(l2_order - 3.0) <= 0.30 and abs(h1_order - 2.0) <= 0.30
    record_criterion(
        2,
        "P2 spatial convergence, tau=iota=h^3",
        ok,
        f"l2 order {l2_order:.4f} (target 3.0+-0.30), h1 order {h1_order:.4f} "
        f"(target 2.0+-0.30), {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_3_characteristics_order(mms):
    t0 = time.time()
    # quadratic elements with tau = iota = h
    rows = characteristics_study((2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5), problem=mms)
    l2_order, h1_order = rows[-1].l2_order, rows[-1].h1_order
    ok = abs(l2_order - 1.0) <= 0.10 and abs(h1_order - 1.0) <= 0.10
    record_criterion(
        3,
        "first-order transport convergence, P2 with h=iota=tau",
        ok,
        f"l2 order {l2_order:.4f}, h1 order {h1_order:.4f} (targets 1.0+-0.10), "
        f"{time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_4_pipeline_equivalence(mms):
    t0 = time.time()
    mesh = build_structured_mesh(UNIT_SQUARE, 2.0**-5, 1)
    basis = reference_basis(1)
    lgrid = LGrid(0.0, 1.0, 64)
    tgrid = TimeGrid(1.0, 64)

    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    seq_bytes = seq.as_matrix().tobytes()
    bitwise_ok = True
    for P in (1, 2, 4, 8):
        run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P)
        if run.surface.as_matrix().tobytes() != seq_bytes:
            bitwise_ok = False

    config = SolverConfig(mode="iterative", tol=1e-12)
    seq_it = run_sequential(mms, mesh, basis, lgrid, tgrid, config).as_matrix()
    iter_ok = True
    worst = 0.0
    for P in (1, 2, 4, 8):
        run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P, config)
        diff = float(np.abs(run.surface.as_matrix() - seq_it).max())
        worst = max(worst, diff)
        if diff > 1e-10:
            iter_ok = False

    ok = bitwise_ok and iter_ok
    record_criterion(
        4,
        "pipeline equals sequential for P in {1,2,4,8}",
        ok,
        f"direct solver bitwise: {bitwise_ok}; iterative max diff {worst:.2e} "
        f"(limit 1e-10), {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_5a_strong_scaling_wall_time(mms):
    cores = usable_cpus()
    if cores < 4:
        record_criterion(
            "5a",
            "strong scaling P=4 <= 0.6x P=1",
            None,
            f"machine has {cores} cores (< 4); prerequisite not met",
        )
        pytest.skip(f"strong-scaling criterion requires >= 4 cores, found {cores}")

    mesh = build_structured_mesh(UNIT_SQUARE, 2.0**-5, 1)
    basis = reference_basis(1)
    lgrid = LGrid(0.0, 1.0, 128)
    tgrid = TimeGrid(32 * lgrid.iota, 32)
    wall = {}
    for P in (1, 4):
        wall[P] = min(
            run_pipeline(mms, mesh, basis, lgrid, tgrid, P).wall_seconds for _ in range(2)
        )
    ok = wall[4] <= 0.6 * wall[1]
    record_criterion(
        "5a",
        "strong scaling P=4 <= 0.6x P=1",
        ok,
        f"P=1 {wall[1]:.2f}s, P=4 {wall[4]:.2f}s, ratio {wall[4] / wall[1]:.2f}",
    )
    assert ok


def test_criterion_5b_message_count(mms):
    t0 = time.time()
    mesh = build_structured_mesh(UNIT_SQUARE, 2.0**-4, 1)
    basis = reference_basis(1)
    lgrid = LGrid(0.0, 1.0, 32)
    tgrid = TimeGrid(1.0, 32)
    ok = True
    counts = []
    for P in (1, 2, 4, 8):
        run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P)
        counts.append(run.messages_sent)
        if run.messages_sent != (P - 1) * tgrid.N:
            ok = False
    record_criterion(
        "5b",
        "message count equals (P-1)*N",
        ok,
        f"P in (1,2,4,8) sent {counts} over N={tgrid.N} steps, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_5c_weak_scaling_balance(mms):
    t0 = time.time()
    cores = usable_cpus()
    workers = tuple(p for p in (1, 2, 4) if p <= max(cores, 2))
    rows = weak_scaling_study(workers, h=2.0**-5, block=8, steps=8, problem=mms)
    ratios = [r.max_worker_seconds / r.avg_worker_seconds for r in rows]
    ok = all(r <= 1.5 for r in ratios)
    record_criterion(
        "5c",
        "weak scaling max/avg worker time <= 1.5",
        ok,
        f"workers {list(workers)} ratios {[f'{r:.2f}' for r in ratios]}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_6_invariant_bundle(mms):
    t0 = time.time()
    failures = []

    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    basis = reference_basis(1)

    # mass SPD
    M = assemble_mass(mesh, basis)
    try:
        np.linalg.cholesky(M.toarray())
    except np.linalg.LinAlgError:
        failures.append("mass not SPD")

    # stiffness row sums before elimination
    A = assemble_stiffness(mesh, basis, 1.0)
    if np.abs(np.asarray(A.sum(axis=1)).ravel()).max() > 1e-12:
        failures.append("stiffness row sums")

    # interior convection skew-symmetry
    B = assemble_convection(mesh, basis, mms.b).toarray()
    interior = ~mesh.boundary_mask
    Bi = B[np.ix_(interior, interior)]
    if np.abs(Bi + Bi.T).max() > 1e-13:
        failures.append("convection skew-symmetry")

    # interpolation weights under the stability bound
    lgrid = LGrid(0.0, 1.0, 64)
    tau = lgrid.iota
    if not check_cfl(tau, lgrid, mms.G).passed:
        failures.append("stability precheck")
    alphas = foot_weights(tau, lgrid, mms.G)
    feet = lgrid.nodes[1:] - alphas[1:] * lgrid.iota
    inside = (0.0 <= alphas[1:]) & (alphas[1:] <= 1.0)
    inside &= (lgrid.nodes[:-1] - 1e-14 <= feet) & (feet <= lgrid.nodes[1:])
    if alphas[0] != 0.0 or not inside.all():
        failures.append(f"foot weights m={int(np.argmin(inside)) + 1}")

    # projection idempotence on a member of the FE space
    from oracles import eval_fe

    hat = np.zeros(mesh.num_nodes)
    hat[np.flatnonzero(interior)[0]] = 1.0
    Ae = apply_dirichlet(A, mesh.boundary_mask)
    re = np.where(mesh.boundary_mask, 0.0, A @ hat)
    if np.abs(make_solver(Ae).solve(re) - hat).max() > 1e-10:
        failures.append("projection idempotence")

    # orthogonality of the projection residual
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    loads = LoadAssembler(mesh, basis)
    v = np.zeros(mesh.num_nodes)  # the FE function, zero on the boundary
    v[interior] = RitzProjector(mesh, A, loads).project(g, grad)
    resid = A @ v - loads.assemble_gradient(grad)
    if np.abs(resid[interior]).max() > 1e-10:
        failures.append("projection orthogonality")

    # linearity of the full scheme under data scaling
    lgrid_s = LGrid(0.0, 1.0, 4)
    tgrid_s = TimeGrid(1.0, 4)
    base = run_sequential(mms, mesh, basis, lgrid_s, tgrid_s).as_matrix()
    doubled_spec = ProblemSpec(
        epsilon=mms.epsilon,
        b=mms.b,
        G=mms.G,
        f=lambda t, l, x, y: 2.0 * mms.f(t, l, x, y),
        z_init=lambda l, x, y: 2.0 * mms.z_init(l, x, y),
        z_init_grad=lambda l, x, y: tuple(2.0 * c for c in mms.z_init_grad(l, x, y)),
        z_bdry=lambda t, x, y: 2.0 * mms.z_bdry(t, x, y),
        z_bdry_grad=lambda t, x, y: tuple(2.0 * c for c in mms.z_bdry_grad(t, x, y)),
    )
    doubled = run_sequential(doubled_spec, mesh, basis, lgrid_s, tgrid_s).as_matrix()
    scale = np.abs(base).max()
    if np.abs(doubled - 2.0 * base).max() > 1e-12 * max(scale, 1.0):
        failures.append("linearity under data scaling")

    ok = not failures
    record_criterion(
        6,
        "invariant bundle",
        ok,
        ("all invariants hold" if ok else f"failed: {failures}") + f", {time.time() - t0:.0f}s",
    )
    assert ok, failures


def test_criterion_7_dense_oracle_equivalence(mms):
    t0 = time.time()
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    basis = reference_basis(1)
    worst = {}

    # eliminated system solve
    A = assemble_stiffness(mesh, basis, 1.0)
    loads = LoadAssembler(mesh, basis)
    rhs = loads.assemble_gradient(lambda x, y: (np.cos(x), np.sin(y)))
    Ae = apply_dirichlet(A, mesh.boundary_mask)
    re = np.where(mesh.boundary_mask, 0.0, rhs)
    got = make_solver(Ae).solve(re)
    Ad = oracles.dense_operator(mesh, quadrature_rule(2), "stiffness")
    rd = oracles.dense_grad_load(mesh, quadrature_rule(4), lambda x, y: (np.cos(x), np.sin(y)))
    Ad, rd = oracles.dense_eliminate(Ad, rd, mesh.boundary_mask)
    worst["system solve"] = float(np.abs(got - oracles.dense_solve(Ad, rd)).max())

    # gradient projection
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    got = RitzProjector(mesh, A, loads).project(g, grad)  # the free-DOF coefficients
    rd = oracles.dense_grad_load(mesh, quadrature_rule(4), grad)
    Ad2, rd2 = oracles.dense_eliminate(
        oracles.dense_operator(mesh, quadrature_rule(2), "stiffness"), rd, mesh.boundary_mask
    )
    worst["projection"] = float(np.abs(got - oracles.dense_solve(Ad2, rd2)[~mesh.boundary_mask]).max())

    # one full slice advance
    lgrid = LGrid(0.0, 1.0, 4)
    tgrid = TimeGrid(1.0, 4)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    surface = initialize(mesh, basis, mms, lgrid, ops)
    m, n = 2, 1
    got = step_slice(surface, m, n, ops).values

    tau = tgrid.tau
    rule2 = quadrature_rule(2)
    mass_d = oracles.dense_operator(mesh, rule2, "mass")
    system_d = (
        mass_d / tau
        + oracles.dense_operator(mesh, rule2, "stiffness", epsilon=mms.epsilon)
        + oracles.dense_operator(mesh, rule2, "convection", b=mms.b)
    )
    alpha = tau * float(mms.G(lgrid.nodes[m])) / lgrid.iota
    ztilde = alpha * surface.slices[m - 1].values + (1 - alpha) * surface.slices[m].values
    load_d = oracles.dense_load(
        mesh, quadrature_rule(4), lambda x, y: mms.f(tau * n, float(lgrid.nodes[m]), x, y)
    )
    system_bc, rhs_bc = oracles.dense_eliminate(
        system_d, mass_d @ ztilde / tau + load_d, mesh.boundary_mask
    )
    worst["slice advance"] = float(np.abs(got - oracles.dense_solve(system_bc, rhs_bc)).max())

    ok = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    record_criterion(
        7,
        "dense brute-force equivalence on the h=1/4 mesh",
        ok,
        detail + f" (limit 1e-10), {time.time() - t0:.0f}s",
    )
    assert ok, worst
