import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pbemoc import fem, stepper
from pbemoc.characteristics import CflViolationError, LGrid, TimeGrid
from pbemoc.fem import PANEL, BoundaryTraceError, FieldSlice, SolveFailure, SolverConfig
from pbemoc.mesh import UNIT_SQUARE, Rectangle, build_structured_mesh, quadrature_rule, reference_basis
from pbemoc.pipeline import PipelineError, run_pipeline
from pbemoc.stepper import (
    ProblemSpec,
    SeparableSource,
    SolutionSurface,
    advance_block,
    boundary_slice,
    initialize,
    precompute_operators,
    run_sequential,
    step_slice,
    write_snapshot,
)

import oracles


def zeros(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_pair(x, y):
    z = zeros(x, y)
    return z, z


def make_spec(**overrides):
    """Minimal valid problem; every field can be overridden."""
    fields = dict(
        epsilon=1.0,
        b=(1.0, 1.0),
        G=lambda l: np.full_like(np.asarray(l, dtype=float), 0.5),
        f=lambda t, l, x, y: zeros(x, y),
        z_init=lambda l, x, y: zeros(x, y),
        z_init_grad=lambda l, x, y: zero_pair(x, y),
        z_bdry=lambda t, x, y: zeros(x, y),
        z_bdry_grad=lambda t, x, y: zero_pair(x, y),
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


def sines(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def sines_grad(x, y):
    return (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )


P1 = reference_basis(1)


def small_setup(h=0.25, M=4, N=4, order=1):
    mesh = build_structured_mesh(UNIT_SQUARE, h, order)
    return mesh, reference_basis(order), LGrid(0.0, 1.0, M), TimeGrid(1.0, N)


def projection_ops(mesh, basis, spec, lgrid, solver_config=None):
    """Operators whose projector makes the level-0 and inflow slices; the
    projections do not depend on the step size, here tau = iota."""
    return precompute_operators(mesh, basis, spec, lgrid.iota, lgrid, solver_config)


# ---------------------------------------------------------------------------
# ProblemSpec


def test_problem_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        make_spec(epsilon=0.0)


def test_the_final_time_is_the_time_grid_s_not_the_problem_s():
    with pytest.raises(TypeError, match="'T'"):
        make_spec(T=1.0)


def test_the_one_line_wrappers_are_aliases():
    from pbemoc.mesh import BasisSet

    assert precompute_operators is stepper.Operators
    assert reference_basis is BasisSet


# ---------------------------------------------------------------------------
# operator precomputation


def test_system_matrix_decomposition():
    mesh, basis, lgrid, _ = small_setup()
    spec = make_spec()
    tau = 0.125
    ops = precompute_operators(mesh, basis, spec, tau, lgrid)
    from pbemoc.fem import assemble_convection, assemble_stiffness

    residual = (
        ops.system
        - assemble_stiffness(mesh, basis, spec.epsilon)
        - assemble_convection(mesh, basis, spec.b)
        - ops.mass.multiply(1.0 / tau)
    )
    assert abs(residual).max() <= 1e-12 * abs(ops.system).max()


def test_system_symmetric_without_convection():
    mesh, basis, lgrid, _ = small_setup()
    # growth 0.25 keeps tau = 1 inside the stability bound (iota = 0.25)
    spec = make_spec(b=(0.0, 0.0), G=lambda l: np.full_like(np.asarray(l, dtype=float), 0.25))
    ops = precompute_operators(mesh, basis, spec, 1.0, lgrid)
    assert abs(ops.system - ops.system.T).max() <= 1e-14 * abs(ops.system).max()


def test_factor_solve_matches_dense_oracle(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=mesh.num_nodes)
    rhs[mesh.boundary_mask] = 0.0
    got = ops.solve_system(rhs)

    rule = quadrature_rule(2)
    dense = (
        oracles.dense_operator(mesh, rule, "mass") / tgrid.tau
        + oracles.dense_operator(mesh, rule, "stiffness", epsilon=mms.epsilon)
        + oracles.dense_operator(mesh, rule, "convection", b=mms.b)
    )
    dense_bc, rhs_bc = oracles.dense_eliminate(dense, rhs, mesh.boundary_mask)
    expected = oracles.dense_solve(dense_bc, rhs_bc)
    assert np.abs(got - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# initialization and the inflow boundary


def test_initialize_zero_data():
    mesh, basis, lgrid, _ = small_setup()
    spec = make_spec()
    surface = initialize(mesh, basis, spec, lgrid, projection_ops(mesh, basis, spec, lgrid))
    assert surface.n == 0
    assert len(surface.slices) == lgrid.M + 1
    assert np.abs(surface.as_matrix()).max() == 0.0


def test_initialize_separable_data_scales_projection():
    mesh, basis, lgrid, _ = small_setup(M=4)
    spec = make_spec(
        z_init=lambda l, x, y: np.sin(np.pi * l) * sines(x, y),
        z_init_grad=lambda l, x, y: tuple(np.sin(np.pi * l) * g for g in sines_grad(x, y)),
    )
    surface = initialize(mesh, basis, spec, lgrid, projection_ops(mesh, basis, spec, lgrid))
    base = surface.slices[2].values  # l = 0.5, factor sin(pi/2) = 1
    for m in (1, 3):
        factor = np.sin(np.pi * lgrid.nodes[m])
        np.testing.assert_allclose(surface.slices[m].values, factor * base, atol=1e-13)


def test_initialize_mms_matches_dense_oracle(mms):
    mesh = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    lgrid = LGrid(0.0, 1.0, 2)  # node 1 sits at l = 1/2
    surface = initialize(mesh, P1, mms, lgrid, projection_ops(mesh, P1, mms, lgrid))
    got = surface.slices[1].values

    rule = quadrature_rule(2 * P1.order + 2)
    dense = oracles.dense_operator(mesh, quadrature_rule(2), "stiffness")
    rhs = oracles.dense_grad_load(mesh, rule, lambda x, y: mms.z_init_grad(0.5, x, y))
    dense_bc, rhs_bc = oracles.dense_eliminate(dense, rhs, mesh.boundary_mask)
    expected = oracles.dense_solve(dense_bc, rhs_bc)
    assert np.abs(got - expected).max() <= 1e-10


def test_initialize_rejects_incompatible_data():
    spec = make_spec(z_bdry=lambda t, x, y: sines(x, y), z_bdry_grad=lambda t, x, y: sines_grad(x, y))
    mesh, basis, lgrid, _ = small_setup()
    with pytest.raises(ValueError, match="disagree"):
        initialize(mesh, basis, spec, lgrid, projection_ops(mesh, basis, spec, lgrid))


def incompatible_spec(**overrides):
    """Zero initial data against an inflow that is sines at every t."""
    return make_spec(z_bdry=lambda t, x, y: sines(x, y), z_bdry_grad=lambda t, x, y: sines_grad(x, y), **overrides)


def test_operators_reject_incompatible_data_before_any_assembly(monkeypatch):
    mesh, basis, lgrid, tgrid = small_setup()
    assembled = []
    monkeypatch.setattr(stepper, "_run_operators", lambda *args: assembled.append(args))
    with pytest.raises(ValueError, match="disagree"):
        precompute_operators(mesh, basis, incompatible_spec(), tgrid.tau, lgrid)
    assert assembled == []


def test_an_incompatible_and_unstable_run_reports_the_incompatibility():
    mesh, basis, _, _ = small_setup()
    lgrid, tgrid = LGrid(0.0, 1.0, 4), TimeGrid(2.0, 4)  # tau = 2 iota
    spec = incompatible_spec(G=lambda l: np.ones_like(l))
    with pytest.raises(CflViolationError):
        precompute_operators(mesh, basis, make_spec(G=spec.G), tgrid.tau, lgrid)
    for run in (
        lambda: run_sequential(spec, mesh, basis, lgrid, tgrid),
        lambda: run_pipeline(spec, mesh, basis, lgrid, tgrid, 2),
    ):
        with pytest.raises(ValueError, match="disagree"):
            run()


def test_initialize_rejects_nan_inflow_at_t0():
    # NaN compares false against the tolerance, so the check must not read `gap > tol`
    def z_bdry(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), np.nan) if t == 0.0 else zeros(x, y)

    spec = make_spec(z_bdry=z_bdry)
    mesh, basis, lgrid, _ = small_setup()
    with pytest.raises(ValueError, match="disagree"):
        initialize(mesh, basis, spec, lgrid, projection_ops(mesh, basis, spec, lgrid))


def test_boundary_slice_zero_for_mms(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = projection_ops(mesh, basis, mms, lgrid)
    for n in (0, 2, 4):
        s = boundary_slice(n, tgrid, mesh, basis, mms, ops)
        assert np.abs(s.values).max() == 0.0


def test_boundary_slice_exponential_scaling():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec(
        z_init=lambda l, x, y: sines(x, y),
        z_init_grad=lambda l, x, y: sines_grad(x, y),
        z_bdry=lambda t, x, y: np.exp(-t) * sines(x, y),
        z_bdry_grad=lambda t, x, y: tuple(np.exp(-t) * g for g in sines_grad(x, y)),
    )
    ops = projection_ops(mesh, basis, spec, lgrid)
    s0 = boundary_slice(0, tgrid, mesh, basis, spec, ops)
    for n in (1, 3):
        sn = boundary_slice(n, tgrid, mesh, basis, spec, ops)
        np.testing.assert_allclose(
            sn.values, np.exp(-n * tgrid.tau) * s0.values, rtol=1e-12, atol=1e-15
        )


def test_boundary_slice_at_zero_matches_initialize():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec(
        z_init=lambda l, x, y: sines(x, y),
        z_init_grad=lambda l, x, y: sines_grad(x, y),
        z_bdry=lambda t, x, y: sines(x, y),
        z_bdry_grad=lambda t, x, y: sines_grad(x, y),
    )
    ops = projection_ops(mesh, basis, spec, lgrid)
    surface = initialize(mesh, basis, spec, lgrid, ops)
    s0 = boundary_slice(0, tgrid, mesh, basis, spec, ops)
    np.testing.assert_array_equal(s0.values, surface.slices[0].values)


def read_level(path, shape):
    """A level array from a snapshot file; its 17 significant digits round-trip float64."""
    level = np.full(shape, np.nan)
    for line in path.read_text().splitlines():
        m, i, value = line.split()
        level[int(m), int(i)] = float(value)
    return level


def test_projections_use_the_solver_of_their_operators(tmp_path):
    # under GMRES the level-0 surface and the inflow slice get the bytes of
    # the level-0 snapshot of a GMRES sequential run, not the direct solver's
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8, N=8)
    spec = make_spec(
        z_init=lambda l, x, y: (1.0 + l) * sines(x, y),
        z_init_grad=lambda l, x, y: tuple((1.0 + l) * g for g in sines_grad(x, y)),
        z_bdry=lambda t, x, y: sines(x, y),
        z_bdry_grad=lambda t, x, y: sines_grad(x, y),
    )
    config = SolverConfig(mode="iterative")
    ops = projection_ops(mesh, basis, spec, lgrid, config)
    run_sequential(spec, mesh, basis, lgrid, tgrid, config, snapshot_steps=(0,), snapshot_dir=tmp_path)
    seq = read_level(tmp_path / "surface_n00000.txt", (lgrid.M + 1, mesh.num_nodes))
    surface = initialize(mesh, basis, spec, lgrid, ops).as_matrix()
    assert surface.tobytes() == seq.tobytes()
    assert boundary_slice(0, tgrid, mesh, basis, spec, ops).values.tobytes() == seq[0].tobytes()
    direct = initialize(mesh, basis, spec, lgrid, projection_ops(mesh, basis, spec, lgrid))
    assert direct.as_matrix().tobytes() != seq.tobytes()  # the two solvers differ here


# initial data of three kinds: the benchmark's, one that ignores l (its
# fields return shape (q,)) and one that scales by (1 + l)
LEVEL0_DATA = {
    "mms": None,
    "l-free": dict(z_init=lambda l, x, y: sines(x, y), z_init_grad=lambda l, x, y: sines_grad(x, y)),
    "one-plus-l": dict(
        z_init=lambda l, x, y: (1.0 + l) * sines(x, y),
        z_init_grad=lambda l, x, y: tuple((1.0 + l) * g for g in sines_grad(x, y)),
    ),
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("data", sorted(LEVEL0_DATA))
def test_level_zero_is_bitwise_slice_by_slice_projections(mms, order, data):
    # level 0 evaluates the initial data for several slices per call; every
    # row must have the bytes of its own projection with a scalar l, which
    # gives the free DOFs, and the full-width surface 0.0 at the boundary
    from pbemoc.pipeline import partition

    mesh, basis, lgrid, _ = small_setup(h=0.125 if order == 1 else 0.25, M=16, order=order)
    if LEVEL0_DATA[data] is None:
        spec = mms
    else:
        inflow = dict(z_bdry=lambda t, x, y: sines(x, y), z_bdry_grad=lambda t, x, y: sines_grad(x, y))
        spec = make_spec(**inflow, **LEVEL0_DATA[data])
    ops = projection_ops(mesh, basis, spec, lgrid)
    projector = ops.projector
    reference = [projector.project(lambda x, y: spec.z_bdry(0.0, x, y), lambda x, y: spec.z_bdry_grad(0.0, x, y))]
    for l_m in lgrid.nodes[1:].tolist():
        reference.append(
            projector.project(lambda x, y: spec.z_init(l_m, x, y), lambda x, y: spec.z_init_grad(l_m, x, y))
        )
    expected = np.stack(reference).tobytes()
    surface = initialize(mesh, basis, spec, lgrid, ops).as_matrix()
    assert surface[:, ops.free].tobytes() == expected
    assert_zero_boundary(surface, ops.boundary_idx)
    rows = stepper._initial_level(ops, range(lgrid.M + 1))
    assert rows.tobytes() == expected
    for P in (2, 3):
        blocks = partition(lgrid.M, P).blocks
        rows = np.concatenate([stepper._initial_level(ops, b) for b in blocks])
        assert rows.tobytes() == expected


def test_initial_data_of_a_wrong_shape_names_the_contract():
    # (q, k) values instead of (k, q): the error names the expected shapes
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8)
    spec = make_spec(z_init_grad=lambda l, x, y: (np.outer(x, l), np.outer(y, l)))
    with pytest.raises(ValueError, match=r"must have shape \(k, q\) or \(q,\)") as err:
        run_sequential(spec, mesh, basis, lgrid, tgrid)
    # the shape is that of a group of slices, not a projection's failure
    assert not isinstance(err.value, BoundaryTraceError)


def one_row_too_many(l, x):
    """(k+1, q) values for l as a (k, 1) column and (q,) points x."""
    return np.zeros((np.shape(l)[0] + 1, np.size(x)))


# each callable that gets l as a (k, 1) column, and the slice (n, m) its
# shape error names at M = N = 4: the first of the one group or chunk
WRONG_SHAPES = {
    "z_init": (dict(z_init=lambda l, x, y: one_row_too_many(l, x)), (0, 1)),
    "z_init_grad": (dict(z_init_grad=lambda l, x, y: (one_row_too_many(l, x),) * 2), (0, 1)),
    "f": (dict(f=lambda t, l, x, y: one_row_too_many(l, x)), (1, 1)),
    "exact": (dict(exact=lambda t, l, x, y: one_row_too_many(l, x)), (4, 1)),
    "exact_grad": (dict(exact_grad=lambda t, l, x, y: (one_row_too_many(l, x),) * 2), (4, 1)),
}


@pytest.mark.parametrize(
    "name, workers", [(name, None) for name in WRONG_SHAPES] + [("f", 2)],
    ids=[*WRONG_SHAPES, "f-pipeline"],
)
def test_a_wrong_shape_names_the_callable_and_its_slice(mms, name, workers):
    from pbemoc.harness import run_single

    override, (n, m) = WRONG_SHAPES[name]
    problem = dataclasses.replace(mms, **override)
    if workers is None:
        with pytest.raises(ValueError) as err:
            run_single(problem, 0.25, 0.25, 0.25)
        failure = err.value
    else:
        # partition(4, 2): worker 0 owns slices 0..2 and fails first in line
        with pytest.raises(PipelineError) as err:
            run_single(problem, 0.25, 0.25, 0.25, workers=workers)
        assert (err.value.worker, err.value.step) == (0, n)
        failure = err.value.cause
    assert type(failure) is ValueError
    assert str(failure).startswith(f"{name} evaluated for the slices from (n, m) = ({n}, {m}) "), str(failure)


def test_a_plain_source_is_called_once_per_chunk_with_an_l_column():
    # M = 40 slices make a full chunk and one of 8 at every level
    mesh, basis, lgrid, _ = small_setup(M=40)
    tgrid = TimeGrid(0.1, 4)
    shapes = []

    def f(t, l, x, y):
        shapes.append(np.shape(l))
        return zeros(x, y)

    run_sequential(make_spec(f=f), mesh, basis, lgrid, tgrid)
    assert len(shapes) == tgrid.N * -(-lgrid.M // PANEL)
    assert shapes == [(PANEL, 1), (lgrid.M - PANEL, 1)] * tgrid.N


@pytest.mark.parametrize("bad", [1.0, np.nan], ids=["nonzero", "nan"])
@pytest.mark.parametrize("workers", [None, 2], ids=["sequential", "pipeline"])
def test_bad_initial_data_in_a_group_raises_as_its_projection(bad, workers):
    # slice m=5 alone has data that is nonzero (or NaN) on the boundary; the
    # drivers evaluate it in one call with other slices
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8, N=8)
    l_bad = float(lgrid.nodes[5])
    calls = []

    def z_init(l, x, y):
        calls.append(np.array(l, dtype=float).ravel())
        return np.where(l == l_bad, bad, 0.0) + 0.0 * x

    spec = make_spec(z_init=z_init)
    projector = projection_ops(mesh, basis, spec, lgrid).projector
    with pytest.raises(BoundaryTraceError) as alone:
        projector.project(lambda x, y: z_init(l_bad, x, y), lambda x, y: zero_pair(x, y))
    assert (alone.value.n, alone.value.m) == (None, None)
    calls.clear()
    if workers is None:
        with pytest.raises(BoundaryTraceError) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        failure = err.value
        # the failing slice was evaluated together with slices on both sides
        group = next(c for c in calls if l_bad in c)
        assert 0 < list(group).index(l_bad) < len(group) - 1
    else:
        # partition(8, 2): worker 1 owns slices 5..8
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step, err.value.m) == (1, 0, 5)
        assert "worker 1 failed at step 0, slice m=5" in str(err.value)
        failure = err.value.cause
    assert isinstance(failure, BoundaryTraceError)
    assert (failure.n, failure.m) == (0, 5)
    assert str(failure) == str(alone.value)


@pytest.mark.parametrize("workers", [None, 2], ids=["sequential", "pipeline"])
def test_bad_inflow_data_raise_as_their_projection_at_their_level(workers):
    # the inflow data are nonzero on the boundary from level n=3 on
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8, N=8)

    def z_bdry(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), 1.0 if t >= 3 * tgrid.tau else 0.0)

    spec = make_spec(z_bdry=z_bdry)
    projector = projection_ops(mesh, basis, spec, lgrid).projector
    with pytest.raises(BoundaryTraceError) as alone:
        projector.project(lambda x, y: z_bdry(3 * tgrid.tau, x, y), zero_pair)
    if workers is None:
        with pytest.raises(BoundaryTraceError) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        failure = err.value
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step, err.value.m) == (0, 3, 0)
        failure = err.value.cause
    assert isinstance(failure, BoundaryTraceError)
    assert (failure.n, failure.m) == (3, 0)
    assert str(failure) == str(alone.value)


# ---------------------------------------------------------------------------
# stepping


def test_step_slice_zero_problem():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec()
    ops = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid)
    surface = initialize(mesh, basis, spec, lgrid, ops)
    out = step_slice(surface, 2, 1, ops)
    assert np.abs(out.values).max() == 0.0
    assert (out.n, out.m) == (1, 2)


def test_step_slice_validates_indices():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec()
    ops = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid)
    surface = initialize(mesh, basis, spec, lgrid, ops)
    with pytest.raises(ValueError, match="index"):
        step_slice(surface, 0, 1, ops)
    with pytest.raises(ValueError, match="level"):
        step_slice(surface, 1, 2, ops)


def test_step_slice_matches_dense_oracle(mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=4, N=4)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    surface = initialize(mesh, basis, mms, lgrid, ops)
    m, n = 2, 1
    got = step_slice(surface, m, n, ops).values

    # independent path: dense assembly of the same fully discrete equation
    tau = tgrid.tau
    rule2 = quadrature_rule(2)
    mass = oracles.dense_operator(mesh, rule2, "mass")
    system = (
        mass / tau
        + oracles.dense_operator(mesh, rule2, "stiffness", epsilon=mms.epsilon)
        + oracles.dense_operator(mesh, rule2, "convection", b=mms.b)
    )
    alpha = tau * float(mms.G(lgrid.nodes[m])) / lgrid.iota
    ztilde = alpha * surface.slices[m - 1].values + (1 - alpha) * surface.slices[m].values
    t1, l_m = tau * n, float(lgrid.nodes[m])
    load = oracles.dense_load(
        mesh, quadrature_rule(4), lambda x, y: mms.f(t1, l_m, x, y)
    )
    rhs = mass @ ztilde / tau + load
    system_bc, rhs_bc = oracles.dense_eliminate(system, rhs, mesh.boundary_mask)
    expected = oracles.dense_solve(system_bc, rhs_bc)
    assert np.abs(got - expected).max() <= 1e-10


def per_slice_level(ops, n, prev):
    """Free-DOF level n rows 1..M by the per-slice oracle, from the all-DOF
    level-(n-1) rows; the oracle's rows are exactly zero at the boundary."""
    level = np.stack([
        oracles.advance_slice_reference(ops, n, m, prev[m - 1], prev[m])
        for m in range(1, prev.shape[0])
    ])
    assert_zero_boundary(level, ops.boundary_idx)
    return level[:, ops.free]


def assert_zero_boundary(rows, boundary):
    """Every boundary entry of every row is 0.0 bit for bit, so not -0.0."""
    assert rows[:, boundary].tobytes() == bytes(rows[:, boundary].nbytes)


def zero_boundary_level(mesh, rows, seed):
    """Random all-DOF rows with exact zeros at the boundary DOFs, as every level has."""
    level = np.random.default_rng(seed).normal(size=(rows, mesh.num_nodes))
    level[:, mesh.boundary_mask] = 0.0
    return level


def with_plain_source(problem):
    """A copy of problem whose source is a plain callable with the same values."""
    return dataclasses.replace(problem, f=lambda t, l, x, y: problem.f(t, l, x, y))


@pytest.mark.parametrize("order", [1, 2])
def test_advance_block_matches_per_slice_oracle_bitwise(mms, order):
    # the separable load path and the per-slice source path alike
    M, n = 12, 3
    mesh, basis, lgrid, tgrid = small_setup(M=M, N=M, order=order)
    prev = zero_boundary_level(mesh, M + 1, order)
    for problem in (mms, with_plain_source(mms)):
        ops = precompute_operators(mesh, basis, problem, tgrid.tau, lgrid)
        expected = per_slice_level(ops, n, prev)
        rows = prev[:, ops.free]
        for m0 in (1, 2, 5, M):
            for k in range(1, M - m0 + 2):
                out = np.empty((k, ops.free.size))
                advance_block(ops, n, rows[m0 - 1], rows[m0:m0 + k], m0, out)
                assert out.tobytes() == expected[m0 - 1:m0 - 1 + k].tobytes(), (m0, k)


@pytest.mark.parametrize("order", [1, 2])
def test_advance_block_across_chunks_matches_per_slice_oracle_bitwise(mms, order):
    # a level of several full chunks and a remainder chunk
    M, n = 1400, 2
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, order)
    lgrid = LGrid(0.0, 1.0, M)
    prev = zero_boundary_level(mesh, M + 1, 10 + order)
    for problem in (mms, with_plain_source(mms)):
        ops = precompute_operators(mesh, reference_basis(order), problem, 0.5 / M, lgrid)
        assert M > PANEL and M % PANEL != 0
        expected = per_slice_level(ops, n, prev)
        rows = prev[:, ops.free]
        for m0 in (1, 3):
            out = np.empty((M - m0 + 1, ops.free.size))
            advance_block(ops, n, rows[m0 - 1], rows[m0:], m0, out)
            assert out.tobytes() == expected[m0 - 1:].tobytes()


# ---------------------------------------------------------------------------
# separable sources


def three_field_source(l_factor=lambda l: 1.0 + l):
    """A J = 3 source with a time factor that is not an exponential decay."""
    return SeparableSource(
        lambda t: 1.0 + np.cos(3.0 * t),
        (l_factor, lambda l: np.sin(2.0 * l), lambda l: 0.5),  # the last is constant
        (sines, lambda x, y: x * y, lambda x, y: np.cos(2.0 * x) + y),
    )


def separable_spec(f):
    return make_spec(f=f, G=lambda l: 0.5 + 0.5 * np.asarray(l, dtype=float) ** 2)


def test_separable_source_rejects_mismatched_factors_and_fields():
    with pytest.raises(ValueError, match="2 l-factors for 1 fields"):
        SeparableSource(np.exp, (np.sin, np.cos), (sines,))
    with pytest.raises(ValueError, match="at least one field"):
        SeparableSource(np.exp, (), ())


def test_separable_source_pointwise_matches_its_loads():
    mesh, basis, lgrid, tgrid = small_setup(M=6, N=6, order=2)
    source = three_field_source()
    spec = separable_spec(source)
    ops = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid)
    # the step operator's last J columns are the field loads on the free DOFs
    field_loads = ops.step[:, ops.free.size :].toarray().T
    assert field_loads.tobytes() == np.stack([ops.load.assemble(s)[ops.free] for s in source.fields]).tobytes()
    for n in (1, 4):
        t = n * tgrid.tau
        for m in range(1, lgrid.M + 1):
            pointwise = ops.load.assemble_values(
                source(t, float(lgrid.nodes[m]), ops.load.x, ops.load.y)
            )[ops.free]
            separated = sum(
                (source.time_factor(t) * a[m]) * field_load
                for a, field_load in zip(ops.source_factors, field_loads)
            )
            assert np.abs(separated - pointwise).max() <= 1e-13 * np.abs(pointwise).max()
    # a step with the separated loads against one with the source evaluated per slice
    plain_ops = precompute_operators(mesh, basis, with_plain_source(spec), tgrid.tau, lgrid)
    free = plain_ops.free
    assert plain_ops.source_factors is None
    # the plain step operator is the unscaled mass matrix on free rows and columns
    assert plain_ops.step.toarray().tobytes() == plain_ops.mass.toarray()[np.ix_(free, free)].tobytes()
    surface = initialize(mesh, basis, spec, lgrid, ops)
    for m in range(1, lgrid.M + 1):
        got = step_slice(surface, m, 1, ops).values
        want = step_slice(surface, m, 1, plain_ops).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("P", [1, 2, 3])
def test_separable_source_pipeline_matches_sequential_bytes(P):
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=7, N=7)
    spec = separable_spec(three_field_source())
    seq = run_sequential(spec, mesh, basis, lgrid, tgrid)
    assert np.abs(seq.as_matrix()).max() > 0.0
    run = run_pipeline(spec, mesh, basis, lgrid, tgrid, P)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()


@pytest.mark.parametrize("P", [2, 3])
def test_separable_source_pipeline_matches_sequential_bytes_across_chunks(P):
    # tau = 1/60 is not a power of two, so M/tau rounds; M = 40 > PANEL puts
    # the sequential chunk boundary inside a worker's block
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=40, N=6)
    tgrid = TimeGrid(0.1, 6)
    assert np.frexp(tgrid.tau)[0] != 0.5 and lgrid.M > PANEL
    spec = separable_spec(three_field_source())
    seq = run_sequential(spec, mesh, basis, lgrid, tgrid)
    run = run_pipeline(spec, mesh, basis, lgrid, tgrid, P)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_dyadic_step_is_bitwise_the_scaled_mass_product_plus_loads(order):
    # for tau = 2^-k, folding 1/tau into the mass entries is exact, so the
    # kernel keeps the bytes of (M z)(1/tau) + sum_j (c(t) a_j(l_m)) L_j
    M, n = 40, 3
    mesh, basis, lgrid, _ = small_setup(M=M, order=order)
    tau = 2.0 ** -6
    source = three_field_source()
    ops = precompute_operators(mesh, basis, separable_spec(source), tau, lgrid)
    prev = zero_boundary_level(mesh, M + 1, order)
    out = np.empty((M, ops.free.size))
    advance_block(ops, n, prev[0, ops.free], prev[1:, ops.free], 1, out)
    c_t = source.time_factor(n * tau)
    for m in range(1, M + 1):
        alpha = float(ops.alphas[m])
        rhs = (ops.mass @ (alpha * prev[m - 1] + (1.0 - alpha) * prev[m])) * (1.0 / tau)
        for a, s in zip(ops.source_factors, source.fields):
            rhs = rhs + (c_t * a[m]) * ops.load.assemble(s)
        rhs[ops.boundary_idx] = 0.0
        assert out[m - 1].tobytes() == ops.solve_system(rhs)[ops.free].tobytes(), m


def test_field_loads_with_exact_zeros_match_the_oracle_bitwise():
    # a field that vanishes on half the domain and one that vanishes
    # everywhere: their loads hold exact zeros, which the step operator keeps
    mesh, basis, lgrid, tgrid = small_setup(M=12, N=12, order=2)
    source = SeparableSource(
        lambda t: 1.0 - 2.0 * t,
        (lambda l: 1.0 + l, lambda l: -np.cos(l), lambda l: 2.0 - l),
        (lambda x, y: np.where(x < 0.5, 0.0, sines(x, y)), zeros, sines),
    )
    ops = precompute_operators(mesh, basis, separable_spec(source), tgrid.tau, lgrid)
    free = ops.free
    field_loads = ops.step[:, free.size :].toarray()
    assert (field_loads == 0.0).sum() > free.size and (field_loads != 0.0).any()
    assert ops.step.nnz == ops.mass[free][:, free].nnz + 3 * free.size
    prev = zero_boundary_level(mesh, lgrid.M + 1, 4)
    for n in (1, 5):
        out = np.empty((lgrid.M, free.size))
        advance_block(ops, n, prev[0, free], prev[1:, free], 1, out)
        assert out.tobytes() == per_slice_level(ops, n, prev).tobytes()


def test_separable_source_pipeline_iterative_close_to_sequential():
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=7, N=7)
    spec = separable_spec(three_field_source())
    config = SolverConfig(mode="iterative", tol=1e-12)
    seq = run_sequential(spec, mesh, basis, lgrid, tgrid, config)
    run = run_pipeline(spec, mesh, basis, lgrid, tgrid, 3, config)
    assert np.abs(run.surface.as_matrix() - seq.as_matrix()).max() <= 1e-10


@pytest.mark.parametrize("workers", [None, 2])
def test_separable_source_with_a_non_finite_factor_raises_with_step_and_slice(workers):
    # the first l-factor is NaN at l = 3/4 only, so slice m = 3 fails at step 1
    def l_factor(l):
        l = np.asarray(l, dtype=float)
        return np.where(l == 0.75, np.nan, 1.0 + l)

    spec = separable_spec(three_field_source(l_factor))
    mesh, basis, lgrid, tgrid = small_setup(M=4, N=4)
    if workers is None:
        with pytest.raises(SolveFailure) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        failure = err.value
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step, err.value.m) == (1, 1, 3)
        failure = err.value.cause
        assert isinstance(failure, SolveFailure)
    assert (failure.n, failure.m) == (1, 3)


def test_advance_block_empty_block_is_a_no_op(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    out = np.empty((0, mesh.num_nodes))
    advance_block(ops, 1, np.zeros(mesh.num_nodes), out.copy(), lgrid.M + 1, out)


def test_run_sequential_solves_once_per_slice(mms, monkeypatch):
    # M = 37 rows make two chunks per level: a full panel and a partial one
    mesh, basis, lgrid, tgrid = small_setup(M=37, N=37)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    assert PANEL < lgrid.M < 2 * PANEL
    solve, blocks = ops.solve_system, []

    def counting(rhs):
        blocks.append(rhs.shape)
        return solve(rhs)

    class RecordingLU:
        def __init__(self, lu):
            self.lu, self.shapes = lu, []

        def solve(self, b):
            self.shapes.append(b.shape)
            return self.lu.solve(b)

    ops.solve_system = counting
    ops._solver._lu = lu = RecordingLU(ops._solver._lu)
    monkeypatch.setattr(stepper, "Operators", lambda *args: ops)
    out = run_sequential(mms, mesh, basis, lgrid, tgrid)
    # one block per chunk, the chunks' rows the level's slices, so each slice
    # once, over the free DOFs
    nfree = ops.free.size
    assert blocks == [(PANEL, nfree), (lgrid.M - PANEL, nfree)] * tgrid.N
    assert sum(rows for rows, _ in blocks) == lgrid.M * tgrid.N
    # one SuperLU call per chunk, each exactly PANEL right-hand sides wide
    assert set(lu.shapes) == {(nfree, PANEL)}
    assert len(lu.shapes) == len(blocks) == tgrid.N * -(-lgrid.M // PANEL)
    monkeypatch.undo()
    plain = run_sequential(mms, mesh, basis, lgrid, tgrid)
    assert out.as_matrix().tobytes() == plain.as_matrix().tobytes()


def inflow_spec(rate):
    """Inflow exp(-rate t) sines, time-independent for rate 0, and initial
    data (1 + l) sines, which differ from slice to slice."""
    return make_spec(
        z_init=lambda l, x, y: (1.0 + np.asarray(l)) * sines(x, y),
        z_init_grad=lambda l, x, y: tuple((1.0 + np.asarray(l)) * g for g in sines_grad(x, y)),
        z_bdry=lambda t, x, y: np.exp(-rate * t) * sines(x, y),
        z_bdry_grad=lambda t, x, y: tuple(np.exp(-rate * t) * g for g in sines_grad(x, y)),
    )


@pytest.mark.parametrize("inflow", ["time-independent", "time-dependent"])
def test_inflow_is_solved_once_per_distinct_right_hand_side(monkeypatch, inflow):
    spec = inflow_spec(0.0 if inflow == "time-independent" else 1.0)
    mesh, basis, lgrid, tgrid = small_setup(M=5, N=6)
    ops = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid)
    solve, rhs_seen = ops.projector._solver.solve, []
    ops.projector._solver.solve = lambda rhs: rhs_seen.append(rhs) or solve(rhs)
    projections = []
    project = ops.projector.project
    ops.projector.project = lambda *args: projections.append(1) or project(*args)
    monkeypatch.setattr(stepper, "Operators", lambda *args: ops)
    run_sequential(spec, mesh, basis, lgrid, tgrid)
    # one projection per slice of level 0 and per inflow slice, as before
    assert len(projections) == (lgrid.M + 1) + tgrid.N
    inflow_solves = len(rhs_seen) - lgrid.M  # each initial slice is solved
    assert inflow_solves == (1 if inflow == "time-independent" else tgrid.N + 1)


@pytest.mark.parametrize("workers", [None, 3])
def test_reusing_an_inflow_projection_keeps_the_bytes(mms, monkeypatch, workers):
    mesh, basis, lgrid, tgrid = small_setup(M=5, N=6)
    runs = []
    for reuse in (True, False):
        if not reuse:  # forget the last right-hand side before every projection
            project = fem.RitzProjector.project

            def forgetful(self, g, g_grad):
                self._last_key = None
                return project(self, g, g_grad)

            monkeypatch.setattr(fem.RitzProjector, "project", forgetful)
        for spec in (mms, inflow_spec(0.0), inflow_spec(1.0)):
            if workers is None:
                runs.append(run_sequential(spec, mesh, basis, lgrid, tgrid).as_matrix())
            else:
                runs.append(run_pipeline(spec, mesh, basis, lgrid, tgrid, workers).surface.as_matrix())
    assert [r.tobytes() for r in runs[:3]] == [r.tobytes() for r in runs[3:]]


def test_panel_solve_bytes_do_not_depend_on_block_layout(mms):
    # on the P1 h=1/32 system a column's bytes depend on the SuperLU call's
    # width, so only a fixed panel width keeps a row's bytes block-independent;
    # blocks of up to 70 rows span three panels and end at every panel offset
    mesh = build_structured_mesh(mms.domain, 1.0 / 32, 1)
    lgrid = mms.lgrid(64)
    ops = precompute_operators(mesh, P1, mms, lgrid.iota, lgrid)
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(70, mesh.num_nodes))
    rows[:, ops.boundary_idx] = 0.0
    single = [ops.solve_system(row) for row in rows]
    for k in range(1, 71):
        pick = rng.choice(70, size=k, replace=False)
        block = ops.solve_system(rows[pick])
        assert block.shape == (k, mesh.num_nodes)
        for i, j in enumerate(pick):
            assert block[i].tobytes() == single[j].tobytes(), (k, i)


def test_iterative_block_solve_matches_row_solves(mms):
    mesh, basis, lgrid, tgrid = small_setup(M=5, N=6)
    config = SolverConfig(mode="iterative", tol=1e-12)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid, config)
    rows = np.random.default_rng(3).normal(size=(3, mesh.num_nodes))
    rows[:, ops.boundary_idx] = 0.0
    block = ops.solve_system(rows)
    assert block.tobytes() == np.stack([ops.solve_system(r) for r in rows]).tobytes()


@pytest.mark.parametrize("workers", [None, 2])
def test_non_finite_source_raises_with_step_and_slice(mms, workers):
    # a NaN source at (n, m) = (2, 3) poisons exactly that slice of level 2;
    # f gets l as a (k, 1) column, so the NaN goes in the row where l == 0.75
    def f(t, l, x, y):
        return np.where((t == 0.5) & (l == 0.75), np.nan, mms.f(t, l, x, y))

    spec = make_spec(
        G=mms.G, f=f, z_init=mms.z_init, z_init_grad=mms.z_init_grad,
        z_bdry=mms.z_bdry, z_bdry_grad=mms.z_bdry_grad,
    )
    mesh, basis, lgrid, tgrid = small_setup(M=4, N=4)
    if workers is None:
        with pytest.raises(SolveFailure) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        failure = err.value
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step) == (1, 2)  # blocks 0..2 and 3..4
        assert err.value.m == 3 and "slice m=3" in str(err.value)
        failure = err.value.cause
        assert isinstance(failure, SolveFailure)
    assert (failure.n, failure.m) == (2, 3)
    assert "m=3" in str(failure) and "n=2" in str(failure)


@pytest.mark.parametrize("workers", [None, 2])
def test_non_finite_inflow_at_the_last_step_raises(mms, workers):
    # the inflow slice of level N feeds no later slice, so only its own check sees it
    def z_bdry_grad(t, x, y):
        gx, gy = mms.z_bdry_grad(t, x, y)
        return (np.full_like(gx, np.nan), gy) if t == 1.0 else (gx, gy)

    spec = make_spec(
        G=mms.G, f=mms.f, z_init=mms.z_init, z_init_grad=mms.z_init_grad,
        z_bdry=mms.z_bdry, z_bdry_grad=z_bdry_grad,
    )
    mesh, basis, lgrid, tgrid = small_setup(M=4, N=4)
    if workers is None:
        with pytest.raises(SolveFailure) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        failure = err.value
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step, err.value.m) == (0, tgrid.N, 0)
        failure = err.value.cause
    assert (failure.n, failure.m) == (tgrid.N, 0)


def capped_gmres(function):
    """function, run with GMRES capped at one inner iteration, which cannot
    reach a relative residual of 1e-14 on these problems."""

    def capped(*args):
        saved, fem.GMRES_MAXITER = fem.GMRES_MAXITER, 1
        try:
            return function(*args)
        finally:
            fem.GMRES_MAXITER = saved

    return capped


# where the capped solve fails: the level-0 projections, the inflow
# projection of level 1 (a time-dependent inflow, so it is solved again), or
# the step solves of the first chunk, slices 1..16 or worker 0's 1..8, with
# the (n, m) and the kind of solve the failure names
GMRES_FAILURES = {
    "level 0": ((0, 1), "projection of slice m=1 at step n=0"),
    "inflow": ((1, 0), "projection of slice m=0 at step n=1"),
    "step": ((1, 1), "step solve of slices m=1..{last} at step n=1"),
}


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("where", sorted(GMRES_FAILURES))
def test_a_failing_solve_names_its_slice(mms, monkeypatch, where, workers):
    from pbemoc import pipeline

    mesh, basis, lgrid, _ = small_setup(h=0.125, M=16)
    tgrid = TimeGrid(0.125, 4)  # tau = iota / 2, inside the growth bound of mms
    config = SolverConfig("iterative", tol=1e-14)
    spec = mms
    if where == "level 0":
        monkeypatch.setattr(fem, "GMRES_MAXITER", 1)
    elif where == "step":
        monkeypatch.setattr(stepper, "advance_block", capped_gmres(advance_block))
    else:
        spec = make_spec(
            z_init=lambda l, x, y: sines(x, y),
            z_init_grad=lambda l, x, y: sines_grad(x, y),
            z_bdry=lambda t, x, y: (1.0 + t) * sines(x, y),
            z_bdry_grad=lambda t, x, y: tuple((1.0 + t) * g for g in sines_grad(x, y)),
        )
        for module in (stepper, pipeline):
            monkeypatch.setattr(module, "_advance_level", capped_gmres(stepper._advance_level))
    (n, m), message = GMRES_FAILURES[where]
    if workers is None:
        with pytest.raises(SolveFailure) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid, config)
        failure = err.value
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers, config)
        assert (err.value.worker, err.value.step, err.value.m) == (0, n, m)
        assert f"slice m={m}" in str(err.value)
        failure = err.value.cause
        assert isinstance(failure, SolveFailure)
    assert (failure.n, failure.m) == (n, m)
    message = message.format(last=16 if workers is None else 8)
    assert str(failure).startswith(f"{message} failed: iterative solve stopped")
    assert failure.residual > 1e-14


def test_step_slice_raises_on_non_finite_input(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    surface = initialize(mesh, basis, mms, lgrid, ops)
    bad = surface.as_matrix()
    bad[1, 7] = np.inf
    poisoned = SolutionSurface(0, tuple(FieldSlice(v, n=0, m=m) for m, v in enumerate(bad)))
    with pytest.raises(SolveFailure, match="m=2 at step n=1"):
        step_slice(poisoned, 2, 1, ops)


def test_constant_growth_rate_no_l_dependence_gives_identical_slices():
    # with zero growth and l-independent data, the internal index is inert
    mesh, basis, lgrid, tgrid = small_setup(M=5, N=3)
    spec = make_spec(
        G=lambda l: np.zeros_like(np.asarray(l, dtype=float)),
        f=lambda t, l, x, y: np.exp(-t) * sines(x, y),
        z_init=lambda l, x, y: sines(x, y),
        z_init_grad=lambda l, x, y: sines_grad(x, y),
        z_bdry=lambda t, x, y: sines(x, y),
        z_bdry_grad=lambda t, x, y: sines_grad(x, y),
    )
    surface = run_sequential(spec, mesh, basis, lgrid, tgrid)
    ref = surface.slices[1].values
    for m in range(2, lgrid.M + 1):
        np.testing.assert_array_equal(surface.slices[m].values, ref)


def test_zero_growth_decouples_to_single_slice_run():
    mesh, basis, lgrid, tgrid = small_setup(M=4, N=3)

    def spec_with_inflow(l0):
        # inflow data matched to z_init at the grid's own left endpoint
        return make_spec(
            G=lambda l: np.zeros_like(np.asarray(l, dtype=float)),
            f=lambda t, l, x, y: np.exp(-t) * (1.0 + l) * sines(x, y),
            z_init=lambda l, x, y: (1.0 + l) * sines(x, y),
            z_init_grad=lambda l, x, y: tuple((1.0 + l) * g for g in sines_grad(x, y)),
            z_bdry=lambda t, x, y: (1.0 + l0) * sines(x, y),
            z_bdry_grad=lambda t, x, y: tuple((1.0 + l0) * g for g in sines_grad(x, y)),
        )

    full = run_sequential(spec_with_inflow(0.0), mesh, basis, lgrid, tgrid)
    m = 2
    l_m = float(lgrid.nodes[m])
    narrow = LGrid(l_m - lgrid.iota, l_m, 1)
    single = run_sequential(spec_with_inflow(l_m - lgrid.iota), mesh, basis, narrow, tgrid)
    assert np.abs(full.slices[m].values - single.slices[1].values).max() <= 1e-13


def test_run_sequential_rejects_cfl_violation(mms):
    mesh, basis, _, _ = small_setup()
    lgrid = LGrid(0.0, 1.0, 1000)  # iota = 1e-3 while tau = 0.25
    with pytest.raises(CflViolationError):
        run_sequential(mms, mesh, basis, lgrid, TimeGrid(1.0, 4))


def test_error_decreases_under_joint_refinement(mms):
    from pbemoc.harness import run_single

    e_coarse = run_single(mms, 0.25, 1.0 / 16, 1.0 / 16, order=1)
    e_fine = run_single(mms, 0.125, 1.0 / 64, 1.0 / 64, order=1)
    assert e_fine[0] < e_coarse[0]
    assert e_fine[1] < e_coarse[1]


def test_run_sequential_bitwise_deterministic(mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=4, N=4)
    a = run_sequential(mms, mesh, basis, lgrid, tgrid)
    b = run_sequential(mms, mesh, basis, lgrid, tgrid)
    assert a.as_matrix().tobytes() == b.as_matrix().tobytes()


@pytest.mark.parametrize("workers", [None, 2])
def test_source_and_inflow_see_the_same_step_time(mms, workers, tmp_path):
    # 49 * (1/49) != 1.0 in floating point, so n*tau and a linspace time grid
    # part at n = N; both fields of a level must be taken at one time.  The
    # times go through a file because pipeline workers are separate processes.
    log = tmp_path / "times.txt"

    def record(field, t):
        with open(log, "a") as fh:  # one short appended line per call
            fh.write(f"{field} {float(t)!r}\n")

    def f(t, l, x, y):
        record("f", t)
        return mms.f(t, l, x, y)

    def z_bdry(t, x, y):
        record("inflow", t)
        return mms.z_bdry(t, x, y)

    spec = make_spec(
        G=mms.G, f=f, z_init=mms.z_init, z_init_grad=mms.z_init_grad,
        z_bdry=z_bdry, z_bdry_grad=mms.z_bdry_grad,
    )
    mesh, basis, lgrid, tgrid = small_setup(M=4, N=49)
    if workers is None:
        run_sequential(spec, mesh, basis, lgrid, tgrid)
    else:
        run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
    f_times, inflow_times = set(), set()
    for line in log.read_text().splitlines():
        field, t = line.split()
        (f_times if field == "f" else inflow_times).add(float(t))
    assert len(f_times) == tgrid.N
    assert inflow_times - {0.0} == f_times


def test_boundary_dofs_exactly_zero_and_slice_zero_is_inflow(mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=4, N=4)
    surface = run_sequential(mms, mesh, basis, lgrid, tgrid)
    for s in surface.slices:
        assert np.abs(s.values[mesh.boundary_mask]).max() == 0.0
    ref = boundary_slice(tgrid.N, tgrid, mesh, basis, mms, projection_ops(mesh, basis, mms, lgrid))
    np.testing.assert_array_equal(surface.slices[0].values, ref.values)


def test_scheme_linear_in_data(mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=4, N=4)
    base = run_sequential(mms, mesh, basis, lgrid, tgrid)

    scaled_spec = ProblemSpec(
        epsilon=mms.epsilon,
        b=mms.b,
        G=mms.G,
        f=lambda t, l, x, y: 2.0 * mms.f(t, l, x, y),
        z_init=lambda l, x, y: 2.0 * mms.z_init(l, x, y),
        z_init_grad=lambda l, x, y: tuple(2.0 * g for g in mms.z_init_grad(l, x, y)),
        z_bdry=lambda t, x, y: 2.0 * mms.z_bdry(t, x, y),
        z_bdry_grad=lambda t, x, y: tuple(2.0 * g for g in mms.z_bdry_grad(t, x, y)),
    )
    scaled = run_sequential(scaled_spec, mesh, basis, lgrid, tgrid)
    np.testing.assert_allclose(
        scaled.as_matrix(), 2.0 * base.as_matrix(), rtol=1e-12, atol=1e-14
    )


def test_snapshot_bytes_are_the_per_value_format(tmp_path):
    values = np.random.default_rng(2).normal(size=(3, 7)) * 10.0 ** np.arange(-150, 160, 15)[:7]
    values[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    surface = SolutionSurface(4, tuple(FieldSlice(row, n=4, m=m) for m, row in enumerate(values)))
    path = tmp_path / "surface.txt"
    write_snapshot(surface, path)
    want = "".join(f"{m} {i} {v:.16E}\n" for m, row in enumerate(values) for i, v in enumerate(row))
    assert path.read_bytes() == want.encode()


def test_snapshot_export(tmp_path, mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.5, M=2, N=2)
    surface = run_sequential(
        mms, mesh, basis, lgrid, tgrid, snapshot_steps=(0, 2), snapshot_dir=tmp_path
    )
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["surface_n00000.txt", "surface_n00002.txt"]
    lines = (tmp_path / "surface_n00002.txt").read_text().strip().splitlines()
    assert len(lines) == (lgrid.M + 1) * mesh.num_nodes
    m, idx, value = lines[-1].split()
    assert int(m) == lgrid.M
    assert int(idx) == mesh.num_nodes - 1
    assert float(value) == surface.slices[-1].values[-1]


def test_snapshot_export_creates_its_directory(tmp_path, mms):
    mesh, basis, lgrid, tgrid = small_setup(h=0.5, M=2, N=2)
    out = tmp_path / "a" / "b"
    run_sequential(mms, mesh, basis, lgrid, tgrid, snapshot_steps=(1,), snapshot_dir=out)
    assert [p.name for p in out.iterdir()] == ["surface_n00001.txt"]


def test_snapshot_steps_outside_the_time_grid_are_rejected_before_any_assembly(tmp_path, mms, monkeypatch):
    mesh, basis, lgrid, tgrid = small_setup(h=0.5, M=4, N=4)
    assembled = []
    monkeypatch.setattr(stepper, "_run_operators", lambda *args: assembled.append(args))
    out = tmp_path / "snapshots"
    with pytest.raises(ValueError, match=re.escape("snapshot steps [-1, 7] lie outside 0..4")):
        run_sequential(mms, mesh, basis, lgrid, tgrid, snapshot_steps=(0, 4, 7, -1), snapshot_dir=out)
    assert assembled == [] and not out.exists()


# ---------------------------------------------------------------------------
# the free unknowns: a run steps only the non-Dirichlet DOFs


def eliminated_reference_factor(matrix):
    """SuperLU on an all-DOF matrix with the direct solver's options: the
    symmetric-mode minimum-degree factor, or the default factor when a pivot
    leaves the diagonal.  Returns the factor and whether it fell back."""
    A = sp.csc_matrix(matrix)
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    if np.array_equal(lu.perm_r, lu.perm_c):
        return lu, False
    return spla.splu(A), True


# (order, h, epsilon, b, tau, fallback): the benchmark problem on three P1 and
# three P2 meshes, and a convection-dominated system whose factor falls back
# to the default ordering
FREE_SOLVE_CASES = [
    *[(1, h, None, None, 1.0 / 64, False) for h in (1 / 8, 1 / 16, 1 / 32)],
    *[(2, h, None, None, 2.0**-9, False) for h in (1 / 4, 1 / 8, 1 / 16)],
    (2, 1 / 16, 1e-3, (100.0, 60.0), 1.0, True),
]


@pytest.mark.parametrize(
    "order, h, epsilon, b, tau, fallback",
    FREE_SOLVE_CASES,
    ids=[f"p{c[0]}-h{round(1 / c[1])}" + ("-fallback" if c[5] else "") for c in FREE_SOLVE_CASES],
)
def test_free_step_solve_is_bitwise_the_eliminated_system_solve(mms, order, h, epsilon, b, tau, fallback):
    # the step factor is taken on the free block of the eliminated system; on
    # the free rows it must give the bytes of SuperLU on the whole eliminated
    # system, for a panel of PANEL columns and for a single column, which the
    # solver pads to a panel
    mesh = build_structured_mesh(mms.domain, h, order)
    basis = reference_basis(order)
    spec = mms if epsilon is None else make_spec(epsilon=epsilon, b=b, G=lambda l: 0.25 + 0.0 * l)
    lgrid = mms.lgrid(64) if epsilon is None else LGrid(0.0, 1.0, 4)
    ops = precompute_operators(mesh, basis, spec, tau, lgrid)

    # the projector, factored on the free block of the unit stiffness, gives
    # the free entries of a solve on the eliminated unit stiffness
    unit, unit_fell_back = eliminated_reference_factor(
        fem.apply_dirichlet(fem.assemble_stiffness(mesh, basis), mesh.boundary_mask)
    )
    assert not unit_fell_back
    for l_m in (0.25, 0.5):
        grad = lambda x, y: mms.z_init_grad(l_m, x, y)
        want = unit.solve(np.where(mesh.boundary_mask, 0.0, ops.load.assemble_gradient(grad)))
        got = ops.projector.project(lambda x, y: mms.z_init(l_m, x, y), grad)
        assert got.tobytes() == want[ops.free].tobytes()

    lu, fell_back = eliminated_reference_factor(fem.apply_dirichlet(ops.system, mesh.boundary_mask))
    assert fell_back == fallback
    free, boundary = ops.free, ops.boundary_idx
    rows = zero_boundary_level(mesh, PANEL, order)
    single = np.zeros_like(rows)
    single[0] = rows[0]
    for panel, got_rows in ((rows, ops.solve_system(rows)), (single, ops.solve_system(rows[0])[None, :])):
        want = lu.solve(np.asfortranarray(panel.T)).T[: len(got_rows)]
        assert not want[:, boundary].any()
        assert got_rows[:, free].tobytes() == want[:, free].tobytes()
        assert_zero_boundary(got_rows, boundary)
    # free-DOF rows, as the kernel passes them, get the same bytes
    assert ops.solve_system(rows[:, free]).tobytes() == ops.solve_system(rows)[:, free].tobytes()
    assert ops.solve_system(rows[0, free]).tobytes() == ops.solve_system(rows[0])[free].tobytes()


@pytest.mark.parametrize("config", [None, SolverConfig("iterative")], ids=["direct", "iterative"])
def test_no_run_builds_an_eliminated_matrix(mms, monkeypatch, config):
    # the projector and the step factor take the free blocks of the all-DOF
    # matrices, so neither driver calls apply_dirichlet, and the bytes stay
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8, N=8)
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid, config).as_matrix()
    pipe = run_pipeline(mms, mesh, basis, lgrid, tgrid, 2, config).surface.as_matrix()

    def eliminate(*args):
        raise AssertionError("apply_dirichlet was called")

    for module in (fem, stepper):
        monkeypatch.setattr(module, "apply_dirichlet", eliminate)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid, config)
    assert ops.projector.matrix.shape == (ops.free.size,) * 2
    assert run_sequential(mms, mesh, basis, lgrid, tgrid, config).as_matrix().tobytes() == seq.tobytes()
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 2, config)
    assert run.surface.as_matrix().tobytes() == pipe.tobytes()


def test_solve_system_rejects_rows_of_another_width(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    with pytest.raises(ValueError, match=f"expected {ops.free.size} free DOFs or {mesh.num_nodes} DOFs"):
        ops.solve_system(np.zeros((2, mesh.num_nodes + 1)))


SHIFTED = Rectangle(-0.5, 1.5, 0.25, 1.25)  # 2 wide, 1 high, off the origin


def shifted_angles(x, y):
    return np.pi * (x - SHIFTED.x0) / SHIFTED.width, np.pi * (y - SHIFTED.y0) / SHIFTED.height


def shifted_bump(x, y):
    """A field on SHIFTED that vanishes on its boundary."""
    ax, ay = shifted_angles(x, y)
    return np.sin(ax) * np.sin(ay)


def shifted_bump_grad(x, y):
    ax, ay = shifted_angles(x, y)
    return (
        np.pi / SHIFTED.width * np.cos(ax) * np.sin(ay),
        np.pi / SHIFTED.height * np.sin(ax) * np.cos(ay),
    )


def untested_inputs_spec(l_min):
    """A plain (not separable) source, an inflow that changes with time and
    vanishes on the spatial boundary, and initial data that equal it at
    t = 0, l = l_min."""
    def amplitude(t):
        return 1.0 + np.sin(3.0 * t)

    def growth(l):
        return np.asarray(0.5 + 0.25 * (l - l_min), dtype=float)

    return make_spec(
        epsilon=0.5,
        b=(0.75, -0.5),
        G=growth,
        f=lambda t, l, x, y: (1.0 + t) * (2.0 - l) * shifted_bump(x, y) + 0.25 * np.cos(x * y + t),
        z_init=lambda l, x, y: (1.0 + 2.0 * (l - l_min)) * shifted_bump(x, y),
        z_init_grad=lambda l, x, y: tuple((1.0 + 2.0 * (l - l_min)) * g for g in shifted_bump_grad(x, y)),
        z_bdry=lambda t, x, y: amplitude(t) * shifted_bump(x, y),
        z_bdry_grad=lambda t, x, y: tuple(amplitude(t) * g for g in shifted_bump_grad(x, y)),
    )


@pytest.mark.parametrize("order", [1, 2])
def test_untested_inputs_keep_the_drivers_and_the_per_slice_api_bitwise_equal(order, tmp_path):
    # the inputs no benchmark workload has: a plain source, whose load is
    # assembled per slice and taken on the free rows; a time-dependent nonzero
    # inflow, whose projection gives the free DOFs of the inflow slice at
    # every level; a non-unit domain; and an internal interval other than [0, 1]
    l_min = 0.5
    mesh = build_structured_mesh(SHIFTED, 0.25, order)
    basis = reference_basis(order)
    lgrid, tgrid = LGrid(l_min, 2.0, 6), TimeGrid(1.0, 8)
    spec = untested_inputs_spec(l_min)
    assert not isinstance(spec.f, SeparableSource)
    boundary = mesh.boundary_mask

    N = tgrid.N
    seq = run_sequential(spec, mesh, basis, lgrid, tgrid, snapshot_steps=(0, N - 1, N), snapshot_dir=tmp_path)
    surface = seq.as_matrix()
    assert np.isfinite(surface).all() and np.abs(surface).max() > 0.1
    assert_zero_boundary(surface, boundary)
    snapshots = {n: read_level(tmp_path / f"surface_n{n:05d}.txt", surface.shape) for n in (0, N - 1, N)}
    for level in snapshots.values():
        assert_zero_boundary(level, boundary)
    assert snapshots[N].tobytes() == surface.tobytes()

    # the last level against the per-slice oracle and the inflow projection at t = N tau
    ops = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid)
    assert surface[1:, ops.free].tobytes() == per_slice_level(ops, N, snapshots[N - 1]).tobytes()
    inflow_n = ops.projector.project(
        lambda x, y: spec.z_bdry(N * tgrid.tau, x, y), lambda x, y: spec.z_bdry_grad(N * tgrid.tau, x, y)
    )
    assert surface[0, ops.free].tobytes() == inflow_n.tobytes()

    for P in (1, 2, 3):
        run = run_pipeline(spec, mesh, basis, lgrid, tgrid, P)
        assert run.surface.as_matrix().tobytes() == surface.tobytes(), P
        assert run.messages_sent == (P - 1) * N

    # the per-slice API, slice by slice, gets the kernel's bytes at every level
    level = initialize(mesh, basis, spec, lgrid, ops)
    assert_zero_boundary(level.as_matrix(), boundary)
    inflow = []
    for n in range(1, N + 1):
        slices = [boundary_slice(n, tgrid, mesh, basis, spec, ops)]
        slices += [step_slice(level, m, n, ops) for m in range(1, lgrid.M + 1)]
        level = SolutionSurface(n, tuple(slices))
        assert_zero_boundary(level.as_matrix(), boundary)
        inflow.append(slices[0].values)
    assert level.as_matrix().tobytes() == surface.tobytes()
    assert not np.array_equal(inflow[0], inflow[-1])  # the inflow does change with time


# ---------------------------------------------------------------------------
# the stability gate: the per-node foot check of foot_weights


def test_check_cfl_is_never_reached_by_a_run_or_a_study(mms, monkeypatch):
    # check_cfl is a report; the runs and the study pre-check gate on the nodes
    import pbemoc
    from pbemoc import characteristics, harness, pipeline
    from pbemoc.harness import convergence_study

    def sampled_gate(*args):
        raise AssertionError("check_cfl was called")

    for module in (pbemoc, characteristics, stepper, pipeline, harness):
        monkeypatch.setattr(module, "check_cfl", sampled_gate, raising=False)
    mesh, basis, lgrid, tgrid = small_setup(h=0.5, M=4, N=4)
    precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    surface = run_sequential(mms, mesh, basis, lgrid, tgrid).as_matrix()
    assert run_pipeline(mms, mesh, basis, lgrid, tgrid, 2).surface.as_matrix().tobytes() == surface.tobytes()
    assert len(convergence_study((0.5,), coupling="equal", problem=mms)) == 1


@pytest.mark.parametrize(
    "G, message",
    [(lambda l: 1.0, "slice m=1 falls below"), (lambda l: np.where(l > 0.6, -1.0, 0.5), "slice m=3 lies right")],
    ids=["too fast", "negative"],
)
def test_a_node_violation_raises_before_any_assembly(monkeypatch, G, message):
    mesh, basis, _, _ = small_setup()
    lgrid, tgrid = LGrid(0.0, 1.0, 4), TimeGrid(2.0, 4)  # tau = 2 iota
    spec = make_spec(G=G)
    assembled = []
    monkeypatch.setattr(stepper, "_run_operators", lambda *args: assembled.append(args))
    runs = {
        "operators": lambda: precompute_operators(mesh, basis, spec, tgrid.tau, lgrid),
        "sequential": lambda: run_sequential(spec, mesh, basis, lgrid, tgrid),
        "pipeline": lambda: run_pipeline(spec, mesh, basis, lgrid, tgrid, 2),
    }
    for name, run in runs.items():
        with pytest.raises(CflViolationError, match=message):
            run()
        assert assembled == [], name


def test_a_mesh_with_no_free_dof_raises_before_any_assembly(mms, monkeypatch):
    # P1 with h = 1 has its 4 nodes on the boundary: nothing is left to solve
    mesh = build_structured_mesh(UNIT_SQUARE, 1.0, 1)
    lgrid, tgrid = LGrid(0.0, 1.0, 4), TimeGrid(1.0, 4)
    assert mesh.num_nodes == 4 and mesh.boundary_mask.all()
    assembled = []
    monkeypatch.setattr(stepper, "_run_operators", lambda *args: assembled.append(args))
    message = "the order-1 mesh of h=1 has no free DOF: all 4 nodes lie on the boundary"
    for run in (
        lambda: precompute_operators(mesh, P1, mms, tgrid.tau, lgrid),
        lambda: run_sequential(mms, mesh, P1, lgrid, tgrid),
        lambda: run_pipeline(mms, mesh, P1, lgrid, tgrid, 2),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()
    assert assembled == []
    # P2 with h = 1 keeps its one free DOF, the midpoint of the diagonal, and runs
    monkeypatch.undo()
    mesh, basis = build_structured_mesh(UNIT_SQUARE, 1.0, 2), reference_basis(2)
    assert np.count_nonzero(~mesh.boundary_mask) == 1
    surface = run_sequential(mms, mesh, basis, lgrid, tgrid).as_matrix()
    assert np.isfinite(surface).all() and np.abs(surface).max() > 0.0
    assert run_pipeline(mms, mesh, basis, lgrid, tgrid, 2).surface.as_matrix().tobytes() == surface.tobytes()


def test_growth_peaking_between_nodes_runs_in_both_drivers(mms):
    # G is 1 at the nodes, where the scheme samples it, and 3 between them
    from pbemoc.characteristics import check_cfl

    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=6, N=6)  # tau = iota
    spec = dataclasses.replace(mms, G=lambda l: 1.0 + 2.0 * np.sin(np.pi * lgrid.M * l) ** 2)
    assert tgrid.tau == lgrid.iota and np.all(spec.G(lgrid.nodes) == 1.0)
    assert check_cfl(tgrid.tau, lgrid, spec.G).ratio > 2.9
    surface = run_sequential(spec, mesh, basis, lgrid, tgrid).as_matrix()
    assert np.isfinite(surface).all() and np.abs(surface).max() > 0.1
    for P in (1, 2, 3):
        assert run_pipeline(spec, mesh, basis, lgrid, tgrid, P).surface.as_matrix().tobytes() == surface.tobytes(), P


@pytest.mark.parametrize("lgrid", [LGrid(0.0, 1.0, 8), LGrid(0.0, 1000.0, 97), LGrid(1000.0, 2000.0, 96)], ids=str)
def test_runs_at_the_exact_bound_complete_away_from_zero(lgrid):
    # G = 1 and tau = iota: the feet are the left nodes up to rounding, which
    # on [0, 1000] and [1000, 2000] is an ulp of the nodes, above 1e-14
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    tgrid = TimeGrid(2.0 * lgrid.iota, 2)
    assert tgrid.tau == lgrid.iota
    spec = make_spec(G=lambda l: 1.0, f=lambda t, l, x, y: sines(x, y))
    surface = run_sequential(spec, mesh, P1, lgrid, tgrid).as_matrix()
    assert np.isfinite(surface).all() and np.abs(surface).max() > 0.0
    assert run_pipeline(spec, mesh, P1, lgrid, tgrid, 2).surface.as_matrix().tobytes() == surface.tobytes()


@pytest.mark.parametrize("S", [1e5, 1e10])
def test_large_data_that_vanishes_on_the_boundary_to_rounding_is_projected(mms, S):
    # the data's trace is S times a rounding error of sin(pi), above TRACE_TOL
    mesh, basis, lgrid, tgrid = small_setup(h=0.25, M=4, N=4)
    x, y = mesh.nodes[mesh.boundary_mask].T
    assert np.abs(S * mms.z_init(0.5, x, y)).max() > fem.TRACE_TOL
    f = mms.f
    scaled = dataclasses.replace(
        mms,
        f=SeparableSource(lambda t: S * f.time_factor(t), f.l_factors, f.fields),
        z_init=lambda l, x, y: S * mms.z_init(l, x, y),
        z_init_grad=lambda l, x, y: tuple(S * g for g in mms.z_init_grad(l, x, y)),
    )
    base = run_sequential(mms, mesh, basis, lgrid, tgrid).as_matrix()
    got = run_sequential(scaled, mesh, basis, lgrid, tgrid).as_matrix()
    assert np.abs(got - S * base).max() <= 1e-12 * S * np.abs(base).max()
    # a trace of 1 on such data, or NaN, is still rejected as before
    projector = projection_ops(mesh, basis, scaled, lgrid).projector
    grad = lambda x, y: scaled.z_init_grad(0.5, x, y)
    for bad in (1.0, np.nan):
        message = f"projected data must vanish on the boundary; found trace {bad:.3e}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            projector.project(lambda x, y: scaled.z_init(0.5, x, y) + bad, grad)
