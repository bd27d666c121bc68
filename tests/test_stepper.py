import dataclasses

import numpy as np
import pytest

from pbemoc import stepper
from pbemoc.characteristics import CflViolationError, LGrid, TimeGrid
from pbemoc.fem import PANEL, FieldSlice, SolveFailure, SolverConfig
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, quadrature_rule, reference_basis
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
        T=1.0,
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
    with pytest.raises(ValueError, match="positive"):
        make_spec(T=-1.0)


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
    # row must have the bytes of its own projection with a scalar l
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
    assert initialize(mesh, basis, spec, lgrid, ops).as_matrix().tobytes() == expected
    rows = stepper._initial_rows(projector, spec, lgrid, range(lgrid.M + 1))
    assert rows.tobytes() == expected
    for P in (2, 3):
        blocks = partition(lgrid.M, P).blocks
        rows = np.concatenate([stepper._initial_rows(projector, spec, lgrid, b) for b in blocks])
        assert rows.tobytes() == expected


def test_initial_data_of_a_wrong_shape_names_the_contract():
    # (q, k) values instead of (k, q): the error names the expected shapes
    mesh, basis, lgrid, tgrid = small_setup(h=0.125, M=8)
    spec = make_spec(z_init_grad=lambda l, x, y: (np.outer(x, l), np.outer(y, l)))
    with pytest.raises(ValueError, match=r"must have shape \(k, q\) or \(q,\)"):
        run_sequential(spec, mesh, basis, lgrid, tgrid)


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
    with pytest.raises(ValueError) as alone:
        projector.project(lambda x, y: z_init(l_bad, x, y), lambda x, y: zero_pair(x, y))
    calls.clear()
    if workers is None:
        with pytest.raises(ValueError) as err:
            run_sequential(spec, mesh, basis, lgrid, tgrid)
        assert str(err.value) == str(alone.value)
        # the failing slice was evaluated together with slices on both sides
        group = next(c for c in calls if l_bad in c)
        assert 0 < list(group).index(l_bad) < len(group) - 1
    else:
        # partition(8, 2): worker 1 owns slices 5..8
        with pytest.raises(PipelineError) as err:
            run_pipeline(spec, mesh, basis, lgrid, tgrid, workers)
        assert (err.value.worker, err.value.step) == (1, 0)
        assert "worker 1 failed at step 0" in str(err.value)
        assert isinstance(err.value.cause, ValueError)
        assert str(err.value.cause) == str(alone.value)


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
    """Level n rows 1..M by the per-slice oracle, from the level-(n-1) rows."""
    return np.stack([
        oracles.advance_slice_reference(ops, n, m, prev[m - 1], prev[m])
        for m in range(1, prev.shape[0])
    ])


def with_plain_source(problem):
    """A copy of problem whose source is a plain callable with the same values."""
    return dataclasses.replace(problem, f=lambda t, l, x, y: problem.f(t, l, x, y))


@pytest.mark.parametrize("order", [1, 2])
def test_advance_block_matches_per_slice_oracle_bitwise(mms, order):
    # the separable load path and the per-slice source path alike
    M, n = 12, 3
    mesh, basis, lgrid, tgrid = small_setup(M=M, N=M, order=order)
    prev = np.random.default_rng(order).normal(size=(M + 1, mesh.num_nodes))
    for problem in (mms, with_plain_source(mms)):
        ops = precompute_operators(mesh, basis, problem, tgrid.tau, lgrid)
        expected = per_slice_level(ops, n, prev)
        for m0 in (1, 2, 5, M):
            for k in range(1, M - m0 + 2):
                out = np.empty((k, mesh.num_nodes))
                advance_block(ops, n, prev[m0 - 1], prev[m0:m0 + k], m0, out)
                assert out.tobytes() == expected[m0 - 1:m0 - 1 + k].tobytes(), (m0, k)


@pytest.mark.parametrize("order", [1, 2])
def test_advance_block_across_chunks_matches_per_slice_oracle_bitwise(mms, order):
    # a level of several full chunks and a remainder chunk
    M, n = 1400, 2
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, order)
    lgrid = LGrid(0.0, 1.0, M)
    prev = np.random.default_rng(10 + order).normal(size=(M + 1, mesh.num_nodes))
    for problem in (mms, with_plain_source(mms)):
        ops = precompute_operators(mesh, reference_basis(order), problem, 0.5 / M, lgrid)
        assert M > PANEL and M % PANEL != 0
        expected = per_slice_level(ops, n, prev)
        for m0 in (1, 3):
            out = np.empty((M - m0 + 1, mesh.num_nodes))
            advance_block(ops, n, prev[m0 - 1], prev[m0:], m0, out)
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
    for n in (1, 4):
        t = n * tgrid.tau
        for m in range(1, lgrid.M + 1):
            pointwise = ops.load.assemble_values(
                source(t, float(lgrid.nodes[m]), ops.load.x, ops.load.y)
            )
            separated = sum(
                (source.time_factor(t) * a[m]) * field_load
                for a, field_load in zip(ops.source_factors, ops.source_loads)
            )
            assert np.abs(separated - pointwise).max() <= 1e-13 * np.abs(pointwise).max()
    # a step with the separated loads against one with the source evaluated per slice
    plain_ops = precompute_operators(mesh, basis, with_plain_source(spec), tgrid.tau, lgrid)
    assert plain_ops.source_loads is None
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
    monkeypatch.setattr(stepper, "precompute_operators", lambda *args: ops)
    out = run_sequential(mms, mesh, basis, lgrid, tgrid)
    # one block per chunk, the chunks' rows the level's slices, so each slice once
    assert blocks == [(PANEL, mesh.num_nodes), (lgrid.M - PANEL, mesh.num_nodes)] * tgrid.N
    assert sum(rows for rows, _ in blocks) == lgrid.M * tgrid.N
    # one SuperLU call per chunk, each exactly PANEL right-hand sides wide
    assert set(lu.shapes) == {(mesh.num_nodes, PANEL)}
    assert len(lu.shapes) == len(blocks) == tgrid.N * -(-lgrid.M // PANEL)
    monkeypatch.undo()
    plain = run_sequential(mms, mesh, basis, lgrid, tgrid)
    assert out.as_matrix().tobytes() == plain.as_matrix().tobytes()


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
    # a NaN source at (n, m) = (2, 3) poisons exactly that slice of level 2
    def f(t, l, x, y):
        values = mms.f(t, l, x, y)
        return np.full_like(values, np.nan) if (t, l) == (0.5, 0.75) else values

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
        T=mms.T,
    )
    scaled = run_sequential(scaled_spec, mesh, basis, lgrid, tgrid)
    np.testing.assert_allclose(
        scaled.as_matrix(), 2.0 * base.as_matrix(), rtol=1e-12, atol=1e-14
    )


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
