import numpy as np
import pytest

from pbemoc.characteristics import CflViolationError, LGrid, TimeGrid
from pbemoc.fem import FieldSlice, SolveFailure, SolverConfig
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, quadrature_rule, reference_basis
from pbemoc.pipeline import PipelineError, run_pipeline
from pbemoc.stepper import (
    ProblemSpec,
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
    surface = initialize(mesh, basis, make_spec(), lgrid)
    assert surface.n == 0
    assert len(surface.slices) == lgrid.M + 1
    assert np.abs(surface.as_matrix()).max() == 0.0


def test_initialize_separable_data_scales_projection():
    mesh, basis, lgrid, _ = small_setup(M=4)
    spec = make_spec(
        z_init=lambda l, x, y: np.sin(np.pi * l) * sines(x, y),
        z_init_grad=lambda l, x, y: tuple(np.sin(np.pi * l) * g for g in sines_grad(x, y)),
    )
    surface = initialize(mesh, basis, spec, lgrid)
    base = surface.slices[2].values  # l = 0.5, factor sin(pi/2) = 1
    for m in (1, 3):
        factor = np.sin(np.pi * lgrid.nodes[m])
        np.testing.assert_allclose(surface.slices[m].values, factor * base, atol=1e-13)


def test_initialize_mms_matches_dense_oracle(mms):
    mesh = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    lgrid = LGrid(0.0, 1.0, 2)  # node 1 sits at l = 1/2
    surface = initialize(mesh, P1, mms, lgrid)
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
        initialize(mesh, basis, spec, lgrid)


def test_initialize_rejects_nan_inflow_at_t0():
    # NaN compares false against the tolerance, so the check must not read `gap > tol`
    def z_bdry(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), np.nan) if t == 0.0 else zeros(x, y)

    spec = make_spec(z_bdry=z_bdry)
    mesh, basis, lgrid, _ = small_setup()
    with pytest.raises(ValueError, match="disagree"):
        initialize(mesh, basis, spec, lgrid)


def test_boundary_slice_zero_for_mms(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    for n in (0, 2, 4):
        s = boundary_slice(n, tgrid, mesh, basis, mms)
        assert np.abs(s.values).max() == 0.0


def test_boundary_slice_exponential_scaling():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec(
        z_init=lambda l, x, y: sines(x, y),
        z_init_grad=lambda l, x, y: sines_grad(x, y),
        z_bdry=lambda t, x, y: np.exp(-t) * sines(x, y),
        z_bdry_grad=lambda t, x, y: tuple(np.exp(-t) * g for g in sines_grad(x, y)),
    )
    s0 = boundary_slice(0, tgrid, mesh, basis, spec)
    for n in (1, 3):
        sn = boundary_slice(n, tgrid, mesh, basis, spec)
        np.testing.assert_allclose(
            sn.values, np.exp(-tgrid.times[n]) * s0.values, rtol=1e-12, atol=1e-15
        )


def test_boundary_slice_at_zero_matches_initialize():
    mesh, basis, lgrid, tgrid = small_setup()
    spec = make_spec(
        z_init=lambda l, x, y: sines(x, y),
        z_init_grad=lambda l, x, y: sines_grad(x, y),
        z_bdry=lambda t, x, y: sines(x, y),
        z_bdry_grad=lambda t, x, y: sines_grad(x, y),
    )
    surface = initialize(mesh, basis, spec, lgrid)
    s0 = boundary_slice(0, tgrid, mesh, basis, spec)
    np.testing.assert_array_equal(s0.values, surface.slices[0].values)


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


@pytest.mark.parametrize("order", [1, 2])
def test_advance_block_matches_per_slice_oracle_bitwise(mms, order):
    M, n = 12, 3
    mesh, basis, lgrid, tgrid = small_setup(M=M, N=M, order=order)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    prev = np.random.default_rng(order).normal(size=(M + 1, mesh.num_nodes))
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
    ops = precompute_operators(mesh, reference_basis(order), mms, 0.5 / M, lgrid)
    rows = ops._workspace().rows
    assert M > rows and M % rows != 0
    prev = np.random.default_rng(10 + order).normal(size=(M + 1, mesh.num_nodes))
    expected = per_slice_level(ops, n, prev)
    for m0 in (1, 3):
        out = np.empty((M - m0 + 1, mesh.num_nodes))
        advance_block(ops, n, prev[m0 - 1], prev[m0:], m0, out)
        assert out.tobytes() == expected[m0 - 1:].tobytes()


def test_advance_block_empty_block_is_a_no_op(mms):
    mesh, basis, lgrid, tgrid = small_setup()
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    out = np.empty((0, mesh.num_nodes))
    advance_block(ops, 1, np.zeros(mesh.num_nodes), out.copy(), lgrid.M + 1, out)


def test_run_sequential_solves_once_per_slice(mms):
    mesh, basis, lgrid, tgrid = small_setup(M=5, N=6)
    ops = precompute_operators(mesh, basis, mms, tgrid.tau, lgrid)
    solve, calls = ops.solve_system, []

    def counting(rhs):
        calls.append(rhs.shape)
        return solve(rhs)

    ops.solve_system = counting
    out = run_sequential(mms, mesh, basis, lgrid, tgrid, operators=ops)
    assert len(calls) == lgrid.M * tgrid.N
    assert set(calls) == {(mesh.num_nodes,)}  # one right-hand side per call
    plain = run_sequential(mms, mesh, basis, lgrid, tgrid)
    assert out.as_matrix().tobytes() == plain.as_matrix().tobytes()


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
        assert (err.value.worker, err.value.step) == (0, tgrid.N)
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


def test_run_sequential_n_zero_returns_initialization(mms):
    mesh, basis, lgrid, _ = small_setup(M=3)
    tgrid = TimeGrid(1.0, 0)
    out = run_sequential(mms, mesh, basis, lgrid, tgrid)
    init = initialize(mesh, basis, mms, lgrid)
    assert out.as_matrix().tobytes() == init.as_matrix().tobytes()


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
    ref = boundary_slice(tgrid.N, tgrid, mesh, basis, mms)
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
