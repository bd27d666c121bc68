import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pbemoc import fem
from pbemoc.fem import (
    ErrorEvaluator,
    FieldSlice,
    GradientLoadAssembler,
    LoadAssembler,
    RitzProjector,
    SolveFailure,
    SolverConfig,
    apply_dirichlet,
    assemble_convection,
    assemble_mass,
    assemble_stiffness,
    make_solver,
)
from pbemoc.mesh import Rectangle, SpatialMesh, UNIT_SQUARE, build_structured_mesh, quadrature_rule, reference_basis

import oracles


def single_element_mesh(vertices, h=1.0):
    """Mesh consisting of one P1 triangle, for local-matrix checks."""
    nodes = np.asarray(vertices, dtype=float)
    return SpatialMesh(
        domain=Rectangle(nodes[:, 0].min(), nodes[:, 0].max() or 1.0,
                         nodes[:, 1].min(), nodes[:, 1].max() or 1.0),
        h=h,
        order=1,
        nodes=nodes,
        elements=np.array([[0, 1, 2]]),
        boundary_mask=np.ones(3, dtype=bool),
        num_vertices=3,
    )


P1 = reference_basis(1)


# ---------------------------------------------------------------------------
# quadrature data


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_quad_data_maps_are_bitwise_the_einsum_formulas(order, degree):
    # the written-out affine maps must give what the generic einsum gives
    mesh = build_structured_mesh(Rectangle(-0.5, 1.5, 0.25, 1.0), 0.25, order)
    qd = fem._QuadData(mesh, reference_basis(order), degree)
    ref = quadrature_rule(degree).xy
    verts = mesh.vertex_coords
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
    inv_t = np.stack([jac[:, 1, 1], -jac[:, 1, 0], -jac[:, 0, 1], jac[:, 0, 0]], axis=-1).reshape(-1, 2, 2)
    inv_t /= (jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])[:, None, None]
    grads = np.einsum("eab,lqb->elqa", inv_t, reference_basis(order).gradients(ref))
    x = verts[:, 0, 0][:, None] + np.einsum("eb,qb->eq", jac[:, 0, :], ref)
    y = verts[:, 0, 1][:, None] + np.einsum("eb,qb->eq", jac[:, 1, :], ref)
    assert qd.grads.tobytes() == grads.tobytes()
    assert qd.x.tobytes() == x.tobytes()
    assert qd.y.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_one_quadrature_per_degree_in_one_run_preamble(mms, order, monkeypatch):
    from pbemoc.characteristics import LGrid
    from pbemoc.stepper import precompute_operators

    degrees = []

    class Spy(fem._QuadData):
        def __init__(self, mesh, basis, degree):
            degrees.append(degree)
            super().__init__(mesh, basis, degree)

    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, order)
    basis = reference_basis(order)
    monkeypatch.setattr(fem, "_QuadData", Spy)
    ops = precompute_operators(mesh, basis, mms, 0.25, LGrid(0.0, 1.0, 4))
    assert sorted(degrees) == [2 * order, 2 * order + 2]
    monkeypatch.undo()
    # the shared quadrature gives the bytes of the public assemblers
    unit = apply_dirichlet(assemble_stiffness(mesh, basis, 1.0), mesh.boundary_mask)
    system = (
        assemble_mass(mesh, basis).multiply(1.0 / 0.25)
        + assemble_stiffness(mesh, basis, mms.epsilon)
        + assemble_convection(mesh, basis, mms.b)
    )
    for got, expected in ((ops.mass, assemble_mass(mesh, basis)), (ops.projector.matrix, unit), (ops.system, system)):
        got, expected = got.tocsr(), expected.tocsr()
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(expected, part).tobytes()


# ---------------------------------------------------------------------------
# mass


def test_local_mass_matrix_legs_h():
    h = 0.7
    mesh = single_element_mesh([(0, 0), (h, 0), (0, h)], h)
    got = assemble_mass(mesh, P1).toarray()

    # oracle: exact polynomial integration of phi_i phi_j over the triangle
    phis = oracles.p1_basis_on_legs_triangle(h)
    expected = np.array(
        [
            [oracles.poly_integral_legs_triangle(oracles.poly_mul(a, b), h) for b in phis]
            for a in phis
        ]
    )
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    np.testing.assert_allclose(
        got, h * h / 24.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), rtol=1e-14
    )


def test_mass_entries_sum_to_domain_area():
    for order in (1, 2):
        mesh = build_structured_mesh(UNIT_SQUARE, 0.25, order)
        M = assemble_mass(mesh, reference_basis(order))
        assert M.sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_symmetric_positive_definite():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    M = assemble_mass(mesh, P1).toarray()
    np.testing.assert_allclose(M, M.T, rtol=1e-14)
    np.linalg.cholesky(M)  # raises if not SPD


# ---------------------------------------------------------------------------
# stiffness


def test_local_stiffness_unit_right_triangle():
    mesh = single_element_mesh([(0, 0), (1, 0), (0, 1)])
    got = assemble_stiffness(mesh, P1, 1.0).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_stiffness_row_sums_zero_before_elimination():
    for order in (1, 2):
        mesh = build_structured_mesh(UNIT_SQUARE, 0.25, order)
        A = assemble_stiffness(mesh, reference_basis(order), 1.0)
        rows = np.asarray(A.sum(axis=1)).ravel()
        assert np.abs(rows).max() <= 1e-12


def test_stiffness_linear_in_epsilon():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    A1 = assemble_stiffness(mesh, P1, 1.0)
    A2 = assemble_stiffness(mesh, P1, 2.0)
    assert abs(A2 - 2.0 * A1).max() <= 1e-13


def test_stiffness_rejects_nonpositive_epsilon():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    with pytest.raises(ValueError, match="positive"):
        assemble_stiffness(mesh, P1, 0.0)


def test_stiffness_symmetric():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    A = assemble_stiffness(mesh, reference_basis(2), 1.0)
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()


# ---------------------------------------------------------------------------
# convection


def test_local_convection_unit_right_triangle():
    mesh = single_element_mesh([(0, 0), (1, 0), (0, 1)])
    got = assemble_convection(mesh, P1, (1.0, 1.0)).toarray()
    expected = np.array([[-2, 1, 1], [-2, 1, 1], [-2, 1, 1]]) / 6.0
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_convection_zero_velocity():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    B = assemble_convection(mesh, P1, (0.0, 0.0))
    assert abs(B).max() == 0.0


def test_convection_interior_block_skew_symmetric():
    # integration by parts with a divergence-free field and zero trace
    for order in (1, 2):
        mesh = build_structured_mesh(UNIT_SQUARE, 0.25, order)
        B = assemble_convection(mesh, reference_basis(order), (1.0, 1.0))
        interior = ~mesh.boundary_mask
        Bi = B.toarray()[np.ix_(interior, interior)]
        assert np.abs(Bi + Bi.T).max() <= 1e-13


# ---------------------------------------------------------------------------
# loads


def test_load_of_one_sums_to_area():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    F = LoadAssembler(mesh, P1).assemble(lambda x, y: np.ones_like(x))
    assert F.sum() == pytest.approx(1.0, abs=1e-13)


def test_load_interior_entry_h_half():
    # six incident triangles of area 1/8, each contributing area/3
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    F = LoadAssembler(mesh, P1).assemble(lambda x, y: np.ones_like(x))
    center = np.flatnonzero(~mesh.boundary_mask)[0]
    assert F[center] == pytest.approx(0.25, abs=1e-14)


def test_load_of_hat_function_equals_mass_column():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    M = assemble_mass(mesh, P1).toarray()
    i = np.flatnonzero(~mesh.boundary_mask)[3]
    hat = np.zeros(mesh.num_nodes)
    hat[i] = 1.0
    F = LoadAssembler(mesh, P1).assemble(lambda x, y: oracles.eval_fe(mesh, P1, hat, x, y))
    np.testing.assert_allclose(F, M[:, i], atol=1e-15)


# ---------------------------------------------------------------------------
# Dirichlet elimination and solve


def eliminate(matrix, rhs, mesh):
    """The zero-boundary system: the eliminated matrix and the rhs zeroed on the boundary."""
    return apply_dirichlet(matrix, mesh.boundary_mask), np.where(mesh.boundary_mask, 0.0, rhs)


def test_dirichlet_zero_boundary_rows():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    A = assemble_stiffness(mesh, P1)
    rhs = np.ones(mesh.num_nodes)
    Ae, re = eliminate(A, rhs, mesh)
    x = make_solver(Ae).solve(re)
    assert np.abs(x[mesh.boundary_mask]).max() == 0.0


def test_dirichlet_mass_identity():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    M = assemble_mass(mesh, P1)
    rng = np.random.default_rng(3)
    w = rng.normal(size=mesh.num_nodes)
    w[mesh.boundary_mask] = 0.0
    Me, re = eliminate(M, M @ w, mesh)
    np.testing.assert_allclose(make_solver(Me).solve(re), w, atol=1e-12)


def test_dirichlet_preserves_symmetry():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    M = assemble_mass(mesh, P1)
    Me = apply_dirichlet(M, mesh.boundary_mask)
    assert abs(Me - Me.T).max() <= 1e-14 * abs(Me).max()


def test_solve_identity_and_two_by_two():
    ident = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(make_solver(ident).solve(rhs), rhs)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(make_solver(A).solve(np.array([3.0, 3.0])), [1.0, 1.0], atol=1e-14)


def test_solve_matches_dense_oracle_h_quarter():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    A = assemble_stiffness(mesh, P1)
    rhs = LoadAssembler(mesh, P1).assemble(lambda x, y: x * y + 1.0)
    Ae, re = eliminate(A, rhs, mesh)
    got = make_solver(Ae).solve(re)

    rule = quadrature_rule(2 * P1.order + 2)
    Ad = oracles.dense_operator(mesh, quadrature_rule(2), "stiffness")
    rd = oracles.dense_load(mesh, rule, lambda x, y: x * y + 1.0)
    Ad, rd = oracles.dense_eliminate(Ad, rd, mesh.boundary_mask)
    expected = oracles.dense_solve(Ad, rd)
    assert np.abs(got - expected).max() <= 1e-10


def test_direct_solver_deterministic_bytes():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    A = assemble_stiffness(mesh, P1)
    rhs = LoadAssembler(mesh, P1).assemble(lambda x, y: np.sin(x) + y)
    Ae, re = eliminate(A, rhs, mesh)
    assert make_solver(Ae).solve(re).tobytes() == make_solver(Ae).solve(re).tobytes()


def lu_nnz(lu):
    return lu.L.nnz + lu.U.nnz


def test_direct_solver_keeps_the_default_factor_on_a_convection_dominated_system():
    # P2 h=1/16, eps=1e-3, b=(100, 60), tau=1: diagonal pivots after the
    # symmetric ordering would fill 56k -> 412k entries and lose two digits of
    # residual, so a pivot off the diagonal sends the factor back to the default
    mesh = build_structured_mesh(UNIT_SQUARE, 1.0 / 16, 2)
    basis = reference_basis(2)
    system = (
        assemble_mass(mesh, basis)
        + assemble_stiffness(mesh, basis, 1e-3)
        + assemble_convection(mesh, basis, (100.0, 60.0))
    )
    A = apply_dirichlet(system, mesh.boundary_mask)
    solver = make_solver(A)
    assert lu_nnz(solver._lu) == lu_nnz(spla.splu(sp.csc_matrix(A))) == 56019
    rows = np.random.default_rng(5).normal(size=(37, mesh.num_nodes))
    rows[:, mesh.boundary_mask] = 0.0
    x = solver.solve_rows(rows)
    residual = np.linalg.norm(rows - (A @ x.T).T, axis=1) / np.linalg.norm(rows, axis=1)
    assert residual.max() <= 1e-12
    # this factor gives a column other bytes at some call widths, so a row
    # solved alone must still get the bytes it gets in the block
    for i, row in enumerate(rows):
        assert solver.solve_rows(row[None, :])[0].tobytes() == x[i].tobytes(), i


def test_direct_solver_orders_the_benchmark_system_for_fill(mms):
    # the P2 h=1/8, tau=2^-9 system of the many-slices benchmark: every pivot
    # stays on the diagonal, and the factor has fewer entries than the default
    mesh = build_structured_mesh(mms.domain, 1.0 / 8, 2)
    basis = reference_basis(2)
    system = (
        assemble_mass(mesh, basis).multiply(512.0)
        + assemble_stiffness(mesh, basis, mms.epsilon)
        + assemble_convection(mesh, basis, mms.b)
    )
    A = apply_dirichlet(system, mesh.boundary_mask)
    lu = make_solver(A)._lu
    np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
    assert lu_nnz(lu) == 5286 < lu_nnz(spla.splu(sp.csc_matrix(A))) == 6278


def test_direct_solver_factors_a_matrix_with_a_zero_diagonal():
    A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 1.0]])
    solver = make_solver(sp.csr_matrix(A))
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(A @ solver.solve(rhs), rhs, atol=1e-14)
    np.testing.assert_allclose(A @ solver.solve_rows(np.eye(3)).T, np.eye(3), atol=1e-14)


def test_iterative_solver_meets_tolerance():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    A = assemble_stiffness(mesh, P1)
    rhs = LoadAssembler(mesh, P1).assemble(lambda x, y: np.ones_like(x))
    Ae, re = eliminate(A, rhs, mesh)
    config = SolverConfig(mode="iterative", tol=1e-12)
    x = make_solver(Ae, config).solve(re)
    res = np.linalg.norm(re - Ae @ x) / np.linalg.norm(re)
    assert res <= 1e-12
    np.testing.assert_allclose(x, make_solver(Ae).solve(re), atol=1e-10)


def test_iterative_solver_reports_nonconvergence(monkeypatch):
    # at h=1/4 the ILU preconditioner is nearly exact and one iteration converges
    mesh = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    A = assemble_stiffness(mesh, P1)
    Ae, re = eliminate(A, np.ones(mesh.num_nodes), mesh)
    monkeypatch.setattr(fem, "GMRES_MAXITER", 1)
    config = SolverConfig(mode="iterative", tol=1e-14)
    with pytest.raises(SolveFailure) as err:
        make_solver(Ae, config).solve(re)
    assert err.value.residual is not None


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="magic")
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)


def test_iterative_solver_rejects_a_singular_matrix_at_construction():
    # without an incomplete factorization GMRES would spend its whole
    # iteration budget before failing
    singular = sp.csr_matrix(np.diag([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(SolveFailure, match="factorization"):
        make_solver(singular, SolverConfig(mode="iterative"))


# ---------------------------------------------------------------------------
# Ritz projection


def sin_field():
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    return g, grad


def test_ritz_projection_idempotent_on_fe_functions():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    hat = np.zeros(mesh.num_nodes)
    hat[np.flatnonzero(~mesh.boundary_mask)[4]] = 1.0
    g = lambda x, y: oracles.eval_fe(mesh, P1, hat, x, y)
    # gradient of the hat is piecewise constant; use a fine-difference-free trick:
    # project the function with its exact broken gradient via a dense assembly.
    rule = quadrature_rule(2 * P1.order + 2)
    # assemble the right-hand side from the hat coefficients directly
    A0 = assemble_stiffness(mesh, P1)
    rhs = A0 @ hat
    Ae, re = eliminate(A0, rhs, mesh)
    got = make_solver(Ae).solve(re)
    np.testing.assert_allclose(got, hat, atol=1e-12)


def test_ritz_projection_of_zero():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    zero = lambda x, y: np.zeros_like(x)
    zgrad = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    assert np.abs(RitzProjector(mesh, P1).project(zero, zgrad)).max() == 0.0


def test_ritz_projection_matches_dense_oracle():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    g, grad = sin_field()
    got = RitzProjector(mesh, P1).project(g, grad)

    rule = quadrature_rule(2 * P1.order + 2)
    Ad = oracles.dense_operator(mesh, quadrature_rule(2), "stiffness")
    rd = oracles.dense_grad_load(mesh, rule, grad)
    Ad, rd = oracles.dense_eliminate(Ad, rd, mesh.boundary_mask)
    expected = oracles.dense_solve(Ad, rd)
    assert np.abs(got - expected).max() <= 1e-10


def test_ritz_projection_galerkin_orthogonality():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    g, grad = sin_field()
    v = RitzProjector(mesh, P1).project(g, grad)
    residual = assemble_stiffness(mesh, P1) @ v - GradientLoadAssembler(mesh, P1).assemble(grad)
    assert np.abs(residual[~mesh.boundary_mask]).max() <= 1e-10


def test_ritz_projection_rejects_nonzero_trace():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    g = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)  # = 1 at corners
    grad = lambda x, y: (
        -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
    )
    with pytest.raises(ValueError, match="vanish"):
        RitzProjector(mesh, P1).project(g, grad)


# ---------------------------------------------------------------------------
# error norms


def test_error_norms_zero_for_member_of_fe_space():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    exact = lambda x, y: x + y
    grad = lambda x, y: (np.ones_like(x), np.ones_like(x))
    interp = mesh.nodes[:, 0] + mesh.nodes[:, 1]
    l2, h1 = ErrorEvaluator(mesh, P1).norms(interp, exact, grad)
    assert l2 <= 1e-12 and h1 <= 1e-12


def test_error_norms_of_zero_field_against_sine():
    mesh = build_structured_mesh(UNIT_SQUARE, 1 / 16, 1)
    g, grad = sin_field()
    l2, h1 = ErrorEvaluator(mesh, P1).norms(np.zeros(mesh.num_nodes), g, grad)
    assert l2 == pytest.approx(0.5, abs=1e-9)  # integral of sin^2 sin^2 is 1/4
    assert h1 >= l2


def test_error_norms_accepts_field_slice():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    g, grad = sin_field()
    slice_ = FieldSlice(np.zeros(mesh.num_nodes), n=0, m=0)
    l2, h1 = ErrorEvaluator(mesh, P1).norms(slice_.values, g, grad)
    assert h1 >= l2 >= 0.0


# ---------------------------------------------------------------------------
# misc


def test_field_slice_is_read_only():
    s = FieldSlice(np.arange(4.0), n=1, m=2)
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    assert len(s) == 4


def test_ritz_projection_rejects_nan_trace():
    # NaN compares false against the tolerance, so the check must not read `trace > tol`
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    g, grad = sin_field()
    g_nan = lambda x, y: np.where(np.isclose(x, 0.0), np.nan, g(x, y))
    with pytest.raises(ValueError, match="vanish"):
        RitzProjector(mesh, P1).project(g_nan, grad)
