"""Spatial finite element machinery: assembly, Dirichlet elimination, solves,
gradient projections, and error norms.

Operators are assembled element-wise with quadrature that is exact for the
polynomial integrands (degree 2k for the bilinear forms) and one order above
the generic data terms (degree 2k+2 for loads, projections, and norms).  A
run's operators come from one quadrature per degree, built for that run and
dropped after it (_run_operators): one LoadAssembler holds both the value
and the gradient loads, and the projector factors the free (non-boundary)
block of the unit stiffness and returns free-DOF rows.  Level 0's data and
the error pass's exact fields are evaluated once per group of slices, one
rule sizing both (_group_size); stepper._project projects each slice alone.
Matrices are CSR; the direct solver is a sparse LU factorization, which makes
every solve deterministic and byte-reproducible.  Its block solve hands the
factorization exactly PANEL right-hand sides per call, so a row gets the same
bytes in any position of any block, a block of one included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import BasisSet, SpatialMesh, quadrature_rule

__all__ = [
    "FieldSlice",
    "SolverConfig",
    "SolveFailure",
    "BoundaryTraceError",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_convection",
    "apply_dirichlet",
    "make_solver",
    "LoadAssembler",
    "RitzProjector",
    "ErrorEvaluator",
]

# boundary-trace tolerance of the zero-boundary projection, times its largest load if above 1
TRACE_TOL = 1e-12

# right-hand sides per SuperLU call.  A column's bytes can depend on how many
# columns share the call (the BLAS may treat a full group of columns and the
# remainder differently), but not on what the other columns hold or where the
# column sits, so one fixed width makes the bytes independent of batching.
PANEL = 32

# cap on the total inner GMRES iterations of one solve
GMRES_MAXITER = 5000


@dataclass(eq=False)
class FieldSlice:
    """Nodal coefficients of one spatial field, tagged with (time index, internal index)."""

    values: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]


class SolveFailure(RuntimeError):
    """A solve did not reach the requested accuracy or produced non-finite values.

    n and m locate the failing slice (time level, internal index) when known.
    """

    def __init__(
        self,
        message: str,
        residual: float | None = None,
        n: int | None = None,
        m: int | None = None,
    ):
        super().__init__(message)
        self.residual = residual
        self.n = n
        self.m = m


class BoundaryTraceError(ValueError):
    """Projected data do not vanish on the boundary.

    n and m locate the projected slice (time level, internal index) when known.
    """

    def __init__(self, message: str, n: int | None = None, m: int | None = None):
        super().__init__(message)
        self.n = n
        self.m = m


@dataclass(frozen=True)
class SolverConfig:
    """Linear solver selection: sparse direct (default) or restarted GMRES."""

    mode: str = "direct"
    tol: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("direct", "iterative"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")


# ---------------------------------------------------------------------------
# element-level quadrature data


class _QuadData:
    """Per-element quadrature geometry for one (mesh, basis, degree) triple.

    Use _form_quad or _data_quad, which fix the degree for each kind of integrand.
    """

    def __init__(self, mesh: SpatialMesh, basis: BasisSet, degree: int):
        if basis.order != mesh.order:
            raise ValueError(
                f"basis order {basis.order} does not match mesh order {mesh.order}"
            )
        rule = quadrature_rule(degree)
        verts = mesh.vertex_coords  # (ne, 3, 2)
        jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv_t = np.empty_like(jac)  # transposed inverse of the affine map
        inv_t[:, 0, 0] = jac[:, 1, 1]
        inv_t[:, 0, 1] = -jac[:, 1, 0]
        inv_t[:, 1, 0] = -jac[:, 0, 1]
        inv_t[:, 1, 1] = jac[:, 0, 0]
        inv_t /= det[:, None, None]

        ref = rule.xy  # (nq, 2)
        self.rule = rule
        self.conn = mesh.elements
        self.vals = basis.values(ref)  # (nl, nq)
        # the affine maps are written out as two-term sums, which is what
        # einsum computes ("eab,lqb->elqa" for the gradients, "eb,qb->eq" for
        # the points) at a fraction of its cost
        rg = basis.gradients(ref)  # (nl, nq, 2)
        self.grads = np.stack(
            [inv_t[:, a, 0, None, None] * rg[:, :, 0] + inv_t[:, a, 1, None, None] * rg[:, :, 1] for a in (0, 1)],
            axis=-1,
        )  # (ne, nl, nq, 2)
        self.wdet = rule.weights[None, :] * np.abs(det)[:, None]  # (ne, nq)
        # physical quadrature points, (ne, nq)
        self.x = verts[:, 0, 0][:, None] + (jac[:, 0, 0, None] * ref[:, 0] + jac[:, 0, 1, None] * ref[:, 1])
        self.y = verts[:, 0, 1][:, None] + (jac[:, 1, 0, None] * ref[:, 0] + jac[:, 1, 1, None] * ref[:, 1])

    @property
    def points(self):
        """Flattened physical quadrature points (x, y), each of length ne*nq."""
        return self.x.ravel(), self.y.ravel()


def _form_quad(mesh: SpatialMesh, basis: BasisSet) -> _QuadData:
    """Quadrature exact for the bilinear forms: degree 2k."""
    return _QuadData(mesh, basis, 2 * basis.order)


def _data_quad(mesh: SpatialMesh, basis: BasisSet) -> _QuadData:
    """Quadrature for loads, projections and norms: degree 2k+2."""
    return _QuadData(mesh, basis, 2 * basis.order + 2)


def _scatter(mesh: SpatialMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum local element matrices (ne, nl, nl) into a global CSR matrix."""
    conn = mesh.elements
    nl = conn.shape[1]
    rows = np.repeat(conn, nl, axis=1).ravel()
    cols = np.tile(conn, (1, nl)).ravel()
    n = mesh.num_nodes
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _mass_local(qd: _QuadData) -> np.ndarray:
    return np.einsum("eq,iq,jq->eij", qd.wdet, qd.vals, qd.vals)


def _stiffness_local(qd: _QuadData) -> np.ndarray:
    """Local unit-diffusion matrices, (ne, nl, nl)."""
    return np.einsum("eq,eiqa,ejqa->eij", qd.wdet, qd.grads, qd.grads)


def _convection_local(qd: _QuadData, b: tuple[float, float]) -> np.ndarray:
    bvec = np.asarray(b, dtype=float)
    if bvec.shape != (2,):
        raise ValueError(f"velocity must be a 2-vector, got shape {bvec.shape}")
    bgrad = np.einsum("a,ejqa->ejq", bvec, qd.grads)
    return np.einsum("eq,iq,ejq->eij", qd.wdet, qd.vals, bgrad)


def assemble_mass(mesh: SpatialMesh, basis: BasisSet) -> sp.csr_matrix:
    """Mass matrix with entries (i, j) -> integral of phi_i phi_j."""
    return _scatter(mesh, _mass_local(_form_quad(mesh, basis)))


def assemble_stiffness(mesh: SpatialMesh, basis: BasisSet, epsilon: float = 1.0) -> sp.csr_matrix:
    """Diffusion matrix with entries epsilon * integral of grad phi_i . grad phi_j."""
    if not 0.0 < epsilon < np.inf:  # NaN fails this test, not the reverse one
        raise ValueError(f"diffusion coefficient epsilon must be finite and positive, got {epsilon}")
    return _scatter(mesh, epsilon * _stiffness_local(_form_quad(mesh, basis)))


def assemble_convection(mesh: SpatialMesh, basis: BasisSet, b: tuple[float, float]) -> sp.csr_matrix:
    """Convection matrix with entries (i, j) -> integral of (b . grad phi_j) phi_i."""
    return _scatter(mesh, _convection_local(_form_quad(mesh, basis), b))


def _point_scatter(mesh: SpatialMesh, qd: _QuadData):
    """Builder that turns (ne, nl, nq) weights into the sparse (num_nodes, ne*nq)
    scatter of quadrature-point values."""
    ne, nq = qd.wdet.shape
    nl = qd.conn.shape[1]
    rows = np.repeat(qd.conn, nq, axis=1).ravel()
    cols = np.tile(np.arange(ne * nq).reshape(ne, nq), (1, nl)).ravel()
    shape = (mesh.num_nodes, ne * nq)

    def scatter(weights: np.ndarray) -> sp.csr_matrix:
        return sp.coo_matrix((weights.ravel(), (rows, cols)), shape=shape).tocsr()

    return scatter


class LoadAssembler:
    """Reusable evaluator of the load vectors integral of g phi_i, for scalar
    fields g, and integral of grad g . grad phi_i, for fields with known gradient.

    The quadrature scatters are precomputed once, from one quadrature that the
    assembler does not keep, so repeated assemblies reduce to one vectorized
    evaluation of g (or grad g) plus sparse matrix-vector products.
    """

    def __init__(self, mesh: SpatialMesh, basis: BasisSet):
        qd = _data_quad(mesh, basis)
        scatter = _point_scatter(mesh, qd)
        self._matrix = scatter(qd.wdet[:, None, :] * qd.vals[None, :, :])
        # weighted physical gradients, one (ne, nl, nq) component at a time
        self._mx = scatter(qd.wdet[:, None, :] * qd.grads[..., 0])
        self._my = scatter(qd.wdet[:, None, :] * qd.grads[..., 1])
        self.x, self.y = qd.points

    def assemble(self, g: Callable) -> np.ndarray:
        return self._matrix @ np.asarray(g(self.x, self.y), dtype=float).ravel()

    def assemble_values(self, values: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(values, dtype=float).ravel()

    def assemble_gradient(self, g_grad: Callable) -> np.ndarray:
        gx, gy = g_grad(self.x, self.y)
        gx = np.asarray(gx, dtype=float).ravel()
        gy = np.asarray(gy, dtype=float).ravel()
        return self._mx @ gx + self._my @ gy


def apply_dirichlet(matrix: sp.spmatrix, boundary_mask: np.ndarray) -> sp.csr_matrix:
    """Eliminate the boundary DOFs of a system with zero Dirichlet values.

    Boundary rows and columns are replaced by identity rows, so a symmetric
    matrix stays symmetric and SPD blocks keep their conditioning; the
    right-hand side of the eliminated system is zero at the boundary DOFs.
    """
    mask = np.asarray(boundary_mask, dtype=bool)
    d_int = sp.diags((~mask).astype(float))
    eliminated = (d_int @ matrix @ d_int + sp.diags(mask.astype(float))).tocsr()
    eliminated.sum_duplicates()
    return eliminated


def _residual(matrix, rhs, x) -> float:
    r = np.linalg.norm(rhs - matrix @ x)
    b = np.linalg.norm(rhs)
    return r / b if b > 0.0 else r


class _DirectSolver:
    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        try:
            # fill-reducing ordering of A^T + A on diagonal pivots; a pivot off them fills badly
            self._lu = spla.splu(
                matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
            )
            if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
                self._lu = spla.splu(matrix)  # COLAMD with partial pivoting
        except RuntimeError as exc:  # singular factorization
            raise SolveFailure(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def solve_rows(self, block: np.ndarray) -> np.ndarray:
        """Solve each row of a (k, n) block, PANEL rows per SuperLU call.

        The block may have any layout, a transposed (n, k) array included.
        A block of exactly one panel is returned as the rows of SuperLU's own
        result, without a copy.
        """
        block = np.asarray(block, dtype=float)
        if 0 < block.shape[0] <= PANEL:
            return self._solve_panel(block)
        out = np.empty(block.shape)
        for i in range(0, block.shape[0], PANEL):
            out[i : i + PANEL] = self._solve_panel(block[i : i + PANEL])
        return out

    def _solve_panel(self, rows: np.ndarray) -> np.ndarray:
        """Solve up to PANEL rows in one SuperLU call of exactly PANEL
        right-hand sides, a short panel padded with zero rows."""
        k = rows.shape[0]
        if k == PANEL:  # SuperLU solves an F-ordered (n, PANEL) copy in place
            return self._lu.solve(rows.T).T
        pad = np.zeros((PANEL, rows.shape[1]))  # a pad per call, so no solver keeps one
        pad[:k] = rows
        # copied out, so the caller does not keep the padded result alive
        return self._lu.solve(pad.T)[:, :k].T.copy()


class _IterativeSolver:
    """Restarted GMRES with an incomplete-LU preconditioner.

    The preconditioner only steers convergence; the returned solution is
    checked against the plain relative residual, so the accuracy contract is
    independent of it.
    """

    def __init__(self, matrix, config: SolverConfig):
        self._matrix = sp.csr_matrix(matrix)
        self._config = config
        try:
            ilu = spla.spilu(sp.csc_matrix(matrix), drop_tol=1e-6, fill_factor=20)
        except RuntimeError as exc:  # singular factorization
            raise SolveFailure(f"incomplete factorization failed: {exc}") from exc
        n = matrix.shape[0]
        self._precond = spla.LinearOperator((n, n), ilu.solve)

    def solve_rows(self, block: np.ndarray) -> np.ndarray:
        """Solve each row of a (k, n) block on its own, from a contiguous copy,
        so a row's bytes do not depend on the block's layout."""
        block = np.ascontiguousarray(block, dtype=float)
        out = np.empty_like(block)
        for i, row in enumerate(block):
            out[i] = self.solve(row)
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        cfg = self._config
        n = self._matrix.shape[0]
        # GMRES_MAXITER caps total inner iterations; scipy counts restart cycles
        restart = min(n, 200, GMRES_MAXITER)
        cycles = max(1, -(-GMRES_MAXITER // restart))
        x, info = spla.gmres(
            self._matrix,
            rhs,
            rtol=cfg.tol,
            atol=0.0,
            restart=restart,
            maxiter=cycles,
            M=self._precond,
        )
        res = _residual(self._matrix, rhs, x)
        if res > cfg.tol:
            raise SolveFailure(
                f"iterative solve stopped at relative residual {res:.3e} "
                f"(requested {cfg.tol:.3e}, info={info})",
                residual=res,
            )
        return x


def make_solver(matrix: sp.spmatrix, config: SolverConfig | None = None):
    """Bind a matrix to the configured solver.

    The result exposes solve(rhs) for one right-hand side and solve_rows(block)
    for a (k, n) block of them, one per row.
    """
    cfg = config or SolverConfig()
    if cfg.mode == "direct":
        return _DirectSolver(matrix)
    return _IterativeSolver(matrix, cfg)


class RitzProjector:
    """Projection onto the zero-boundary FE space in the gradient inner product.

    project(g, g_grad) returns the free-DOF coefficients of the FE function
    whose gradient matches grad g against every test function; g must vanish
    on the domain boundary (checked at boundary nodes, relative to the free
    gradient load of large data).  stiffness is the all-DOF unit diffusion
    matrix, matrix its factored free block; loads assembles the gradient loads.
    The projector keeps its last right-hand side and solution, and a
    right-hand side equal to the last one bit for bit, such as that of a
    time-independent inflow at every time level, gets a copy of that
    solution without a solve.
    """

    def __init__(
        self,
        mesh: SpatialMesh,
        stiffness: sp.csr_matrix,
        loads: LoadAssembler,
        solver_config: SolverConfig | None = None,
    ):
        self._interior = ~mesh.boundary_mask
        # stored zeros dropped, as apply_dirichlet drops them: its free block
        self.matrix = sp.csr_matrix(stiffness)[self._interior][:, self._interior]
        self.matrix.eliminate_zeros()
        self._solver = make_solver(self.matrix, solver_config)
        self._loads = loads
        self._bx = mesh.nodes[mesh.boundary_mask, 0]
        self._by = mesh.nodes[mesh.boundary_mask, 1]
        self._last_key = self._last_solution = None

    def project(self, g: Callable, g_grad: Callable) -> np.ndarray:
        trace = np.max(np.abs(np.asarray(g(self._bx, self._by), dtype=float)))
        rhs = self._loads.assemble_gradient(g_grad)[self._interior]
        if not trace <= TRACE_TOL * max(1.0, rhs.max(), -rhs.min()):  # NaN fails; max(1, nan) = 1
            raise BoundaryTraceError(
                f"projected data must vanish on the boundary; found trace {trace:.3e}"
            )
        key = rhs.tobytes()  # bit for bit: -0.0 and 0.0 may solve to different bytes
        if key != self._last_key:
            self._last_key, self._last_solution = key, self._solver.solve(rhs)
        return self._last_solution.copy()

    def _family_data(self, g: Callable, g_grad: Callable, params: np.ndarray, m0: int):
        """Yield, for each i in turn, the (g, g_grad) pair that project takes for
        the initial data z_init(params[i], x, y) and z_init_grad of slice (0, m0 + i).

        Each is called once per group of _group_size slices, with the group as
        a (k, 1) column (_family_rows), at the points project evaluates it at."""
        loads = self._loads
        nq = loads.x.size
        group = _group_size(self._interior.size, nq)
        for s in range(0, len(params), group):
            p = np.asarray(params[s : s + group], dtype=float)[:, None]
            trace = _family_rows(g(p, self._bx, self._by), p.size, self._bx.size, "z_init", 0, m0 + s)
            gx, gy = (_family_rows(c, p.size, nq, "z_init_grad", 0, m0 + s) for c in g_grad(p, loads.x, loads.y))
            for i in range(p.size):
                yield (lambda x, y, i=i: trace[i]), (lambda x, y, i=i: (gx[i], gy[i]))


def _group_size(num_dofs: int, num_points: int) -> int:
    """Slices per evaluation of l-dependent data on num_points points: about PANEL * num_dofs values."""
    return max(1, PANEL * num_dofs // num_points)


def _family_rows(values, k: int, q: int, name: str, n: int, m: int) -> np.ndarray:
    """Values of data evaluated for the slices (n, m..m+k-1) with l as a (k, 1)
    column and (q,) points, as k rows of q values: a (k, q) result, or a (q,) one
    broadcast over the rows; another shape is a ValueError naming name and (n, m)."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, (k, q))
    except ValueError:
        raise ValueError(
            f"{name} evaluated for the slices from (n, m) = ({n}, {m}) with a (k, 1) "
            f"parameter column and (q,) points must have shape (k, q) or (q,); "
            f"got {values.shape} for k={k}, q={q}"
        ) from None


def _run_operators(mesh: SpatialMesh, basis: BasisSet, epsilon: float, b, solver_config: SolverConfig | None):
    """The mass, stiffness and convection matrices, the projector and the load
    assembler of one run, built from one quadrature per degree.

    The unit stiffness is assembled once, for the projector and, scaled by
    epsilon element by element, for the diffusion term, so every matrix has
    the bytes of its assemble_* function.  Each quadrature is dropped before
    the next one is built (the data quadrature lives only in LoadAssembler's
    constructor), and none outlives the call.  This is for memory, not time:
    against one quadrature per matrix and assembler, six in all, it lowers a
    benchmark run's peak RSS by 0.2-1.6 MB.
    """
    form = _form_quad(mesh, basis)
    unit = _stiffness_local(form)
    mass = _scatter(mesh, _mass_local(form))
    stiffness = _scatter(mesh, epsilon * unit)
    convection = _scatter(mesh, _convection_local(form, b))
    del form
    load = LoadAssembler(mesh, basis)
    projector = RitzProjector(mesh, _scatter(mesh, unit), load, solver_config)
    return mass, stiffness, convection, projector, load


class ErrorEvaluator:
    """L2 and H1 distances between an FE coefficient vector and a smooth field."""

    def __init__(self, mesh: SpatialMesh, basis: BasisSet):
        self._qd = _data_quad(mesh, basis)
        self._group = _group_size(mesh.num_nodes, self._qd.x.size)  # that of level 0

    def norms(self, values: np.ndarray, exact: Callable, exact_grad: Callable) -> tuple[float, float]:
        qd = self._qd
        coeffs = np.asarray(values, dtype=float)[qd.conn]  # (ne, nl)
        zq = np.einsum("el,lq->eq", coeffs, qd.vals)
        gq = np.einsum("el,elqa->eqa", coeffs, qd.grads)
        ex = np.asarray(exact(qd.x, qd.y), dtype=float)
        egx, egy = exact_grad(qd.x, qd.y)
        diff = zq - ex
        l2_sq = float(np.sum(qd.wdet * diff**2))
        grad_sq = float(
            np.sum(qd.wdet * ((gq[..., 0] - egx) ** 2 + (gq[..., 1] - egy) ** 2))
        )
        return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)

    def worst_norms(self, rows, exact: Callable, exact_grad: Callable, t: float, l, n: int, m0: int):
        """The largest norms of rows[i], slice (n, m0 + i), against exact(t, l[i], x, y),
        which is called, as exact_grad is, once per group of slices with l as a (k, 1) column."""
        shape, x, y = self._qd.x.shape, *self._qd.points
        worst_l2 = worst_h1 = 0.0
        for s in range(0, len(l), self._group):
            col = np.asarray(l[s : s + self._group], dtype=float)[:, None]
            ex = _family_rows(exact(t, col, x, y), col.size, x.size, "exact", n, m0 + s)
            gx, gy = (_family_rows(c, col.size, x.size, "exact_grad", n, m0 + s) for c in exact_grad(t, col, x, y))
            for i in range(col.size):
                z, zx, zy = (v[i].reshape(shape) for v in (ex, gx, gy))
                l2, h1 = self.norms(rows[s + i], lambda x, y: z, lambda x, y: (zx, zy))
                worst_l2, worst_h1 = max(worst_l2, l2), max(worst_h1, h1)
        return worst_l2, worst_h1
