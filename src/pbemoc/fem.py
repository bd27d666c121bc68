"""Spatial finite element machinery: assembly, Dirichlet elimination, solves,
gradient projections, and error norms.

Operators are assembled element-wise with quadrature that is exact for the
polynomial integrands (degree 2k for the bilinear forms) and one order above
the generic data terms (degree 2k+2 for loads, projections, and norms).  A
run's operators come from one quadrature per degree, built for that run and
dropped after it (_run_operators).  A projector can project a family of data
g(p, x, y) for many parameters p with one evaluation per group of them, and
still gives each member the bytes of its own projection.
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
    "assemble_mass",
    "assemble_stiffness",
    "assemble_convection",
    "apply_dirichlet",
    "make_solver",
    "LoadAssembler",
    "GradientLoadAssembler",
    "RitzProjector",
    "ErrorEvaluator",
]

# boundary-trace tolerance for data fed into the zero-boundary projection
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
    if epsilon <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {epsilon}")
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


def _from_parts(cls, *args):
    """An instance of cls set up by cls._setup(*args) instead of its
    constructor, from parts (quadrature data, matrices) that the caller
    shares between several objects."""
    obj = cls.__new__(cls)
    obj._setup(*args)
    return obj


class LoadAssembler:
    """Reusable evaluator of load vectors integral of g phi_i for scalar fields g.

    The quadrature scatter is precomputed once, so repeated assemblies reduce
    to one vectorized evaluation of g plus a sparse matrix-vector product.
    """

    def __init__(self, mesh: SpatialMesh, basis: BasisSet):
        self._setup(mesh, _data_quad(mesh, basis))

    def _setup(self, mesh: SpatialMesh, qd: _QuadData) -> None:
        self._matrix = _point_scatter(mesh, qd)(qd.wdet[:, None, :] * qd.vals[None, :, :])
        self.x, self.y = qd.points

    def assemble(self, g: Callable) -> np.ndarray:
        return self._matrix @ np.asarray(g(self.x, self.y), dtype=float).ravel()

    def assemble_values(self, values: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(values, dtype=float).ravel()


class GradientLoadAssembler:
    """Reusable evaluator of integral of grad g . grad phi_i for fields with known gradient."""

    def __init__(self, mesh: SpatialMesh, basis: BasisSet):
        self._setup(mesh, _data_quad(mesh, basis))

    def _setup(self, mesh: SpatialMesh, qd: _QuadData) -> None:
        scatter = _point_scatter(mesh, qd)
        # weighted physical gradients, one (ne, nl, nq) component at a time
        self._mx = scatter(qd.wdet[:, None, :] * qd.grads[..., 0])
        self._my = scatter(qd.wdet[:, None, :] * qd.grads[..., 1])
        self.x, self.y = qd.points

    def assemble(self, g_grad: Callable) -> np.ndarray:
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

        A last partial panel is padded with zero rows, so SuperLU only ever
        sees PANEL right-hand sides.
        """
        block = np.ascontiguousarray(block, dtype=float)
        out = np.empty_like(block)
        full = block.shape[0] - block.shape[0] % PANEL
        # a row panel transposed is an F-ordered (n, PANEL) array, as SuperLU takes it
        for i in range(0, full, PANEL):
            out[i : i + PANEL] = self._lu.solve(block[i : i + PANEL].T).T
        rest = block.shape[0] - full
        if rest:  # a pad per partial panel, so no solver keeps one
            pad = np.zeros((PANEL, block.shape[1]))
            pad[:rest] = block[full:]
            out[full:] = self._lu.solve(pad.T)[:, :rest].T
        return out


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
        """Solve each row of a (k, n) block on its own."""
        out = np.empty_like(block, dtype=float)
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

    project(g, g_grad) returns the coefficients of the FE function whose
    gradient matches grad g against every test function; g must vanish on the
    domain boundary (checked at boundary nodes).
    """

    def __init__(self, mesh: SpatialMesh, basis: BasisSet, solver_config: SolverConfig | None = None):
        self._setup(mesh, assemble_stiffness(mesh, basis, 1.0), GradientLoadAssembler(mesh, basis), solver_config)

    def _setup(
        self,
        mesh: SpatialMesh,
        stiffness: sp.csr_matrix,
        grad_asm: GradientLoadAssembler,
        solver_config: SolverConfig | None,
    ) -> None:
        self.matrix = apply_dirichlet(stiffness, mesh.boundary_mask)
        self._solver = make_solver(self.matrix, solver_config)
        self._grad_asm = grad_asm
        self._bx = mesh.nodes[mesh.boundary_mask, 0]
        self._by = mesh.nodes[mesh.boundary_mask, 1]
        self._interior = ~mesh.boundary_mask

    def project(self, g: Callable, g_grad: Callable) -> np.ndarray:
        trace = np.max(np.abs(np.asarray(g(self._bx, self._by), dtype=float)))
        if not trace <= TRACE_TOL:  # NaN fails this test, not the reverse one
            raise ValueError(
                f"projected data must vanish on the boundary; found trace {trace:.3e}"
            )
        rhs = self._grad_asm.assemble(g_grad)
        rhs = np.where(self._interior, rhs, 0.0)
        return self._solver.solve(rhs)

    def _project_family(self, g: Callable, g_grad: Callable, params: np.ndarray, out: np.ndarray) -> None:
        """Fill out[i] with project(g(params[i], x, y), g_grad(params[i], x, y)).

        g and g_grad are called once per group of parameters, with the group
        as a (k, 1) column and x, y as 1-D point arrays, so row i of a result
        may depend only on params[i]; a 1-D result is broadcast over the group.
        A group holds about one solver panel of gradient values.  Each row
        then goes through project, so it gets the bytes project gives it.
        """
        asm = self._grad_asm
        nq = asm.x.size
        group = max(1, PANEL * self.matrix.shape[0] // nq)
        for s in range(0, len(params), group):
            p = np.asarray(params[s : s + group], dtype=float)[:, None]
            trace = _family_rows(g(p, self._bx, self._by), p.size, self._bx.size)
            gx, gy = (_family_rows(c, p.size, nq) for c in g_grad(p, asm.x, asm.y))
            for i in range(p.size):
                out[s + i] = self.project(lambda x, y, i=i: trace[i], lambda x, y, i=i: (gx[i], gy[i]))


def _family_rows(values, k: int, q: int) -> np.ndarray:
    """Values of a family member evaluated for a (k, 1) parameter column and
    (q,) points, as k rows of q values."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, (k, q))
    except ValueError:
        raise ValueError(
            f"data evaluated with a (k, 1) parameter column and (q,) points must "
            f"have shape (k, q) or (q,); got {values.shape} for k={k}, q={q}"
        ) from None


def _run_operators(mesh: SpatialMesh, basis: BasisSet, epsilon: float, b, solver_config: SolverConfig | None):
    """The mass, stiffness and convection matrices, the projector and the load
    assembler of one run, built from one quadrature per degree.

    The unit stiffness is assembled once, for the projector and, scaled by
    epsilon element by element, for the diffusion term, so every matrix has
    the bytes of its assemble_* function.  Each quadrature is dropped before
    the next one is built, and none outlives the call.  This is for memory,
    not time: against the public constructors, which build six quadratures,
    it lowers a benchmark run's peak RSS by 0.2-1.6 MB.
    """
    form = _form_quad(mesh, basis)
    unit = _stiffness_local(form)
    mass = _scatter(mesh, _mass_local(form))
    stiffness = _scatter(mesh, epsilon * unit)
    convection = _scatter(mesh, _convection_local(form, b))
    del form
    data = _data_quad(mesh, basis)
    load = _from_parts(LoadAssembler, mesh, data)
    grad_asm = _from_parts(GradientLoadAssembler, mesh, data)
    del data
    projector = _from_parts(RitzProjector, mesh, _scatter(mesh, unit), grad_asm, solver_config)
    return mass, stiffness, convection, projector, load


class ErrorEvaluator:
    """L2 and H1 distances between an FE coefficient vector and a smooth field."""

    def __init__(self, mesh: SpatialMesh, basis: BasisSet):
        self._qd = _data_quad(mesh, basis)

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

