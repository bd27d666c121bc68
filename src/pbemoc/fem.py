"""Spatial finite element machinery: assembly, Dirichlet elimination, solves,
gradient projections, and error norms.

Operators are assembled element-wise with quadrature that is exact for the
polynomial integrands (degree 2k for the bilinear forms) and one order above
the generic data terms (degree 2k+2 for loads, projections, and norms).
Matrices are CSR; the direct solver is a sparse LU factorization, which makes
every solve deterministic and byte-reproducible.
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
    "assemble_load",
    "apply_dirichlet",
    "solve",
    "make_solver",
    "LoadAssembler",
    "GradientLoadAssembler",
    "RitzProjector",
    "ritz_projection",
    "ErrorEvaluator",
    "error_norms",
    "dump_matrix",
]

# boundary-trace tolerance for data fed into the zero-boundary projection
TRACE_TOL = 1e-12


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
    maxiter: int = 5000

    def __post_init__(self):
        if self.mode not in ("direct", "iterative"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")


# ---------------------------------------------------------------------------
# element-level quadrature data


class _QuadData:
    """Per-element quadrature geometry for one (mesh, basis, degree) triple."""

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
        self.mesh = mesh
        self.basis = basis
        self.conn = mesh.elements
        self.vals = basis.values(ref)  # (nl, nq)
        ref_grads = basis.gradients(ref)  # (nl, nq, 2)
        self.grads = np.einsum("eab,lqb->elqa", inv_t, ref_grads)  # (ne, nl, nq, 2)
        self.wdet = rule.weights[None, :] * np.abs(det)[:, None]  # (ne, nq)
        # physical quadrature points, (ne, nq)
        self.x = verts[:, 0, 0][:, None] + np.einsum("eb,qb->eq", jac[:, 0, :], ref)
        self.y = verts[:, 0, 1][:, None] + np.einsum("eb,qb->eq", jac[:, 1, :], ref)

    @property
    def points(self):
        """Flattened physical quadrature points (x, y), each of length ne*nq."""
        return self.x.ravel(), self.y.ravel()


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


def assemble_mass(mesh: SpatialMesh, basis: BasisSet, quad_degree: int | None = None) -> sp.csr_matrix:
    """Mass matrix with entries (i, j) -> integral of phi_i phi_j."""
    qd = _QuadData(mesh, basis, quad_degree or 2 * basis.order)
    local = np.einsum("eq,iq,jq->eij", qd.wdet, qd.vals, qd.vals)
    return _scatter(mesh, local)


def assemble_stiffness(
    mesh: SpatialMesh,
    basis: BasisSet,
    epsilon: float = 1.0,
    quad_degree: int | None = None,
) -> sp.csr_matrix:
    """Diffusion matrix with entries epsilon * integral of grad phi_i . grad phi_j."""
    if epsilon <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {epsilon}")
    qd = _QuadData(mesh, basis, quad_degree or 2 * basis.order)
    local = epsilon * np.einsum("eq,eiqa,ejqa->eij", qd.wdet, qd.grads, qd.grads)
    return _scatter(mesh, local)


def assemble_convection(
    mesh: SpatialMesh,
    basis: BasisSet,
    b: tuple[float, float],
    quad_degree: int | None = None,
) -> sp.csr_matrix:
    """Convection matrix with entries (i, j) -> integral of (b . grad phi_j) phi_i."""
    bvec = np.asarray(b, dtype=float)
    if bvec.shape != (2,):
        raise ValueError(f"velocity must be a 2-vector, got shape {bvec.shape}")
    qd = _QuadData(mesh, basis, quad_degree or 2 * basis.order)
    bgrad = np.einsum("a,ejqa->ejq", bvec, qd.grads)
    local = np.einsum("eq,iq,ejq->eij", qd.wdet, qd.vals, bgrad)
    return _scatter(mesh, local)


def _point_scatter(mesh: SpatialMesh, basis: BasisSet, quad_degree: int | None):
    """Load-degree quadrature data plus a builder that turns (ne, nl, nq) weights
    into the sparse (num_nodes, ne*nq) scatter of quadrature-point values."""
    qd = _QuadData(mesh, basis, quad_degree or 2 * basis.order + 2)
    ne, nq = qd.wdet.shape
    nl = qd.conn.shape[1]
    rows = np.repeat(qd.conn, nq, axis=1).ravel()
    cols = np.tile(np.arange(ne * nq).reshape(ne, nq), (1, nl)).ravel()
    shape = (mesh.num_nodes, ne * nq)

    def scatter(weights: np.ndarray) -> sp.csr_matrix:
        return sp.coo_matrix((weights.ravel(), (rows, cols)), shape=shape).tocsr()

    return qd, scatter


class LoadAssembler:
    """Reusable evaluator of load vectors integral of g phi_i for scalar fields g.

    The quadrature scatter is precomputed once, so repeated assemblies reduce
    to one vectorized evaluation of g plus a sparse matrix-vector product.
    """

    def __init__(self, mesh: SpatialMesh, basis: BasisSet, quad_degree: int | None = None):
        qd, scatter = _point_scatter(mesh, basis, quad_degree)
        self._matrix = scatter(qd.wdet[:, None, :] * qd.vals[None, :, :])
        self.x, self.y = qd.points

    def assemble(self, g: Callable) -> np.ndarray:
        return self._matrix @ np.asarray(g(self.x, self.y), dtype=float).ravel()

    def assemble_values(self, values: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(values, dtype=float).ravel()

    def assemble_columns(self, values: np.ndarray) -> np.ndarray:
        """Load vectors of k fields at once: values is (num_points, k), one field
        per column; column j of the result equals assemble_values(values[:, j])."""
        return self._matrix @ values


class GradientLoadAssembler:
    """Reusable evaluator of integral of grad g . grad phi_i for fields with known gradient."""

    def __init__(self, mesh: SpatialMesh, basis: BasisSet, quad_degree: int | None = None):
        qd, scatter = _point_scatter(mesh, basis, quad_degree)
        # (ne, nl, nq, 2) weighted physical gradients
        wg = qd.wdet[:, None, :, None] * qd.grads
        self._mx = scatter(wg[..., 0])
        self._my = scatter(wg[..., 1])
        self.x, self.y = qd.points

    def assemble(self, g_grad: Callable) -> np.ndarray:
        gx, gy = g_grad(self.x, self.y)
        gx = np.asarray(gx, dtype=float).ravel()
        gy = np.asarray(gy, dtype=float).ravel()
        return self._mx @ gx + self._my @ gy


def assemble_load(
    mesh: SpatialMesh,
    basis: BasisSet,
    g: Callable,
    quad_degree: int | None = None,
) -> np.ndarray:
    """Load vector of g against the basis (one-shot; see LoadAssembler for reuse)."""
    return LoadAssembler(mesh, basis, quad_degree).assemble(g)


def apply_dirichlet(
    matrix: sp.spmatrix,
    rhs: np.ndarray,
    boundary_mask: np.ndarray,
    boundary_values: float | np.ndarray = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose Dirichlet values by symmetric elimination.

    Boundary rows and columns are replaced by identity rows; the column
    coupling is moved to the right-hand side, so a symmetric matrix stays
    symmetric and SPD blocks keep their conditioning.
    """
    mask = np.asarray(boundary_mask, dtype=bool)
    n = mask.shape[0]
    lifted = np.zeros(n)
    vals = np.asarray(boundary_values, dtype=float)
    if vals.ndim == 0:
        lifted[mask] = float(vals)
    elif vals.shape == (int(mask.sum()),):
        lifted[mask] = vals
    elif vals.shape == (n,):
        lifted[mask] = vals[mask]
    else:
        raise ValueError(
            f"boundary values of shape {vals.shape} do not match "
            f"{int(mask.sum())} boundary DOFs (or all {n} DOFs)"
        )

    interior = (~mask).astype(float)
    d_int = sp.diags(interior)
    eliminated = (d_int @ matrix @ d_int + sp.diags(mask.astype(float))).tocsr()
    eliminated.sum_duplicates()

    new_rhs = np.asarray(rhs, dtype=float) - matrix @ lifted
    new_rhs *= interior
    new_rhs[mask] = lifted[mask]
    return eliminated, new_rhs


def _residual(matrix, rhs, x) -> float:
    r = np.linalg.norm(rhs - matrix @ x)
    b = np.linalg.norm(rhs)
    return r / b if b > 0.0 else r


class _DirectSolver:
    def __init__(self, matrix):
        try:
            self._lu = spla.splu(sp.csc_matrix(matrix))
        except RuntimeError as exc:  # singular factorization
            raise SolveFailure(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))


class _IterativeSolver:
    """Restarted GMRES with an incomplete-LU preconditioner.

    The preconditioner only steers convergence; the returned solution is
    checked against the plain relative residual, so the accuracy contract is
    independent of it.
    """

    def __init__(self, matrix, config: SolverConfig):
        self._matrix = sp.csr_matrix(matrix)
        self._config = config
        self._precond = None
        if config.maxiter > 1:  # a crippled budget usually means a failure test
            try:
                ilu = spla.spilu(sp.csc_matrix(matrix), drop_tol=1e-6, fill_factor=20)
                n = matrix.shape[0]
                self._precond = spla.LinearOperator((n, n), ilu.solve)
            except RuntimeError:
                self._precond = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        cfg = self._config
        n = self._matrix.shape[0]
        # maxiter caps total inner iterations; scipy counts restart cycles
        restart = min(n, 200, cfg.maxiter)
        cycles = max(1, -(-cfg.maxiter // restart))
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
    """Bind a matrix to the configured solver; the result exposes solve(rhs)."""
    cfg = config or SolverConfig()
    if cfg.mode == "direct":
        return _DirectSolver(matrix)
    return _IterativeSolver(matrix, cfg)


def solve(matrix: sp.spmatrix, rhs: np.ndarray, config: SolverConfig | None = None) -> np.ndarray:
    """Solve a sparse square system with the configured solver."""
    return make_solver(matrix, config).solve(rhs)


class RitzProjector:
    """Projection onto the zero-boundary FE space in the gradient inner product.

    project(g, g_grad) returns the coefficients of the FE function whose
    gradient matches grad g against every test function; g must vanish on the
    domain boundary (checked at boundary nodes).
    """

    def __init__(
        self,
        mesh: SpatialMesh,
        basis: BasisSet,
        quad_degree: int | None = None,
        solver_config: SolverConfig | None = None,
    ):
        self.mesh = mesh
        self.basis = basis
        a0 = assemble_stiffness(mesh, basis, 1.0)
        self.matrix, _ = apply_dirichlet(a0, np.zeros(mesh.num_nodes), mesh.boundary_mask)
        self._solver = make_solver(self.matrix, solver_config)
        self._grad_asm = GradientLoadAssembler(mesh, basis, quad_degree)
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


def ritz_projection(
    mesh: SpatialMesh,
    basis: BasisSet,
    g: Callable,
    g_grad: Callable,
    quad_degree: int | None = None,
    solver_config: SolverConfig | None = None,
) -> np.ndarray:
    """One-shot gradient projection; see RitzProjector for repeated use."""
    return RitzProjector(mesh, basis, quad_degree, solver_config).project(g, g_grad)


class ErrorEvaluator:
    """L2 and H1 distances between an FE coefficient vector and a smooth field."""

    def __init__(self, mesh: SpatialMesh, basis: BasisSet, quad_degree: int | None = None):
        self._qd = _QuadData(mesh, basis, quad_degree or 2 * basis.order + 2)

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


def error_norms(
    mesh: SpatialMesh,
    basis: BasisSet,
    values: np.ndarray,
    exact: Callable,
    exact_grad: Callable,
    quad_degree: int | None = None,
) -> tuple[float, float]:
    """L2 and full H1 norms of (FE field - exact); values may be a FieldSlice."""
    if isinstance(values, FieldSlice):
        values = values.values
    return ErrorEvaluator(mesh, basis, quad_degree).norms(values, exact, exact_grad)


def dump_matrix(matrix: sp.spmatrix, path) -> None:
    """Write a matrix in coordinate text form: one `row col value` line per entry."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for k in order:
            fh.write(f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.16E}\n")
