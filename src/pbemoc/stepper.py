"""Sequential time stepping of the coupled (time x internal x space) system.

Each time step advances every internal-coordinate slice independently: the
previous-level slices at m-1 and m are blended with the characteristic
weight, multiplied by the mass matrix, augmented with the source load, and
solved against the fixed system matrix M/tau + diffusion + convection.  The
system matrix does not depend on (n, m) because the growth rate depends only
on the internal coordinate, so it is assembled and factorized once.

Initial slices and the slices at the inflow end of the internal interval are
gradient projections of the prescribed data.  Level 0 evaluates the initial
data for a group of slices per call and projects each slice alone, so it has
the bytes of slice-by-slice projections.

One kernel, advance_block, advances a contiguous block of slices of a level,
held as a (rows, num_dofs) float64 array.  The sequential loop calls it once
per level on slices 1..M, each pipeline worker once per level on its own
block, and step_slice on a block of one slice.  Within a block, slices are
processed in chunks of one solver panel (fem.PANEL slices): the blend, the
mass product and the solve are one call each per chunk.  A SeparableSource,
c(t) sum_j a_j(l) s_j(x, y), has its field loads L_j = integral of s_j phi_i
assembled and its factors a_j(l_m) tabulated once per run, so a slice's load
is the sum of the scaled vectors (c(t) a_j(l_m)) L_j; any other source is
evaluated at the quadrature points and its load assembled once per slice.
Every system solve has the same fixed width (fem.PANEL right-hand sides, a
partial panel padded with zeros), so a slice's bytes do not depend on its
block, chunk or worker.  A level with a non-finite value raises SolveFailure
carrying (n, m).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characteristics import (
    CflViolationError,
    LGrid,
    TimeGrid,
    backtrace,
    check_cfl,
)
from .fem import (
    PANEL,
    FieldSlice,
    RitzProjector,
    SolveFailure,
    SolverConfig,
    _run_operators,
    apply_dirichlet,
    make_solver,
)
from .mesh import BasisSet, SpatialMesh

__all__ = [
    "ProblemSpec",
    "SeparableSource",
    "SolutionSurface",
    "Operators",
    "precompute_operators",
    "initialize",
    "boundary_slice",
    "advance_block",
    "step_slice",
    "run_sequential",
    "write_snapshot",
]

COMPAT_TOL = 1e-10


class SeparableSource:
    """A source f(t, l, x, y) = c(t) * sum_j a_j(l) * s_j(x, y).

    time_factor is c(t), l_factors the a_j(l) and fields the s_j(x, y), each
    a vectorized callable, with as many l-factors as fields.  The source
    stays callable pointwise; the time stepper instead assembles the load of
    each field once per run and combines those vectors per slice.
    """

    def __init__(self, time_factor: Callable, l_factors: Sequence[Callable], fields: Sequence[Callable]):
        self.time_factor = time_factor
        self.l_factors = tuple(l_factors)
        self.fields = tuple(fields)
        if not self.fields:
            raise ValueError("a separable source needs at least one field")
        if len(self.l_factors) != len(self.fields):
            raise ValueError(
                f"{len(self.l_factors)} l-factors for {len(self.fields)} fields; "
                "a separable source needs one per field"
            )

    def __call__(self, t, l, x, y):
        total = self.l_factors[0](l) * self.fields[0](x, y)
        for a, s in zip(self.l_factors[1:], self.fields[1:]):
            total = total + a(l) * s(x, y)
        return self.time_factor(t) * total


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the balance equation.

    Scalar fields are vectorized callables over numpy arrays: the source
    f(t, l, x, y), initial data z_init(l, x, y), and inflow data
    z_bdry(t, x, y); the *_grad companions return the spatial gradient as an
    (fx, fy) pair.  G(l) is the growth rate along the internal coordinate.
    A source given as a SeparableSource enters the time steps through loads
    assembled once per run; any other callable is evaluated per slice.

    z_init and z_init_grad are evaluated for several slices per call, with l
    as a (k, 1) column and x, y as (q,) arrays: row i of a result may depend
    only on l[i], and a (q,) result is broadcast over the k rows.
    """

    epsilon: float
    b: tuple[float, float]
    G: Callable
    f: Callable
    z_init: Callable
    z_init_grad: Callable
    z_bdry: Callable
    z_bdry_grad: Callable
    T: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.epsilon}")
        if self.T <= 0.0:
            raise ValueError(f"final time must be positive, got {self.T}")


@dataclass(eq=False)
class SolutionSurface:
    """All internal-coordinate slices at one time level."""

    n: int
    slices: tuple[FieldSlice, ...]

    def __post_init__(self):
        self.slices = tuple(self.slices)

    def as_matrix(self) -> np.ndarray:
        """Stacked slice values, shape (M+1, num_dofs)."""
        return np.stack([s.values for s in self.slices])


class Operators:
    """Assembled matrices, factorizations, the projector and load assembler,
    the field loads of a separable source, and the chunk buffers of
    advance_block, for one run.

    Pipeline workers inherit the operators through fork; a worker's first
    write to a buffer gives it a copy of its own.
    """

    def __init__(
        self,
        mesh: SpatialMesh,
        basis: BasisSet,
        spec: ProblemSpec,
        tau: float,
        lgrid: LGrid,
        solver_config: SolverConfig | None = None,
    ):
        if tau <= 0.0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.spec = spec
        self.tau = tau
        self.lgrid = lgrid

        self.mass, stiffness, convection, self.projector, self.load = _run_operators(
            mesh, basis, spec.epsilon, spec.b, solver_config
        )
        self.system = (self.mass.multiply(1.0 / tau) + stiffness + convection).tocsr()
        self.system_bc = apply_dirichlet(self.system, mesh.boundary_mask)
        self._solver = make_solver(self.system_bc, solver_config)
        # a separable source: the loads L_j of its fields, and a_j(l_m) as row j
        self.source_loads = self.source_factors = None
        if isinstance(spec.f, SeparableSource):
            self.source_loads = [self.load.assemble(s) for s in spec.f.fields]
            self.source_factors = np.stack(
                [np.broadcast_to(a(lgrid.nodes), lgrid.nodes.shape) for a in spec.f.l_factors]
            )
        self.boundary_idx = np.flatnonzero(mesh.boundary_mask)
        # the foot weights are time-independent because G does not depend on t
        self.alphas = np.zeros(lgrid.M + 1)
        for m in range(1, lgrid.M + 1):
            self.alphas[m] = backtrace(m, tau, lgrid, spec.G).alpha
        self._work = _Workspace(self)

    def solve_system(self, rhs: np.ndarray) -> np.ndarray:
        """Solve a (k, num_dofs) block of right-hand sides, one per row.

        A 1-D rhs is a block of one, so it gets the bytes it gets in any block.
        """
        rhs = np.asarray(rhs, dtype=float)
        return self._solver.solve_rows(rhs.reshape(-1, rhs.shape[-1])).reshape(rhs.shape)


def precompute_operators(
    mesh: SpatialMesh,
    basis: BasisSet,
    spec: ProblemSpec,
    tau: float,
    lgrid: LGrid,
    solver_config: SolverConfig | None = None,
) -> Operators:
    """Assemble, eliminate, and factorize everything reused across (n, m)."""
    return Operators(mesh, basis, spec, tau, lgrid, solver_config)


def _check_compatibility(spec: ProblemSpec, mesh: SpatialMesh, lgrid: LGrid) -> None:
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    l_min = np.full((1, 1), lgrid.l_min)  # a column of one slice, as level 0 passes it
    gap = np.max(np.abs(spec.z_init(l_min, x, y) - spec.z_bdry(0.0, x, y)))
    if not gap <= COMPAT_TOL:  # NaN fails this test, not the reverse one
        raise ValueError(
            f"initial and inflow data disagree at t=0, l=l_min: max gap {gap:.3e}"
        )


def _project_boundary(projector: RitzProjector, spec: ProblemSpec, t: float) -> np.ndarray:
    return projector.project(
        lambda x, y: spec.z_bdry(t, x, y),
        lambda x, y: spec.z_bdry_grad(t, x, y),
    )


def _initial_rows(projector: RitzProjector, spec: ProblemSpec, lgrid: LGrid, block: range) -> np.ndarray:
    """Level-0 values of the slices in block, one row each: the inflow data
    at m=0, the initial data elsewhere, evaluated for a group of slices per
    call (RitzProjector._project_family) and projected slice by slice."""
    rows = np.empty((len(block), projector.matrix.shape[0]))
    if block.start == 0:
        rows[0] = _project_boundary(projector, spec, 0.0)
    first = max(block.start, 1)
    interior = lgrid.nodes[first : block.stop]
    projector._project_family(spec.z_init, spec.z_init_grad, interior, rows[first - block.start :])
    return rows


def _level_surface(n: int, level: np.ndarray) -> SolutionSurface:
    """Surface whose slices view the rows of the (M+1, num_dofs) level array."""
    return SolutionSurface(n, tuple(FieldSlice(row, n=n, m=m) for m, row in enumerate(level)))


def initialize(
    mesh: SpatialMesh,
    basis: BasisSet,
    spec: ProblemSpec,
    lgrid: LGrid,
    operators: Operators,
) -> SolutionSurface:
    """Level-0 surface: gradient projections of the initial and inflow data,
    with the projector, and so the solver, of operators."""
    _check_compatibility(spec, mesh, lgrid)
    return _level_surface(0, _initial_rows(operators.projector, spec, lgrid, range(lgrid.M + 1)))


def boundary_slice(
    n: int,
    tgrid: TimeGrid,
    mesh: SpatialMesh,
    basis: BasisSet,
    spec: ProblemSpec,
    operators: Operators,
) -> FieldSlice:
    """Slice m=0 at time level n: gradient projection of the inflow data with
    the projector of operators.

    The inflow is taken at t = n*tau, the time at which the other slices of
    level n evaluate the source.
    """
    return FieldSlice(_project_boundary(operators.projector, spec, n * tgrid.tau), n=n, m=0)


class _Workspace:
    """Chunk buffers of advance_block, allocated once per Operators: the blend,
    mass-product and right-hand-side rows of one chunk of PANEL slices."""

    def __init__(self, ops: Operators):
        self.blend, self.same, self.rhs = np.empty((3, ops.mass.shape[0] * PANEL))
        self.beta = 1.0 - ops.alphas  # weight of the same-index slice


def advance_block(
    ops: Operators,
    n: int,
    left_row: np.ndarray,
    prev: np.ndarray,
    m0: int,
    out: np.ndarray,
) -> None:
    """Fill out[i] with slice (n, m0+i) for every row i of prev.

    prev holds the level-(n-1) slices m0..m0+k-1 as a (k, num_dofs) array and
    left_row the level-(n-1) slice m0-1; out has the shape of prev.  Rows are
    processed in chunks of fem.PANEL rows: the blend, the mass product and the
    solve are one call each per chunk.  A separable source adds
    (c(t) a_j(l_m)) L_j to row m one field j at a time, elementwise, so a
    row's load does not depend on the chunk; any other source is evaluated
    and its load assembled once per slice.  The solver works on panels of a
    fixed width, so every row gets the same bytes in any block.
    Raises SolveFailure at the first slice with a non-finite value.
    """
    work = ops._work
    spec, load, alphas = ops.spec, ops.load, ops.alphas
    ndofs = prev.shape[1]
    t = n * ops.tau
    inv_tau = 1.0 / ops.tau
    for c in range(0, prev.shape[0], PANEL):
        k = min(PANEL, prev.shape[0] - c)
        m = m0 + c
        # characteristic blend; column i holds slice m+i
        z = work.blend[: ndofs * k].reshape(ndofs, k)
        same = work.same[: ndofs * k].reshape(ndofs, k)
        if c == 0:
            np.multiply(left_row, alphas[m], out=z[:, 0])
            np.multiply(prev[: k - 1].T, alphas[m + 1 : m + k], out=z[:, 1:])
        else:
            np.multiply(prev[c - 1 : c + k - 1].T, alphas[m : m + k], out=z)
        np.multiply(prev[c : c + k].T, work.beta[m : m + k], out=same)
        np.add(z, same, out=z)
        rhs = work.rhs[: ndofs * k].reshape(k, ndofs)
        np.multiply((ops.mass @ z).T, inv_tau, out=rhs)
        if ops.source_loads is None:
            for i in range(k):
                l_i = float(ops.lgrid.nodes[m + i])
                rhs[i] += load.assemble_values(spec.f(t, l_i, load.x, load.y))
        else:
            # row i gains (c(t) a_j(l_{m+i})) L_j; the blend is done with same
            c_t = spec.f.time_factor(t)
            term = work.same[: ndofs * k].reshape(k, ndofs)
            for a, field_load in zip(ops.source_factors, ops.source_loads):
                np.multiply((c_t * a[m : m + k])[:, None], field_load, out=term)
                rhs += term
        rhs[:, ops.boundary_idx] = 0.0
        out[c : c + k] = ops.solve_system(rhs)
    _check_finite(out, n, m0)


def _check_finite(rows: np.ndarray, n: int, m0: int) -> None:
    """Raise SolveFailure at the first row m0+i of level n holding a non-finite value."""
    finite = np.isfinite(rows)
    if not finite.all():
        m = m0 + int(np.flatnonzero(~finite.all(axis=1))[0])
        raise SolveFailure(f"non-finite values in slice m={m} at step n={n}", n=n, m=m)


def _advance_level(
    ops: Operators,
    n: int,
    left_row: np.ndarray | None,
    prev: np.ndarray,
    m0: int,
    out: np.ndarray,
) -> None:
    """advance_block over rows m0.. of level n; a row at m=0 is the inflow slice."""
    if m0 > 0:
        advance_block(ops, n, left_row, prev, m0, out)
        return
    out[0] = _project_boundary(ops.projector, ops.spec, n * ops.tau)
    _check_finite(out[:1], n, 0)
    advance_block(ops, n, prev[0], prev[1:], 1, out[1:])


def step_slice(
    surface_prev: SolutionSurface,
    m: int,
    n: int,
    operators: Operators,
) -> FieldSlice:
    """Advance internal index m from the complete level-(n-1) surface."""
    if not 1 <= m <= operators.lgrid.M:
        raise ValueError(f"internal index must lie in 1..{operators.lgrid.M}, got {m}")
    if surface_prev.n != n - 1:
        raise ValueError(
            f"previous surface is at level {surface_prev.n}, expected {n - 1}"
        )
    same = surface_prev.slices[m].values
    out = np.empty((1, same.shape[0]))
    advance_block(operators, n, surface_prev.slices[m - 1].values, same[None, :], m, out)
    return FieldSlice(out[0], n=n, m=m)


def _prepare(
    spec: ProblemSpec,
    mesh: SpatialMesh,
    basis: BasisSet,
    lgrid: LGrid,
    tgrid: TimeGrid,
    solver_config: SolverConfig | None,
) -> Operators:
    """Preamble of both drivers: the stability and t=0 compatibility checks,
    then the operators, whose projector also builds level 0."""
    cfl = check_cfl(tgrid.tau, lgrid, spec.G)
    if not cfl.passed:
        raise CflViolationError(cfl.describe())
    _check_compatibility(spec, mesh, lgrid)
    return precompute_operators(mesh, basis, spec, tgrid.tau, lgrid, solver_config)


def run_sequential(
    spec: ProblemSpec,
    mesh: SpatialMesh,
    basis: BasisSet,
    lgrid: LGrid,
    tgrid: TimeGrid,
    solver_config: SolverConfig | None = None,
    snapshot_steps: Sequence[int] = (),
    snapshot_dir=None,
) -> SolutionSurface:
    """Advance the full surface from t=0 to t=T, one advance_block call per level."""
    ops = _prepare(spec, mesh, basis, lgrid, tgrid, solver_config)
    snapshots = set(int(s) for s in snapshot_steps)
    # two level arrays, swapped after every step
    level = _initial_rows(ops.projector, spec, lgrid, range(lgrid.M + 1))
    if 0 in snapshots:
        write_snapshot(_level_surface(0, level), _snapshot_path(snapshot_dir, 0))
    spare = np.empty_like(level)
    for n in range(1, tgrid.N + 1):
        _advance_level(ops, n, None, level, 0, spare)
        level, spare = spare, level
        if n in snapshots:
            write_snapshot(_level_surface(n, level), _snapshot_path(snapshot_dir, n))
    return _level_surface(tgrid.N, level)


def _snapshot_path(snapshot_dir, n: int):
    base = snapshot_dir if snapshot_dir is not None else "."
    return os.path.join(base, f"surface_n{n:05d}.txt")


def write_snapshot(surface: SolutionSurface, path) -> None:
    """Write a surface as text rows `m node_index value` (17 significant digits)."""
    with open(path, "w") as fh:
        for s in surface.slices:
            for i, v in enumerate(s.values):
                fh.write(f"{s.m} {i} {v:.16E}\n")
