"""Sequential time stepping of the coupled (time x internal x space) system.

Each time step advances every internal-coordinate slice independently: the
previous-level slices at m-1 and m are blended with the characteristic
weight, multiplied by the mass matrix, augmented with the source load, and
solved against the fixed system matrix M/tau + diffusion + convection.  The
system matrix does not depend on (n, m) because the growth rate depends only
on the internal coordinate, so it is assembled and factorized once.

Initial slices and the slices at the inflow end of the internal interval are
gradient projections of the prescribed data.

One kernel, advance_block, advances a contiguous block of slices of a level,
held as a (rows, num_dofs) float64 array.  The sequential loop calls it once
per level on slices 1..M, each pipeline worker once per level on its own
block, and step_slice on a block of one slice.  Within a block, slices are
processed in chunks of about CHUNK_VALUES source values: the blend, the mass
product and the source load are one array operation per chunk, while the
source is evaluated and the system solved once per slice, so every slice gets
the same bytes whatever the block and chunk it falls in.  A level with a
non-finite value raises SolveFailure carrying (n, m).
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
    FieldSlice,
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
from .mesh import BasisSet, SpatialMesh

__all__ = [
    "ProblemSpec",
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

# advance_block works on chunks of about CHUNK_VALUES source values at the
# quadrature points, and on at least CHUNK_MIN_ROWS slices at a time
CHUNK_VALUES = 1 << 16
CHUNK_MIN_ROWS = 8


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the balance equation.

    Scalar fields are vectorized callables over numpy arrays: the source
    f(t, l, x, y), initial data z_init(l, x, y), and inflow data
    z_bdry(t, x, y); the *_grad companions return the spatial gradient as an
    (fx, fy) pair.  G(l) is the growth rate along the internal coordinate.
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

    @property
    def M(self) -> int:
        return len(self.slices) - 1

    def as_matrix(self) -> np.ndarray:
        """Stacked slice values, shape (M+1, num_dofs)."""
        return np.stack([s.values for s in self.slices])


class Operators:
    """Assembled matrices, factorizations, and quadrature caches for one run.

    The kernel buffers are allocated on first use, so each pipeline worker
    process, which inherits the operators through fork, allocates its own.
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
        self.mesh = mesh
        self.basis = basis
        self.spec = spec
        self.tau = tau
        self.lgrid = lgrid

        self.mass = assemble_mass(mesh, basis)
        stiffness = assemble_stiffness(mesh, basis, spec.epsilon)
        convection = assemble_convection(mesh, basis, spec.b)
        self.system = (self.mass.multiply(1.0 / tau) + stiffness + convection).tocsr()
        self.system_bc, _ = apply_dirichlet(
            self.system, np.zeros(mesh.num_nodes), mesh.boundary_mask
        )
        self._solver = make_solver(self.system_bc, solver_config)
        self.projector = RitzProjector(mesh, basis, solver_config=solver_config)
        self.load = LoadAssembler(mesh, basis)
        self.interior = ~mesh.boundary_mask
        self.boundary_idx = np.flatnonzero(mesh.boundary_mask)
        # the foot weights are time-independent because G does not depend on t
        self.alphas = np.zeros(lgrid.M + 1)
        for m in range(1, lgrid.M + 1):
            self.alphas[m] = backtrace(m, tau, lgrid, spec.G).alpha
        self._work = None

    def solve_system(self, rhs: np.ndarray) -> np.ndarray:
        return self._solver.solve(rhs)

    def _workspace(self) -> "_Workspace":
        if self._work is None:
            self._work = _Workspace(self)
        return self._work


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
    gap = np.max(np.abs(spec.z_init(lgrid.l_min, x, y) - spec.z_bdry(0.0, x, y)))
    if not gap <= COMPAT_TOL:  # NaN fails this test, not the reverse one
        raise ValueError(
            f"initial and inflow data disagree at t=0, l=l_min: max gap {gap:.3e}"
        )


def _project_boundary(projector: RitzProjector, spec: ProblemSpec, t: float) -> np.ndarray:
    return projector.project(
        lambda x, y: spec.z_bdry(t, x, y),
        lambda x, y: spec.z_bdry_grad(t, x, y),
    )


def _initial_values(projector: RitzProjector, spec: ProblemSpec, lgrid: LGrid, m: int) -> np.ndarray:
    """Level-0 values of slice m: the inflow data at m=0, the initial data elsewhere."""
    if m == 0:
        return _project_boundary(projector, spec, 0.0)
    l_m = float(lgrid.nodes[m])
    return projector.project(
        lambda x, y: spec.z_init(l_m, x, y),
        lambda x, y: spec.z_init_grad(l_m, x, y),
    )


def _level_surface(n: int, level: np.ndarray) -> SolutionSurface:
    """Surface whose slices view the rows of the (M+1, num_dofs) level array."""
    return SolutionSurface(n, tuple(FieldSlice(row, n=n, m=m) for m, row in enumerate(level)))


def initialize(
    mesh: SpatialMesh,
    basis: BasisSet,
    spec: ProblemSpec,
    lgrid: LGrid,
    operators: Operators | None = None,
) -> SolutionSurface:
    """Level-0 surface: gradient projections of the initial and inflow data."""
    _check_compatibility(spec, mesh, lgrid)
    projector = operators.projector if operators is not None else RitzProjector(mesh, basis)
    level = np.stack([_initial_values(projector, spec, lgrid, m) for m in range(lgrid.M + 1)])
    return _level_surface(0, level)


def boundary_slice(
    n: int,
    tgrid: TimeGrid,
    mesh: SpatialMesh,
    basis: BasisSet,
    spec: ProblemSpec,
    operators: Operators | None = None,
) -> FieldSlice:
    """Slice m=0 at time level n: gradient projection of the inflow data.

    The inflow is taken at t = n*tau, the time at which the other slices of
    level n evaluate the source.
    """
    projector = operators.projector if operators is not None else RitzProjector(mesh, basis)
    return FieldSlice(_project_boundary(projector, spec, n * tgrid.tau), n=n, m=0)


class _Workspace:
    """Chunk buffers of advance_block, allocated once per Operators."""

    def __init__(self, ops: Operators):
        num_points = ops.load.x.size
        ndofs = ops.mass.shape[0]
        self.rows = max(CHUNK_MIN_ROWS, CHUNK_VALUES // num_points)
        self.source_rows = np.empty((self.rows, num_points))
        self.source = np.empty(num_points * self.rows)
        self.blend = np.empty(ndofs * self.rows)
        self.same = np.empty(ndofs * self.rows)
        self.rhs = np.empty(ndofs * self.rows)
        self.beta = 1.0 - ops.alphas  # weight of the same-index slice
        self.nodes = ops.lgrid.nodes.tolist()


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
    processed in chunks: the blend, the mass product and the source load are
    one array operation per chunk, the source is evaluated once per slice, and
    each slice is solved on its own, so every row gets the bytes the per-slice
    arithmetic gives.  Raises SolveFailure at the first slice with a
    non-finite value.
    """
    work = ops._workspace()
    spec, load, alphas = ops.spec, ops.load, ops.alphas
    solve = ops.solve_system
    ndofs = prev.shape[1]
    num_points = load.x.size
    t = n * ops.tau
    inv_tau = 1.0 / ops.tau
    for c in range(0, prev.shape[0], work.rows):
        k = min(work.rows, prev.shape[0] - c)
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
        # the source of slice m+i, written as row i and stored as column i
        for i in range(k):
            work.source_rows[i] = spec.f(t, work.nodes[m + i], load.x, load.y)
        source = work.source[: num_points * k].reshape(num_points, k)
        np.copyto(source, work.source_rows[:k].T)
        rhs = work.rhs[: ndofs * k].reshape(k, ndofs)
        np.multiply((ops.mass @ z).T, inv_tau, out=rhs)
        rhs += load.assemble_columns(source).T
        rhs[:, ops.boundary_idx] = 0.0
        for i in range(k):
            out[c + i] = solve(rhs[i])
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
    spec: ProblemSpec | None = None,
) -> FieldSlice:
    """Advance internal index m from the complete level-(n-1) surface."""
    if spec is not None and spec is not operators.spec:
        raise ValueError("operators were precomputed for a different problem")
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


def run_sequential(
    spec: ProblemSpec,
    mesh: SpatialMesh,
    basis: BasisSet,
    lgrid: LGrid,
    tgrid: TimeGrid,
    solver_config: SolverConfig | None = None,
    snapshot_steps: Sequence[int] = (),
    snapshot_dir=None,
    operators: Operators | None = None,
) -> SolutionSurface:
    """Advance the full surface from t=0 to t=T, one advance_block call per level."""
    cfl = check_cfl(tgrid.tau, lgrid, spec.G, require_positive=False)
    if not cfl.passed:
        raise CflViolationError(cfl.describe())

    snapshots = set(int(s) for s in snapshot_steps)
    ops = None  # N = 0 needs only the projections of initialize
    if tgrid.N > 0:
        ops = operators if operators is not None else precompute_operators(
            mesh, basis, spec, tgrid.tau, lgrid, solver_config
        )
    # two level arrays, swapped after every step
    level = initialize(mesh, basis, spec, lgrid, ops).as_matrix()
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
