"""Sequential time stepping of the coupled (time x internal x space) system.

Each time step advances every internal-coordinate slice independently: the
previous-level slices at m-1 and m are blended with the characteristic
weight, multiplied by the mass matrix, augmented with the source load, and
solved against the fixed system matrix M/tau + diffusion + convection.  The
system matrix does not depend on (n, m), nor the weights on n, because the
growth rate depends only on the internal coordinate: the matrix is assembled
and factorized once, and the weights of all nodes are one table
(characteristics.foot_weights).

Initial slices and the slices at the inflow end of the internal interval are
gradient projections of the prescribed data.  Level 0 evaluates the initial
data for a group of slices per call and projects each slice alone, so it has
the bytes of slice-by-slice projections.

A run steps only the free (non-Dirichlet) DOFs, whose values are exactly
zero on the boundary at every level: a level, a pipeline block and a message
are (rows, num_free) arrays.  Level 0 and the inflow are the projector's
free-DOF rows, and the step factor is taken on the free block of the system,
that of the eliminated system (fem.apply_dirichlet), which no run builds.
Arrays leave a run full width, with exact zeros at the boundary DOFs: the
returned surface, the snapshots and the per-slice API (initialize,
boundary_slice, step_slice, and Operators.solve_system given all-DOF rows).

One kernel, advance_block, advances a contiguous block of slices of a level.
The sequential loop calls it once per level on slices 1..M, each pipeline
worker once per level on its own block, and step_slice on a block of one
slice.  Within a block, slices are processed in chunks of one solver panel
(fem.PANEL slices), one column per slice, in chunk buffers that Operators
allocates once per run.  A SeparableSource, c(t) sum_j a_j(l) s_j(x, y), has
its field loads L_j = integral of s_j phi_i assembled and its factors
a_j(l_m) tabulated once per run, and the loads form one CSR step operator
[M/tau | L_1 ... L_J], on free rows and columns, with the mass matrix scaled
by 1/tau: one sparse product of it with the chunk's blends and coefficients
c(t) a_j(l_m) gives the right-hand sides, the mass terms first and the loads
after them in field order.  Any other source has the mass product scaled by
1/tau, and is evaluated at the quadrature points once per chunk, with l as
a (k, 1) column, and assembled once per chunk by one sparse product on the
free rows.  The mass terms of the boundary columns, which the full product
would add, are products with exact zeros and do not change a sum.

Rounding: for tau = 2^-k, scaling the mass entries by 1/tau is exact, so a
separable source's right-hand side is bit for bit (M z)(1/tau) plus the
loads; for any other tau it may differ from that in the last bit, the same
way in every block, chunk and worker.

Every system solve has the same fixed width (fem.PANEL right-hand sides, a
partial panel padded with zeros), so a slice's bytes do not depend on its
block, chunk or worker.  A level with a non-finite value raises SolveFailure
carrying (n, m), and so does a failing solve: a projection names its slice
and says it was a projection, and a step solve names the first slice of its
chunk.  Projected data that do not vanish on the boundary raise
BoundaryTraceError carrying (n, m): (0, m) at level 0, (n, 0) at the inflow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .characteristics import LGrid, TimeGrid, foot_weights
from .fem import (
    PANEL,
    BoundaryTraceError,
    FieldSlice,
    RitzProjector,
    SolveFailure,
    SolverConfig,
    _family_rows,
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
    assembled once per run, any other callable once per chunk of fem.PANEL
    slices.  The final time is the TimeGrid's.

    z_init, z_init_grad and any other source are evaluated for several
    slices per call, with l as a (k, 1) column and x, y as (q,) arrays: row
    i of a result may depend only on l[i], and a (q,) result is broadcast
    over the k rows; another shape is a ValueError naming the callable.
    """

    epsilon: float
    b: tuple[float, float]
    G: Callable
    f: Callable
    z_init: Callable
    z_init_grad: Callable
    z_bdry: Callable
    z_bdry_grad: Callable

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.epsilon}")


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
    the step operator and the chunk buffers of advance_block, for one run.

    Construction checks, before any assembly, the t=0 compatibility of the
    data, then tau and the stability gate, then that the mesh has free DOFs.

    free holds the indices of the free (non-Dirichlet) DOFs, the columns of
    every level a run steps; the step factor and the step operator work on
    those DOFs only, and boundary_idx holds the others.

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
        _check_compatibility(spec, mesh, lgrid)
        if tau <= 0.0:
            raise ValueError(f"step size must be positive, got {tau}")
        # the stability gate, before any assembly; the weights are time-independent like G
        self.alphas = foot_weights(tau, lgrid, spec.G)
        self.beta = 1.0 - self.alphas  # weight of the same-index slice
        if mesh.boundary_mask.all():
            raise ValueError(
                f"the order-{mesh.order} mesh of h={mesh.h:g} has no free DOF: "
                f"all {mesh.num_nodes} nodes lie on the boundary"
            )
        self.spec = spec
        self.tau = tau
        self.lgrid = lgrid

        self.mass, stiffness, convection, self.projector, self.load = _run_operators(
            mesh, basis, spec.epsilon, spec.b, solver_config
        )
        scaled_mass = self.mass.multiply(1.0 / tau)
        self.system = (scaled_mass + stiffness + convection).tocsr()
        self._boundary_mask = mesh.boundary_mask
        self.boundary_idx = np.flatnonzero(mesh.boundary_mask)
        self.free = np.flatnonzero(~mesh.boundary_mask)  # the DOFs a run steps
        free = self.free
        system = self.system[free][:, free]
        system.eliminate_zeros()  # the free block of system_bc, whose bytes a free row gets
        self._solver = make_solver(system, solver_config)
        # the step operator of advance_block on free rows and columns:
        # [M/tau | L_1 ... L_J] for a separable source, with a_j(l_m) as row j
        # of source_factors; M for any other source, whose step scales the
        # mass product by 1/tau
        self.source_factors = None
        if isinstance(spec.f, SeparableSource):
            loads = np.stack([self.load.assemble(s) for s in spec.f.fields])
            self.step = _step_operator(scaled_mass[free][:, free], loads[:, free])
            self.source_factors = np.stack(
                [np.broadcast_to(a(lgrid.nodes), lgrid.nodes.shape) for a in spec.f.l_factors]
            )
        else:
            self.step = self.mass[free][:, free]
            self.point_loads = self.load._matrix[free]  # the loads of point values on free rows
        # chunk buffers of advance_block, one column per slice of a chunk of
        # PANEL slices: the operand of the step operator and the blend's
        # same-index term
        self._chunk = np.empty(self.step.shape[1] * PANEL)
        self._same = np.empty(free.size * PANEL)

    @cached_property
    def system_bc(self) -> sp.csr_matrix:
        """The system with its boundary DOFs eliminated (fem.apply_dirichlet),
        built when first read; no run reads it."""
        return apply_dirichlet(self.system, self._boundary_mask)

    def full_width(self, rows: np.ndarray) -> np.ndarray:
        """Free-DOF rows as all-DOF rows, with exact zeros at the boundary DOFs."""
        out = np.zeros(rows.shape[:-1] + self._boundary_mask.shape)
        out[..., self.free] = rows
        return out

    def solve_system(self, rhs: np.ndarray) -> np.ndarray:
        """Solve a block of right-hand sides, one per row, each over the free
        DOFs or over all DOFs.

        All-DOF rows are solved on their free entries, their boundary entries
        ignored, and come back as all-DOF rows with exact zeros at the
        boundary DOFs.  The block may be a transposed view of columns, as
        advance_block passes it.  A 1-D rhs is a block of one, so it gets the
        bytes it gets in any block.
        """
        rhs = np.asarray(rhs, dtype=float)
        width = rhs.shape[-1]
        rows = rhs.reshape(-1, width)
        if width == self.free.size:
            return self._solver.solve_rows(rows).reshape(rhs.shape)
        if width != self._boundary_mask.size:
            raise ValueError(
                f"right-hand sides of {width} entries; expected {self.free.size} "
                f"free DOFs or {self._boundary_mask.size} DOFs"
            )
        return self.full_width(self._solver.solve_rows(rows[:, self.free])).reshape(rhs.shape)


def _step_operator(scaled_mass: sp.csr_matrix, loads: np.ndarray) -> sp.csr_matrix:
    """The (n, n + J) CSR matrix [M/tau | L_1 ... L_J] of an (n, n) block of
    the mass matrix scaled by 1/tau and the J field loads on the same n DOFs,
    given as the rows of loads.

    Row i holds the mass entries of row i in their stored order, then
    L_1[i] ... L_J[i], zeros kept, so every row adds all J load terms as the
    sum over fields does.  Its product with a column whose first
    n entries are a blend z and whose last J are c(t) a_j(l_m) is the
    sum of (M_ik / tau) z_k in the order of the mass product, then of
    L_j[i] (c(t) a_j(l_m)) in field order: for tau = 2^-k exactly
    (M z)(1/tau) + sum_j (c(t) a_j(l_m)) L_j, term by term.
    """
    J, n = loads.shape
    field_loads = sp.csr_matrix(
        (loads.T.ravel(), np.tile(np.arange(J), n), J * np.arange(n + 1)), shape=(n, J)
    )
    return sp.hstack([scaled_mass, field_loads], format="csr")


precompute_operators = Operators  # the name the bench imports


def _check_compatibility(spec: ProblemSpec, mesh: SpatialMesh, lgrid: LGrid) -> None:
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    l_min = np.full((1, 1), lgrid.l_min)  # a column of one slice, as level 0 passes it
    gap = np.max(np.abs(spec.z_init(l_min, x, y) - spec.z_bdry(0.0, x, y)))
    if not gap <= COMPAT_TOL:  # NaN fails this test, not the reverse one
        raise ValueError(
            f"initial and inflow data disagree at t=0, l=l_min: max gap {gap:.3e}"
        )


def _failure_at(exc: SolveFailure | BoundaryTraceError, solve: str, n: int, m: int):
    """exc as an error of its kind that carries its slice (n, m); a
    SolveFailure also names the failing solve, a BoundaryTraceError keeps its text."""
    if isinstance(exc, BoundaryTraceError):
        return BoundaryTraceError(str(exc), n=n, m=m)
    return SolveFailure(f"{solve} at step n={n} failed: {exc}", exc.residual, n=n, m=m)


def _project_inflow(projector: RitzProjector, spec: ProblemSpec, n: int, t: float) -> np.ndarray:
    """The free-DOF row of the inflow slice (n, 0): the projection of the inflow data at time t."""
    try:
        return projector.project(lambda x, y: spec.z_bdry(t, x, y), lambda x, y: spec.z_bdry_grad(t, x, y))
    except (SolveFailure, BoundaryTraceError) as exc:
        raise _failure_at(exc, "projection of slice m=0", n, 0) from exc


def _initial_level(ops: Operators, block: range) -> np.ndarray:
    """The free-DOF level-0 rows of the slices in block: the inflow data at
    m=0, the initial data elsewhere, evaluated for a group of slices per call
    (RitzProjector._project_family) and projected slice by slice.

    The inflow slice is projected last, so a time-independent inflow has the
    projector's last right-hand side at every later level and is not solved
    again.  A failing projection raises SolveFailure at (0, m), and data that
    do not vanish on the boundary raise BoundaryTraceError there."""
    spec, projector = ops.spec, ops.projector
    rows = np.empty((len(block), ops.free.size))
    first = max(block.start, 1)
    members = projector._project_family(spec.z_init, spec.z_init_grad, ops.lgrid.nodes[first : block.stop], first)
    try:
        for m in range(first, block.stop):
            rows[m - block.start] = next(members)
    except (SolveFailure, BoundaryTraceError) as exc:
        raise _failure_at(exc, f"projection of slice m={m}", 0, m) from exc
    if block.start == 0:
        rows[0] = _project_inflow(projector, spec, 0, 0.0)
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
    """Level-0 surface: gradient projections of the initial and inflow data
    of operators, with its projector and so its solver; reads only operators
    and lgrid."""
    return _level_surface(0, operators.full_width(_initial_level(operators, range(lgrid.M + 1))))


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
    row = _project_inflow(operators.projector, spec, n, n * tgrid.tau)
    return FieldSlice(operators.full_width(row), n=n, m=0)


def advance_block(
    ops: Operators,
    n: int,
    left_row: np.ndarray,
    prev: np.ndarray,
    m0: int,
    out: np.ndarray,
) -> None:
    """Fill out[i] with slice (n, m0+i) for every row i of prev.

    prev holds the free-DOF values of the level-(n-1) slices m0..m0+k-1 as a
    (k, num_free) array and left_row those of the level-(n-1) slice m0-1; out
    has the shape of prev.  Rows are processed in chunks of fem.PANEL rows,
    one column per slice: the blend is written into the chunk buffer, a
    separable source's coefficients c(t) a_j(l_m) below it, and one product
    with the step operator [M/tau | L_1 ... L_J] gives the right-hand sides,
    which are solved straight into out.  Any other source has its mass
    product scaled by 1/tau, and is evaluated once per chunk, with l as a
    (k, 1) column, and assembled on the free rows with one sparse product
    per chunk.  Each column's arithmetic does not depend on the chunk, and
    the solver works on panels of a fixed width, so every row gets the same
    bytes in any block.
    Raises SolveFailure at the first slice with a non-finite value, and at
    the first slice of a chunk whose solve fails.
    """
    spec, load, alphas = ops.spec, ops.load, ops.alphas
    factors = ops.source_factors
    nfree = prev.shape[1]
    width = ops.step.shape[1]
    t = n * ops.tau
    if factors is not None:
        c_t = spec.f.time_factor(t)
    for c in range(0, prev.shape[0], PANEL):
        k = min(PANEL, prev.shape[0] - c)
        m = m0 + c
        # column i is slice m+i: the characteristic blend in rows :nfree, then
        # c(t) a_j(l_{m+i}) in row nfree+j
        x = ops._chunk[: width * k].reshape(width, k)
        z = x[:nfree]
        same = ops._same[: nfree * k].reshape(nfree, k)
        if c == 0:
            np.multiply(left_row, alphas[m], out=z[:, 0])
            np.multiply(prev[: k - 1].T, alphas[m + 1 : m + k], out=z[:, 1:])
        else:
            np.multiply(prev[c - 1 : c + k - 1].T, alphas[m : m + k], out=z)
        np.multiply(prev[c : c + k].T, ops.beta[m : m + k], out=same)
        np.add(z, same, out=z)
        if factors is not None:
            np.multiply(c_t, factors[:, m : m + k], out=x[nfree:])
        rhs = ops.step @ x
        if factors is None:  # step is M: (M z)(1/tau) plus the chunk's loads
            rhs *= 1.0 / ops.tau
            values = spec.f(t, ops.lgrid.nodes[m : m + k, None], load.x, load.y)
            rhs += ops.point_loads @ _family_rows(values, k, load.x.size, "f", n, m).T
        try:
            out[c : c + k] = ops.solve_system(rhs.T)
        except SolveFailure as exc:
            raise _failure_at(exc, f"step solve of slices m={m}..{m + k - 1}", n, m) from exc
    _check_finite(out, n, m0)


def _check_finite(rows: np.ndarray, n: int, m0: int) -> None:
    """Raise SolveFailure at the first row m0+i of level n holding a non-finite value."""
    # a NaN makes max and min NaN, an infinity one of them infinite
    if not rows.size or (np.isfinite(rows.max()) and np.isfinite(rows.min())):
        return
    m = m0 + int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
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
    out[0] = _project_inflow(ops.projector, ops.spec, n, n * ops.tau)
    _check_finite(out[:1], n, 0)
    advance_block(ops, n, prev[0], prev[1:], 1, out[1:])


def step_slice(
    surface_prev: SolutionSurface,
    m: int,
    n: int,
    operators: Operators,
) -> FieldSlice:
    """Advance internal index m from the complete level-(n-1) surface.

    The kernel reads the free DOFs of the two slices it blends; the slice
    it returns has exact zeros at the boundary DOFs."""
    if not 1 <= m <= operators.lgrid.M:
        raise ValueError(f"internal index must lie in 1..{operators.lgrid.M}, got {m}")
    if surface_prev.n != n - 1:
        raise ValueError(
            f"previous surface is at level {surface_prev.n}, expected {n - 1}"
        )
    free = operators.free
    out = np.empty((1, free.size))
    left, same = (surface_prev.slices[i].values[free] for i in (m - 1, m))
    advance_block(operators, n, left, same[None, :], m, out)
    return FieldSlice(operators.full_width(out[0]), n=n, m=m)


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
    """Advance the full surface from t=0 to t=T, one advance_block call per level.

    The steps in snapshot_steps, each in 0..N, are written into snapshot_dir
    (the working directory if None), which is created if missing."""
    snapshots = set(int(s) for s in snapshot_steps)
    outside = sorted(s for s in snapshots if not 0 <= s <= tgrid.N)
    if outside:
        raise ValueError(f"snapshot steps {outside} lie outside 0..{tgrid.N}")
    snapshot_dir = "." if snapshot_dir is None else snapshot_dir
    if snapshots:
        os.makedirs(snapshot_dir, exist_ok=True)
    ops = Operators(mesh, basis, spec, tgrid.tau, lgrid, solver_config)
    # two free-DOF level arrays, swapped after every step
    level = _initial_level(ops, range(lgrid.M + 1))
    spare = np.empty_like(level)
    for n in range(tgrid.N + 1):
        if n > 0:
            _advance_level(ops, n, None, level, 0, spare)
            level, spare = spare, level
        if n in snapshots:
            path = os.path.join(snapshot_dir, f"surface_n{n:05d}.txt")
            write_snapshot(_level_surface(n, ops.full_width(level)), path)
    del spare  # released before the full-width copy of the last level
    return _level_surface(tgrid.N, ops.full_width(level))


def write_snapshot(surface: SolutionSurface, path) -> None:
    """Write a surface as text rows `m node_index value` (17 significant digits),
    all rows of a slice formatted in one call."""
    with open(path, "w") as fh:
        for s in surface.slices:
            k = len(s)
            fields = [s.m] * (3 * k)
            fields[1::3] = range(k)
            fields[2::3] = s.values.tolist()
            fh.write("%d %d %.16E\n" * k % tuple(fields))
