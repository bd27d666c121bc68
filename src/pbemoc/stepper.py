"""Sequential time stepping of the coupled (time x internal x space) system.

Each time step advances every internal-coordinate slice independently: the
previous-level slices at m-1 and m are blended with the characteristic
weight, multiplied by the mass matrix, augmented with the source load, and
solved against the fixed system matrix M/tau + diffusion + convection.  The
system matrix does not depend on (n, m) because the growth rate depends only
on the internal coordinate, so it is assembled and factorized once.

Initial slices and the slices at the inflow end of the internal interval are
gradient projections of the prescribed data.
"""

from __future__ import annotations

import copy
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
    combine_backtraced,
)
from .fem import (
    FieldSlice,
    LoadAssembler,
    RitzProjector,
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
    "step_slice",
    "run_sequential",
    "write_snapshot",
]

COMPAT_TOL = 1e-10


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

    fork() yields a view with private factorizations over the shared matrices,
    so concurrent workers never touch a common factor object.
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
        self.config = solver_config

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

    def solve_system(self, rhs: np.ndarray) -> np.ndarray:
        return self._solver.solve(rhs)

    def fork(self) -> "Operators":
        other = copy.copy(self)
        other._solver = make_solver(self.system_bc, self.config)
        other.projector = self.projector.fork()
        return other


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
    if gap > COMPAT_TOL:
        raise ValueError(
            f"initial and inflow data disagree at t=0, l=l_min: max gap {gap:.3e}"
        )


def _project_initial(projector: RitzProjector, spec: ProblemSpec, l_m: float, m: int) -> FieldSlice:
    vals = projector.project(
        lambda x, y: spec.z_init(l_m, x, y),
        lambda x, y: spec.z_init_grad(l_m, x, y),
    )
    return FieldSlice(vals, n=0, m=m)


def _project_boundary(projector: RitzProjector, spec: ProblemSpec, t: float, n: int) -> FieldSlice:
    vals = projector.project(
        lambda x, y: spec.z_bdry(t, x, y),
        lambda x, y: spec.z_bdry_grad(t, x, y),
    )
    return FieldSlice(vals, n=n, m=0)


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
    slices = [_project_boundary(projector, spec, 0.0, 0)]
    for m in range(1, lgrid.M + 1):
        slices.append(_project_initial(projector, spec, float(lgrid.nodes[m]), m))
    return SolutionSurface(0, tuple(slices))


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
    return _project_boundary(projector, spec, n * tgrid.tau, n)


def _advance(
    ops: Operators,
    n: int,
    m: int,
    prev_left: FieldSlice,
    prev_same: FieldSlice,
) -> FieldSlice:
    """Solve for slice (n, m) from the two previous-level neighbours."""
    spec = ops.spec
    ztilde = combine_backtraced(prev_left, prev_same, float(ops.alphas[m]))
    t = n * ops.tau
    l_m = float(ops.lgrid.nodes[m])
    load = ops.load.assemble_values(spec.f(t, l_m, ops.load.x, ops.load.y))
    rhs = (ops.mass @ ztilde.values) * (1.0 / ops.tau) + load
    rhs[ops.boundary_idx] = 0.0
    values = ops.solve_system(rhs)
    return FieldSlice(values, n=n, m=m)


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
    return _advance(operators, n, m, surface_prev.slices[m - 1], surface_prev.slices[m])


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
    """Advance the full surface from t=0 to t=T with a deterministic double loop."""
    cfl = check_cfl(tgrid.tau, lgrid, spec.G, require_positive=False)
    if not cfl.passed:
        raise CflViolationError(cfl.describe())

    snapshots = set(int(s) for s in snapshot_steps)

    if tgrid.N == 0:
        surface = initialize(mesh, basis, spec, lgrid)
        if 0 in snapshots:
            write_snapshot(surface, _snapshot_path(snapshot_dir, 0))
        return surface

    ops = operators if operators is not None else precompute_operators(
        mesh, basis, spec, tgrid.tau, lgrid, solver_config
    )
    surface = initialize(mesh, basis, spec, lgrid, ops)
    if 0 in snapshots:
        write_snapshot(surface, _snapshot_path(snapshot_dir, 0))

    for n in range(1, tgrid.N + 1):
        slices = [boundary_slice(n, tgrid, mesh, basis, spec, ops)]
        for m in range(1, lgrid.M + 1):
            slices.append(_advance(ops, n, m, surface.slices[m - 1], surface.slices[m]))
        surface = SolutionSurface(n, tuple(slices))
        if n in snapshots:
            write_snapshot(surface, _snapshot_path(snapshot_dir, n))
    return surface


def _snapshot_path(snapshot_dir, n: int):
    base = snapshot_dir if snapshot_dir is not None else "."
    return os.path.join(base, f"surface_n{n:05d}.txt")


def write_snapshot(surface: SolutionSurface, path) -> None:
    """Write a surface as text rows `m node_index value` (17 significant digits)."""
    with open(path, "w") as fh:
        for s in surface.slices:
            for i, v in enumerate(s.values):
                fh.write(f"{s.m} {i} {v:.16E}\n")
