"""Study harness: manufactured problem, convergence and scaling studies, and
the CSV text of their tables.

The built-in benchmark problem has the closed-form solution

    z(t, l, x, y) = exp(-t/10) sin(pi l) sin(pi x) sin(pi y)

on the unit square with unit diffusion, velocity (1, 1), growth rate
G(l) = 1/2 + 2(1-l)l on [0, 1], and T = 1.  The source term and the initial,
inflow and exact fields are written out in closed form from that solution,
so measured errors are pure discretization errors.  The source is a
SeparableSource of two spatial fields, so the time steps assemble its loads
once per run.  Convergence studies sweep the mesh size with a coupling rule
for the two step sizes; scaling studies sweep the worker count.  A step size
must divide the length it steps over, to the relative 1e-9 the mesh size
also has (mesh._step_count), or the study raises ValueError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .characteristics import CflViolationError, LGrid, TimeGrid, foot_weights
from .fem import ErrorEvaluator, SolverConfig
from .mesh import Rectangle, UNIT_SQUARE, _step_count, build_structured_mesh, reference_basis
from .pipeline import PipelineRun, ScalingRow, run_pipeline, timing_report
from .stepper import ProblemSpec, SeparableSource, run_sequential

__all__ = [
    "MMSProblem",
    "StudyConfig",
    "ConvergenceRow",
    "mms_problem",
    "run_single",
    "convergence_study",
    "characteristics_study",
    "scaling_study",
    "format_convergence_rows",
    "format_scaling_rows",
    "COUPLINGS",
]

DECAY_RATE = 0.1

# (tau, iota) as a function of mesh size
COUPLINGS: dict[str, Callable[[float], tuple[float, float]]] = {
    "h2": lambda h: (h * h, h * h),
    "h3": lambda h: (h**3, h**3),
    "equal": lambda h: (h, h),
}


@dataclass(frozen=True)
class MMSProblem(ProblemSpec):
    """Benchmark problem plus its exact solution and the grids it lives on."""

    exact: Callable = None
    exact_grad: Callable = None
    domain: Rectangle = UNIT_SQUARE
    l_min: float = 0.0
    l_max: float = 1.0

    def lgrid(self, M: int) -> LGrid:
        return LGrid(self.l_min, self.l_max, M)

    def exact_at(self, t: float, l: float):
        """Freeze (t, l): returns (field, gradient) callables over (x, y)."""
        return (
            lambda x, y: self.exact(t, l, x, y),
            lambda x, y: self.exact_grad(t, l, x, y),
        )


# The source separates as exp(-t/10) * (A(l)*S(x,y) + B(l)*C(x,y)) with
# S = sin(pi x) sin(pi y), C = cos(pi x) sin(pi y) + sin(pi x) cos(pi y),
# A = (2 pi^2 - 1/10) sin(pi l) + pi G(l) cos(pi l) and B = pi sin(pi l).


def _decay(t):
    return np.exp(-DECAY_RATE * t)


def _source_sines(x, y):
    return np.sin(np.pi * np.asarray(x, dtype=float)) * np.sin(np.pi * np.asarray(y, dtype=float))


def _source_mixed(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
    sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
    return cx * sy + sx * cy


def _source_sines_factor(l):
    growth = 0.5 + 2.0 * (1.0 - l) * l
    return (2.0 * np.pi * np.pi - DECAY_RATE) * np.sin(np.pi * l) + np.pi * growth * np.cos(np.pi * l)


def _source_mixed_factor(l):
    return np.pi * np.sin(np.pi * l)


def _growth(l):
    return l * (2 - 2 * l) + 0.5


def _solution(t, l, x, y):
    return np.exp(-DECAY_RATE * t) * np.sin(np.pi * l) * np.sin(np.pi * x) * np.sin(np.pi * y)


def _solution_grad(t, l, x, y):
    c = np.pi * np.exp(-DECAY_RATE * t) * np.sin(np.pi * l)
    return c * np.sin(np.pi * y) * np.cos(np.pi * x), c * np.sin(np.pi * x) * np.cos(np.pi * y)


def _zero_inflow(t, x, y):
    return np.zeros(np.shape(x))


def _zero_inflow_grad(t, x, y):
    return np.zeros(np.shape(x)), np.zeros(np.shape(x))


@lru_cache(maxsize=1)
def mms_problem() -> MMSProblem:
    """The manufactured benchmark problem, with hand-written closed-form fields.

    The solution carries a factor sin(pi l), so the inflow data at l = 0 are
    identically zero.  The test suite checks every field against a symbolic
    derivation of the problem; the operand order of each product follows
    that derivation's printed form, so the fields match it bitwise.  The
    source, a SeparableSource of two spatial fields, matches it to rounding.
    """
    return MMSProblem(
        epsilon=1.0,
        b=(1.0, 1.0),
        G=_growth,
        f=SeparableSource(
            _decay, (_source_sines_factor, _source_mixed_factor), (_source_sines, _source_mixed)
        ),
        z_init=lambda l, x, y: _solution(0.0, l, x, y),
        z_init_grad=lambda l, x, y: _solution_grad(0.0, l, x, y),
        z_bdry=_zero_inflow,
        z_bdry_grad=_zero_inflow_grad,
        T=1.0,
        exact=_solution,
        exact_grad=_solution_grad,
    )


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of a study.

    Convergence-type studies use levels, coupling and T (None: the problem's
    final time); scaling uses the worker sweep plus fixed discretization
    parameters.
    """

    element_order: int = 1
    levels: tuple[float, ...] = ()  # mesh sizes h, strictly decreasing
    coupling: str = "h2"
    workers: tuple[int, ...] = ()
    h: float | None = None
    iota: float | None = None
    T: float | None = None
    scaling_mode: str = "strong"
    block: int = 8
    n_steps: int = 32
    solver: SolverConfig | None = None

    def __post_init__(self):
        if self.element_order not in (1, 2):
            raise ValueError(f"unsupported element order {self.element_order}")
        if self.coupling not in COUPLINGS:
            raise ValueError(
                f"unknown coupling {self.coupling!r}; expected one of {sorted(COUPLINGS)}"
            )
        if self.levels and any(
            b >= a for a, b in zip(self.levels, self.levels[1:])
        ):
            raise ValueError(f"mesh levels must be strictly decreasing, got {self.levels}")
        if self.scaling_mode not in ("strong", "weak"):
            raise ValueError(f"unknown scaling mode {self.scaling_mode!r}")
        if min(self.n_steps, self.block) < 1:
            raise ValueError(f"n_steps and block must be >= 1, got {self.n_steps} and {self.block}")


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level: mesh size, step sizes, errors, and observed orders."""

    h: float
    tau: float
    iota: float
    l2_error: float
    l2_order: float | None
    h1_error: float
    h1_order: float | None


def _cell_count(problem: MMSProblem, iota: float) -> int:
    span = problem.l_max - problem.l_min
    return _step_count(span, iota, "iota", "the internal interval of length")


def _grids_for(problem: MMSProblem, tau: float, iota: float, T: float):
    M = _cell_count(problem, iota)
    N = _step_count(T, tau, "tau", "the final time")
    return problem.lgrid(M), TimeGrid(T, N)


def run_single(
    problem: MMSProblem,
    h: float,
    tau: float,
    iota: float,
    order: int = 1,
    workers: int | None = None,
    T: float | None = None,
    solver: SolverConfig | None = None,
    snapshot_steps: Sequence[int] = (),
    snapshot_dir=None,
) -> tuple[float, float]:
    """One run at fixed parameters; returns the worst-slice (L2, H1) errors at t=T.

    Without workers or with one, the run is sequential; any other count goes
    to run_pipeline, which rejects counts below 1.  Snapshots are written by
    the sequential run only, into snapshot_dir, which is created if missing.
    """
    pipelined = workers not in (None, 1)
    if pipelined and snapshot_steps:
        raise ValueError("snapshots are written by sequential runs only; drop them or run one worker")
    if snapshot_steps and snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
    T = problem.T if T is None else T
    lgrid, tgrid = _grids_for(problem, tau, iota, T)
    mesh = build_structured_mesh(problem.domain, h, order)
    basis = reference_basis(order)
    if pipelined:
        surface = run_pipeline(problem, mesh, basis, lgrid, tgrid, workers, solver).surface
    else:
        surface = run_sequential(
            problem, mesh, basis, lgrid, tgrid, solver,
            snapshot_steps=snapshot_steps, snapshot_dir=snapshot_dir,
        )
    evaluator = ErrorEvaluator(mesh, basis)
    worst_l2 = worst_h1 = 0.0
    for m in range(1, lgrid.M + 1):
        exact, exact_grad = problem.exact_at(T, float(lgrid.nodes[m]))
        l2, h1 = evaluator.norms(surface.slices[m].values, exact, exact_grad)
        worst_l2 = max(worst_l2, l2)
        worst_h1 = max(worst_h1, h1)
    return worst_l2, worst_h1


def _precheck_cfl(problem: MMSProblem, levels, coupling: str, T: float) -> None:
    """Apply every level's stability gate (foot_weights) before any level runs."""
    rule = COUPLINGS[coupling]
    for h in levels:
        lgrid, tgrid = _grids_for(problem, *rule(h), T)
        try:
            foot_weights(tgrid.tau, lgrid, problem.G)
        except CflViolationError as exc:
            raise CflViolationError(f"level h={h}: {exc}") from None


def convergence_study(config: StudyConfig, problem: MMSProblem | None = None) -> list[ConvergenceRow]:
    """Error table over a sweep of mesh sizes with coupled step sizes.

    Order columns are log2 ratios of successive errors (levels halve).  The
    study runs with at most one worker count, sequentially without one.
    """
    if not config.levels:
        raise ValueError("convergence study needs at least one mesh level")
    if len(config.workers) > 1:
        raise ValueError(
            f"workers={config.workers}: only scaling studies take several worker counts"
        )
    problem = problem if problem is not None else mms_problem()
    T = problem.T if config.T is None else config.T
    _precheck_cfl(problem, config.levels, config.coupling, T)
    rule = COUPLINGS[config.coupling]
    workers = config.workers[0] if config.workers else None

    rows: list[ConvergenceRow] = []
    for h in config.levels:
        tau, iota = rule(h)
        l2, h1 = run_single(
            problem, h, tau, iota, config.element_order, workers, T=T, solver=config.solver
        )
        if rows:
            l2_order = float(np.log2(rows[-1].l2_error / l2))
            h1_order = float(np.log2(rows[-1].h1_error / h1))
        else:
            l2_order = h1_order = None
        rows.append(ConvergenceRow(h, tau, iota, l2, l2_order, h1, h1_order))
    return rows


def characteristics_study(config: StudyConfig, problem: MMSProblem | None = None) -> list[ConvergenceRow]:
    """Internal-coordinate refinement: quadratic elements with h = iota = tau.

    Spatial error is then negligible against the first-order transport error,
    so both norms converge at order one in the step size.
    """
    if config.element_order != 2:
        raise ValueError("the internal-coordinate study requires quadratic elements")
    if config.coupling != "equal":
        raise ValueError("the internal-coordinate study requires the coupling tau = iota = h")
    return convergence_study(config, problem)


def scaling_study(config: StudyConfig, problem: MMSProblem | None = None) -> list[ScalingRow]:
    """Sweep worker counts; strong mode fixes the problem, weak mode fixes the block size.

    Both modes run with tau = iota (the tightest stable step) over n_steps
    steps, so the integration horizon is n_steps * iota.  Worker counts above
    the number of usable CPUs (pipeline.usable_cpus) are annotated as
    oversubscribed.
    """
    problem = problem if problem is not None else mms_problem()
    workers = config.workers or (1, 2)
    h = config.h if config.h is not None else 2.0**-5
    order = config.element_order
    mesh = build_structured_mesh(problem.domain, h, order)
    basis = reference_basis(order)

    rows: list[ScalingRow] = []
    baseline: PipelineRun | None = None
    for P in workers:
        if config.scaling_mode == "weak":
            M = config.block * P - 1
        elif config.iota is not None:
            M = _cell_count(problem, config.iota)
        else:
            M = 128
        lgrid = problem.lgrid(M)
        tau = lgrid.iota
        tgrid = TimeGrid(config.n_steps * tau, config.n_steps)
        run = run_pipeline(problem, mesh, basis, lgrid, tgrid, P, config.solver)
        if baseline is None:
            baseline = run
        rows.append(timing_report(run, baseline))
    return rows


# ---------------------------------------------------------------------------
# CSV formats

CONVERGENCE_HEADER = "h,tau,iota,l2_error,l2_order,h1_error,h1_order"
SCALING_HEADER = "workers,total_seconds,speedup,avg_worker_seconds,max_worker_seconds"


def _fmt_error(v: float) -> str:
    return f"{v:.5E}"  # six significant digits


def _fmt_order(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


def format_convergence_rows(rows: Sequence[ConvergenceRow]) -> str:
    lines = [CONVERGENCE_HEADER]
    for r in rows:
        lines.append(
            f"{r.h:.6G},{r.tau:.6G},{r.iota:.6G},"
            f"{_fmt_error(r.l2_error)},{_fmt_order(r.l2_order)},"
            f"{_fmt_error(r.h1_error)},{_fmt_order(r.h1_order)}"
        )
    return "\n".join(lines) + "\n"


def format_scaling_rows(rows: Sequence[ScalingRow]) -> str:
    lines = []
    if rows:
        # unlike the reference tables, speedup is measured against the
        # smallest configured worker count, not a fixed 8-worker run
        lines.append(f"# speedup baseline: {rows[0].workers} worker(s)")
    if any(r.oversubscribed for r in rows):
        over = ",".join(str(r.workers) for r in rows if r.oversubscribed)
        lines.append(f"# oversubscribed worker counts (more workers than usable CPUs): {over}")
    lines.append(SCALING_HEADER)
    for r in rows:
        lines.append(
            f"{r.workers},{r.total_seconds:.6f},{r.speedup:.4f},"
            f"{r.avg_worker_seconds:.6f},{r.max_worker_seconds:.6f}"
        )
    return "\n".join(lines) + "\n"

