"""Study harness: manufactured problem, convergence and scaling studies, and
the CSV text of their tables.

The built-in benchmark problem has the closed-form solution

    z(t, l, x, y) = exp(-t/10) sin(pi l) sin(pi x) sin(pi y)

on the unit square with unit diffusion, velocity (1, 1), growth rate
G(l) = 1/2 + 2(1-l)l on [0, 1], and T = 1.  The source term and the initial,
inflow and exact fields are written out in closed form from that solution,
so measured errors are pure discretization errors.  The source is a
SeparableSource of two spatial fields, so the time steps assemble its loads
once per run.  The closed forms take sin(pi v) and cos(pi v) of a point
array v from a module-level memo of at most TRIG_MEMO_SIZE point arrays,
matched on the size and the int64 bits of v, never on its identity, so
points that every slice group and time level share pay for their sines once.
Convergence studies sweep the mesh size with a coupling rule
for the two step sizes; scaling studies sweep the worker count.  A step size
must divide the length it steps over, to the relative 1e-9 the mesh size
also has (mesh._step_count), or the study raises ValueError.
"""

from __future__ import annotations

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
    "ConvergenceRow",
    "mms_problem",
    "run_single",
    "convergence_study",
    "characteristics_study",
    "strong_scaling_study",
    "weak_scaling_study",
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
    """Benchmark problem plus its exact solution, the grids it lives on and
    the studies' default final time T."""

    T: float = 1.0
    exact: Callable = None
    exact_grad: Callable = None
    domain: Rectangle = UNIT_SQUARE
    l_min: float = 0.0
    l_max: float = 1.0

    def lgrid(self, M: int) -> LGrid:
        return LGrid(self.l_min, self.l_max, M)

    def exact_at(self, t: float, l: float):
        """Freeze (t, l): returns (field, gradient) callables over (x, y).
        No code in the package calls it: run_single uses ErrorEvaluator.worst_norms."""
        return (
            lambda x, y: self.exact(t, l, x, y),
            lambda x, y: self.exact_grad(t, l, x, y),
        )


# The source separates as exp(-t/10) * (A(l)*S(x,y) + B(l)*C(x,y)) with
# S = sin(pi x) sin(pi y), C = cos(pi x) sin(pi y) + sin(pi x) cos(pi y),
# A = (2 pi^2 - 1/10) sin(pi l) + pi G(l) cos(pi l) and B = pi sin(pi l).


def _decay(t):
    return np.exp(-DECAY_RATE * t)


# sin(pi v) and cos(pi v) of the last TRIG_MEMO_SIZE point arrays v the
# closed forms met, newest first, as (bits of v, sin, cos), all flat
TRIG_MEMO_SIZE = 8
_trig_memo: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []


def _sin_cos(v):
    """sin(pi v) and cos(pi v) in the shape of v, as read-only arrays.

    An entry of the memo serves v if it has v's size and the bits of v's
    int64 view, whatever v's shape: points changed in place miss, -0.0 and
    0.0 are told apart, and NaN points hit.  A miss evaluates the flat points
    and stores a copy of their bits, dropping the oldest entry beyond
    TRIG_MEMO_SIZE; the memo is never updated on a hit.  An entry is one
    tuple and the list's insert and del are atomic, so callers in threads
    can at worst both miss and evaluate the same points.
    """
    v = np.asarray(v, dtype=float)
    bits = np.ascontiguousarray(v).reshape(-1).view(np.int64)
    for key, s, c in _trig_memo:
        if key.size == bits.size and np.array_equal(key, bits):
            break
    else:
        key = bits.copy()
        s, c = np.sin(np.pi * key.view(float)), np.cos(np.pi * key.view(float))
        s.flags.writeable = c.flags.writeable = False
        _trig_memo.insert(0, (key, s, c))
        del _trig_memo[TRIG_MEMO_SIZE:]
    return s.reshape(v.shape), c.reshape(v.shape)


def _source_sines(x, y):
    (sx, _), (sy, _) = _sin_cos(x), _sin_cos(y)
    return sx * sy


def _source_mixed(x, y):
    (sx, cx), (sy, cy) = _sin_cos(x), _sin_cos(y)
    return cx * sy + sx * cy


def _source_sines_factor(l):
    growth = 0.5 + 2.0 * (1.0 - l) * l
    return (2.0 * np.pi * np.pi - DECAY_RATE) * np.sin(np.pi * l) + np.pi * growth * np.cos(np.pi * l)


def _source_mixed_factor(l):
    return np.pi * np.sin(np.pi * l)


def _growth(l):
    return l * (2 - 2 * l) + 0.5


def _solution(t, l, x, y):
    (sx, _), (sy, _) = _sin_cos(x), _sin_cos(y)
    return np.exp(-DECAY_RATE * t) * np.sin(np.pi * l) * sx * sy


def _solution_grad(t, l, x, y):
    (sx, cx), (sy, cy) = _sin_cos(x), _sin_cos(y)
    c = np.pi * np.exp(-DECAY_RATE * t) * np.sin(np.pi * l)
    return c * sy * cx, c * sx * cy


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
    The fields take sin(pi x), cos(pi x), sin(pi y) and cos(pi y) from the
    module's memo (_sin_cos), which holds at most TRIG_MEMO_SIZE = 8 point
    arrays keyed on their size and int64 bits, so a level-0 group, an error
    pass or a bench error loop on the run's quadrature points evaluates no
    sine again; the bytes are those of a fresh evaluation.
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
        exact=_solution,
        exact_grad=_solution_grad,
    )


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
    the sequential run only (run_sequential), and a snapshot_dir needs steps.
    """
    pipelined = workers not in (None, 1)
    if pipelined and snapshot_steps:
        raise ValueError("snapshots are written by sequential runs only; drop them or run one worker")
    if snapshot_dir is not None and not snapshot_steps:
        raise ValueError(f"snapshot directory {snapshot_dir} (--out) given without steps (--snapshots)")
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
    return ErrorEvaluator(mesh, basis).worst_norms(
        [s.values for s in surface.slices[1:]], problem.exact, problem.exact_grad, T, lgrid.nodes[1:], tgrid.N, 1
    )


def _precheck_cfl(problem: MMSProblem, levels, coupling: str, T: float) -> None:
    """Apply every level's stability gate (foot_weights) before any level runs."""
    rule = COUPLINGS[coupling]
    for h in levels:
        lgrid, tgrid = _grids_for(problem, *rule(h), T)
        try:
            foot_weights(tgrid.tau, lgrid, problem.G)
        except CflViolationError as exc:
            raise CflViolationError(f"level h={h}: {exc}") from None


def convergence_study(
    levels: Sequence[float], order: int = 1, coupling: str = "h2", workers: int | None = None,
    T: float | None = None, solver: SolverConfig | None = None, problem: MMSProblem | None = None,
) -> list[ConvergenceRow]:
    """Error table over strictly decreasing mesh sizes with coupled step sizes.

    Order columns are the observed orders log(e_prev / e) / log(h_prev / h).
    Each level is one run_single with the given worker count.
    """
    if not levels:
        raise ValueError("convergence study needs at least one mesh level")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"mesh levels must be strictly decreasing, got {levels}")
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}; expected one of {sorted(COUPLINGS)}")
    problem = problem if problem is not None else mms_problem()
    T = problem.T if T is None else T
    _precheck_cfl(problem, levels, coupling, T)

    rows: list[ConvergenceRow] = []
    for h in levels:
        tau, iota = COUPLINGS[coupling](h)
        l2, h1 = run_single(problem, h, tau, iota, order, workers, T=T, solver=solver)
        if rows:
            refinement = np.log2(rows[-1].h / h)  # 1.0 exactly where levels halve
            l2_order = float(np.log2(rows[-1].l2_error / l2) / refinement)
            h1_order = float(np.log2(rows[-1].h1_error / h1) / refinement)
        else:
            l2_order = h1_order = None
        rows.append(ConvergenceRow(h, tau, iota, l2, l2_order, h1, h1_order))
    return rows


def characteristics_study(
    levels: Sequence[float], workers: int | None = None, T: float | None = None,
    solver: SolverConfig | None = None, problem: MMSProblem | None = None,
) -> list[ConvergenceRow]:
    """Internal-coordinate refinement: quadratic elements with h = iota = tau.

    Spatial error is then negligible against the first-order transport error,
    so both norms converge at order one in the step size.
    """
    return convergence_study(levels, 2, "equal", workers, T, solver, problem)


def strong_scaling_study(
    workers: Sequence[int] = (1, 2), h: float = 2.0**-5, iota: float | None = None, steps: int = 32,
    order: int = 1, solver: SolverConfig | None = None, problem: MMSProblem | None = None,
) -> list[ScalingRow]:
    """Sweep worker counts over one problem: 128 internal cells, or those of iota."""
    problem = problem if problem is not None else mms_problem()
    cells = 128 if iota is None else _cell_count(problem, iota)
    return _scaling_rows(problem, workers, h, steps, order, solver, lambda P: cells)


def weak_scaling_study(
    workers: Sequence[int] = (1, 2), h: float = 2.0**-5, block: int = 8, steps: int = 32,
    order: int = 1, solver: SolverConfig | None = None, problem: MMSProblem | None = None,
) -> list[ScalingRow]:
    """Sweep worker counts with block internal nodes per worker: M = block * P - 1."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    problem = problem if problem is not None else mms_problem()
    return _scaling_rows(problem, workers, h, steps, order, solver, lambda P: block * P - 1)


def _scaling_rows(problem, workers, h, steps, order, solver, cells) -> list[ScalingRow]:
    """One pipelined run per worker count P on problem.lgrid(cells(P)).

    The runs step with tau = iota (the tightest stable step), so the horizon
    is steps * iota.  Speedups are against the first count's run, and counts
    above the usable CPUs (pipeline.usable_cpus) are marked oversubscribed.
    """
    if not workers:
        raise ValueError("scaling study needs at least one worker count")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    mesh = build_structured_mesh(problem.domain, h, order)
    basis = reference_basis(order)
    rows: list[ScalingRow] = []
    baseline: PipelineRun | None = None
    for P in workers:
        lgrid = problem.lgrid(cells(P))
        tgrid = TimeGrid(steps * lgrid.iota, steps)
        run = run_pipeline(problem, mesh, basis, lgrid, tgrid, P, solver)
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

