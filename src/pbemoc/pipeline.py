"""Pipelined execution over blocks of the internal-coordinate grid.

Each of P workers owns a contiguous block of internal indices, holds it as
one (rows, num_dofs) array, and advances it a level at a time with the block
kernel of the sequential loop (stepper.advance_block).  Transport moves
information to the right only, so at every time step a worker needs exactly
one slice from its left neighbour: a copy of the last row of that block at
the previous level.  Workers therefore form a linear pipeline connected by
ordered single-producer channels; after a fill-in phase of at most P-1 steps
all workers are busy simultaneously.

Workers run as in-process threads with exactly-once, in-order message
delivery.  Channel capacity equals the total number of messages a link can
ever carry, so sends never block and the acyclic left-to-right dependency
makes deadlock impossible.  Every worker performs the same floating point
operations as the sequential loop, so the assembled result is bitwise equal
to the sequential one under the direct solver.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .characteristics import CflViolationError, LGrid, TimeGrid, check_cfl
from .fem import SolverConfig
from .mesh import BasisSet, SpatialMesh
from .stepper import (
    Operators,
    ProblemSpec,
    SolutionSurface,
    _advance_level,
    _check_compatibility,
    _initial_values,
    _level_surface,
    precompute_operators,
)

__all__ = [
    "PipelinePlan",
    "BoundaryMessage",
    "PipelineRun",
    "ScalingRow",
    "PipelineError",
    "ProtocolError",
    "partition",
    "run_pipeline",
    "timing_report",
]


class PipelineError(RuntimeError):
    """A worker failed; carries the (worker, step) context."""

    def __init__(self, worker: int, step: int, cause: BaseException):
        super().__init__(f"worker {worker} failed at step {step}: {cause!r}")
        self.worker = worker
        self.step = step
        self.cause = cause


class ProtocolError(RuntimeError):
    """A message arrived out of order or from the wrong sender."""


@dataclass(frozen=True)
class PipelinePlan:
    """Contiguous blocks of internal indices, one per worker, covering 0..M."""

    P: int
    blocks: tuple[range, ...]

    @property
    def M(self) -> int:
        return self.blocks[-1].stop - 1


def partition(M: int, P: int) -> PipelinePlan:
    """Split the M+1 internal indices into P contiguous blocks.

    Sizes differ by at most one; the remainder goes to the leftmost blocks.
    """
    count = M + 1
    if P < 1:
        raise ValueError(f"worker count must be >= 1, got {P}")
    if P > count:
        raise ValueError(
            f"{P} workers over {count} internal indices would leave a block empty"
        )
    base, extra = divmod(count, P)
    blocks = []
    start = 0
    for p in range(P):
        size = base + (1 if p < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return PipelinePlan(P=P, blocks=tuple(blocks))


@dataclass(frozen=True)
class BoundaryMessage:
    """Values of a block's last slice at level n, handed to the right neighbour."""

    sender: int
    n: int
    row: np.ndarray


@dataclass(frozen=True)
class _Abort:
    """Sentinel flushed downstream when a worker dies."""

    worker: int
    step: int


@dataclass(eq=False)
class PipelineRun:
    """Result of a pipelined run: final surface plus timing and traffic counters."""

    surface: SolutionSurface
    plan: PipelinePlan
    wall_seconds: float
    worker_busy_seconds: list
    messages_sent: int
    step_spans: list  # per worker: [(start, end), ...]


class _Worker(threading.Thread):
    """One pipeline stage: owns a block, advances it level by level."""

    def __init__(self, engine, p: int):
        super().__init__(name=f"pipeline-worker-{p}", daemon=True)
        self.engine = engine
        self.p = p
        self.block = engine.plan.blocks[p]
        self.busy = 0.0
        self.spans = []
        self.final = None
        self.failure = None
        self.current_step = 0

    def run(self):
        try:
            self._run()
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self.failure = (self.p, self.current_step, exc)
            self._flush_abort()

    def _run(self):
        eng = self.engine
        n_steps = eng.n_steps
        t0 = time.perf_counter()
        ctx = eng.worker_setup(self.p)
        values = eng.init_block(ctx, self.block)
        spare = np.empty_like(values)
        self.busy += time.perf_counter() - t0
        self._send(0, values)

        for n in range(1, n_steps + 1):
            self.current_step = n
            left = self._receive(n) if self.p > 0 else None
            t0 = time.perf_counter()
            eng.advance(ctx, n, left, values, self.block.start, spare)
            values, spare = spare, values
            t1 = time.perf_counter()
            self.busy += t1 - t0
            self.spans.append((t0, t1))
            self._send(n, values)
        self.final = values

    def _send(self, n: int, values) -> None:
        # level n feeds the neighbour's step n+1; the last level is never sent
        if self.p == self.engine.plan.P - 1 or n >= self.engine.n_steps:
            return
        # a copy: this worker writes into the same array again two steps later
        msg = BoundaryMessage(sender=self.p, n=n, row=values[-1].copy())
        self.engine.links[self.p].put_nowait(msg)
        self.engine.count_message()

    def _receive(self, n: int):
        msg = self.engine.links[self.p - 1].get()
        if isinstance(msg, _Abort):
            self._flush_abort()
            raise _Aborted()
        if msg.sender != self.p - 1 or msg.n != n - 1:
            raise ProtocolError(
                f"worker {self.p} at step {n} expected the level-{n - 1} slice "
                f"from worker {self.p - 1}, got level {msg.n} from worker {msg.sender}"
            )
        return msg.row

    def _flush_abort(self):
        if self.p < self.engine.plan.P - 1:
            self.engine.links[self.p].put_nowait(_Abort(self.p, self.current_step))


class _Aborted(Exception):
    pass


class _Engine:
    """Wires workers, links, and the compute callbacks together.

    worker_setup(p) returns a worker's context; init_block(ctx, block) returns
    the level-0 rows of a block as one array; advance(ctx, n, left, prev, m0,
    out) fills out with the level-n rows of the block starting at index m0,
    from its level-(n-1) rows prev and the neighbour's row left (None for the
    first worker).
    """

    def __init__(self, plan: PipelinePlan, n_steps: int, worker_setup, init_block, advance):
        self.plan = plan
        self.n_steps = n_steps
        self.worker_setup = worker_setup
        self.init_block = init_block
        self.advance = advance
        # capacity covers every message the link can carry plus an abort token
        self.links = [queue.Queue(maxsize=n_steps + 1) for _ in range(plan.P - 1)]
        self._sent = 0
        self._sent_lock = threading.Lock()

    def count_message(self):
        with self._sent_lock:
            self._sent += 1

    def execute(self):
        t_start = time.perf_counter()
        workers = [_Worker(self, p) for p in range(self.plan.P)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t_start

        for w in workers:
            if w.failure is not None:
                p, n, exc = w.failure
                raise PipelineError(p, n, exc) from exc

        values = np.concatenate([w.final for w in workers])
        return values, PipelineRun(
            surface=_level_surface(self.n_steps, values),
            plan=self.plan,
            wall_seconds=wall,
            worker_busy_seconds=[w.busy for w in workers],
            messages_sent=self._sent,
            step_spans=[w.spans for w in workers],
        )


def run_pipeline(
    spec: ProblemSpec,
    mesh: SpatialMesh,
    basis: BasisSet,
    lgrid: LGrid,
    tgrid: TimeGrid,
    P: int,
    solver_config: SolverConfig | None = None,
) -> PipelineRun:
    """Advance the surface to t=T with P pipelined workers over the internal grid."""
    cfl = check_cfl(tgrid.tau, lgrid, spec.G, require_positive=False)
    if not cfl.passed:
        raise CflViolationError(cfl.describe())
    plan = partition(lgrid.M, P)
    _check_compatibility(spec, mesh, lgrid)

    if tgrid.N == 0:
        shared = None
    else:
        shared = precompute_operators(mesh, basis, spec, tgrid.tau, lgrid, solver_config)

    def worker_setup(p: int):
        if shared is None:  # no stepping: only the projector is needed
            return SimpleNamespace(projector=_fresh_projector(mesh, basis, solver_config))
        # each worker factorizes privately; matrices and caches are shared read-only
        return shared.fork()

    def init_block(ops: Operators, block: range) -> np.ndarray:
        return np.stack([_initial_values(ops.projector, spec, lgrid, m) for m in block])

    engine = _Engine(plan, tgrid.N, worker_setup, init_block, _advance_level)
    _, run = engine.execute()
    return run


def _fresh_projector(mesh, basis, solver_config):
    from .fem import RitzProjector

    return RitzProjector(mesh, basis, solver_config=solver_config)


@dataclass(frozen=True)
class ScalingRow:
    """Timing summary of one run, in the shape of the scaling tables."""

    workers: int
    total_seconds: float
    speedup: float
    avg_worker_seconds: float
    max_worker_seconds: float
    oversubscribed: bool = False  # more workers than cores


def timing_report(run: PipelineRun, baseline: PipelineRun | None = None) -> ScalingRow:
    """Summarize a run; speedup is measured against the designated baseline."""
    busy = run.worker_busy_seconds
    base_wall = baseline.wall_seconds if baseline is not None else run.wall_seconds
    return ScalingRow(
        workers=run.plan.P,
        total_seconds=run.wall_seconds,
        speedup=base_wall / run.wall_seconds,
        avg_worker_seconds=float(np.mean(busy)),
        max_worker_seconds=float(np.max(busy)),
        oversubscribed=run.plan.P > (os.cpu_count() or 1),
    )
