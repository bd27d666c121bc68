"""Pipelined execution over blocks of the internal-coordinate grid.

Each of P workers owns a contiguous block of internal indices, holds it as
one (rows, num_dofs) array, and advances it a level at a time with the block
kernel of the sequential loop (stepper.advance_block).  Transport moves
information to the right only, so at every time step a worker needs exactly
one slice from its left neighbour: the last row of that block at the
previous level.  Workers therefore form a linear pipeline; after a fill-in
phase of at most P-1 steps all workers are busy simultaneously.

Workers are processes forked from the caller, so each inherits the
assembled operators and their factorizations copy-on-write: nothing is
pickled or factorized again.  Neighbours are joined by a one-way pipe; a
message is one float64 buffer holding the sender and the level ahead of the
row, read into a preallocated buffer on the other side.  The dependency
between workers is acyclic, so a send that blocks on a full pipe only waits
for a neighbour that is still computing, and the pipeline cannot deadlock.
Each worker sends its final block, its spans (one per level it computed)
and its message count back over a result pipe of its own.  Every worker
performs the same floating point operations as the sequential loop, so the
assembled result is bitwise equal to the sequential one under the direct
solver.

A failing worker reports its error; a worker that dies without a report is
seen through its process sentinel, and its step is read from a shared
array.  The caller then stops the other workers and raises PipelineError for
the root cause: a worker that only lost the link to a failed neighbour is
never reported in its place.  The error carries the failing slice's index
when its cause does.  Forking needs a POSIX platform.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import wait

import numpy as np

from .characteristics import LGrid, TimeGrid
from .fem import SolveFailure, SolverConfig
from .mesh import BasisSet, SpatialMesh
from .stepper import (
    ProblemSpec,
    SolutionSurface,
    _advance_level,
    _initial_rows,
    _level_surface,
    _prepare,
)

__all__ = [
    "PipelinePlan",
    "PipelineRun",
    "ScalingRow",
    "PipelineError",
    "ProtocolError",
    "partition",
    "run_pipeline",
    "timing_report",
]

# a message is [sender, level, row...] as float64
HEADER = 2


class PipelineError(RuntimeError):
    """A worker failed; carries the (worker, step, slice) context.

    m is the internal index of the failing slice, taken from a SolveFailure
    cause, and None for any other cause.
    """

    def __init__(self, worker: int, step: int, cause: BaseException):
        m = cause.m if isinstance(cause, SolveFailure) else None
        where = f"step {step}" if m is None else f"step {step}, slice m={m}"
        super().__init__(f"worker {worker} failed at {where}: {cause!r}")
        self.worker = worker
        self.step = step
        self.m = m
        self.cause = cause


class ProtocolError(RuntimeError):
    """A message arrived out of order or from the wrong sender."""


class _LinkLost(RuntimeError):
    """A neighbour closed its end of a link, so that neighbour failed first."""


@dataclass(frozen=True)
class PipelinePlan:
    """Contiguous blocks of internal indices, one per worker, covering 0..M."""

    P: int
    blocks: tuple[range, ...]


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


@dataclass(eq=False)
class PipelineRun:
    """Result of a pipelined run: final surface plus timing and traffic counters.

    step_spans[p][n] is the (start, end) perf_counter span in which worker p
    computed its rows of level n, level 0 included.
    """

    surface: SolutionSurface
    plan: PipelinePlan
    wall_seconds: float
    messages_sent: int
    step_spans: list

    @property
    def worker_busy_seconds(self) -> list:
        """Each worker's time inside its spans."""
        return [sum(end - start for start, end in spans) for spans in self.step_spans]


class _Worker:
    """One pipeline stage, run in a forked process: owns a block, advances it level by level.

    inbox is the reading end of the link from worker p-1 and outbox the
    writing end of the link to worker p+1 (None at either end of the
    pipeline); message is the buffer both are read into and sent from.
    """

    def __init__(self, engine, p: int, inbox, outbox):
        self.engine = engine
        self.p = p
        self.block = engine.plan.blocks[p]
        self.inbox = inbox
        self.outbox = outbox
        self.message = None
        self.spans = []
        self.sent = 0

    def run(self) -> np.ndarray:
        eng = self.engine
        t0 = time.perf_counter()
        values = eng.init_block(self.block)
        spare = np.empty_like(values)
        self.message = np.empty(HEADER + values.shape[1])
        self.spans.append((t0, time.perf_counter()))
        self._send(0, values)

        for n in range(1, eng.n_steps + 1):
            eng.steps[self.p] = n
            left = self._receive(n) if self.inbox is not None else None
            t0 = time.perf_counter()
            eng.advance(n, left, values, self.block.start, spare)
            values, spare = spare, values
            self.spans.append((t0, time.perf_counter()))
            self._send(n, values)
        return values

    def _send(self, n: int, values: np.ndarray) -> None:
        # level n feeds the neighbour's step n+1; the last level is never sent
        if self.outbox is None or n >= self.engine.n_steps:
            return
        msg = self.message
        msg[0], msg[1] = self.p, n
        msg[HEADER:] = values[-1]
        try:
            self.outbox.send_bytes(msg)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _LinkLost(f"worker {self.p + 1} closed its link") from exc
        self.sent += 1

    def _receive(self, n: int) -> np.ndarray:
        msg = self.message
        try:
            size = self.inbox.recv_bytes_into(msg)
        except EOFError as exc:
            raise _LinkLost(f"worker {self.p - 1} closed its link") from exc
        except multiprocessing.BufferTooShort as exc:  # carries the whole message
            size = len(exc.args[0])
        if size != msg.nbytes:
            raise ProtocolError(
                f"worker {self.p} at step {n} got a {size}-byte message, expected {msg.nbytes}"
            )
        sender, level = int(msg[0]), int(msg[1])
        if sender != self.p - 1 or level != n - 1:
            raise ProtocolError(
                f"worker {self.p} at step {n} expected the level-{n - 1} slice "
                f"from worker {self.p - 1}, got level {level} from worker {sender}"
            )
        return msg[HEADER:]


class _Engine:
    """Forks the workers, wires their links, and gathers their results.

    init_block(block) returns the level-0 rows of a block as one array;
    advance(n, left, prev, m0, out) fills out with the level-n rows of the
    block starting at index m0, from its level-(n-1) rows prev and the
    neighbour's row left (None for the first worker).  The callbacks run in
    the worker processes; whatever they close over is inherited through the
    fork.
    """

    def __init__(self, plan: PipelinePlan, n_steps: int, init_block, advance):
        self.plan = plan
        self.n_steps = n_steps
        self.init_block = init_block
        self.advance = advance
        self.steps = None  # each worker's current step, in memory shared with the workers

    def execute(self) -> PipelineRun:
        mp = _fork_context()
        P = self.plan.P
        # an anonymous mapping stays shared across fork
        self.steps = np.frombuffer(mmap.mmap(-1, 8 * P), dtype=np.int64)
        links = [mp.Pipe(duplex=False) for _ in range(P - 1)]  # (reader, writer) from p to p+1
        results = [mp.Pipe(duplex=False) for _ in range(P)]
        readers = [reader for reader, _ in results]
        procs = []
        t_start = time.perf_counter()
        try:
            for p in range(P):
                proc = mp.Process(
                    target=self._child,
                    args=(p, links, results),
                    name=f"pipeline-worker-{p}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            # only the workers may hold link ends, so a worker's death closes its links
            for reader, writer in links:
                reader.close()
                writer.close()
            for _, writer in results:
                writer.close()
            reports = self._gather(procs, readers)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join()
            for reader in readers:
                reader.close()
        wall = time.perf_counter() - t_start

        return PipelineRun(
            surface=_level_surface(self.n_steps, np.concatenate([r[0] for r in reports])),
            plan=self.plan,
            wall_seconds=wall,
            messages_sent=sum(r[2] for r in reports),
            step_spans=[r[1] for r in reports],
        )

    def _child(self, p: int, links, results) -> None:
        """Body of worker process p."""
        inbox = links[p - 1][0] if p > 0 else None
        outbox = links[p][1] if p < self.plan.P - 1 else None
        report = results[p][1]
        for pair in links + results:
            for conn in pair:
                if conn is not inbox and conn is not outbox and conn is not report:
                    conn.close()
        worker = _Worker(self, p, inbox, outbox)
        try:
            values = worker.run()
            message = ("done", (values, worker.spans, worker.sent))
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            message = ("failed", _portable(exc))
        # sent before this process exits and closes its links, so a neighbour
        # that loses a link always fails after the root cause has been reported
        report.send(message)

    def _gather(self, procs, readers) -> list:
        """Every worker's (values, spans, sent); PipelineError at the first failure."""
        reports = [None] * self.plan.P
        pending = set(range(self.plan.P))
        while pending:
            waiting = {readers[p]: p for p in pending}
            waiting.update({procs[p].sentinel: p for p in pending})
            for p in sorted({waiting[obj] for obj in wait(list(waiting))}):
                pending.discard(p)
                kind, payload = _read_report(readers[p], procs[p])
                if kind != "done":
                    self._fail(procs, readers, pending, {p: payload})
                reports[p] = payload
        return reports

    def _fail(self, procs, readers, pending, failures):
        """Stop every pending worker, then raise PipelineError for the root cause."""
        for p in pending:
            if procs[p].is_alive():
                procs[p].terminate()
        for p in pending:
            procs[p].join()
            kind, payload = _read_report(readers[p], procs[p])
            # a worker this call terminated has no failure of its own
            if kind == "failed" or (kind == "exited" and procs[p].exitcode != -signal.SIGTERM):
                failures[p] = payload
        roots = [p for p, exc in failures.items() if not isinstance(exc, _LinkLost)]
        p = min(roots or failures)
        cause = failures[p]
        raise PipelineError(p, int(self.steps[p]), cause) from cause


def _read_report(reader, proc) -> tuple:
    """("done" | "failed", payload) as the worker sent it, or ("exited", error) without one."""
    try:
        if reader.poll():
            return reader.recv()
    except (EOFError, OSError):
        pass
    proc.join()
    return "exited", RuntimeError(
        f"worker process exited with code {proc.exitcode} without a result"
    )


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives pickling, else a RuntimeError holding its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(repr(exc))


def _fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            "the pipeline forks its workers and needs the 'fork' start method (POSIX); "
            "use run_sequential on this platform"
        )
    return multiprocessing.get_context("fork")


def run_pipeline(
    spec: ProblemSpec,
    mesh: SpatialMesh,
    basis: BasisSet,
    lgrid: LGrid,
    tgrid: TimeGrid,
    P: int,
    solver_config: SolverConfig | None = None,
) -> PipelineRun:
    """Advance the surface to t=T with P pipelined worker processes over the internal grid."""
    plan = partition(lgrid.M, P)
    # built once here; the workers inherit them through the fork
    ops = _prepare(spec, mesh, basis, lgrid, tgrid, solver_config)
    engine = _Engine(
        plan, tgrid.N, partial(_initial_rows, ops.projector, spec, lgrid), partial(_advance_level, ops)
    )
    return engine.execute()


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
