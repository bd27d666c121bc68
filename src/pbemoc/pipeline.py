"""Pipelined execution over blocks of the internal-coordinate grid.

Each of P workers owns a contiguous block of internal indices, holds the
free-DOF values of its slices as one (rows, num_free) array, and advances it
a level at a time with the block kernel of the sequential loop
(stepper.advance_block).  Transport moves information to the right only, so
at every time step a worker needs exactly one slice from its left
neighbour: the last row of that block at the previous level.  Workers
therefore form a linear pipeline; after a fill-in phase of at most P-1
steps all workers are busy simultaneously.

Workers are processes forked from the caller, so each inherits the
assembled operators and their factorizations copy-on-write: nothing is
pickled or factorized again.  Neighbours are joined by a one-way pipe; a
message is one float64 buffer holding the sender and the level ahead of the
free-DOF row, read into a preallocated buffer on the other side.  The
dependency between workers is acyclic, so a send that blocks on a full pipe
only waits for a neighbour that is still computing, and the pipeline cannot
deadlock.  Each worker writes its final rows into the free columns of one
(M+1, num_dofs) array in anonymous shared memory, mapped by the caller
before the fork, whose boundary columns keep the mapping's zeros.  It sends
only its spans (one per level it computed) and its message count back over a
result pipe of its own; the returned surface views that array.  Every worker
performs the same floating point operations as the sequential loop, so the
result is bitwise equal to the sequential one under the direct solver.

When there are two or more workers and no more of them than CPUs the caller
may use, worker p is pinned to the p-th of those CPUs (in ascending order),
so that a worker woken by its neighbour does not queue behind it on one CPU
while another stays idle; PipelineRun.worker_cpus records the placement.  A
single worker has no neighbour and is not pinned.

A failing worker reports its error; a worker that dies without a report is
seen through its process sentinel, and its step is read from a shared
array.  The caller then stops the workers right of it, waits for those left
of it while their steps move, and raises PipelineError for the root cause:
the lowest-index worker with a failure of its own.  The error carries the
failing slice's index when its cause does.  Forking needs a POSIX platform.
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
from .fem import BoundaryTraceError, SolveFailure, SolverConfig
from .mesh import BasisSet, SpatialMesh
from .stepper import (
    ProblemSpec,
    SolutionSurface,
    _advance_level,
    _initial_level,
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
    "usable_cpus",
]

# a message is [sender, level, row...] as float64
HEADER = 2

# after a failure, a worker left of it whose step stays put over an idle wait this long is stopped
LEFT_WAIT_S = 1.0


class PipelineError(RuntimeError):
    """A worker failed; carries the (worker, step, slice) context.

    m is the internal index of the failing slice, taken from a SolveFailure
    or BoundaryTraceError cause, and None for any other cause.
    """

    def __init__(self, worker: int, step: int, cause: BaseException):
        m = cause.m if isinstance(cause, (SolveFailure, BoundaryTraceError)) else None
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
    computed its rows of level n, level 0 included.  worker_cpus[p] is the CPU
    worker p was pinned to, None when it was not pinned.
    """

    surface: SolutionSurface
    plan: PipelinePlan
    wall_seconds: float
    messages_sent: int
    step_spans: list
    worker_cpus: tuple

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

    def run(self) -> None:
        """Advance the block to the last level and write it into the engine's final array."""
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
        eng.final[self.block.start : self.block.stop, eng.columns] = values

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

    width is the length of a row of the final array, and columns the columns
    of it that a block's rows fill; init_block(block) returns the level-0
    rows of a block as one array;
    advance(n, left, prev, m0, out) fills out with the level-n rows of the
    block starting at index m0, from its level-(n-1) rows prev and the
    neighbour's row left (None for the first worker).  The callbacks run in
    the worker processes; whatever they close over is inherited through the
    fork.
    """

    def __init__(
        self, plan: PipelinePlan, n_steps: int, width: int, init_block, advance, columns=slice(None)
    ):
        self.plan = plan
        self.n_steps = n_steps
        self.width = width
        self.columns = columns
        self.init_block = init_block
        self.advance = advance
        self.cpus = _placement(plan.P)  # worker p's CPU, or None
        # in memory shared with the workers: each worker's current step, and the last level
        self.steps = None
        self.final = None

    def execute(self) -> PipelineRun:
        mp = _fork_context()
        P = self.plan.P
        rows = self.plan.blocks[-1].stop
        # anonymous mappings stay shared across fork and start zeroed
        self.steps = np.frombuffer(mmap.mmap(-1, 8 * P), dtype=np.int64)
        self.final = np.frombuffer(mmap.mmap(-1, 8 * rows * self.width)).reshape(rows, self.width)
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
                proc.terminate()
            for proc in procs:
                proc.join()
            for reader in readers:
                reader.close()
        wall = time.perf_counter() - t_start

        return PipelineRun(
            surface=_level_surface(self.n_steps, self.final),
            plan=self.plan,
            wall_seconds=wall,
            messages_sent=sum(r[1] for r in reports),
            step_spans=[r[0] for r in reports],
            worker_cpus=self.cpus,
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
            if self.cpus[p] is not None:
                os.sched_setaffinity(0, {self.cpus[p]})
            worker.run()
            message = ("done", (worker.spans, worker.sent))
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            message = ("failed", _portable(exc))
        # sent before this process exits and closes its links, so a neighbour
        # that loses a link always fails after the root cause has been reported
        report.send(message)

    def _gather(self, procs, readers) -> list:
        """Every worker's (spans, sent); PipelineError for the root cause.

        A failure stops the workers right of it, which can only lose their link,
        and waits for those left of it while their steps move (LEFT_WAIT_S).
        """
        reports = [None] * self.plan.P
        failures, marks = {}, {}  # marks: pending workers' steps at the last idle wait
        pending = set(range(self.plan.P))
        while pending:
            waiting = {readers[p]: p for p in pending}
            waiting.update({procs[p].sentinel: p for p in pending})
            ready = {waiting[obj] for obj in wait(list(waiting), LEFT_WAIT_S if failures else None)}
            for p in ready:
                kind, payload = _read_report(readers[p], procs[p])
                (reports if kind == "done" else failures)[p] = payload
            pending -= ready
            stop = {q for q in pending if failures and q > min(failures)}
            if not ready:  # an idle LEFT_WAIT_S, which only follows a failure
                stop |= {q for q in pending if marks.get(q) == self.steps[q]}
                marks = {q: int(self.steps[q]) for q in pending}
            for q in stop:
                procs[q].terminate()  # a no-op on a worker that has exited
            for q in stop:
                procs[q].join()
                kind, payload = _read_report(readers[q], procs[q])
                # a worker terminated here has no failure of its own
                if kind == "failed" or (kind == "exited" and procs[q].exitcode != -signal.SIGTERM):
                    failures[q] = payload
            pending -= stop
        if failures:
            roots = [p for p, exc in failures.items() if not isinstance(exc, _LinkLost)]
            p = min(roots or failures)
            raise PipelineError(p, int(self.steps[p]), failures[p]) from failures[p]
        return reports


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


def usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _placement(P: int) -> tuple:
    """Worker p's CPU for each p: the p-th usable CPU when two or more workers
    each get one of their own, else None for all (and where affinity is
    unsupported)."""
    if not hasattr(os, "sched_setaffinity") or not 2 <= P <= usable_cpus():
        return (None,) * P
    return tuple(sorted(os.sched_getaffinity(0))[:P])


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
        plan,
        tgrid.N,
        mesh.num_nodes,
        partial(_initial_level, ops),
        partial(_advance_level, ops),
        columns=ops.free,
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
    oversubscribed: bool = False  # more workers than usable CPUs


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
        oversubscribed=run.plan.P > usable_cpus(),
    )
