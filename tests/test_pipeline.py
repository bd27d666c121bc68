import gc
import mmap
import multiprocessing
import os
import time

import numpy as np
import pytest

from pbemoc.characteristics import LGrid, TimeGrid
from pbemoc.fem import SolverConfig
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, reference_basis
from pbemoc.pipeline import (
    HEADER,
    LEFT_WAIT_S,
    PipelineError,
    ProtocolError,
    _Engine,
    _Worker,
    partition,
    run_pipeline,
    timing_report,
    usable_cpus,
)
from pbemoc.stepper import run_sequential


# ---------------------------------------------------------------------------
# partitioning


def test_partition_even_split():
    plan = partition(7, 2)
    assert plan.blocks == (range(0, 4), range(4, 8))


def test_partition_remainder_to_leading_blocks():
    plan = partition(512, 8)
    sizes = [len(b) for b in plan.blocks]
    assert sizes == [65] + [64] * 7
    assert plan.blocks[0] == range(0, 65)


def test_partition_single_worker():
    plan = partition(9, 1)
    assert plan.blocks == (range(0, 10),)


def test_partition_covers_indices_in_order():
    for M, P in ((10, 3), (63, 8), (5, 6)):
        plan = partition(M, P)
        merged = [m for block in plan.blocks for m in block]
        assert merged == list(range(M + 1))
        assert max(len(b) for b in plan.blocks) - min(len(b) for b in plan.blocks) <= 1


def test_partition_rejects_bad_worker_counts():
    with pytest.raises(ValueError, match="empty"):
        partition(3, 5)
    with pytest.raises(ValueError, match=">= 1"):
        partition(3, 0)


# ---------------------------------------------------------------------------
# equivalence with the sequential loop


def pipeline_setup(h=0.125, M=16, N=16, order=1):
    # N >= M keeps tau <= iota (the growth rate peaks at 1)
    mesh = build_structured_mesh(UNIT_SQUARE, h, order)
    return mesh, reference_basis(order), LGrid(0.0, 1.0, M), TimeGrid(1.0, N)


@pytest.mark.parametrize("P", range(1, 9))
def test_pipeline_matches_sequential_bytes(mms, P):
    # pinned workers where 2 <= P fits the usable CPUs, unpinned ones otherwise
    mesh, basis, lgrid, tgrid = pipeline_setup()
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()
    for m, s in enumerate(run.surface.slices):
        assert (s.n, s.m) == (tgrid.N, m)
    assert len(run.worker_cpus) == P
    if P == 1 or P > usable_cpus():
        assert run.worker_cpus == (None,) * P


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or usable_cpus() < 2,
    reason="needs CPU affinity and two usable CPUs",
)
def test_workers_within_the_usable_cpus_run_on_distinct_ones():
    # each worker reports the CPU set it runs on from inside its process
    P = min(usable_cpus(), 4)
    allowed = os.sched_getaffinity(0)
    seen = np.frombuffer(mmap.mmap(-1, 8 * 2 * P), dtype=np.int64).reshape(P, 2)

    def init_block(block):
        cpus = os.sched_getaffinity(0)
        seen[partition(P, P).blocks.index(block)] = len(cpus), min(cpus)
        return np.zeros((len(block), 1))

    run = _Engine(partition(P, P), 1, 1, init_block, lambda n, left, prev, m0, out: None).execute()
    assert run.worker_cpus == tuple(sorted(allowed)[:P])
    assert seen.tolist() == [[1, cpu] for cpu in run.worker_cpus]
    assert os.sched_getaffinity(0) == allowed  # the caller stays unpinned


def test_one_usable_cpu_leaves_two_workers_unpinned(mms, monkeypatch):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=8, N=8)
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 2)
    assert run.worker_cpus == (None, None)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()


def test_without_affinity_support_the_run_is_unpinned(mms, monkeypatch):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=8, N=8)
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 2)
    assert run.worker_cpus == (None, None)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()


def test_pipeline_iterative_solver_close_to_sequential(mms):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=8, N=8)
    config = SolverConfig(mode="iterative", tol=1e-12)
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid, config)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 3, config)
    diff = np.abs(run.surface.as_matrix() - seq.as_matrix()).max()
    assert diff <= 10 * config.tol


@pytest.mark.parametrize("P", [1, 2, 4])
def test_message_count(mms, P):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=8, N=8)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P)
    assert run.messages_sent == (P - 1) * tgrid.N


# ---------------------------------------------------------------------------
# engine behaviour on a synthetic fixed-cost stage


def synthetic_engine(P, M, N, stage_cost=0.0, fail_at=None, exit_at=None, slices=None):
    # fail_at raises in slice (p, n, m); exit_at ends the worker process there;
    # slices, an array shared with the workers, counts each worker's slices
    plan = partition(M, P)
    starts = [block.start for block in plan.blocks]

    def init_block(block):
        return np.array([[float(m)] for m in block])

    def advance(n, left, prev, m0, out):
        p = starts.index(m0)  # each worker advances the block it owns
        # row by row, so the cost and a fault belong to one slice (p, n, m)
        for i, m in enumerate(range(m0, m0 + len(prev))):
            if slices is not None:
                slices[p] += 1
            if m == 0:
                if stage_cost:
                    time.sleep(stage_cost)  # same cost as an interior slice
                out[i] = 0.0
                continue
            if fail_at is not None and (p, n, m) == fail_at:
                raise RuntimeError("injected fault")
            if exit_at is not None and (p, n, m) == exit_at:
                os._exit(1)
            if stage_cost:
                time.sleep(stage_cost)
            out[i] = (prev[i - 1] if i > 0 else left) + prev[i]  # depends on both inputs

    return _Engine(plan, N, 1, init_block, advance)


def test_synthetic_engine_matches_serial_recurrence():
    P, M, N = 3, 8, 5
    engine = synthetic_engine(P, M, N)
    stats = engine.execute()
    del engine
    gc.collect()
    # the surface views the shared final level, which outlives the engine
    values = stats.surface.as_matrix()

    serial = {m: float(m) for m in range(M + 1)}
    for n in range(1, N + 1):
        new = {0: 0.0}
        for m in range(1, M + 1):
            new[m] = serial[m - 1] + serial[m]
        serial = new
    assert values.shape == (M + 1, 1)
    assert values[:, 0].tolist() == [serial[m] for m in range(M + 1)]
    assert stats.messages_sent == (P - 1) * N


def test_worker_failure_reports_context():
    engine = synthetic_engine(3, 8, 5, fail_at=(1, 2, 4))
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert err.value.worker == 1
    assert err.value.step == 2


def test_failure_reports_the_root_cause_not_a_downstream_worker():
    # worker 2 of 3 loses its link when worker 1 fails; only worker 1 is reported.
    # The stage cost keeps worker 0 busy, so it is still running when the
    # failure arrives and must be stopped without being blamed.
    engine = synthetic_engine(3, 8, 8, stage_cost=0.005, fail_at=(1, 3, 5))
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert (err.value.worker, err.value.step) == (1, 3)
    assert isinstance(err.value.cause, RuntimeError)
    assert str(err.value.cause) == "injected fault"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exit_at", [(0, 2, 1), (1, 3, 5), (2, 4, 8)])
def test_killed_worker_raises_pipeline_error(exit_at):
    # a worker process that dies without a report: upstream, in the middle, last;
    # the workers upstream of it are still running and must not be blamed
    engine = synthetic_engine(3, 8, 8, stage_cost=0.005, exit_at=exit_at)
    t0 = time.perf_counter()
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert time.perf_counter() - t0 < 30.0
    assert (err.value.worker, err.value.step) == exit_at[:2]
    assert "exited with code 1" in str(err.value.cause)
    assert multiprocessing.active_children() == []


def test_a_worker_that_only_lost_its_link_is_not_blamed(monkeypatch):
    # the caller looks only after worker 2 has died and workers 0 and 1 have
    # reported failed sends to it; the root cause is still worker 2
    from pbemoc import pipeline

    real_wait = pipeline.wait

    def late_wait(objects, timeout=None):
        time.sleep(0.2)
        return real_wait(objects, timeout)

    monkeypatch.setattr(pipeline, "wait", late_wait)
    engine = synthetic_engine(3, 8, 20, stage_cost=0.001, exit_at=(2, 1, 6))
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert (err.value.worker, err.value.step) == (2, 1)
    assert "exited with code 1" in str(err.value.cause)
    assert multiprocessing.active_children() == []


def test_unpicklable_worker_error_arrives_as_its_repr():
    class Unpicklable(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}/{b}")

    def advance(n, left, prev, m0, out):
        raise Unpicklable(1, 2)

    engine = _Engine(partition(4, 2), 2, 1, lambda b: np.zeros((len(b), 1)), advance)
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert (err.value.worker, err.value.step) == (0, 1)
    assert "Unpicklable('1/2')" in str(err.value.cause)
    assert multiprocessing.active_children() == []


def test_root_cause_is_the_lowest_failing_worker_whatever_the_timing():
    # worker 1 fails at once, worker 0 only after 50 ms: worker 1 reports
    # first, but it does not stop worker 0, whose own failure is the root
    def advance(n, left, prev, m0, out):
        if m0 == 0:
            time.sleep(0.05)
        raise ValueError(f"block at m0={m0}")

    engine = _Engine(partition(4, 2), 2, 1, lambda b: np.zeros((len(b), 1)), advance)
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert (err.value.worker, err.value.step) == (0, 1)
    assert "block at m0=0" in str(err.value.cause)
    assert multiprocessing.active_children() == []


def test_a_left_worker_that_stops_moving_after_a_failure_is_stopped():
    # worker 1 fails at once while worker 0 stays 20 s in its first level: its
    # step stays put, so it is stopped well before it could raise, and worker
    # 1's failure is the root; an unbounded wait would name worker 0 after 20 s
    def advance(n, left, prev, m0, out):
        if m0 == 0:
            time.sleep(20)
        raise ValueError(f"block at m0={m0}")

    engine = _Engine(partition(4, 2), 2, 1, lambda b: np.zeros((len(b), 1)), advance)
    t0 = time.perf_counter()
    with pytest.raises(PipelineError) as err:
        engine.execute()
    assert time.perf_counter() - t0 < 3 * LEFT_WAIT_S + 2
    assert (err.value.worker, err.value.step) == (1, 1)
    assert "block at m0=3" in str(err.value.cause)
    assert multiprocessing.active_children() == []


def linked_workers(engine, width=1):
    """Workers 0 and 1 of engine joined by a real pipe, with message buffers of rows of width."""
    reader, writer = multiprocessing.Pipe(duplex=False)
    sender = _Worker(engine, 0, inbox=None, outbox=writer)
    receiver = _Worker(engine, 1, inbox=reader, outbox=None)
    sender.message, receiver.message = np.empty(HEADER + width), np.empty(HEADER + width)
    return sender, receiver


def test_out_of_order_message_rejected():
    # a level-2 row sent over the pipe where the receiver's step 1 needs level 0
    engine = synthetic_engine(2, 4, 3)
    sender, receiver = linked_workers(engine)
    sender._send(2, np.array([[1.0]]))
    with pytest.raises(ProtocolError, match="expected the level-0"):
        receiver._receive(1)


def test_message_of_the_wrong_size_rejected():
    engine = synthetic_engine(2, 4, 3)
    sender, receiver = linked_workers(engine, width=2)
    receiver.message = np.empty(HEADER + 3)
    sender._send(0, np.array([[1.0, 2.0]]))
    with pytest.raises(ProtocolError, match="got a 32-byte message, expected 40"):
        receiver._receive(1)
    receiver.message = np.empty(HEADER + 1)
    sender._send(0, np.array([[1.0, 2.0]]))
    with pytest.raises(ProtocolError, match="got a 32-byte message, expected 24"):
        receiver._receive(1)


def test_pipeline_needs_fork(mms, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    mesh, basis, lgrid, tgrid = pipeline_setup(M=4, N=4)
    with pytest.raises(RuntimeError, match="'fork' start method"):
        run_pipeline(mms, mesh, basis, lgrid, tgrid, 2)


def test_balanced_synthetic_stage_busy_ratio():
    # equal per-slice cost: the workers' busy work, counted in slices each
    # advanced (sleep jitter cannot move a count), should be nearly identical
    P, M, N = 2, 7, 6
    # an anonymous mapping stays shared across fork
    slices = np.frombuffer(mmap.mmap(-1, 8 * P), dtype=np.int64)
    synthetic_engine(P, M, N, slices=slices).execute()
    assert slices.sum() == (M + 1) * N
    assert max(slices) / np.mean(slices) <= 1.05


def test_pipeline_fill_in_overlaps_workers():
    # after the fill-in phase both workers must overlap: the window from the
    # first span's start to the last span's end has to beat the summed busy
    # time by a clear margin (the wall time also counts forking the workers)
    P, M, N = 2, 9, 6
    cost = 0.003
    stats = synthetic_engine(P, M, N, stage_cost=cost).execute()
    total_busy = sum(stats.worker_busy_seconds)
    spans = stats.step_spans
    window = max(end for s in spans for _, end in s) - min(start for s in spans for start, _ in s)
    assert window < 0.75 * total_busy
    # steady state: a worker's step n runs while its neighbour is on step n
    assert [len(s) for s in spans] == [N + 1] * P  # level 0 and every step
    for n in range(P, N + 1):
        s0, e0 = spans[0][n]
        s1, e1 = spans[1][n]
        assert s1 < e0 + cost


def test_timing_report_speedup_convention(mms):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=4, N=4)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 2)
    report = timing_report(run)
    assert report.speedup == pytest.approx(1.0)
    assert report.workers == 2
    assert report.max_worker_seconds >= report.avg_worker_seconds > 0.0
    baseline = run_pipeline(mms, mesh, basis, lgrid, tgrid, 1)
    relative = timing_report(run, baseline)
    assert relative.speedup == pytest.approx(baseline.wall_seconds / run.wall_seconds)


def test_single_worker_timing_degenerate(mms):
    mesh, basis, lgrid, tgrid = pipeline_setup(M=4, N=4)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 1)
    report = timing_report(run)
    assert report.avg_worker_seconds == report.max_worker_seconds
    assert run.messages_sent == 0
