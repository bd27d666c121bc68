import time

import numpy as np
import pytest

from pbemoc.characteristics import LGrid, TimeGrid
from pbemoc.fem import SolverConfig
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, reference_basis
from pbemoc.pipeline import (
    BoundaryMessage,
    PipelineError,
    ProtocolError,
    _Engine,
    partition,
    run_pipeline,
    timing_report,
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


def test_single_worker_matches_sequential_bytes(mms):
    mesh, basis, lgrid, tgrid = pipeline_setup()
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, 1)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()


@pytest.mark.parametrize("P", [2, 3, 4])
def test_pipeline_matches_sequential_bytes(mms, P):
    mesh, basis, lgrid, tgrid = pipeline_setup()
    seq = run_sequential(mms, mesh, basis, lgrid, tgrid)
    run = run_pipeline(mms, mesh, basis, lgrid, tgrid, P)
    assert run.surface.as_matrix().tobytes() == seq.as_matrix().tobytes()
    for m, s in enumerate(run.surface.slices):
        assert (s.n, s.m) == (tgrid.N, m)


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


def test_pipeline_n_zero_matches_initialization(mms):
    from pbemoc.stepper import initialize

    mesh, basis, lgrid, _ = pipeline_setup(M=4)
    run = run_pipeline(mms, mesh, basis, lgrid, TimeGrid(1.0, 0), 2)
    init = initialize(mesh, basis, mms, lgrid)
    assert run.surface.as_matrix().tobytes() == init.as_matrix().tobytes()
    assert run.messages_sent == 0


# ---------------------------------------------------------------------------
# engine behaviour on a synthetic fixed-cost stage


def synthetic_engine(P, M, N, stage_cost=0.0, fail_at=None):
    plan = partition(M, P)

    def setup(p):
        return p

    def init_block(p, block):
        return np.array([[float(m)] for m in block])

    def advance(p, n, left, prev, m0, out):
        # row by row, so the cost and a fault belong to one slice (p, n, m)
        for i, m in enumerate(range(m0, m0 + len(prev))):
            if m == 0:
                if stage_cost:
                    time.sleep(stage_cost)  # same cost as an interior slice
                out[i] = 0.0
                continue
            if fail_at is not None and (p, n, m) == fail_at:
                raise RuntimeError("injected fault")
            if stage_cost:
                time.sleep(stage_cost)
            out[i] = (prev[i - 1] if i > 0 else left) + prev[i]  # depends on both inputs

    return _Engine(plan, N, setup, init_block, advance)


def test_synthetic_engine_matches_serial_recurrence():
    P, M, N = 3, 8, 5
    values, stats = synthetic_engine(P, M, N).execute()

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


def test_out_of_order_message_rejected():
    # drive the receive check directly with a wrong-level message
    engine = synthetic_engine(2, 4, 3)
    from pbemoc.pipeline import _Worker

    worker = _Worker(engine, 1)
    engine.links[0].put_nowait(BoundaryMessage(sender=0, n=2, row=np.array([1.0])))
    with pytest.raises(ProtocolError, match="expected the level-0"):
        worker._receive(1)


def test_balanced_synthetic_stage_busy_ratio():
    # equal per-slice cost: worker busy times should be nearly identical
    P, M, N = 2, 7, 6
    _, stats = synthetic_engine(P, M, N, stage_cost=0.004).execute()
    busy = stats.worker_busy_seconds
    assert max(busy) / np.mean(busy) <= 1.05


def test_pipeline_fill_in_overlaps_workers():
    # after the fill-in phase both workers must overlap: the wall time has to
    # beat the summed busy time by a clear margin
    P, M, N = 2, 9, 6
    cost = 0.003
    _, stats = synthetic_engine(P, M, N, stage_cost=cost).execute()
    total_busy = sum(stats.worker_busy_seconds)
    assert stats.wall_seconds < 0.75 * total_busy
    # steady state: a worker's step n runs while its neighbour is on step n
    spans = stats.step_spans
    for n in range(P - 1, N):
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
