import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import pbemoc
from pbemoc import harness
from pbemoc.characteristics import CflViolationError
from pbemoc.harness import (
    COUPLINGS,
    ConvergenceRow,
    characteristics_study,
    convergence_study,
    format_convergence_rows,
    format_scaling_rows,
    mms_problem,
    run_single,
    strong_scaling_study,
    weak_scaling_study,
)
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh
from pbemoc.pipeline import ScalingRow


# ---------------------------------------------------------------------------
# the manufactured problem


def test_inflow_data_is_identically_zero(mms):
    x = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.37, 1.0):
        assert np.abs(mms.z_bdry(t, x, x)).max() == 0.0


def test_source_value_at_center(mms):
    # transport and convection vanish at the center, so the source reduces
    # to the decay plus diffusion contributions
    got = mms.f(0.0, 0.5, np.array([0.5]), np.array([0.5]))[0]
    assert got == pytest.approx(2.0 * np.pi**2 - 0.1, rel=1e-14)


def test_compatibility_of_initial_and_inflow_data(mms):
    x = np.linspace(0.0, 1.0, 9)
    gap = np.abs(mms.z_init(0.0, x, x) - mms.z_bdry(0.0, x, x)).max()
    assert gap == 0.0


def test_growth_rate_peaks_at_one(mms):
    l = np.linspace(0.0, 1.0, 4097)
    vals = mms.G(l)
    assert vals.max() == pytest.approx(1.0, abs=1e-12)
    assert vals.min() == pytest.approx(0.5, abs=1e-12)


# argument names of every closed-form field besides the source
CLOSED_FORM_ARGS = {
    "G": "l",
    "z_init": "lxy",
    "z_init_grad": "lxy",
    "z_bdry": "txy",
    "z_bdry_grad": "txy",
    "exact": "tlxy",
    "exact_grad": "tlxy",
}


@pytest.fixture(scope="module")
def symbolic():
    return oracles.symbolic_mms_fields()


def sample_arguments(names):
    """Random points (x, y) with scalar and array values of l and t."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)
    for t in (0.0, 0.4, 1.0, rng.uniform(0, 1, 400)):
        for l in (0.0, 0.3, 0.5, 1.0, rng.uniform(0, 1, 400)):
            env = dict(t=t, l=l, x=x, y=y)
            yield [env[a] for a in names]


def test_fast_source_matches_symbolic_reference(mms, symbolic):
    for args in sample_arguments("tlxy"):
        np.testing.assert_allclose(mms.f(*args), symbolic["f"](*args), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_ARGS))
def test_closed_form_field_matches_symbolic_reference_bitwise(mms, symbolic, name):
    for args in sample_arguments(CLOSED_FORM_ARGS[name]):
        assert np.array_equal(getattr(mms, name)(*args), symbolic[name](*args))


def test_import_does_not_load_sympy():
    src = Path(pbemoc.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", "import pbemoc, sys; assert 'sympy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        timeout=120,
    )


def test_source_satisfies_the_pde_by_finite_differences(mms):
    # independent check: difference quotients of the exact solution must
    # reproduce the source to discretization accuracy
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.1, 0.9, size=(20, 4))
    d = 1e-5
    for t, l, x, y in pts:
        x, y = np.array([x]), np.array([y])
        z = lambda tt, ll, xx, yy: mms.exact(tt, ll, np.asarray(xx), np.asarray(yy))
        z_t = (z(t + d, l, x, y) - z(t - d, l, x, y)) / (2 * d)
        z_l = (z(t, l + d, x, y) - z(t, l - d, x, y)) / (2 * d)
        z_xx = (z(t, l, x + d, y) - 2 * z(t, l, x, y) + z(t, l, x - d, y)) / d**2
        z_yy = (z(t, l, x, y + d) - 2 * z(t, l, x, y) + z(t, l, x, y - d)) / d**2
        z_x = (z(t, l, x + d, y) - z(t, l, x - d, y)) / (2 * d)
        z_y = (z(t, l, x, y + d) - z(t, l, x, y - d)) / (2 * d)
        residual = z_t + mms.G(l) * z_l - (z_xx + z_yy) + z_x + z_y
        assert residual[0] == pytest.approx(float(mms.f(t, l, x, y)[0]), abs=5e-5)


def test_exact_gradient_consistent_with_exact(mms):
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(10, 4))
    d = 1e-6
    for t, l, x, y in pts:
        xa, ya = np.array([x]), np.array([y])
        gx, gy = mms.exact_grad(t, l, xa, ya)
        fd_x = (mms.exact(t, l, xa + d, ya) - mms.exact(t, l, xa - d, ya)) / (2 * d)
        fd_y = (mms.exact(t, l, xa, ya + d) - mms.exact(t, l, xa, ya - d)) / (2 * d)
        assert gx[0] == pytest.approx(fd_x[0], abs=1e-7)
        assert gy[0] == pytest.approx(fd_y[0], abs=1e-7)


# ---------------------------------------------------------------------------
# the memo of sin(pi v) and cos(pi v)

# the closed forms with a symbolic twin of the same bytes, and their arguments
MEMO_FIELDS = {"exact": "tlxy", "exact_grad": "tlxy", "z_init": "lxy", "z_init_grad": "lxy"}


@pytest.fixture
def empty_memo():
    harness._trig_memo.clear()
    yield harness._trig_memo
    harness._trig_memo.clear()


def field_bytes(value):
    """Shapes and bytes of a field value or of a gradient pair."""
    parts = value if isinstance(value, tuple) else (value,)
    return [(np.shape(v), np.asarray(v).tobytes()) for v in parts]


def oracle(symbolic, name, env):
    """The symbolic field on env, row by row where l is a (k, 1) column."""
    args = MEMO_FIELDS[name]
    if np.ndim(env["l"]) < 2:
        return symbolic[name](*(env[a] for a in args))
    rows = [symbolic[name](*(dict(env, l=li)[a] for a in args)) for li in env["l"][:, 0]]
    return tuple(map(np.stack, zip(*rows))) if name.endswith("_grad") else np.stack(rows)


def assert_fresh(mms, symbolic, t, l, x, y):
    """Each closed form on (t, l, x, y) gives the bytes of the symbolic
    oracle, and the source those of an evaluation with an empty memo."""
    env = dict(t=t, l=l, x=x, y=y)
    for name, args in MEMO_FIELDS.items():
        got = getattr(mms, name)(*(env[a] for a in args))
        assert field_bytes(got) == field_bytes(oracle(symbolic, name, env)), name
    source = field_bytes(mms.f(t, l, x, y))
    kept = harness._trig_memo[:]
    harness._trig_memo.clear()
    try:
        assert source == field_bytes(mms.f(t, l, x, y)), "f"
    finally:
        harness._trig_memo[:] = kept


def memo_points(seed, n=400):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, n), rng.uniform(0, 1, n)


def test_memo_sees_points_changed_in_place(mms, symbolic, empty_memo):
    x, y = memo_points(3)
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)
    x[::3] = np.random.default_rng(4).uniform(0, 1, x[::3].size)
    y[7] = 0.5
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)


def test_memo_tells_signed_zeros_apart_and_serves_nan_points(mms, symbolic, empty_memo):
    x, y = memo_points(5)
    x[:40] = 0.0
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)
    negative = x.copy()
    negative[:40] = -0.0  # equal to x as floats, not as bits
    assert field_bytes(mms.exact(0.4, 0.3, negative, y)) != field_bytes(mms.exact(0.4, 0.3, x, y))
    assert_fresh(mms, symbolic, 0.4, 0.3, negative, y)
    x[40:60] = np.nan
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)
    entries = len(empty_memo)
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)  # NaN points hit their entry
    assert len(empty_memo) == entries


def test_memo_serves_flat_and_element_shaped_points_from_one_entry(mms, symbolic, empty_memo):
    x, y = memo_points(6)
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)
    entries = len(empty_memo)
    assert_fresh(mms, symbolic, 0.4, 0.3, x.reshape(20, 20), y.reshape(20, 20))
    assert len(empty_memo) == entries


@pytest.mark.parametrize("l", [0.0, 0.3, np.linspace(0.0, 1.0, 7)[:, None]], ids=["0", "0.3", "column"])
def test_memo_serves_a_scalar_l_and_an_l_column(mms, symbolic, empty_memo, l):
    x, y = memo_points(7)
    for t in (0.0, 0.4):
        assert_fresh(mms, symbolic, t, l, x, y)


def test_memo_holds_a_bounded_number_of_point_sets(mms, symbolic, empty_memo):
    sets = [memo_points(100 + i, n=50) for i in range(harness.TRIG_MEMO_SIZE + 3)]
    for _ in range(2):  # the second pass meets evicted point sets again
        for x, y in sets:
            assert_fresh(mms, symbolic, 0.4, 0.3, x, y)
            assert len(empty_memo) <= harness.TRIG_MEMO_SIZE


def test_a_caller_cannot_write_into_the_memo(mms, symbolic, empty_memo):
    x, y = memo_points(8)
    for points in (x, x.reshape(20, 20)):
        for cached in harness._sin_cos(points):
            with pytest.raises(ValueError, match="read-only"):
                cached[(0,) * cached.ndim] = 2.0
    value = mms.exact(0.4, 0.3, x, y)
    value[:] = 2.0  # a field's value belongs to its caller
    assert_fresh(mms, symbolic, 0.4, 0.3, x, y)


# ---------------------------------------------------------------------------
# study parameters


def test_config_validation(mms, monkeypatch):
    # every check fires before any run
    from pbemoc import harness

    monkeypatch.setattr(harness, "run_pipeline", lambda *args: pytest.fail("a run started"))
    monkeypatch.setattr(harness, "run_sequential", lambda *args, **kwargs: pytest.fail("a run started"))
    with pytest.raises(ValueError, match="order"):
        convergence_study((0.5,), order=3)
    with pytest.raises(ValueError, match="order"):
        strong_scaling_study((1,), h=0.5, order=3)
    with pytest.raises(ValueError, match="coupling"):
        convergence_study((0.5,), coupling="h4")
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study((0.25, 0.5))
    with pytest.raises(ValueError, match="decreasing"):
        characteristics_study((0.25, 0.5))
    with pytest.raises(ValueError, match="^steps must be >= 1, got 0$"):
        strong_scaling_study((1,), h=0.5, steps=0)
    with pytest.raises(ValueError, match="^steps must be >= 1, got 0$"):
        weak_scaling_study((1,), h=0.5, steps=0)
    with pytest.raises(ValueError, match="^block must be >= 1, got 0$"):
        weak_scaling_study((1,), h=0.5, block=0)
    with pytest.raises(ValueError, match="at least one worker count"):
        strong_scaling_study((), h=0.5)


@pytest.mark.parametrize(
    "study, kwargs",
    [
        (weak_scaling_study, dict(iota=0.3)),
        (strong_scaling_study, dict(block=4)),
        (strong_scaling_study, dict(scaling_mode="weak")),
        (convergence_study, dict(h=0.125)),
        (convergence_study, dict(n_steps=7)),
        (characteristics_study, dict(order=2)),
        (characteristics_study, dict(coupling="equal")),
    ],
    ids=["weak-iota", "strong-block", "scaling-mode", "convergence-h", "convergence-steps", "char-order", "char-coupling"],
)
def test_a_study_rejects_an_input_it_does_not_read(mms, study, kwargs):
    args = () if "scaling" in study.__name__ else ((0.5,),)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        study(*args, problem=mms, **kwargs)


def test_coupling_rules():
    assert COUPLINGS["h2"](0.5) == (0.25, 0.25)
    assert COUPLINGS["h3"](0.5) == (0.125, 0.125)
    assert COUPLINGS["equal"](0.5) == (0.5, 0.5)


def test_characteristics_study_requires_quadratic_equal(mms):
    # order and coupling are fixed, not inputs
    rows = characteristics_study((0.5,), T=0.5)
    assert rows == convergence_study((0.5,), order=2, coupling="equal", T=0.5)
    assert (rows[0].h, rows[0].tau, rows[0].iota) == (0.5, 0.5, 0.5)


def test_study_rejected_before_any_run_on_cfl_violation(mms):
    # tau = iota = h violates the bound for P1 refinement only if growth > 1;
    # force a violation via a crafted problem with larger growth
    import dataclasses

    fast = dataclasses.replace(mms, G=lambda l: np.full_like(np.asarray(l, dtype=float), 3.0))
    with pytest.raises(CflViolationError):
        convergence_study((0.5, 0.25), coupling="equal", problem=fast)


def test_study_rejects_a_level_whose_grids_do_not_divide_before_any_run(mms, monkeypatch):
    # h = 0.3 gives iota = tau = 0.3, which divides neither [0, 1] nor T = 1
    from pbemoc import harness

    calls = []

    def counting_run_single(*args, **kwargs):
        calls.append(args)
        return run_single(*args, **kwargs)

    monkeypatch.setattr(harness, "run_single", counting_run_single)
    with pytest.raises(ValueError, match="does not divide"):
        convergence_study((0.5, 0.3), coupling="equal")
    assert calls == []


def test_study_precheck_applies_the_run_gate_and_names_level_and_slice(mms, monkeypatch):
    # G is 1 at the nodes of h = 0.5 and 2 at l = 0.25, a node of h = 0.25 only
    import dataclasses

    from pbemoc import harness

    calls = []
    monkeypatch.setattr(harness, "run_single", lambda *args, **kwargs: calls.append(args))
    bumpy = dataclasses.replace(mms, G=lambda l: 1.0 + np.sin(2.0 * np.pi * l) ** 2)
    with pytest.raises(CflViolationError, match=r"^level h=0.25: .* of slice m=1 falls below"):
        convergence_study((0.5, 0.25), coupling="equal", problem=bumpy)
    assert calls == []


def test_study_accepts_the_zero_growth_the_runs_accept(mms):
    import dataclasses

    still = dataclasses.replace(mms, G=lambda l: np.zeros_like(np.asarray(l, dtype=float)))
    row = convergence_study((0.5,), coupling="equal", problem=still)[0]
    assert (row.l2_error, row.h1_error) == run_single(still, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# studies (cheap levels only; the acceptance suite runs the real tables)


def test_convergence_rows_and_order_columns(mms):
    rows = convergence_study((0.5, 0.25), order=1, coupling="h2")
    assert len(rows) == 2
    assert rows[0].l2_order is None and rows[0].h1_order is None
    assert rows[1].l2_order == pytest.approx(np.log2(rows[0].l2_error / rows[1].l2_error), abs=1e-12)
    assert rows[1].h1_order == pytest.approx(np.log2(rows[0].h1_error / rows[1].h1_error), abs=1e-12)
    assert rows[1].l2_error < rows[0].l2_error
    assert rows[1].tau == rows[1].h ** 2 and rows[1].iota == rows[1].h ** 2


def test_order_columns_divide_by_the_refinement_ratio(mms):
    # levels that quarter h: the observed order is log(e ratio) / log(h ratio)
    coarse, fine = convergence_study((2.0**-2, 2.0**-4), order=1, coupling="h2")
    halving = convergence_study((2.0**-2, 2.0**-3), order=1, coupling="h2")[1]
    assert fine.l2_order == pytest.approx(np.log2(coarse.l2_error / fine.l2_error) / 2, abs=1e-12)
    assert fine.h1_order == pytest.approx(np.log2(coarse.h1_error / fine.h1_error) / 2, abs=1e-12)
    assert abs(fine.l2_order - halving.l2_order) <= 0.1
    assert abs(fine.h1_order - halving.h1_order) <= 0.1


def test_convergence_study_with_workers_matches_sequential(mms):
    seq_rows = convergence_study((0.25,), order=1, coupling="h2")
    par_rows = convergence_study((0.25,), order=1, coupling="h2", workers=2)
    assert par_rows[0].l2_error == seq_rows[0].l2_error
    assert par_rows[0].h1_error == seq_rows[0].h1_error


def test_convergence_study_runs_to_the_configured_final_time(mms):
    row = convergence_study((0.5,), order=1, coupling="equal", T=0.5)[0]
    assert (row.l2_error, row.h1_error) == run_single(mms, 0.5, 0.5, 0.5, T=0.5)
    default = convergence_study((0.5,), order=1, coupling="equal")[0]
    assert (default.l2_error, default.h1_error) == run_single(mms, 0.5, 0.5, 0.5, T=mms.T)
    assert default.l2_error != row.l2_error


@pytest.mark.parametrize("workers", [0, -2])
def test_a_worker_count_below_one_is_rejected_not_run_sequentially(mms, workers):
    with pytest.raises(ValueError, match=f"worker count must be >= 1, got {workers}"):
        run_single(mms, 0.5, 0.25, 0.25, workers=workers)
    with pytest.raises(ValueError, match=f"worker count must be >= 1, got {workers}"):
        convergence_study((0.5,), workers=workers, problem=mms)


def test_pipelined_run_rejects_snapshots_before_running(mms, tmp_path):
    with pytest.raises(ValueError, match="sequential"):
        run_single(mms, 0.5, 0.25, 0.25, workers=2, snapshot_steps=(0,), snapshot_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_snapshot_directory_without_steps_is_rejected_before_running(mms, tmp_path):
    out = tmp_path / "snapshots"
    with pytest.raises(ValueError, match="given without steps"):
        run_single(mms, 0.5, 0.25, 0.25, snapshot_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("step", [0.0, float("nan")], ids=["zero", "nan"])
def test_a_step_that_is_not_positive_is_rejected_naming_it(mms, step):
    runs = {
        "h": [
            lambda: build_structured_mesh(UNIT_SQUARE, step, 1),
            lambda: run_single(mms, step, 0.25, 0.25),
            lambda: strong_scaling_study((1,), h=step, steps=1, problem=mms),
            lambda: weak_scaling_study((1,), h=step, steps=1, problem=mms),
        ],
        "tau": [lambda: run_single(mms, 0.5, step, 0.25)],
        "iota": [
            lambda: run_single(mms, 0.5, 0.25, step),
            lambda: strong_scaling_study((1,), h=0.5, iota=step, steps=1, problem=mms),
        ],
    }
    for name, calls in runs.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name}={step} must be positive$"):
                call()


@pytest.mark.parametrize("T", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_a_final_time_that_is_not_finite_is_rejected_naming_it(mms, T):
    message = f"^the final time {T} must be finite and positive$"
    with pytest.raises(ValueError, match=message):
        run_single(mms, 0.5, 0.25, 0.25, T=T)
    with pytest.raises(ValueError, match=message):
        convergence_study((0.5,), T=T, problem=mms)


def test_halving_the_internal_spacing_halves_the_transport_error(mms):
    # fixed fine spatial mesh, quadratic elements: the remaining error is the
    # first-order transport error, which scales with the step
    h = 2.0**-5
    coarse = run_single(mms, h, 2.0**-3, 2.0**-3, order=2)
    fine = run_single(mms, h, 2.0**-4, 2.0**-4, order=2)
    ratio = coarse[0] / fine[0]
    assert 1.7 <= ratio <= 2.3


@pytest.mark.parametrize("order", [1, 2])
def test_run_single_errors_are_the_per_slice_norms_bitwise(mms, monkeypatch, order):
    # the worst-slice pass reads the slices' own rows, with no stacked copy of
    # the surface, and gives the bytes of one norms call per slice
    from pbemoc import ErrorEvaluator, TimeGrid, reference_basis, run_sequential
    from pbemoc.stepper import SolutionSurface

    h, step, T = 0.25, 0.125, 0.5
    monkeypatch.setattr(SolutionSurface, "as_matrix", lambda self: pytest.fail("run_single stacked the surface"))
    worst = run_single(mms, h, step, step, order=order, T=T)
    monkeypatch.undo()
    mesh, basis = build_structured_mesh(mms.domain, h, order), reference_basis(order)
    lgrid, tgrid = mms.lgrid(8), TimeGrid(T, 4)
    surface = run_sequential(mms, mesh, basis, lgrid, tgrid)
    evaluator = ErrorEvaluator(mesh, basis)
    norms = [
        evaluator.norms(surface.slices[m].values, *mms.exact_at(T, float(lgrid.nodes[m])))
        for m in range(1, lgrid.M + 1)
    ]
    assert worst == tuple(max(v) for v in zip(*norms))  # positive and finite, so equal as bits


def test_scaling_study_strong_and_weak(mms):
    rows = strong_scaling_study((1, 2), h=0.25, iota=1.0 / 16, steps=4)
    assert [r.workers for r in rows] == [1, 2]
    assert rows[0].speedup == pytest.approx(1.0)
    assert all(r.total_seconds > 0 for r in rows)

    weak = weak_scaling_study((1, 2), h=0.25, block=4, steps=4)
    assert all(r.max_worker_seconds >= r.avg_worker_seconds > 0 for r in weak)


def test_scaling_study_rejects_a_non_dividing_iota(mms):
    # strong scaling tiles [0, 1] with the same rule as the other studies
    with pytest.raises(ValueError, match="iota=0.3 does not divide"):
        strong_scaling_study((1,), h=0.5, iota=0.3, steps=1)


def test_convergence_study_takes_one_worker_count(mms):
    with pytest.raises(TypeError):
        convergence_study((0.5,), order=1, workers=(1, 2))


# ---------------------------------------------------------------------------
# CSV tables


def test_convergence_csv_round_trip(mms):
    rows = convergence_study((0.5, 0.25), order=1, coupling="h2")
    text = format_convergence_rows(rows)
    assert text.splitlines()[0] == "h,tau,iota,l2_error,l2_order,h1_error,h1_order"


def test_convergence_csv_formatting():
    rows = [
        ConvergenceRow(0.25, 0.0625, 0.0625, 4.0481e-2, None, 7.8083e-1, None),
        ConvergenceRow(0.125, 0.015625, 0.015625, 1.0318e-2, 1.9721, 3.9359e-1, 0.9883),
    ]
    lines = format_convergence_rows(rows).splitlines()
    assert lines[1].split(",")[3] == "4.04810E-02"  # six significant digits
    assert lines[2].split(",")[4] == "1.9721"  # four decimals
    assert lines[1].split(",")[4] == ""  # empty order on the coarsest row


def test_scaling_csv_round_trip():
    rows = [
        ScalingRow(1, 2.5, 1.0, 2.4, 2.45, False),
        ScalingRow(4, 0.9, 2.78, 0.8, 0.85, True),
    ]
    text = format_scaling_rows(rows)
    assert "workers,total_seconds,speedup,avg_worker_seconds,max_worker_seconds" in text
    assert text.startswith("#")  # oversubscription annotation


def test_study_csv_deterministic(tmp_path):
    a = format_convergence_rows(convergence_study((0.5,), order=1, coupling="h2"))
    b = format_convergence_rows(convergence_study((0.5,), order=1, coupling="h2"))
    assert a == b
