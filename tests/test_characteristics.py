import numpy as np
import pytest

from pbemoc.characteristics import (
    Backtrace,
    CflViolationError,
    LGrid,
    TimeGrid,
    backtrace,
    check_cfl,
    combine_backtraced,
)
from pbemoc.fem import FieldSlice


def quad_growth(l):
    # peaks at exactly 1.0 in the middle of [0, 1]
    return 0.5 + 2.0 * (1.0 - l) * l


# ---------------------------------------------------------------------------
# grids


def test_lgrid_nodes():
    g = LGrid(0.0, 1.0, 4)
    assert g.iota == 0.25
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_lgrid_validation():
    with pytest.raises(ValueError):
        LGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        LGrid(1.0, 1.0, 4)


def test_timegrid():
    t = TimeGrid(1.0, 8)
    assert t.tau == 0.125
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError, match="step count"):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, -1)


# ---------------------------------------------------------------------------
# stability check


def test_cfl_passes_at_exact_bound():
    # max of the quadratic growth rate is 1 at l = 1/2
    g = LGrid(0.0, 1.0, 512)
    report = check_cfl(1.0 / 512.0, g, quad_growth)
    assert report.passed
    assert report.max_growth == pytest.approx(1.0, abs=1e-12)


def test_cfl_violation_carries_ratio():
    g = LGrid(0.0, 1.0, 512)
    report = check_cfl(1.0 / 256.0, g, quad_growth)
    assert not report.passed
    assert report.ratio == pytest.approx(2.0, abs=1e-9)
    assert "violated" in report.describe()


@pytest.mark.parametrize("c,tau,expected", [(0.5, 0.25, True), (0.5, 0.26, False), (2.0, 0.0625, True)])
def test_cfl_constant_growth(c, tau, expected):
    g = LGrid(0.0, 1.0, 8)  # iota = 0.125
    report = check_cfl(tau, g, lambda l: np.full_like(np.asarray(l, dtype=float), c))
    assert report.passed is (tau * c <= g.iota) is expected


def test_cfl_rejects_nonpositive_growth():
    g = LGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        check_cfl(0.01, g, lambda l: 1.0 - 2.0 * np.asarray(l))
    # zero growth, as the runners accept it, degenerates the transport to a no-op
    report = check_cfl(0.01, g, lambda l: np.zeros_like(np.asarray(l)))
    assert report.passed
    with pytest.raises(ValueError, match="nonnegative"):
        check_cfl(0.01, g, lambda l: -np.ones_like(np.asarray(l)))


# ---------------------------------------------------------------------------
# backtrace


def test_backtrace_zero_growth():
    g = LGrid(0.0, 1.0, 8)
    bt = backtrace(3, 0.05, g, lambda l: 0.0)
    assert bt.foot == g.nodes[3]
    assert bt.alpha == 0.0


def test_backtrace_at_cfl_limit():
    g = LGrid(0.0, 1.0, 512)
    tau = 1.0 / 512.0
    bt = backtrace(256, tau, g, quad_growth)  # l = 0.5 where growth is exactly 1
    assert bt.foot == pytest.approx(0.5 - 1.0 / 512.0, abs=1e-16)
    assert bt.alpha == pytest.approx(1.0, abs=1e-12)


def test_backtrace_half_weight():
    g = LGrid(0.0, 1.0, 8)
    bt = backtrace(2, g.iota, g, lambda l: 0.5)
    assert bt.alpha == pytest.approx(0.5, abs=1e-15)
    assert g.nodes[1] <= bt.foot <= g.nodes[2]


def test_backtrace_rejects_bypassed_cfl():
    g = LGrid(0.0, 1.0, 8)
    with pytest.raises(CflViolationError, match="m=2"):
        backtrace(2, 1.0, g, lambda l: 1.0)


def test_backtrace_rejects_negative_growth():
    g = LGrid(0.0, 1.0, 8)
    with pytest.raises(CflViolationError, match="negative"):
        backtrace(2, 0.1, g, lambda l: -1.0)


def test_backtrace_index_bounds():
    g = LGrid(0.0, 1.0, 8)
    for m in (0, 9):
        with pytest.raises(ValueError):
            backtrace(m, 0.01, g, lambda l: 1.0)


def test_alpha_in_unit_interval_under_cfl():
    g = LGrid(0.0, 1.0, 64)
    tau = g.iota  # max growth is 1 so this is the tight step
    assert check_cfl(tau, g, quad_growth).passed
    for m in range(1, g.M + 1):
        bt = backtrace(m, tau, g, quad_growth)
        assert 0.0 <= bt.alpha <= 1.0
        assert g.nodes[m - 1] - 1e-14 <= bt.foot <= g.nodes[m]


def test_alpha_linear_in_tau():
    g = LGrid(0.0, 1.0, 64)
    tau = g.iota / 2.0
    for m in (1, 17, 40):
        a1 = backtrace(m, tau, g, quad_growth).alpha
        a2 = backtrace(m, 2.0 * tau, g, quad_growth).alpha
        assert a2 == pytest.approx(2.0 * a1, rel=1e-13)


# ---------------------------------------------------------------------------
# slice combination


def make_slice(values, n=0, m=1):
    return FieldSlice(np.asarray(values, dtype=float), n=n, m=m)


def test_combine_alpha_zero_returns_same():
    left = make_slice([1.0, 2.0, 3.0], m=0)
    same = make_slice([4.0, -5.0, 6.0])
    out = combine_backtraced(left, same, 0.0)
    np.testing.assert_array_equal(out.values, same.values)


def test_combine_alpha_one_returns_left():
    left = make_slice([1.0, 2.0, 3.0], m=0)
    same = make_slice([4.0, -5.0, 6.0])
    out = combine_backtraced(left, same, 1.0)
    np.testing.assert_array_equal(out.values, left.values)


def test_combine_quarter_weight():
    left = make_slice(np.full(5, 4.0), m=0)
    same = make_slice(np.zeros(5))
    out = combine_backtraced(left, same, 0.25)
    np.testing.assert_array_equal(out.values, np.ones(5))


def test_combine_preserves_nodewise_bounds():
    rng = np.random.default_rng(11)
    left = make_slice(rng.normal(size=40), m=0)
    same = make_slice(rng.normal(size=40))
    for alpha in (0.1, 0.5, 0.9):
        out = combine_backtraced(left, same, alpha).values
        lo = np.minimum(left.values, same.values)
        hi = np.maximum(left.values, same.values)
        assert np.all(out >= lo - 1e-15) and np.all(out <= hi + 1e-15)


def test_combine_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="lengths"):
        combine_backtraced(make_slice([1.0, 2.0]), make_slice([1.0]), 0.5)


def test_combine_rejects_alpha_outside_unit_interval():
    s = make_slice([1.0])
    with pytest.raises(ValueError, match="weight"):
        combine_backtraced(s, s, 1.5)
