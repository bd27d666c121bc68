import numpy as np
import pytest

from pbemoc.characteristics import (
    CflViolationError,
    LGrid,
    TimeGrid,
    check_cfl,
    combine_backtraced,
    foot_weights,
)
from pbemoc.fem import FieldSlice
from pbemoc.harness import mms_problem


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
# foot weights


def feet(alphas, g):
    """Characteristic feet l_m - alpha_m*iota of nodes 1..M."""
    return g.nodes[1:] - alphas[1:] * g.iota


def test_backtrace_zero_growth():
    g = LGrid(0.0, 1.0, 8)
    alphas = foot_weights(0.05, g, lambda l: 0.0)
    assert alphas.shape == (g.M + 1,)
    assert np.all(alphas == 0.0)
    assert np.all(feet(alphas, g) == g.nodes[1:])


def test_backtrace_at_cfl_limit():
    g = LGrid(0.0, 1.0, 512)
    tau = 1.0 / 512.0
    alphas = foot_weights(tau, g, quad_growth)
    assert alphas[0] == 0.0
    # l = 0.5 where growth is exactly 1
    assert feet(alphas, g)[255] == pytest.approx(0.5 - 1.0 / 512.0, abs=1e-16)
    assert alphas[256] == pytest.approx(1.0, abs=1e-12)


def test_backtrace_half_weight():
    g = LGrid(0.0, 1.0, 8)
    alphas = foot_weights(g.iota, g, lambda l: 0.5)
    assert alphas[2] == pytest.approx(0.5, abs=1e-15)
    assert g.nodes[1] <= feet(alphas, g)[1] <= g.nodes[2]


def test_backtrace_rejects_bypassed_cfl():
    g = LGrid(0.0, 1.0, 8)
    with pytest.raises(CflViolationError, match="m=1 falls below"):
        foot_weights(1.0, g, lambda l: 1.0)
    # the first failing node is named, whichever check it fails
    growth = lambda l: np.where(l > 0.3, 1.0, 0.0)  # nodes 3.. fail
    with pytest.raises(CflViolationError, match="m=3 falls below"):
        foot_weights(1.0, g, growth)


def test_backtrace_rejects_negative_growth():
    g = LGrid(0.0, 1.0, 8)
    with pytest.raises(CflViolationError, match="m=1 lies right of its node .*negative"):
        foot_weights(0.1, g, lambda l: -1.0)
    # node 2 lies right of its foot before node 3 falls below its neighbour
    growth = lambda l: np.select([l == 0.25, l > 0.3], [-1.0, 10.0], 0.0)
    with pytest.raises(CflViolationError, match="m=2 .*negative"):
        foot_weights(0.1, g, growth)


def test_a_nan_foot_fails():
    g = LGrid(0.0, 1.0, 8)
    growth = lambda l: np.where(l == 0.5, np.nan, 0.5)
    with pytest.raises(CflViolationError, match="foot nan of slice m=4"):
        foot_weights(0.01, g, growth)


def test_alpha_in_unit_interval_under_cfl():
    g = LGrid(0.0, 1.0, 64)
    tau = g.iota  # max growth is 1 so this is the tight step
    assert check_cfl(tau, g, quad_growth).passed
    alphas = foot_weights(tau, g, quad_growth)
    assert alphas[0] == 0.0
    assert np.all((0.0 <= alphas) & (alphas <= 1.0))
    foot = feet(alphas, g)
    assert np.all((g.nodes[:-1] - 1e-14 <= foot) & (foot <= g.nodes[1:]))


def test_alpha_linear_in_tau():
    g = LGrid(0.0, 1.0, 64)
    tau = g.iota / 2.0
    a1 = foot_weights(tau, g, quad_growth)
    a2 = foot_weights(2.0 * tau, g, quad_growth)
    np.testing.assert_allclose(a2[1:], 2.0 * a1[1:], rtol=1e-13, atol=0.0)


def per_node_weights(tau, g, G):
    """alpha_m node by node, with scalar arithmetic on a scalar l_m."""
    alphas = [0.0]
    for m in range(1, g.M + 1):
        l_m = float(g.nodes[m])
        foot = l_m - tau * float(np.asarray(G(l_m), dtype=float))
        alphas.append(min(max((l_m - foot) / g.iota, 0.0), 1.0))
    return np.array(alphas)


@pytest.mark.parametrize("M", [37, 64, 512])
@pytest.mark.parametrize("growth", ["mms", "python scalar"])
def test_foot_weights_are_bitwise_the_per_node_formula(M, growth):
    G = mms_problem().G if growth == "mms" else (lambda l: 0.75)
    g = LGrid(0.0, 1.0, M)
    tau = g.iota / check_cfl(g.iota, g, G).max_growth
    got = foot_weights(tau, g, G)
    assert got.tobytes() == per_node_weights(tau, g, G).tobytes()


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


@pytest.mark.parametrize("g", [LGrid(0.0, 1.0, 64), LGrid(0.0, 1000.0, 97), LGrid(1000.0, 2000.0, 96)], ids=str)
def test_foot_weights_accept_the_exact_bound_at_any_magnitude(g):
    # G = 1 and tau = iota put each foot on its left node up to an ulp of the
    # nodes; a step longer by one part in 1e9 is a genuine violation
    G = lambda l: 1.0
    assert check_cfl(g.iota, g, G).passed
    alphas = foot_weights(g.iota, g, G)
    np.testing.assert_allclose(alphas[1:], 1.0, rtol=0.0, atol=1e-12)
    with pytest.raises(CflViolationError, match=r"m=1 falls below .*; the stability bound tau\*G\(l_m\) = \S+ <= iota = \S+ fails$"):
        foot_weights(g.iota * (1.0 + 1e-9), g, G)
