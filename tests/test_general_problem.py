"""A second manufactured problem, with the inputs the benchmark problem leaves
at their simplest: a non-unit rectangle, a short shifted internal interval, a
nonzero time-dependent inflow, curvature in l and a non-constant growth rate.

Its source is derived with sympy and passed as a plain callable, so the
time steps take the per-slice load path, not the SeparableSource one.
"""

from typing import Callable

import numpy as np
import pytest
import sympy

from pbemoc.characteristics import TimeGrid
from pbemoc.fem import SolverConfig
from pbemoc.harness import MMSProblem, convergence_study
from pbemoc.mesh import Rectangle, build_structured_mesh, reference_basis
from pbemoc.pipeline import run_pipeline
from pbemoc.stepper import run_sequential

DOMAIN = Rectangle(-1.0, 1.0, 0.0, 0.5)
L_MIN, L_MAX = 1.0, 1.5
T = 0.25  # with the short interval, keeps the finest level to 8192 slice steps


def general_problem() -> tuple[MMSProblem, Callable]:
    """z = A(t, l) S(x, y) with A = (2 + sin(t + l)) exp(-(l - L_MIN)/2) and
    S = sin(pi (x+1)/2) sin(2 pi y).

    z vanishes on the boundary of DOMAIN for every (t, l); at l = L_MIN it is
    a nonzero inflow that changes with t.  Its curvature in l makes linear
    interpolation at the characteristic feet inexact.  G lies in [1/2, 3/4]
    on [L_MIN, L_MAX], so tau*G <= iota holds at tau = iota.

    The source is the PDE applied to z, (A_t + G A_l) S + A (-eps lap S + b.grad S),
    evaluated as written: one evaluation of S and of its operator per call.
    The PDE applied to z as one expression comes back alongside, to check it.
    """
    t, l, x, y = sympy.symbols("t l x y", real=True)
    eps = sympy.Rational(1, 2)
    b = (sympy.Rational(1, 2), -sympy.Rational(1, 4))
    growth = sympy.Rational(1, 2) + (l - L_MIN) * (L_MAX - l) / (L_MAX - L_MIN) ** 2
    A = (2 + sympy.sin(t + l)) * sympy.exp(-(l - L_MIN) / 2)
    S = sympy.sin(sympy.pi * (x + 1) / 2) * sympy.sin(2 * sympy.pi * y)
    z = A * S
    transport = sympy.diff(A, t) + growth * sympy.diff(A, l)
    spatial = (
        -eps * (sympy.diff(S, x, 2) + sympy.diff(S, y, 2))
        + b[0] * sympy.diff(S, x)
        + b[1] * sympy.diff(S, y)
    )

    def lam(args, expr):
        return sympy.lambdify(args, expr, modules="numpy", cse=True)

    def pair(args, expr):
        fx, fy = lam(args, sympy.diff(expr, x)), lam(args, sympy.diff(expr, y))
        return lambda *a: (fx(*a), fy(*a))

    amplitude, rate, fields = lam((t, l), A), lam((t, l), transport), lam((x, y), [S, spatial])

    def source(t, l, x, y):
        s, ls = fields(x, y)
        return rate(t, l) * s + amplitude(t, l) * ls

    z0, inflow = z.subs(t, 0), z.subs(l, L_MIN)
    problem = MMSProblem(
        epsilon=float(eps),
        b=tuple(float(c) for c in b),
        G=lam((l,), growth),
        f=source,
        z_init=lam((l, x, y), z0),
        z_init_grad=pair((l, x, y), z0),
        z_bdry=lam((t, x, y), inflow),
        z_bdry_grad=pair((t, x, y), inflow),
        exact=lam((t, l, x, y), z),
        exact_grad=pair((t, l, x, y), z),
        domain=DOMAIN,
        l_min=L_MIN,
        l_max=L_MAX,
        T=T,
    )
    pde = (
        sympy.diff(z, t)
        + growth * sympy.diff(z, l)
        - eps * (sympy.diff(z, x, 2) + sympy.diff(z, y, 2))
        + b[0] * sympy.diff(z, x)
        + b[1] * sympy.diff(z, y)
    )
    return problem, lam((t, l, x, y), pde)


@pytest.fixture(scope="module")
def derived():
    return general_problem()


@pytest.fixture(scope="module")
def problem(derived):
    return derived[0]


def test_the_source_is_the_pde_applied_to_the_solution(derived):
    problem, pde = derived
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.0, 1.0, 50), rng.uniform(0.0, 0.5, 50)
    for t, l in ((0.0, L_MIN), (0.1, 1.3), (T, L_MAX)):
        np.testing.assert_allclose(problem.f(t, l, x, y), pde(t, l, x, y), rtol=1e-12, atol=1e-12)


def test_the_problem_exercises_what_the_benchmark_problem_does_not(problem):
    x = np.linspace(-1.0, 1.0, 9)
    y = np.linspace(0.0, 0.5, 9)
    inflow = [np.abs(problem.z_bdry(t, x, y[4])).max() for t in (0.0, T)]
    assert min(inflow) > 0.1 and inflow[0] != inflow[1]
    edges = [(x, np.zeros(9)), (x, np.full(9, 0.5)), (np.full(9, -1.0), y), (np.ones(9), y)]
    assert max(np.abs(problem.exact(0.1, 1.3, ex, ey)).max() for ex, ey in edges) < 1e-15
    l = np.linspace(L_MIN, L_MAX, 9)
    growth = problem.G(l)
    assert growth.min() == 0.5 and growth.max() == 0.75
    values = problem.exact(0.1, l, 0.0, 0.25)
    assert np.abs(np.diff(values, 2)).max() > 1e-3  # curved in l


def test_p1_orders_fall_in_criterion_1_bands(problem):
    rows = convergence_study((2.0**-2, 2.0**-3, 2.0**-4), order=1, coupling="h2", problem=problem)
    l2_order, h1_order = rows[-1].l2_order, rows[-1].h1_order
    assert abs(l2_order - 2.0) <= 0.20, [r.l2_order for r in rows]
    assert abs(h1_order - 1.0) <= 0.10, [r.h1_order for r in rows]


def test_sequential_equals_pipeline_bitwise(problem):
    # P1 and P2; a dyadic tau and a non-dyadic one (N = 17: tau * max G = 0.011
    # <= iota = 1/64); the direct solver bitwise, GMRES within criterion 4's 1e-10
    lgrid = problem.lgrid(32)
    gmres = SolverConfig("iterative")
    for order, h in ((1, 2.0**-3), (2, 2.0**-2)):
        mesh, basis = build_structured_mesh(DOMAIN, h, order), reference_basis(order)
        for N in (16, 17):
            tgrid = TimeGrid(T, N)
            want = run_sequential(problem, mesh, basis, lgrid, tgrid).as_matrix().tobytes()
            for P in (1, 2, 3):
                run = run_pipeline(problem, mesh, basis, lgrid, tgrid, P)
                assert run.surface.as_matrix().tobytes() == want, (order, N, P)
                assert run.messages_sent == (P - 1) * N
            seq = run_sequential(problem, mesh, basis, lgrid, tgrid, gmres).as_matrix()
            for P in (2, 3):
                diff = np.abs(run_pipeline(problem, mesh, basis, lgrid, tgrid, P, gmres).surface.as_matrix() - seq)
                assert diff.max() <= 1e-10, (order, N, P)
