"""Independent brute-force implementations used to cross-check the package.

Nothing here shares code with the package beyond mesh connectivity and the
quadrature rule constants: shape functions are built by inverting a monomial
Vandermonde matrix, assembly is plain Python loops into dense matrices, the
affine map is applied through explicit 2x2 solves, systems are solved with
numpy's dense LU, and the benchmark problem is derived symbolically with sympy.

The one exception is `advance_slice_reference`: the per-slice arithmetic of
one time step on the package's own operators, kept as the bitwise reference
for the block kernel `stepper.advance_block`.
"""

from __future__ import annotations

from math import factorial

import numpy as np
import sympy

from pbemoc.stepper import SeparableSource

REF_NODES = {
    1: [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    2: [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)],
}
MONOMIALS = {
    1: [(0, 0), (1, 0), (0, 1)],
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
}


class VandermondeBasis:
    """Reference shape functions from a monomial Vandermonde inversion."""

    def __init__(self, order: int):
        nodes = REF_NODES[order]
        self.monos = MONOMIALS[order]
        V = np.array([[x**p * y**q for (p, q) in self.monos] for (x, y) in nodes])
        self.coeff = np.linalg.inv(V)  # column i holds the coefficients of phi_i
        self.n = len(nodes)

    def value(self, i: int, x: float, y: float) -> float:
        return sum(
            self.coeff[j, i] * x**p * y**q for j, (p, q) in enumerate(self.monos)
        )

    def grad(self, i: int, x: float, y: float) -> tuple[float, float]:
        gx = sum(
            self.coeff[j, i] * p * x ** (p - 1) * y**q
            for j, (p, q) in enumerate(self.monos)
            if p > 0
        )
        gy = sum(
            self.coeff[j, i] * q * x**p * y ** (q - 1)
            for j, (p, q) in enumerate(self.monos)
            if q > 0
        )
        return gx, gy


def monomial_integral_reference(p: int, q: int) -> float:
    """Exact integral of x^p y^q over the reference triangle."""
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def _element_map(mesh, e):
    conn = mesh.elements[e]
    p0 = mesh.nodes[conn[0]]
    jac = np.column_stack([mesh.nodes[conn[1]] - p0, mesh.nodes[conn[2]] - p0])
    return conn, p0, jac, np.linalg.det(jac)


def dense_operator(mesh, rule, kind: str, epsilon: float = 1.0, b=(0.0, 0.0)):
    """Dense mass / stiffness / convection matrix assembled with plain loops."""
    basis = VandermondeBasis(mesh.order)
    n = mesh.num_nodes
    out = np.zeros((n, n))
    bvec = np.asarray(b, dtype=float)
    for e in range(mesh.num_elements):
        conn, p0, jac, det = _element_map(mesh, e)
        for w, (xi, eta) in zip(rule.weights, rule.xy):
            vals = [basis.value(i, xi, eta) for i in range(basis.n)]
            grads = [
                np.linalg.solve(jac.T, np.array(basis.grad(i, xi, eta)))
                for i in range(basis.n)
            ]
            scale = w * abs(det)
            for i in range(basis.n):
                for j in range(basis.n):
                    if kind == "mass":
                        term = vals[i] * vals[j]
                    elif kind == "stiffness":
                        term = epsilon * (grads[i] @ grads[j])
                    elif kind == "convection":
                        term = (bvec @ grads[j]) * vals[i]
                    else:
                        raise ValueError(kind)
                    out[conn[i], conn[j]] += scale * term
    return out


def dense_load(mesh, rule, g):
    """Dense load vector of a scalar field."""
    basis = VandermondeBasis(mesh.order)
    out = np.zeros(mesh.num_nodes)
    for e in range(mesh.num_elements):
        conn, p0, jac, det = _element_map(mesh, e)
        for w, (xi, eta) in zip(rule.weights, rule.xy):
            xq, yq = p0 + jac @ np.array([xi, eta])
            gval = float(g(np.asarray(xq), np.asarray(yq)))
            for i in range(basis.n):
                out[conn[i]] += w * abs(det) * gval * basis.value(i, xi, eta)
    return out


def dense_grad_load(mesh, rule, g_grad):
    """Dense vector of grad g . grad phi_i."""
    basis = VandermondeBasis(mesh.order)
    out = np.zeros(mesh.num_nodes)
    for e in range(mesh.num_elements):
        conn, p0, jac, det = _element_map(mesh, e)
        for w, (xi, eta) in zip(rule.weights, rule.xy):
            xq, yq = p0 + jac @ np.array([xi, eta])
            gx, gy = g_grad(np.asarray(xq), np.asarray(yq))
            gvec = np.array([float(gx), float(gy)])
            for i in range(basis.n):
                gi = np.linalg.solve(jac.T, np.array(basis.grad(i, xi, eta)))
                out[conn[i]] += w * abs(det) * (gvec @ gi)
    return out


def dense_eliminate(matrix, rhs, mask):
    """Symmetric elimination of zero Dirichlet values on dense data."""
    mask = np.asarray(mask, dtype=bool)
    new_rhs = np.where(mask, 0.0, rhs)
    out = matrix.copy()
    out[mask, :] = 0.0
    out[:, mask] = 0.0
    for i in np.flatnonzero(mask):
        out[i, i] = 1.0
    return out, new_rhs


def dense_solve(matrix, rhs):
    return np.linalg.solve(matrix, rhs)


# ---------------------------------------------------------------------------
# polynomial utilities for closed-form local matrices


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_integral_legs_triangle(poly: dict, h: float) -> float:
    """Integrate a polynomial over the right triangle with legs h at the origin."""
    return sum(
        c * h ** (p + q + 2) * monomial_integral_reference(p, q)
        for (p, q), c in poly.items()
    )


def p1_basis_on_legs_triangle(h: float) -> list[dict]:
    """P1 shape functions on the triangle (0,0), (h,0), (0,h) as monomial dicts."""
    return [
        {(0, 0): 1.0, (1, 0): -1.0 / h, (0, 1): -1.0 / h},
        {(1, 0): 1.0 / h},
        {(0, 1): 1.0 / h},
    ]


# ---------------------------------------------------------------------------
# point evaluation of FE functions on the structured mesh


def eval_fe(mesh, basis, coeffs, x, y):
    """Evaluate an FE coefficient vector at arbitrary points of the mesh."""
    dom = mesh.domain
    h = mesh.h
    nx = int(round(dom.width / h))
    ny = int(round(dom.height / h))
    xf = np.asarray(x, dtype=float).ravel()
    yf = np.asarray(y, dtype=float).ravel()
    out = np.empty_like(xf)
    coeffs = np.asarray(coeffs, dtype=float)
    for k in range(xf.size):
        ix = min(int((xf[k] - dom.x0) / h), nx - 1)
        iy = min(int((yf[k] - dom.y0) / h), ny - 1)
        cell = iy * nx + ix
        for e in (2 * cell, 2 * cell + 1):
            conn = mesh.elements[e]
            p0 = mesh.nodes[conn[0]]
            jac = np.column_stack(
                [mesh.nodes[conn[1]] - p0, mesh.nodes[conn[2]] - p0]
            )
            xi, eta = np.linalg.solve(jac, np.array([xf[k] - p0[0], yf[k] - p0[1]]))
            if xi >= -1e-12 and eta >= -1e-12 and xi + eta <= 1.0 + 1e-12:
                vals = basis.values(np.array([[xi, eta]]))[:, 0]
                out[k] = vals @ coeffs[conn]
                break
        else:
            raise RuntimeError(f"point ({xf[k]}, {yf[k]}) not located in any element")
    return out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# symbolic derivation of the benchmark problem


def _broadcast_to_arg(fn, shape_arg: int):
    """Wrap a lambdified expression so the result always matches one argument's shape."""

    def wrapped(*args):
        ref = np.asarray(args[shape_arg], dtype=float)
        out = np.asarray(fn(*args), dtype=float)
        if out.shape != ref.shape:
            out = np.broadcast_to(out, ref.shape).copy()
        return out

    return wrapped


def _pair(fx, fy):
    def wrapped(*args):
        return fx(*args), fy(*args)

    return wrapped


def symbolic_mms_fields() -> dict:
    """Fields of the benchmark problem, derived and lambdified with sympy.

    The keys are MMSProblem's field names; the source f is the PDE applied to
    the exact solution, and the *_grad fields return (fx, fy) pairs.
    """
    t, l, x, y = sympy.symbols("t l x y", real=True)
    a = sympy.Rational(1, 10)
    eps = 1
    b = (1, 1)
    z = sympy.exp(-a * t) * sympy.sin(sympy.pi * l) * sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y)
    growth = sympy.Rational(1, 2) + 2 * (1 - l) * l

    source = (
        sympy.diff(z, t)
        + growth * sympy.diff(z, l)
        - eps * (sympy.diff(z, x, 2) + sympy.diff(z, y, 2))
        + b[0] * sympy.diff(z, x)
        + b[1] * sympy.diff(z, y)
    )

    def lam(args, expr, shape_arg):
        return _broadcast_to_arg(sympy.lambdify(args, expr, modules="numpy"), shape_arg)

    z_x, z_y = sympy.diff(z, x), sympy.diff(z, y)
    return dict(
        G=lam((l,), growth, 0),
        f=lam((t, l, x, y), source, 2),
        z_init=lam((l, x, y), z.subs(t, 0), 1),
        z_init_grad=_pair(
            lam((l, x, y), z_x.subs(t, 0), 1), lam((l, x, y), z_y.subs(t, 0), 1)
        ),
        z_bdry=lam((t, x, y), z.subs(l, 0), 1),
        z_bdry_grad=_pair(
            lam((t, x, y), z_x.subs(l, 0), 1), lam((t, x, y), z_y.subs(l, 0), 1)
        ),
        exact=lam((t, l, x, y), z, 2),
        exact_grad=_pair(lam((t, l, x, y), z_x, 2), lam((t, l, x, y), z_y, 2)),
    )


def advance_slice_reference(ops, n: int, m: int, prev_left, prev_same):
    """Slice (n, m) from its two level-(n-1) neighbours, one slice at a time.

    The order of the floating point operations is the one the block kernel
    must reproduce: blend, mass product scaled by 1/tau, plus the source load,
    boundary rows zeroed, one solve.  A separable source's load is the sum,
    in field order, of its field loads L_j scaled by c(t) a_j(l_m), with a_j
    evaluated on the whole internal grid as the kernel tabulates it; any
    other source is evaluated at the quadrature points and assembled.
    solve_system works on panels of a fixed width, so a right-hand side
    solved alone gets the bytes it gets in any block.
    """
    alpha = float(ops.alphas[m])
    ztilde = alpha * prev_left + (1.0 - alpha) * prev_same
    t = n * ops.tau
    l_m = float(ops.lgrid.nodes[m])
    rhs = (ops.mass @ ztilde) * (1.0 / ops.tau)
    f = ops.spec.f
    if isinstance(f, SeparableSource):
        c_t = f.time_factor(t)
        for a, s in zip(f.l_factors, f.fields):
            a_m = np.broadcast_to(a(ops.lgrid.nodes), ops.lgrid.nodes.shape)[m]
            rhs = rhs + (c_t * a_m) * ops.load.assemble(s)
    else:
        rhs = rhs + ops.load.assemble_values(f(t, l_m, ops.load.x, ops.load.y))
    rhs[ops.boundary_idx] = 0.0
    return ops.solve_system(rhs)
