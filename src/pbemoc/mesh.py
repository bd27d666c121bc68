"""Structured triangulations of rectangles with P1/P2 Lagrange bases and quadrature.

The mesh builder tiles an axis-aligned rectangle with square cells of edge
length h and splits every cell into two right triangles along the same
diagonal (lower-left to upper-right).  Node numbering is row-major over the
vertex grid; elements are numbered cell by cell, lower triangle first.  For
quadratic elements the vertex nodes come first, followed by edge midpoints
in order of first appearance: element by element, edges (v0,v1), (v1,v2),
(v2,v0).  h must be positive and divide both sides under _step_count, the
package's one rule for step sizes (up to 1e-9 relative, for rounding), which
the study harness also applies to tau and iota.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Rectangle",
    "UNIT_SQUARE",
    "SpatialMesh",
    "BasisSet",
    "QuadRule",
    "build_structured_mesh",
    "reference_basis",
    "quadrature_rule",
]

# absolute tolerance used to flag nodes sitting on the rectangle boundary
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(
                f"degenerate rectangle: [{self.x0}, {self.x1}] x [{self.y0}, {self.y1}]"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


@dataclass(eq=False)
class SpatialMesh:
    """Triangulation of a rectangle.

    Attributes
    ----------
    domain : Rectangle
        The meshed rectangle.
    h : float
        Target edge length of the square cells.
    order : int
        Element order, 1 (vertices only) or 2 (vertices plus edge midpoints).
    nodes : ndarray, shape (num_nodes, 2)
        Node coordinates; vertex nodes first, then midpoints for order 2.
    elements : ndarray, shape (num_elements, 3 or 6)
        Node indices per triangle: three vertices, plus the midpoints of
        edges (v0,v1), (v1,v2), (v2,v0) for order 2.
    boundary_mask : ndarray of bool, shape (num_nodes,)
        True for nodes lying on the rectangle boundary.
    num_vertices : int
        Number of vertex nodes (equals num_nodes for order 1).
    """

    domain: Rectangle
    h: float
    order: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_mask: np.ndarray
    num_vertices: int

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def vertex_coords(self) -> np.ndarray:
        """Coordinates of the three corner vertices per element, shape (ne, 3, 2)."""
        return self.nodes[self.elements[:, :3]]

    def signed_areas(self) -> np.ndarray:
        p = self.vertex_coords
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def build_structured_mesh(domain: Rectangle, h: float, order: int = 1) -> SpatialMesh:
    """Triangulate `domain` with cells of edge h split along a fixed diagonal.

    h must be positive and divide both side lengths into whole cells (_step_count).
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported element order {order}; expected 1 or 2")
    nx = _step_count(domain.width, h, "h", "the x-side of length")
    ny = _step_count(domain.height, h, "h", "the y-side of length")

    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    xv, yv = np.meshgrid(xs, ys)  # row-major: y outer, x inner
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    v = np.arange(nodes.shape[0], dtype=np.int64).reshape(ny + 1, nx + 1)
    v00, v10, v01, v11 = v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]
    # per cell: below the diagonal, then above it
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)

    num_vertices = nodes.shape[0]
    if order == 2:
        nodes, elements = _add_edge_midpoints(nodes, elements)

    boundary_mask = _on_boundary(nodes, domain)
    mesh = SpatialMesh(
        domain=domain,
        h=h,
        order=order,
        nodes=nodes,
        elements=elements,
        boundary_mask=boundary_mask,
        num_vertices=num_vertices,
    )
    assert np.all(mesh.signed_areas() > 0.0)
    return mesh


def _step_count(length: float, step: float, name: str, what: str) -> int:
    """Number of steps of size step that tile length; ValueError if step is
    not positive, length is not finite and positive, or the steps do not
    tile length.

    The steps may miss length by up to 1e-9 of it, relative, for rounding."""
    if not step > 0.0:  # NaN fails this test, not the reverse one
        raise ValueError(f"{name}={step} must be positive")
    if not 0.0 < length < np.inf:
        raise ValueError(f"{what} {length} must be finite and positive")
    count = int(round(length / step))
    if count < 1 or abs(count * step - length) > 1e-9 * length:
        raise ValueError(f"{name}={step} does not divide {what} {length}")
    return count


def _add_edge_midpoints(nodes, elements):
    """Append one midpoint node per unique edge and extend connectivity to 6 columns."""
    ends = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = ends[:, 0] * nodes.shape[0] + ends[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)  # unique edges renumbered by first appearance
    rank[np.argsort(first)] = np.arange(first.size)
    mids = ends[np.sort(first)]
    all_nodes = np.vstack([nodes, 0.5 * (nodes[mids[:, 0]] + nodes[mids[:, 1]])])
    # the inverse's shape varies across numpy 2.0.x, hence the ravel
    ext = np.column_stack([elements, nodes.shape[0] + rank[inverse.ravel()].reshape(-1, 3)])
    return all_nodes, ext


def _on_boundary(nodes, domain):
    x, y = nodes[:, 0], nodes[:, 1]
    return (
        (np.abs(x - domain.x0) <= BOUNDARY_TOL)
        | (np.abs(x - domain.x1) <= BOUNDARY_TOL)
        | (np.abs(y - domain.y0) <= BOUNDARY_TOL)
        | (np.abs(y - domain.y1) <= BOUNDARY_TOL)
    )


class BasisSet:
    """Lagrange shape functions on the reference triangle (0,0), (1,0), (0,1).

    Local node order: the three vertices, then the midpoints of edges
    (v0,v1), (v1,v2), (v2,v0) for order 2.
    """

    def __init__(self, order: int):
        if order not in (1, 2):
            raise ValueError(f"unsupported element order {order}; expected 1 or 2")
        self.order = order
        self.local_dof_count = 3 if order == 1 else 6

    @property
    def local_nodes(self) -> np.ndarray:
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        if self.order == 1:
            return np.asarray(verts)
        return np.asarray(verts + [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])

    def values(self, points: np.ndarray) -> np.ndarray:
        """Shape function values, shape (local_dof_count, n_points)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        l0 = 1.0 - x - y
        if self.order == 1:
            return np.stack([l0, x, y])
        return np.stack(
            [
                l0 * (2.0 * l0 - 1.0),
                x * (2.0 * x - 1.0),
                y * (2.0 * y - 1.0),
                4.0 * l0 * x,
                4.0 * x * y,
                4.0 * y * l0,
            ]
        )

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients, shape (local_dof_count, n_points, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        if self.order == 1:
            g = [(-one, -one), (one, zero), (zero, one)]
        else:
            l0 = 1.0 - x - y
            g = [
                (-(4.0 * l0 - 1.0), -(4.0 * l0 - 1.0)),
                (4.0 * x - 1.0, zero),
                (zero, 4.0 * y - 1.0),
                (4.0 * (l0 - x), -4.0 * x),
                (4.0 * y, 4.0 * x),
                (-4.0 * y, 4.0 * (l0 - y)),
            ]
        return np.stack([np.stack(gi, axis=-1) for gi in g])


reference_basis = BasisSet  # the name the harness and the bench use


@dataclass(frozen=True)
class QuadRule:
    """Symmetric quadrature rule on the reference triangle.

    Points are barycentric; weights sum to the reference-triangle area 1/2.
    """

    points: np.ndarray  # (n, 3) barycentric coordinates
    weights: np.ndarray  # (n,)
    exact_degree: int

    @property
    def xy(self) -> np.ndarray:
        """Points in reference (x, y) coordinates, shape (n, 2)."""
        return self.points[:, 1:3]


# the permutations of a barycentric point, in the order its orbit lists them
_ORBIT = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))


def _symmetric_rule(exact_degree, groups):
    """The rule expanding each (weight, barycentric point) group into the
    point's orbit, with the weights normalized to the reference area 1/2."""
    pts, wts = [], []
    for w, bary in groups:
        orbit = dict.fromkeys(tuple(bary[k] for k in perm) for perm in _ORBIT)
        pts += orbit
        wts += [w] * len(orbit)
    return QuadRule(np.asarray(pts, dtype=float), 0.5 * np.asarray(wts, dtype=float), exact_degree)


def _build_rules():
    a1, a2 = 0.445948490915965, 0.091576213509771
    return (
        _symmetric_rule(2, [(1.0 / 3.0, (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0))]),
        _symmetric_rule(
            4, [(0.223381589678011, (1.0 - 2.0 * a1, a1, a1)), (0.109951743655322, (1.0 - 2.0 * a2, a2, a2))]
        ),
        _symmetric_rule(
            6,
            [
                (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
                (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
                (0.082851075618374, (0.636502499121399, 0.310352451033785, 0.053145049844816)),
            ],
        ),
    )


_RULES = _build_rules()
MAX_EXACT_DEGREE = _RULES[-1].exact_degree


def quadrature_rule(exact_degree: int) -> QuadRule:
    """Smallest bundled symmetric rule integrating polynomials of the given degree."""
    if exact_degree < 1:
        raise ValueError(f"exact_degree must be >= 1, got {exact_degree}")
    for rule in _RULES:
        if rule.exact_degree >= exact_degree:
            return rule
    raise ValueError(
        f"no bundled rule of exactness {exact_degree}; maximum is {MAX_EXACT_DEGREE}"
    )
