"""Structured triangulations of rectangles with P1/P2 Lagrange bases and quadrature.

The mesh builder tiles an axis-aligned rectangle with square cells of edge
length h and splits every cell into two right triangles along the same
diagonal (lower-left to upper-right).  Node numbering is row-major over the
vertex grid; elements are numbered cell by cell, lower triangle first.  For
quadratic elements the vertex nodes come first, followed by edge midpoints
in order of first appearance.
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

    h must divide both side lengths into an integer number of cells.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported element order {order}; expected 1 or 2")
    if h <= 0.0:
        raise ValueError(f"edge length must be positive, got {h}")

    nx = _cell_count(domain.width, h, "x")
    ny = _cell_count(domain.height, h, "y")

    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    xv, yv = np.meshgrid(xs, ys)  # row-major: y outer, x inner
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            tris.append((v00, v10, v11))  # below the diagonal
            tris.append((v00, v11, v01))  # above the diagonal
    elements = np.asarray(tris, dtype=np.int64)

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


def _cell_count(side: float, h: float, axis: str) -> int:
    n = int(round(side / h))
    if n < 1 or abs(n * h - side) > 1e-12 * max(1.0, side):
        raise ValueError(
            f"edge length {h} does not divide the {axis}-side of length {side} "
            f"into an integer number of cells"
        )
    return n


def _add_edge_midpoints(nodes, elements):
    """Append one midpoint node per unique edge and extend connectivity to 6 columns."""
    midpoint_of = {}
    mid_coords = []
    next_id = nodes.shape[0]
    ext = np.empty((elements.shape[0], 6), dtype=np.int64)
    ext[:, :3] = elements
    for e, (a, b, c) in enumerate(elements):
        for k, (i, j) in enumerate(((a, b), (b, c), (c, a))):
            key = (i, j) if i < j else (j, i)
            mid = midpoint_of.get(key)
            if mid is None:
                mid = next_id
                midpoint_of[key] = mid
                mid_coords.append(0.5 * (nodes[i] + nodes[j]))
                next_id += 1
            ext[e, 3 + k] = mid
    all_nodes = np.vstack([nodes, np.asarray(mid_coords)])
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


def reference_basis(order: int) -> BasisSet:
    """Standard Lagrange basis of the requested order on the reference triangle."""
    return BasisSet(order)


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

    def __len__(self) -> int:
        return self.weights.shape[0]


def _symmetric_points(groups):
    """Expand (weight, barycentric-orbit) groups into point/weight arrays."""
    pts, wts = [], []
    for w, bary in groups:
        seen = []
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
            p = tuple(bary[k] for k in perm)
            if not any(all(abs(p[i] - q[i]) < 1e-14 for i in range(3)) for q in seen):
                seen.append(p)
        for p in seen:
            pts.append(p)
            wts.append(w)
    points = np.asarray(pts, dtype=float)
    # stored weights are normalized to the reference area 1/2
    weights = 0.5 * np.asarray(wts, dtype=float)
    return points, weights


def _build_rules():
    third = 1.0 / 3.0
    rules = []

    rules.append(
        QuadRule(
            *_symmetric_points([(third, (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0))]),
            exact_degree=2,
        )
    )

    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    rules.append(
        QuadRule(
            *_symmetric_points(
                [
                    (w1, (1.0 - 2.0 * a1, a1, a1)),
                    (w2, (1.0 - 2.0 * a2, a2, a2)),
                ]
            ),
            exact_degree=4,
        )
    )

    rules.append(
        QuadRule(
            *_symmetric_points(
                [
                    (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
                    (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
                    (0.082851075618374, (0.636502499121399, 0.310352451033785, 0.053145049844816)),
                ]
            ),
            exact_degree=6,
        )
    )
    return tuple(rules)


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
