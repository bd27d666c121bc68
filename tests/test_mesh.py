import hashlib

import numpy as np
import pytest

from pbemoc import mesh as mesh_module
from pbemoc.mesh import (
    MAX_COUNT,
    Rectangle,
    UNIT_SQUARE,
    _step_count,
    build_structured_mesh,
    quadrature_rule,
    reference_basis,
)

from oracles import monomial_integral_reference


def test_unit_square_h_half_counts():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    assert mesh.num_nodes == 9
    assert mesh.num_elements == 8
    assert mesh.boundary_mask.sum() == 8
    assert (~mesh.boundary_mask).sum() == 1


def test_elements_tile_the_rectangle():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.5, 1)
    assert mesh.signed_areas().sum() == pytest.approx(1.0, abs=1e-15)
    rect = Rectangle(0.0, 2.0, -1.0, 0.5)
    mesh = build_structured_mesh(rect, 0.25, 1)
    assert mesh.signed_areas().sum() == pytest.approx(rect.area, rel=1e-14)


def test_all_signed_areas_positive():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    assert np.all(mesh.signed_areas() > 0.0)


def test_p2_node_counts_match_edge_enumeration():
    # oracle: enumerate unique vertex pairs of the linear mesh by brute force
    linear = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    edges = set()
    for a, b, c in linear.elements:
        for i, j in ((a, b), (b, c), (c, a)):
            edges.add((min(i, j), max(i, j)))
    assert len(edges) == 56

    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    assert mesh.num_vertices == 25
    assert mesh.num_nodes - mesh.num_vertices == len(edges)
    assert mesh.num_nodes == 81


def test_p2_elements_have_six_distinct_nodes_and_shared_midpoints():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    for row in mesh.elements:
        assert len(set(row.tolist())) == 6
    # midpoints coincide with vertex averages and shared edges share the index
    for row in mesh.elements:
        for k, (i, j) in enumerate(((row[0], row[1]), (row[1], row[2]), (row[2], row[0]))):
            mid = mesh.nodes[row[3 + k]]
            np.testing.assert_allclose(mid, 0.5 * (mesh.nodes[i] + mesh.nodes[j]), atol=1e-15)


def test_boundary_mask_iff_on_rectangle_boundary():
    mesh = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    on = (
        (np.abs(x) <= 1e-12)
        | (np.abs(x - 1) <= 1e-12)
        | (np.abs(y) <= 1e-12)
        | (np.abs(y - 1) <= 1e-12)
    )
    np.testing.assert_array_equal(mesh.boundary_mask, on)


def test_halving_h_quadruples_element_count():
    coarse = build_structured_mesh(UNIT_SQUARE, 0.25, 1)
    fine = build_structured_mesh(UNIT_SQUARE, 0.125, 1)
    assert fine.num_elements == 4 * coarse.num_elements


def test_deterministic_numbering():
    a = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    b = build_structured_mesh(UNIT_SQUARE, 0.25, 2)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.elements, b.elements)
    # row-major vertices: node 1 is the next point along x
    np.testing.assert_allclose(a.nodes[1], [0.25, 0.0])


def test_mesh_and_rule_bytes_are_pinned():
    # one digest over every node, element and boundary flag of P1 and P2
    # meshes of two rectangles at several h, and over the bundled rules: any
    # renumbering or rounding change of the mesh or the quadrature shows here
    digest = hashlib.sha256()

    def feed(array):
        array = np.asarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())

    for domain in (UNIT_SQUARE, Rectangle(-1.0, 2.0, 0.5, 1.5)):
        for h in (1.0, 0.5, 0.25, 0.125, 1.0 / 32):
            for order in (1, 2):
                mesh = build_structured_mesh(domain, h, order)
                for array in (mesh.nodes, mesh.elements, mesh.boundary_mask, mesh.num_vertices):
                    feed(array)
    for degree in (2, 4, 6):
        rule = quadrature_rule(degree)
        feed(rule.points)
        feed(rule.weights)
    assert digest.hexdigest()[:16] == "08f3ca5c45ca35aa"


@pytest.mark.parametrize(
    "h,order,message",
    [
        (0.3, 1, "does not divide"),
        (-0.5, 1, "positive"),
        (0.0, 1, "^h=0.0 must be positive$"),
        (float("nan"), 1, "^h=nan must be positive$"),
        (0.5, 3, "order"),
    ],
)
def test_builder_rejects_bad_input(h, order, message):
    with pytest.raises(ValueError, match=message):
        build_structured_mesh(UNIT_SQUARE, h, order)


def test_h_within_rounding_of_a_divisor_is_accepted():
    # the divisibility rule of the step sizes: 1e-9 of the side, relative
    assert build_structured_mesh(Rectangle(0.0, 3.0, 0.0, 1.0), 0.5 * (1 + 1e-10), 1).num_elements == 24
    with pytest.raises(ValueError, match="h=0.5000005 does not divide the x-side of length 3.0"):
        build_structured_mesh(Rectangle(0.0, 3.0, 0.0, 1.0), 0.5000005, 1)


def test_a_side_that_is_not_finite_is_rejected_naming_it():
    with pytest.raises(ValueError, match="^the x-side of length inf must be finite and positive$"):
        build_structured_mesh(Rectangle(0.0, np.inf, 0.0, 1.0), 0.5, 1)


def test_a_step_count_above_the_cap_is_rejected_naming_the_step():
    # checked here, never through a run, so a missing cap cannot start 1e300 levels
    with pytest.raises(ValueError, match=r"^tau=1e-300 makes 1e\+300 steps of the final time 1.0; at most 2147483648"):
        _step_count(1.0, 1e-300, "tau", "the final time")
    with pytest.raises(ValueError, match=r"^iota=5e-324 makes inf steps"):
        _step_count(1.0, 5e-324, "iota", "the internal interval of length")
    assert _step_count(1.0, 2.0**-31, "tau", "the final time") == MAX_COUNT == 2**31


@pytest.mark.parametrize("order, nodes", [(1, 25), (2, 81)])
def test_a_mesh_above_the_node_cap_is_rejected_before_it_is_built(monkeypatch, order, nodes):
    # a lowered cap, so that a missing check builds a small mesh, not a huge one
    monkeypatch.setattr(mesh_module, "MAX_COUNT", nodes)
    assert build_structured_mesh(UNIT_SQUARE, 0.25, order).num_nodes == nodes
    monkeypatch.setattr(mesh_module, "MAX_COUNT", nodes - 1)
    with pytest.raises(ValueError, match=f"^h=0.25 gives an order-{order} mesh of {nodes} nodes; at most {nodes - 1}"):
        build_structured_mesh(UNIT_SQUARE, 0.25, order)


def test_degenerate_rectangle_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        Rectangle(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# reference bases


def test_p1_nodal_property():
    basis = reference_basis(1)
    vals = basis.values(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(vals.ravel(), [1.0, 0.0, 0.0], atol=1e-15)


def test_nodal_property_all_orders():
    for order in (1, 2):
        basis = reference_basis(order)
        vals = basis.values(basis.local_nodes)
        np.testing.assert_allclose(vals, np.eye(basis.local_dof_count), atol=1e-15)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=50)[:, 1:]  # interior points
    for order in (1, 2):
        basis = reference_basis(order)
        np.testing.assert_allclose(basis.values(pts).sum(axis=0), 1.0, atol=1e-13)
        grad_sum = basis.gradients(pts).sum(axis=0)
        np.testing.assert_allclose(grad_sum, 0.0, atol=1e-13)


def test_p2_edge_midpoint_values():
    basis = reference_basis(2)
    vals = basis.values(np.array([[0.5, 0.0]])).ravel()
    np.testing.assert_allclose(vals[:3], 0.0, atol=1e-15)
    np.testing.assert_allclose(vals[3], 1.0, atol=1e-15)
    np.testing.assert_allclose(vals[4:], 0.0, atol=1e-15)


def test_unsupported_basis_order_rejected():
    with pytest.raises(ValueError, match="order"):
        reference_basis(3)


# ---------------------------------------------------------------------------
# quadrature


def test_degree_two_rule_integrates_x_squared():
    rule = quadrature_rule(2)
    got = float(np.sum(rule.weights * rule.xy[:, 0] ** 2))
    assert got == pytest.approx(1.0 / 12.0, abs=1e-15)  # symbolic integral of x^2


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_monomial_exactness(degree):
    rule = quadrature_rule(degree)
    assert rule.exact_degree >= degree
    x, y = rule.xy[:, 0], rule.xy[:, 1]
    for p in range(rule.exact_degree + 1):
        for q in range(rule.exact_degree + 1 - p):
            got = float(np.sum(rule.weights * x**p * y**q))
            assert got == pytest.approx(monomial_integral_reference(p, q), abs=2e-15)


def test_weights_positive_and_normalized():
    for degree in (1, 2, 4, 5, 6):
        rule = quadrature_rule(degree)
        assert np.all(rule.weights > 0.0)
        assert float(rule.weights.sum()) == pytest.approx(0.5, abs=1e-14)


def test_rule_request_above_bundle_rejected():
    with pytest.raises(ValueError, match="maximum"):
        quadrature_rule(7)
    with pytest.raises(ValueError, match=">= 1"):
        quadrature_rule(0)


def test_affine_map_consistency():
    # integrating 1 over each element with the mapped rule returns its area
    mesh = build_structured_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 0.25, 1)
    rule = quadrature_rule(4)
    areas = mesh.signed_areas()
    p = mesh.vertex_coords
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    per_element = rule.weights.sum() * np.abs(det)
    np.testing.assert_allclose(per_element, areas, rtol=1e-13)
