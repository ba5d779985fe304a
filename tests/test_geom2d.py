"""Planar primitives: hulls, clipping, reflections, mirror axes."""

import math
import random

import pytest

from conftest import brute_force_hull, vertex_set
from minkpi.errors import DegenerateInput, EmptyIntersection, InvalidParameter, NotConvex
from minkpi.geom2d import (
    Axis,
    ConvexPolygon,
    Vec2,
    convex_hull,
    intersect_convex,
    negate,
    reflect,
    regular_polygon,
    symmetry_axes,
    vertex_sets_equal,
)

S3 = math.sqrt(3.0)


def test_vec2_rejects_non_finite():
    with pytest.raises(InvalidParameter):
        Vec2(float("nan"), 0.0)
    with pytest.raises(InvalidParameter):
        Vec2(0.0, float("inf"))


def test_normalized_rejects_only_zero_length():
    # no absolute floor: a vector of length 1e-13 still has a direction
    assert Vec2(1e-13, 0.0).normalized() == Vec2(1.0, 0.0)
    with pytest.raises(InvalidParameter):
        Vec2(0.0, 0.0).normalized()


def test_polygon_needs_three_ccw_vertices():
    with pytest.raises(DegenerateInput):
        ConvexPolygon([Vec2(0, 0), Vec2(1, 0)])
    with pytest.raises(NotConvex):
        ConvexPolygon([Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)])  # clockwise
    with pytest.raises(DegenerateInput):
        ConvexPolygon([Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)])


def test_polygon_drops_collinear_and_duplicate_vertices():
    poly = ConvexPolygon([Vec2(0, 0), Vec2(0.5, 0), Vec2(1, 0), Vec2(1, 1), Vec2(1, 1), Vec2(0, 1)])
    assert len(poly.vertices) == 4


@pytest.mark.parametrize("shift", [(1e3, -7e2), (1e5, -7e4), (1e7, 1e7)])
def test_far_translated_polygon_keeps_shape_and_centroid(shift):
    t = Vec2(*shift)
    moved = regular_polygon(6, 1.0, 0.0).translated(t)
    assert len(moved) == 6
    assert moved.signed_area() == pytest.approx(1.5 * S3, rel=1e-9)
    assert (moved.centroid() - t).norm() <= 1e-9


def test_polygon_with_overflowing_area_is_rejected():
    # 1e200 coordinates: the area overflows; 1e150 ones still measure
    with pytest.raises(InvalidParameter):
        ConvexPolygon([Vec2(0, 1e200), Vec2(-1e200, -1e200), Vec2(1e200, -1e200)])
    assert len(ConvexPolygon([Vec2(0, 1e150), Vec2(-1e150, -1e150), Vec2(1e150, -1e150)])) == 3


def test_tiny_polygon_is_not_collinear():
    assert len(regular_polygon(5, 1e-8, 0.2)) == 5


def test_hull_drops_interior_point():
    hull = convex_hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(0.2, 0.2)])
    assert vertex_set(hull) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_hull_square_plus_center():
    hull = convex_hull([Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1), Vec2(0, 0)])
    assert len(hull.vertices) == 4


def test_hull_hexagram_matches_brute_force():
    tri = regular_polygon(3, 1.0, math.pi / 2)
    pts = list(tri.vertices) + [-v for v in tri.vertices]
    hull = convex_hull(pts)
    expected = brute_force_hull(pts)
    assert len(hull.vertices) == 6
    assert vertex_sets_equal(hull.vertices, expected, 1e-12)


def test_hull_collinear_input_raises():
    with pytest.raises(DegenerateInput):
        convex_hull([Vec2(t, 2 * t) for t in (0.0, 0.5, 1.0, 2.0)])


def test_hull_contains_every_input():
    rng = random.Random(3)
    pts = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(60)]
    hull = convex_hull(pts)
    assert all(hull.contains(p, 1e-12) for p in pts)
    again = convex_hull(list(hull.vertices))
    assert vertex_sets_equal(hull.vertices, again.vertices, 1e-12)


def test_intersection_idempotent_on_same_square():
    sq = regular_polygon(4, math.sqrt(2.0), math.pi / 4)
    out = intersect_convex(sq, sq)
    assert vertex_sets_equal(out.vertices, sq.vertices, 1e-12)


def test_triangle_with_negation_gives_regular_hexagon():
    # all six crossing points sit at circumradius 1/sqrt(3)
    tri = regular_polygon(3, 1.0, math.pi / 2)
    out = intersect_convex(tri, negate(tri))
    expected = regular_polygon(6, 1.0 / S3, 0.0)
    assert vertex_sets_equal(out.vertices, expected.vertices, 1e-12)


def test_rotated_squares_give_regular_octagon():
    a = regular_polygon(4, math.sqrt(2.0), math.pi / 4)  # [-1,1]^2
    b = regular_polygon(4, math.sqrt(2.0), 0.0)
    out = intersect_convex(a, b)
    assert len(out.vertices) == 8
    r = math.sqrt(2.0) - 1.0
    expected = [(1, r), (r, 1), (-r, 1), (-1, r), (-1, -r), (-r, -1), (r, -1), (1, -r)]
    assert vertex_sets_equal(out.vertices, [Vec2(x, y) for x, y in expected], 1e-10)
    sides = out.edge_length_multiset()
    assert max(sides) - min(sides) < 1e-12


def test_intersection_commutes():
    rng = random.Random(11)
    for _ in range(20):
        p = convex_hull([Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(10)])
        q = convex_hull([Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(10)])
        try:
            pq = intersect_convex(p, q)
        except EmptyIntersection:
            continue
        qp = intersect_convex(q, p)
        assert vertex_sets_equal(pq.vertices, qp.vertices, 1e-10)
        assert pq.signed_area() <= min(p.signed_area(), q.signed_area()) + 1e-12


def test_disjoint_interiors_raise():
    a = ConvexPolygon([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    b = a.translated(Vec2(5.0, 0.0))
    with pytest.raises(EmptyIntersection):
        intersect_convex(a, b)


def test_negate_square_fixed_and_involution(equilateral):
    sq = regular_polygon(4, math.sqrt(2.0), math.pi / 4)
    assert vertex_sets_equal(negate(sq).vertices, sq.vertices, 1e-15)
    tri_neg = negate(equilateral)
    assert vertex_sets_equal(
        tri_neg.vertices,
        [Vec2(0, -1), Vec2(S3 / 2, 0.5), Vec2(-S3 / 2, 0.5)],
        1e-12,
    )
    assert vertex_sets_equal(negate(tri_neg).vertices, equilateral.vertices, 1e-15)


def test_reflect_fixes_symmetric_shapes(equilateral):
    axis = Axis(Vec2(0, 0), Vec2(0, 1))
    assert vertex_sets_equal(reflect(equilateral, axis).vertices, equilateral.vertices, 1e-12)
    sq = regular_polygon(4, math.sqrt(2.0), math.pi / 4)
    x_axis = Axis(Vec2(0, 0), Vec2(1, 0))
    assert vertex_sets_equal(reflect(sq, x_axis).vertices, sq.vertices, 1e-12)


def test_reflect_twice_is_identity():
    rng = random.Random(5)
    poly = convex_hull([Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(12)])
    axis = Axis(Vec2(0.3, -0.2), Vec2(math.cos(0.7), math.sin(0.7)))
    back = reflect(reflect(poly, axis), axis)
    assert vertex_sets_equal(back.vertices, poly.vertices, 1e-12)


def test_isometries_preserve_edge_lengths():
    rng = random.Random(9)
    poly = convex_hull([Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(15)])
    base = poly.edge_length_multiset()
    axis = Axis(Vec2(0, 0), Vec2(math.cos(1.1), math.sin(1.1)))
    for image in (negate(poly), reflect(poly, axis)):
        assert all(abs(u - v) <= 1e-12 for u, v in zip(base, image.edge_length_multiset()))


@pytest.mark.parametrize("n", range(3, 13))
def test_regular_polygon_has_n_axes(n):
    assert len(symmetry_axes(regular_polygon(n, 1.0, 0.4))) == n


def test_axis_classes_of_hexagon():
    # two non-equivalent classes: through vertices and through edge midpoints
    axes = symmetry_axes(regular_polygon(6, 1.0, 0.0))
    through_vertex = sum(1 for ax in axes if min(abs(ax.direction.cross(v)) for v in regular_polygon(6, 1.0, 0.0).vertices) < 1e-9)
    assert len(axes) == 6
    assert through_vertex == 3


def test_isosceles_has_one_axis_scalene_none():
    iso = ConvexPolygon([Vec2(0, 2), Vec2(-1, 0), Vec2(1, 0)])
    assert len(symmetry_axes(iso)) == 1
    scalene = ConvexPolygon([Vec2(0, 2), Vec2(-1, 0), Vec2(1.7, 0.1)])
    assert symmetry_axes(scalene) == []


def test_regular_polygon_examples():
    sq = regular_polygon(4, 1.0, math.pi / 4)
    h = math.sqrt(2.0) / 2.0
    assert vertex_sets_equal(sq.vertices, [Vec2(h, h), Vec2(-h, h), Vec2(-h, -h), Vec2(h, -h)], 1e-12)
    hexagon = regular_polygon(6, 1.0, 0.0)
    assert any((v - Vec2(1, 0)).norm() < 1e-12 for v in hexagon.vertices)
    tri = regular_polygon(3, 1.0, math.pi / 2)
    assert vertex_sets_equal(tri.vertices, [Vec2(0, 1), Vec2(-S3 / 2, -0.5), Vec2(S3 / 2, -0.5)], 1e-12)
    with pytest.raises(InvalidParameter):
        regular_polygon(2, 1.0)
    with pytest.raises(InvalidParameter):
        regular_polygon(5, 0.0)


def test_polygon_json_pairs_roundtrip():
    poly = regular_polygon(5, 2.0, 0.1)
    again = ConvexPolygon.from_pairs(poly.to_pairs())
    assert vertex_sets_equal(poly.vertices, again.vertices, 0.0)
