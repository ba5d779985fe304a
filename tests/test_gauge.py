"""The offset gauge and the two symmetrized balls."""

import math
import random

import pytest

from conftest import gauge_exact
from minkpi.errors import CenterNotInterior, NotConvex
from minkpi.gauge import (
    Ball,
    boundary_point,
    gauge,
    is_centrally_symmetric,
    symmetrize_hull,
    symmetrize_intersection,
)
from minkpi.geom2d import ConvexPolygon, Vec2, regular_polygon, vertex_sets_equal
from minkpi.sampling import random_ball, random_symmetric_ball

S3 = math.sqrt(3.0)
SQUARE = ConvexPolygon([Vec2(-1, -1), Vec2(1, -1), Vec2(1, 1), Vec2(-1, 1)])


def test_square_gauge_is_sup_norm():
    ball = Ball(SQUARE, Vec2(0, 0))
    assert gauge(ball, Vec2(3, 4)) == pytest.approx(4.0, abs=1e-12)
    assert boundary_point(ball, Vec2(3, 4)).x == pytest.approx(0.75, abs=1e-12)
    assert gauge(ball, Vec2(0, 0)) == 0.0


def test_equilateral_gauge_is_asymmetric(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))  # centroid
    assert gauge(ball, Vec2(0, 1)) == pytest.approx(1.0, abs=1e-12)
    assert gauge(ball, Vec2(0, -1)) == pytest.approx(2.0, abs=1e-12)
    # cross-check against the exact facet-functional oracle
    for v in (Vec2(0, 1), Vec2(0, -1), Vec2(0.3, -0.8), Vec2(-1.2, 0.4)):
        assert gauge(ball, v) == pytest.approx(gauge_exact(ball, v), rel=1e-12)


def test_gauge_matches_exact_oracle_on_random_balls():
    # the float facet functionals against the same maximum taken in exact
    # rationals, on random convex balls and on mirror-symmetric balls with an
    # off-center center; the float error seen is below 4e-15 relative
    rng = random.Random(53)
    balls = [random_ball(rng) for _ in range(10)] + [random_symmetric_ball(rng) for _ in range(10)]
    for ball in balls:
        for _ in range(20):
            a, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 3.0)
            v = Vec2(r * math.cos(a), r * math.sin(a))
            assert gauge(ball, v) == pytest.approx(gauge_exact(ball, v), rel=1e-12)


def test_offset_triangle_directed_side_gauges():
    # center 4h/5 below the apex: descending slant 5, ascending 5/2, base 5/2
    h = 1.0
    tri = ConvexPolygon([Vec2(0, h), Vec2(-0.5, 0), Vec2(0.5, 0)])
    ball = Ball(tri, Vec2(0, h - 0.8 * h))
    descending = Vec2(-0.5, 0) - Vec2(0, h)
    assert gauge(ball, descending) == pytest.approx(5.0, abs=1e-12)
    assert gauge(ball, -descending) == pytest.approx(2.5, abs=1e-12)
    assert gauge(ball, Vec2(1, 0)) == pytest.approx(2.5, abs=1e-12)


def test_ball_center_and_convexity_checks():
    assert Ball(SQUARE, Vec2(0, 0)).center == Vec2(0, 0)
    with pytest.raises(CenterNotInterior):
        Ball(SQUARE, Vec2(1, 0))  # on the boundary
    with pytest.raises(CenterNotInterior):
        Ball(SQUARE, Vec2(2, 0))
    with pytest.raises(NotConvex):
        Ball(ConvexPolygon.from_pairs([[0, 0], [0, 1], [1, 0]]), Vec2(0.2, 0.2))


def test_ball_fixture_roundtrip():
    ball = Ball(regular_polygon(5, 1.0, 0.2), Vec2(0.1, 0.0))
    again = Ball.from_dict(ball.to_dict())
    assert vertex_sets_equal(again.shape.vertices, ball.shape.vertices, 0.0)
    assert again.center == ball.center


def test_symmetrize_fixed_points_of_symmetric_ball():
    ball = Ball(SQUARE, Vec2(0, 0))
    assert vertex_sets_equal(symmetrize_intersection(ball).shape.vertices, SQUARE.vertices, 1e-12)
    assert vertex_sets_equal(symmetrize_hull(ball).shape.vertices, SQUARE.vertices, 1e-12)


def test_symmetrize_triangle(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))
    inner = symmetrize_intersection(ball)
    assert vertex_sets_equal(
        inner.shape.vertices, regular_polygon(6, 1.0 / S3, 0.0).vertices, 1e-12
    )
    assert is_centrally_symmetric(inner)
    outer = symmetrize_hull(ball)
    assert len(outer.shape.vertices) == 6
    assert is_centrally_symmetric(outer)
    expected = list(equilateral.vertices) + [-v for v in equilateral.vertices]
    assert vertex_sets_equal(outer.shape.vertices, expected, 1e-12)


def test_symmetrized_gauges_bracket_the_original(equilateral):
    ball = Ball(equilateral, Vec2(0.05, -0.1))
    inner = symmetrize_intersection(ball)
    outer = symmetrize_hull(ball)
    for k in range(360):
        v = Vec2(math.cos(k * math.pi / 180.0), math.sin(k * math.pi / 180.0))
        gf, gb = gauge(ball, v), gauge(ball, -v)
        assert gauge(outer, v) <= min(gf, gb) + 1e-10
        assert gauge(inner, v) == pytest.approx(max(gf, gb), abs=1e-10)


def test_triangle_inequality_and_homogeneity_random():
    rng = random.Random(17)
    balls = [random_ball(rng) for _ in range(10)]
    for i in range(2000):
        ball = balls[i % len(balls)]
        u = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert gauge(ball, u + v) <= gauge(ball, u) + gauge(ball, v) + 1e-9
        alpha = rng.uniform(1e-3, 40.0)
        assert gauge(ball, u * alpha) == pytest.approx(alpha * gauge(ball, u), rel=1e-12, abs=1e-12)


def test_boundary_normalization_random():
    rng = random.Random(23)
    for _ in range(10):
        ball = random_ball(rng)
        for a, b in ball.shape.edges():
            for f in (0.0, 0.37, 0.81):
                p = a + (b - a) * f
                assert gauge(ball, p - ball.center) == pytest.approx(1.0, abs=1e-10)


def test_every_ray_exits_through_exactly_one_edge():
    # interior center: each direction crosses the boundary once, so exactly
    # one edge segment meets the open ray
    rng = random.Random(19)
    for _ in range(5):
        ball = random_ball(rng)
        rel = [v - ball.center for v in ball.shape.vertices]
        n = len(rel)
        for k in range(180):
            v = Vec2(math.cos(k * math.pi / 90.0), math.sin(k * math.pi / 90.0))
            hits = 0
            for i in range(n):
                a, b = rel[i], rel[(i + 1) % n]
                e = b - a
                denom = v.cross(e)
                if denom == 0.0:
                    continue
                s = a.cross(e) / denom
                t = a.cross(v) / denom
                if s > 0.0 and 0.0 <= t < 1.0:
                    hits += 1
            assert hits == 1


def test_containment_monotonicity():
    rng = random.Random(29)
    for _ in range(10):
        ball = random_ball(rng)
        shrunk = Ball(
            ConvexPolygon([ball.center + (v - ball.center) * 0.7 for v in ball.shape.vertices]),
            ball.center,
        )
        for k in range(36):
            v = Vec2(math.cos(k * 0.174), math.sin(k * 0.174))
            assert gauge(ball, v) <= gauge(shrunk, v) + 1e-12
