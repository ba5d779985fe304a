"""Birkhoff orthogonality and the Radon property of polygonal norms."""

import math
import random

import pytest

from conftest import line_min_by_breakpoints, radon_by_sweep
from minkpi.birkhoff import _line_min_gauge, birkhoff_orthogonal, is_radon, radon_witness
from minkpi.errors import InvalidParameter, NotSymmetricBall, ZeroVector
from minkpi.gauge import Ball, gauge
from minkpi.geom2d import ConvexPolygon, Vec2, convex_hull, regular_polygon

SQUARE = Ball(ConvexPolygon([Vec2(-1, -1), Vec2(1, -1), Vec2(1, 1), Vec2(-1, 1)]), Vec2(0, 0))


def test_square_axis_pair_is_orthogonal():
    assert birkhoff_orthogonal(SQUARE, Vec2(1, 0), Vec2(0, 1))
    assert birkhoff_orthogonal(SQUARE, Vec2(0, 1), Vec2(1, 0))


def test_square_edge_point_asymmetry():
    # the vertical line supports the right edge at (1, 0.5), but the reversed
    # relation fails: t = -0.5 drags (0, 1) to gauge 0.75 < 1
    x, y = Vec2(1, 0.5), Vec2(0, 1)
    assert birkhoff_orthogonal(SQUARE, x, y)
    assert not birkhoff_orthogonal(SQUARE, y, x)
    assert gauge(SQUARE, y + x * -0.5) == pytest.approx(0.75, abs=1e-12)


def test_hexagon_edge_midpoints_symmetric():
    ball = Ball(regular_polygon(6, 1.0, 0.0), Vec2(0, 0))
    vs = ball.shape.vertices
    for i in range(6):
        mid = (vs[i] + vs[(i + 1) % 6]) * 0.5
        edge = vs[(i + 1) % 6] - vs[i]
        assert birkhoff_orthogonal(ball, mid, edge)
        assert birkhoff_orthogonal(ball, edge, mid)


def test_rejects_asymmetric_ball_and_zero_vectors(equilateral):
    tri = Ball(equilateral, Vec2(0, 0))
    with pytest.raises(NotSymmetricBall):
        birkhoff_orthogonal(tri, Vec2(1, 0), Vec2(0, 1))
    with pytest.raises(NotSymmetricBall):
        is_radon(tri)
    with pytest.raises(ZeroVector):
        birkhoff_orthogonal(SQUARE, Vec2(0, 0), Vec2(0, 1))


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, math.nan])
def test_tolerance_outside_the_open_unit_interval_is_rejected(tol):
    hexagon = Ball(regular_polygon(6, 1.0, 0.0), Vec2(0, 0))
    for call in (
        lambda: radon_witness(hexagon, tol),
        lambda: is_radon(hexagon, tol),
        lambda: birkhoff_orthogonal(hexagon, Vec2(1, 0), Vec2(0, 1), tol),
    ):
        with pytest.raises(InvalidParameter):
            call()


def test_radon_small_cases():
    assert is_radon(Ball(regular_polygon(6, 1.0, 0.0), Vec2(0, 0)))
    assert is_radon(Ball(regular_polygon(10, 1.0, 0.0), Vec2(0, 0)))
    assert not is_radon(SQUARE)


def test_square_witness_certifies():
    witness = radon_witness(SQUARE)
    assert witness is not None
    assert witness.forward and not witness.backward
    assert birkhoff_orthogonal(SQUARE, witness.x, witness.y)
    assert not birkhoff_orthogonal(SQUARE, witness.y, witness.x)


def _affine_image(rng, n):
    # R(t1) diag(s1, s2) R(t2) with positive determinant keeps the loop ccw;
    # linear maps preserve Birkhoff orthogonality, so the answer stays n % 4 == 2
    t1, t2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
    s1, s2 = 10.0 ** rng.uniform(-0.4, 0.4), 10.0 ** rng.uniform(-0.4, 0.4)
    c1, d1, c2, d2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    m = ((s1 * c1 * c2 - s2 * d1 * d2, -s1 * c1 * d2 - s2 * d1 * c2),
         (s1 * d1 * c2 + s2 * c1 * d2, -s1 * d1 * d2 + s2 * c1 * c2))
    pts = regular_polygon(n, 1.0, rng.uniform(0.0, 2.0 * math.pi)).vertices
    return ConvexPolygon([Vec2(m[0][0] * p.x + m[0][1] * p.y, m[1][0] * p.x + m[1][1] * p.y) for p in pts])


def _random_symmetric_hull(rng):
    # at most 15 points and their mirror images: n <= 30
    pts = [Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(rng.randint(2, 15))]
    return convex_hull(pts + [-p for p in pts])


def _cross_check_cases():
    rng = random.Random(2024)
    cases = [pytest.param(regular_polygon(n, 1.0, 0.0), id=f"regular{n}") for n in range(4, 31, 2)]
    cases += [pytest.param(_affine_image(rng, n), id=f"affine{n}") for n in range(4, 31, 2)]
    cases += [pytest.param(_random_symmetric_hull(rng), id=f"hull{k}") for k in range(20)]
    return cases


@pytest.mark.parametrize("shape", _cross_check_cases())
def test_pair_scan_matches_sweep_oracle(shape):
    ball = Ball(shape, Vec2(0, 0))
    witness = radon_witness(ball)
    assert is_radon(ball) == (witness is None) == (radon_by_sweep(ball) is None)
    if witness is not None:
        assert birkhoff_orthogonal(ball, witness.x, witness.y)
        assert not birkhoff_orthogonal(ball, witness.y, witness.x)


def _cross_check_norms(chunk):
    # 21 norms per chunk: one regular and one affine even n-gon, 19 random hulls
    rng = random.Random(7000 + chunk)
    n = 4 + 2 * (chunk % 14)
    shapes = [regular_polygon(n, 1.0, rng.uniform(0.0, math.pi)), _affine_image(rng, n)]
    shapes += [_random_symmetric_hull(rng) for _ in range(19)]
    return rng, [Ball(shape, Vec2(0, 0)) for shape in shapes]


@pytest.mark.parametrize("chunk", range(10))
def test_line_minimum_matches_breakpoint_oracle(chunk):
    # 210 norms in all; per norm the 2n Radon pairs and 20 random pairs. Both
    # sides round relative to the line's gauge at t = 0, so the gap relative
    # to the minimum grows like 1/sin(angle between x and y): on the few
    # random pairs within 1e-3 of parallel it is bounded by 1e-12 of gauge(x),
    # on all the others by 1e-12 of the minimum itself
    rng, balls = _cross_check_norms(chunk)
    pairs = 0  # pairs held to 1e-12 of the minimum
    for ball in balls:
        rel = [v - ball.center for v in ball.shape.vertices]
        random_pairs = [
            (Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            for _ in range(20)
        ]
        worst = 0.0  # the oracle's largest relative Radon violation
        for a, b in zip(rel, rel[1:] + rel[:1]):
            y = b - a
            for x in (a, b):
                want = line_min_by_breakpoints(ball, y, x)
                assert abs(_line_min_gauge(ball, y, x) - want) <= 1e-12 * want
                worst = max(worst, 1.0 - want / gauge(ball, y))
                pairs += 1
        for x, y in random_pairs:
            want = line_min_by_breakpoints(ball, x, y)
            gap = abs(_line_min_gauge(ball, x, y) - want)
            if abs(x.cross(y)) >= 1e-3 * x.norm() * y.norm():
                assert gap <= 1e-12 * want
                pairs += 1
            else:
                assert gap <= 1e-12 * gauge(ball, x)
        assert is_radon(ball) == (worst <= 1e-9)
    assert pairs >= 400


@pytest.mark.parametrize(
    "r, phase, shift, radon",
    [(1e-6, 0.3, (0.0, 0.0), True), (1e-4, 0.3, (10.0, -10.0), True), (1e8, 0.0, (0.0, 0.0), False)],
    ids=["hexagon-1e-6", "hexagon-1e-4-moved", "12-gon-1e8"],
)
def test_radon_answer_is_scale_free(r, phase, shift, radon):
    t = Vec2(*shift)
    n = 6 if radon else 12
    ball = Ball(regular_polygon(n, r, phase).translated(t), t)
    assert is_radon(ball) == radon
    witness = radon_witness(ball)
    if witness is not None:
        assert birkhoff_orthogonal(ball, witness.x, witness.y)
        assert not birkhoff_orthogonal(ball, witness.y, witness.x)


@pytest.mark.parametrize("n", range(4, 31))
def test_radon_classification_even_and_odd(n):
    ball = Ball(regular_polygon(n, 1.0, 0.0), Vec2(0, 0))
    if n % 2 == 1:
        with pytest.raises(NotSymmetricBall):
            is_radon(ball)
    else:
        assert is_radon(ball) == (n % 4 == 2)


def test_vertex_wedge_of_radon_polygons():
    for n in (6, 10):
        ball = Ball(regular_polygon(n, 1.0, 0.0), Vec2(0, 0))
        vs = ball.shape.vertices
        e_prev = (vs[0] - vs[-1]).normalized()
        e_next = (vs[1] - vs[0]).normalized()
        wedge = math.acos(max(-1.0, min(1.0, e_prev.dot(e_next))))
        assert wedge == pytest.approx(2.0 * math.pi / n, abs=1e-12)
        # directions inside the closed cone support the vertex, outside do not
        inside = (e_prev + e_next).normalized()
        assert birkhoff_orthogonal(ball, vs[0], inside)
        ang = math.atan2(e_prev.y, e_prev.x) - 0.15
        outside = Vec2(math.cos(ang), math.sin(ang))
        assert not birkhoff_orthogonal(ball, vs[0], outside)


def test_orthogonality_scale_invariant():
    rng = random.Random(53)
    for _ in range(100):
        x = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if x.is_zero() or y.is_zero():
            continue
        base = birkhoff_orthogonal(SQUARE, x, y)
        assert base == birkhoff_orthogonal(SQUARE, x * rng.uniform(0.1, 8.0), y * rng.uniform(0.1, 8.0))


def test_near_disc_matches_euclidean_orthogonality():
    disc = Ball(regular_polygon(64, 1.0, 0.0), Vec2(0, 0))
    step = 2.0 * math.pi / 64.0
    for k in range(12):
        ang = 0.11 + 0.5 * k
        x = Vec2(math.cos(ang), math.sin(ang))
        assert birkhoff_orthogonal(disc, x, x.perp(), tol=2e-3)
        skew_ang = ang + math.pi / 2.0 + 2.5 * step
        assert not birkhoff_orthogonal(disc, x, Vec2(math.cos(skew_ang), math.sin(skew_ang)), tol=1e-4)
