"""Mirror axes and central symmetry: the lock-step walk against the reflect-and-match oracle."""

import math
import random

import pytest

from conftest import axes_by_reflection, mirror_by_reflection
from minkpi.birkhoff import is_radon
from minkpi.errors import NoSharedAxis
from minkpi.gauge import Ball, is_centrally_symmetric, symmetrize_hull, symmetrize_intersection
from minkpi.geom2d import ConvexPolygon, Vec2, regular_polygon, symmetry_axes, vertex_sets_equal
from minkpi.perimeter import measure_perimeters, pi_ball, shared_axis
from minkpi.sampling import random_ball, random_symmetric_ball, random_symmetric_polygon

# mirror symmetric about x = 0; the centroid-based search listed that axis twice
OCTAGON = [
    [-1.9936172883465726, -1.353882142301535],
    [-1.8363352294618824, -1.8691151201228968],
    [0.0, -1.8828281737663557],
    [1.8363352294618824, -1.8691151201228968],
    [1.9936172883465726, -1.353882142301535],
    [1.8521853578841918, 0.18057614839295555],
    [0.0, 2.128387346686704],
    [-1.8521853578841918, 0.18057614839295555],
]


def oracle_tol(poly: ConvexPolygon, point: Vec2) -> float:
    # the library's default tolerance, made absolute with the same extent
    return 1e-9 * max((v - point).norm() for v in poly.vertices)


def distinct_lines(axes) -> bool:
    dirs = [a.direction for a in axes]
    return all(abs(a.cross(b)) > 1e-6 for i, a in enumerate(dirs) for b in dirs[:i])


@pytest.mark.parametrize("n", range(3, 41))
def test_regular_polygon_axes_match_oracle(n):
    for phase in (0.0, 0.3, math.pi / n):
        poly = regular_polygon(n, 1.0, phase)
        axes = symmetry_axes(poly)
        assert len(axes) == n
        assert distinct_lines(axes)
        assert all(mirror_by_reflection(poly, a, 1e-9) for a in axes)
    assert len(axes_by_reflection(poly, Vec2(0.0, 0.0), 1e-9)) == n


@pytest.mark.parametrize("seed", range(8))
def test_random_shapes_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(8):
        poly = random_symmetric_polygon(rng, 6, 30)
        c = poly.centroid()
        axes = symmetry_axes(poly)
        assert len(axes) == len(axes_by_reflection(poly, c, oracle_tol(poly, c))) >= 1
        assert distinct_lines(axes)

        ball = random_symmetric_ball(rng, 6, 30)
        other = random_symmetric_polygon(rng, 6, 30)
        axis = shared_axis(ball, other)
        assert axis is not None and axis.point == ball.center
        assert mirror_by_reflection(ball.shape, axis, oracle_tol(ball.shape, ball.center))
        assert mirror_by_reflection(other, axis, oracle_tol(other, ball.center))
        assert pi_ball(ball) == measure_perimeters(ball, ball.shape).ccw / 2.0

        asym = random_ball(rng)
        want = axes_by_reflection(asym.shape, asym.center, oracle_tol(asym.shape, asym.center))
        found = shared_axis(asym, asym.shape)
        assert (found is None) == (not want)
        if found is None:
            with pytest.raises(NoSharedAxis):
                pi_ball(asym)


@pytest.mark.parametrize("seed", range(6))
def test_central_symmetry_matches_oracle(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        ball = random_ball(rng)
        for b in (ball, symmetrize_hull(ball), symmetrize_intersection(ball)):
            rel = [v - b.center for v in b.shape.vertices]
            want = vertex_sets_equal(rel, [-v for v in rel], oracle_tol(b.shape, b.center))
            assert is_centrally_symmetric(b) == want
        assert is_centrally_symmetric(symmetrize_hull(ball))
        assert is_centrally_symmetric(symmetrize_intersection(ball))


def test_symmetric_octagon_has_one_axis():
    axes = symmetry_axes(ConvexPolygon.from_pairs(OCTAGON))
    assert len(axes) == 1
    assert axes[0].direction.x == 0.0 and axes[0].direction.y == 1.0


def test_huge_centred_hexagon():
    ball = Ball(regular_polygon(6, 1e8, 0.0), Vec2(0.0, 0.0))
    assert pi_ball(ball) == pytest.approx(3.0, abs=1e-12)
    assert is_radon(ball)


def test_tiny_centred_hexagon():
    # the duplicate-vertex and center-to-edge floors are relative to the extent
    ball = Ball(regular_polygon(6, 1e-13, 0.0), Vec2(0.0, 0.0))
    assert len(ball.shape) == 6
    assert pi_ball(ball) == pytest.approx(3.0, abs=1e-12)
    assert is_radon(ball)


@pytest.mark.parametrize("shift", [(1e3, -7e2), (1e5, -7e4)])
def test_translated_unit_hexagon(shift):
    t = Vec2(*shift)
    hexagon = regular_polygon(6, 1.0, 0.0).translated(t)
    assert pi_ball(Ball(hexagon, t)) == pytest.approx(3.0, abs=1e-9)
    assert len(symmetry_axes(hexagon)) == 6


@pytest.mark.parametrize("exponent", range(-6, 9))
def test_scale_and_translation_sweep(exponent):
    # circumradius 10**exponent, translations up to 1e5 circumradii
    rng = random.Random(exponent)
    r = 10.0**exponent
    base = random_symmetric_ball(rng, 6, 30)
    want = pi_ball(base)
    for _ in range(4):
        t = Vec2(rng.uniform(-1e5, 1e5) * r, rng.uniform(-1e5, 1e5) * r)
        hexagon = Ball(regular_polygon(6, r, rng.uniform(0.0, math.pi)).translated(t), t)
        assert pi_ball(hexagon) == pytest.approx(3.0, abs=1e-9)
        assert len(symmetry_axes(hexagon.shape)) == 6
        assert is_centrally_symmetric(hexagon)
        assert is_radon(hexagon)
        ball = base.scaled(r).translated(t)
        assert shared_axis(ball, ball.shape).point == ball.center
        assert pi_ball(ball) == pytest.approx(want, rel=1e-9)


def test_tiny_ball_keeps_its_intersection_vertices():
    # the clip tolerance is relative to the polygons' size: at scale 1e-9 an
    # absolute 1e-12 dropped a vertex of each core and broke its mirror axis
    rng = random.Random(3)
    balls = [random_symmetric_ball(rng) for _ in range(33)]
    for i, count in ((30, 10), (32, 14)):
        core = symmetrize_intersection(balls[i])
        tiny = symmetrize_intersection(balls[i].scaled(1e-9))
        assert len(core.shape.vertices) == len(tiny.shape.vertices) == count
        assert pi_ball(tiny) == pytest.approx(pi_ball(core), rel=1e-9)
