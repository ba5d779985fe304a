"""Perimeter measures, rectification, width profiles, and the hexagon bound."""

import math
import random

import pytest

from conftest import chord_offset_by_bisection, chord_width_exact, gauge_by_bisection
from minkpi import perimeter
from minkpi.errors import InvalidParameter, NoConvergence, NoSharedAxis
from minkpi.gauge import Ball, gauge, symmetrize_hull, symmetrize_intersection
from minkpi.geom2d import ConvexPolygon, Vec2, _extent, regular_polygon
from minkpi.perimeter import (
    circle_curve,
    inscribed_hexagon_bound,
    measure_perimeters,
    pi_ball,
    polygon_boundary,
    rectify,
    shared_axis,
    width_profile,
    _ball_axis,
    _chord_offset,
    _chord_span,
    _inscribed_length,
    _unit_chain_bound,
    _width_at,
)
from minkpi.sampling import random_symmetric_ball

S3 = math.sqrt(3.0)
SQUARE = ConvexPolygon([Vec2(-1, -1), Vec2(1, -1), Vec2(1, 1), Vec2(-1, 1)])


def unit_triangle_ball(apex_offset: float) -> Ball:
    tri = ConvexPolygon([Vec2(0, 1), Vec2(-0.5, 0), Vec2(0.5, 0)])
    return Ball(tri, Vec2(0, 1 - apex_offset))


def test_equilateral_measures_itself_to_nine(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))
    rep = measure_perimeters(ball, equilateral)
    for value in (rep.ccw, rep.cw, rep.min_sum, rep.max_sum):
        assert value == pytest.approx(9.0, abs=1e-12)
    assert pi_ball(ball) == pytest.approx(4.5, abs=1e-12)


def test_offset_triangle_four_perimeters():
    ball = unit_triangle_ball(0.8)
    rep = measure_perimeters(ball, ball.shape)
    assert rep.ccw == pytest.approx(10.0, abs=1e-12)
    assert rep.cw == pytest.approx(10.0, abs=1e-12)
    assert rep.max_sum == pytest.approx(12.5, abs=1e-12)
    assert rep.min_sum == pytest.approx(7.5, abs=1e-12)


def test_square_measures_itself_to_eight():
    ball = Ball(SQUARE, Vec2(0, 0))
    rep = measure_perimeters(ball, SQUARE)
    assert rep.ccw == rep.cw == rep.min_sum == rep.max_sum == pytest.approx(8.0, abs=1e-12)
    assert rep.to_dict() == {"ccw": rep.ccw, "cw": rep.cw, "min": rep.min_sum, "max": rep.max_sum}


def test_shared_axis_cases(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))
    assert shared_axis(ball, equilateral) is not None
    iso = Ball(ConvexPolygon([Vec2(0, 2), Vec2(-1, 0), Vec2(1, 0)]), Vec2(0, 0.7))
    assert shared_axis(iso, SQUARE) is not None  # both mirror about the vertical axis
    scalene = Ball(ConvexPolygon([Vec2(0, 2), Vec2(-1, 0), Vec2(1.7, 0.1)]), Vec2(0.2, 0.7))
    assert shared_axis(scalene, scalene.shape) is None
    with pytest.raises(NoSharedAxis):
        pi_ball(scalene)


def test_pi_ball_regular_values():
    assert pi_ball(Ball(regular_polygon(6, 1.0, 0.0), Vec2(0, 0))) == pytest.approx(3.0, abs=1e-12)
    pentagon = Ball(regular_polygon(5, 1.0, 0.3), Vec2(0, 0))
    assert pi_ball(pentagon) == pytest.approx(5 * (5 - math.sqrt(5.0)) / 4, abs=1e-12)


def test_pi_ball_ccw_equals_cw_and_scale_invariant():
    rng = random.Random(31)
    for _ in range(15):
        ball = random_symmetric_ball(rng, 6, 30)
        rep = measure_perimeters(ball, ball.shape)
        assert rep.ccw == pytest.approx(rep.cw, abs=1e-9)
        assert pi_ball(ball.scaled(rng.uniform(0.2, 5.0))) == pytest.approx(
            pi_ball(ball), rel=1e-10
        )


def test_rectify_polygon_boundaries():
    hexagon = Ball(regular_polygon(6, 1.0, 0.0), Vec2(0, 0))
    assert rectify(hexagon, polygon_boundary(hexagon.shape), 1e-9, start=12) == pytest.approx(
        6.0, abs=1e-9
    )
    square = Ball(SQUARE, Vec2(0, 0))
    assert rectify(square, polygon_boundary(SQUARE), 1e-9, start=16) == pytest.approx(
        8.0, abs=1e-9
    )


def test_rectify_circle_under_square_ball():
    # the refinement limit of the Euclidean unit circle in the sup gauge is
    # the integral of max(|dx|, |dy|), which is 4*sqrt(2)
    square = Ball(SQUARE, Vec2(0, 0))
    value = rectify(square, circle_curve(Vec2(0, 0), 1.0), 1e-7)
    assert value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-6)
    oracle = _inscribed_length(square, circle_curve(Vec2(0, 0), 1.0), 1 << 16)
    assert value == pytest.approx(oracle, abs=1e-6)


def test_rectify_refinement_is_monotone():
    square = Ball(SQUARE, Vec2(0, 0))
    curve = circle_curve(Vec2(0, 0), 1.0)
    prev = 0.0
    for k in range(4, 13):
        cur = _inscribed_length(square, curve, 2**k)
        assert cur >= prev - 1e-12
        prev = cur


def test_rectify_reports_no_convergence():
    square = Ball(SQUARE, Vec2(0, 0))
    with pytest.raises(NoConvergence):
        rectify(square, circle_curve(Vec2(0, 0), 1.0), 1e-30, start=16, max_doublings=4)
    with pytest.raises(InvalidParameter):
        rectify(square, circle_curve(Vec2(0, 0), 1.0), 0.0)
    for start in (0, -4):
        with pytest.raises(InvalidParameter):
            rectify(square, circle_curve(Vec2(0, 0), 1.0), 1e-7, start=start)


def test_width_profile_square_constant():
    # off center on x = 0, the square's only mirror axis through the center
    # is the vertical one, across which every width is 2; the longer arm
    # (1.3, down to the bottom edge) fixes d = (0, -1)
    ball = Ball(SQUARE, Vec2(0, 0.3))
    prof = width_profile(ball, 9)
    assert all(w == pytest.approx(2.0, abs=1e-12) for w in prof.widths())
    assert prof.offsets()[0] == pytest.approx(-0.7) and prof.offsets()[-1] == pytest.approx(1.3)


def test_width_profile_triangle_ramp():
    # one mirror axis; its longer arm (2/3 up to the apex) fixes d = (0, 1)
    ball = unit_triangle_ball(2.0 / 3.0)
    prof = width_profile(ball, 11)
    for off, w in prof.samples:
        y = off + ball.center.y  # height above the base
        assert w == pytest.approx(1.0 - y, abs=1e-9)


def test_width_profile_hexagon_vertex_axis_is_trapezoid():
    # vertex 0 is the top vertex, so the first mirror axis is the vertical
    # vertex-to-vertex one
    ball = Ball(regular_polygon(6, 1.0, math.pi / 2), Vec2(0, 0))
    prof = width_profile(ball, 41)
    for y, w in prof.samples:
        expected = S3 if abs(y) <= 0.5 else S3 * 2.0 * (1.0 - abs(y))
        assert w == pytest.approx(expected, abs=1e-9)


def test_width_profile_needs_axis_and_samples(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))
    with pytest.raises(InvalidParameter):
        width_profile(ball, 2)
    scalene = Ball(ConvexPolygon([Vec2(0, 2), Vec2(-1, 0), Vec2(1.7, 0.1)]), Vec2(0.2, 0.7))
    with pytest.raises(NoSharedAxis):
        width_profile(scalene, 11)


def test_width_profile_unimodal_random():
    rng = random.Random(37)
    for _ in range(50):
        prof = width_profile(random_symmetric_ball(rng, 6, 40), 25)
        widths = prof.widths()
        assert all(w > 0 for w in widths[1:-1])
        rising = True
        for a, b in zip(widths, widths[1:]):
            if b < a - 1e-9:
                rising = False
            else:
                assert rising or b <= a + 1e-9


def test_width_profile_matches_exact_chords_at_every_scale():
    # every other ball is scaled by 10^U(-6, 8); the exact chords have no
    # tolerance band, so only the interior samples, off the end faces, compare
    rng = random.Random(4)
    for i in range(200):
        ball = random_symmetric_ball(rng, 6, 40)
        if i % 2:
            ball = ball.scaled(10.0 ** rng.uniform(-6.0, 8.0))
        d = _ball_axis(ball)[0]
        tol = 1e-12 * _extent(ball._rel)
        for y, w in width_profile(ball, 21).samples[1:-1]:
            assert abs(w - chord_width_exact(ball, d, y)) <= tol


def test_width_profile_leaves_the_certificate_chord_path_alone(monkeypatch):
    # the profile reads its own center-relative float frame; the per-edge
    # chord span is the certificate's alone
    def refuse(*args):
        raise AssertionError("width_profile went through the certificate's chord span")

    monkeypatch.setattr(perimeter, "_chord_span", refuse)
    monkeypatch.setattr(perimeter, "_width_at", refuse)
    prof = width_profile(random_symmetric_ball(random.Random(0), 6, 40), 21)
    assert len(prof.samples) == 21 and all(w > 0.0 for w in prof.widths()[1:-1])


def test_hexagon_bound_tight_on_regular_hexagon():
    # an affine-regular hexagon: after the stretch vertex 0 (at -30 degrees)
    # lies on no axis, so the midpoint of edge 0 gives the first mirror axis,
    # the edge-to-edge x axis; a stretch along it keeps pi_ball = 3
    hexagon = regular_polygon(6, 1.0, -math.pi / 6)
    ball = Ball(ConvexPolygon([Vec2(2.0 * v.x, v.y) for v in hexagon.vertices]), Vec2(0, 0))
    assert pi_ball(ball) == pytest.approx(3.0, abs=1e-12)
    bound = inscribed_hexagon_bound(ball)
    assert bound.half_perimeter == pytest.approx(3.0, abs=1e-12)
    assert bound.unit_side_count == 6
    assert bound.route == "chord"


@pytest.mark.parametrize("radius", [1e-13, 1e-9, 1e-4, 1.0, 1e4, 1e8])
def test_hexagon_bound_regular_hexagon_at_every_scale(radius):
    # the chord floors are relative to the shape: an absolute floor called the
    # center chord of the 1e-13 hexagon degenerate
    bound = inscribed_hexagon_bound(Ball(regular_polygon(6, radius, 0.0), Vec2(0, 0)))
    assert bound.half_perimeter == pytest.approx(3.0, abs=1e-12)
    assert bound.unit_side_count == 6


def test_hexagon_bound_near_disc():
    ball = Ball(regular_polygon(64, 1.0, 0.0), Vec2(0, 0))
    bound = inscribed_hexagon_bound(ball)
    assert abs(bound.half_perimeter - 3.0) < 5e-3
    assert bound.unit_side_count >= 4


def test_hexagon_bound_equilateral_triangle(equilateral):
    ball = Ball(equilateral, Vec2(0, 0))
    bound = inscribed_hexagon_bound(ball)
    assert 3.0 - 1e-9 <= bound.half_perimeter <= 4.5 + 1e-9
    # direct gauge summation over the constructed hexagon, via the bisection oracle
    direct = sum(
        gauge_by_bisection(ball, b - a) for a, b in bound.hexagon.edges()
    )
    assert bound.half_perimeter == pytest.approx(direct / 2.0, rel=1e-9)
    assert bound.half_perimeter == pytest.approx(3.0, abs=1e-9)
    for v in bound.hexagon.vertices:
        assert gauge(ball, v - ball.center) == pytest.approx(1.0, abs=1e-9)


def test_hexagon_bound_extremal_trapezoid():
    # this ball's certificate lands exactly on the floor value 3
    ball = Ball(ConvexPolygon([Vec2(-2, 0), Vec2(2, 0), Vec2(1, 1), Vec2(-1, 1)]), Vec2(0, 0.5))
    bound = inscribed_hexagon_bound(ball)
    assert bound.half_perimeter == pytest.approx(3.0, abs=1e-12)
    assert bound.unit_side_count == 6
    assert pi_ball(ball) == pytest.approx(4.0, abs=1e-12)


def test_hexagon_bound_random_brackets():
    rng = random.Random(41)
    for _ in range(60):
        ball = random_symmetric_ball(rng)
        p = pi_ball(ball)
        bound = inscribed_hexagon_bound(ball)
        assert p >= 3.0 - 1e-9
        assert 3.0 - 1e-9 <= bound.half_perimeter <= p + 1e-9
        for v in bound.hexagon.vertices:
            assert gauge(ball, v - ball.center) == pytest.approx(1.0, abs=1e-9)


def test_chord_offsets_match_bisection_oracle():
    # the 500 criterion-9 balls at seed 0, toward both axis ends: the walk over
    # the vertex heights lands where the bisection does, and returns width c
    # after its linear solve and the end face's own width in the face case
    rng = random.Random(0)
    faces = solves = 0
    for _ in range(500):
        ball = random_symmetric_ball(rng)
        d, lo, hi = _ball_axis(ball)
        u = Vec2(d.y, -d.x)
        left, right = _chord_span(ball, 0.0, d, u)
        c = 0.5 * (right - left)
        tol = 1e-12 * _extent(ball._rel)
        for end in (hi, lo):
            y, w = _chord_offset(ball, c, d, u, end)
            assert abs(y - chord_offset_by_bisection(ball, c, d, u, end)) <= tol
            if y == end:
                faces += 1
                assert w == _width_at(ball, end, d, u)
            else:
                solves += 1
                assert w == c
    assert faces > 0 and solves > 0


def test_hexagon_bound_evaluates_each_width_at_most_once_per_vertex(monkeypatch):
    # the width is read at the two axis ends and at most once per vertex
    # height; the 80-step bisection read it about 165 times a ball
    width_at, calls = perimeter._width_at, []

    def counted(*args):
        calls.append(args)
        return width_at(*args)

    monkeypatch.setattr(perimeter, "_width_at", counted)
    rng = random.Random(0)
    balls = [random_symmetric_ball(rng) for _ in range(100)]
    balls.append(Ball(regular_polygon(64, 1.0, 0.0), Vec2(0, 0)))
    for ball in balls:
        calls.clear()
        inscribed_hexagon_bound(ball)
        assert 2 <= len(calls) <= 2 * len(ball._rel) + 3


QUARTER_AND_HALF_TURNS = [lambda x, y: (-y, x), lambda x, y: (-x, -y), lambda x, y: (y, -x)]


def test_certificate_is_invariant_under_exact_rotations():
    # quarter and half turns are exact in floating point and map the ball's
    # axis onto the turned ball's axis; oriented by the sign of d.x instead of
    # by its longer arm, the axis flipped with the turn on balls 41, 108 and
    # 147 here, and the certificate read another value (up to 0.095 apart)
    rng = random.Random(0)
    for _ in range(150):
        ball = random_symmetric_ball(rng)
        want = inscribed_hexagon_bound(ball).half_perimeter
        for turn in QUARTER_AND_HALF_TURNS:
            shape = ConvexPolygon([Vec2(*turn(v.x, v.y)) for v in ball.shape.vertices])
            turned = Ball(shape, Vec2(*turn(ball.center.x, ball.center.y)))
            got = inscribed_hexagon_bound(turned).half_perimeter
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# 11-vertex balls with a sharp apex whose chord hexagon is pinned below 3, so
# the unit-chain search runs; one of its chains has collinear vertices and
# collapses to a 5-gon with two unit sides but a larger half-perimeter
SHARP_APEX_BALLS = [
    (
        [
            (-0.18215710359023157, -1.038444564678277), (-0.178356584411134, -1.049573260684566),
            (-0.07372656021187031, -1.2287993260320673), (0.030903463987393368, -1.049573260684566),
            (0.034703983166490954, -1.038444564678277), (0.02548941575612103, -1.0239853382632478),
            (-0.024534228706840813, -1.01324255479433), (-0.04428989841141325, -1.0112157399935147),
            (-0.10316322201232736, -1.0112157399935147), (-0.1229188917168998, -1.01324255479433),
            (-0.17294253617986166, -1.0239853382632478),
        ],
        (-0.07372656021187031, -1.097491040708053),
    ),
    (
        [
            (-110.14951170376037, 46.6358793260723), (-109.60791487692063, 43.86642968409219),
            (-82.65658779515138, -4.043933854317736), (-55.70526071338213, 43.86642968409219),
            (-55.16366388654239, 46.6358793260723), (-68.00267155776672, 52.597072761900364),
            (-80.31361800706917, 54.769986078398276), (-81.55435349336017, 54.77957109249746),
            (-83.7588220969426, 54.77957109249746), (-84.9995575832336, 54.769986078398276),
            (-97.31050403253604, 52.597072761900364),
        ],
        (-82.65658779515138, 29.574391830922238),
    ),
]


@pytest.mark.parametrize("vertices, center", SHARP_APEX_BALLS)
def test_unit_chain_fallback_keeps_four_unit_sides(vertices, center):
    ball = Ball(ConvexPolygon.from_pairs(vertices), Vec2(*center))
    bound = inscribed_hexagon_bound(ball)
    assert bound.route == "unit-chain"
    assert len(bound.hexagon.vertices) == 6
    assert bound.unit_side_count >= 4
    assert 3.0 - 1e-9 <= bound.half_perimeter <= pi_ball(ball) + 1e-9


def test_unit_chain_certifies_random_balls():
    # called directly, the exact unit-step search certifies every ball, not
    # only those whose chord hexagon is pinned; sides are checked by the oracle
    rng = random.Random(59)
    for _ in range(30):
        ball = random_symmetric_ball(rng)
        bound = _unit_chain_bound(ball)
        assert bound is not None
        vs = bound.hexagon.vertices
        assert len(vs) == 6
        for v in vs:
            assert gauge_by_bisection(ball, v - ball.center) == pytest.approx(1.0, abs=1e-10)
        units = sum(
            1 for a, b in bound.hexagon.edges() if abs(gauge_by_bisection(ball, b - a) - 1.0) <= 1e-9
        )
        assert units >= 4
        assert 3.0 - 1e-9 <= bound.half_perimeter <= pi_ball(ball) + 1e-9


def test_perimeter_chain_random():
    rng = random.Random(43)
    for _ in range(30):
        ball = random_symmetric_ball(rng)
        poly = random_symmetric_ball(rng).shape
        rep = measure_perimeters(ball, poly)
        mu_hull = measure_perimeters(symmetrize_hull(ball), poly).ccw
        mu_int = measure_perimeters(symmetrize_intersection(ball), poly).ccw
        assert mu_hull <= rep.min_sum + 1e-9
        assert rep.min_sum <= min(rep.ccw, rep.cw) + 1e-9
        assert max(rep.ccw, rep.cw) <= rep.max_sum + 1e-9
        assert rep.max_sum == pytest.approx(mu_int, abs=1e-9)
        assert rep.min_sum <= rep.ccw <= rep.max_sum + 1e-9
