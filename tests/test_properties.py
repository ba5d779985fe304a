"""Property tests: the invariances the mathematics guarantees, over wide scales.

The strategies draw the geometry itself: balls are convex hulls of fan
points (one point per equal angular sector, radius 0.5..2), vectors are drawn
in polar form, and scales, shifts and linear maps are drawn as numbers.
Runs are derandomized, so every run tests the same examples.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkpi.birkhoff import is_radon
from minkpi.gauge import Ball, gauge
from minkpi.geom2d import ConvexPolygon, Vec2, _extent, convex_hull, regular_polygon
from minkpi.perimeter import inscribed_hexagon_bound, pi_ball, width_profile

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

exponents = st.floats(min_value=-6.0, max_value=8.0)
units = st.floats(min_value=-1.0, max_value=1.0)
fractions = st.floats(min_value=0.05, max_value=0.95)
radii = st.floats(min_value=0.5, max_value=2.0)
vectors = st.builds(
    lambda a, r: Vec2(r * math.cos(a), r * math.sin(a)),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.1, max_value=3.0),
)


def _fan(draw, k, start, sweep):
    # k points, one in each of k equal sectors of the fan
    pts = []
    for i in range(k):
        a, r = start + (i + draw(fractions)) * sweep / k, draw(radii)
        pts.append(Vec2(r * math.cos(a), r * math.sin(a)))
    return pts


@st.composite
def balls(draw):
    # with k >= 5 sectors no angular gap between fan points reaches pi, so the
    # origin is inside the hull, at least 0.5*cos(0.38*pi) from every edge
    k = draw(st.integers(min_value=5, max_value=12))
    return Ball(convex_hull(_fan(draw, k, 0.0, 2.0 * math.pi)), Vec2(0.0, 0.0))


@st.composite
def mirror_balls(draw):
    # a fan over the right half-plane and its mirror image in the y-axis, with
    # the center on the axis; every edge is at least 0.27 from the origin
    k = draw(st.integers(min_value=3, max_value=15))
    right = _fan(draw, k, -0.5 * math.pi, math.pi)
    shape = convex_hull(right + [Vec2(-p.x, p.y) for p in right])
    return Ball(shape, Vec2(0.0, draw(st.floats(min_value=-0.2, max_value=0.2))))


@PROPERTY
@given(ball=balls(), v=vectors, e=exponents)
def test_gauge_is_positively_homogeneous(ball, v, e):
    alpha = 10.0**e
    assert gauge(ball, v * alpha) == pytest.approx(alpha * gauge(ball, v), rel=1e-12, abs=0.0)


@PROPERTY
@given(ball=balls(), v=vectors, tx=units, ty=units)
def test_gauge_is_translation_invariant(ball, v, tx, ty):
    # translations up to 1e4 times the ball's size
    moved = ball.translated(Vec2(tx * 1e4, ty * 1e4))
    assert gauge(moved, v) == pytest.approx(gauge(ball, v), rel=1e-9, abs=0.0)


@PROPERTY
@given(ball=mirror_balls(), e=exponents, tx=units, ty=units)
def test_pi_ball_is_invariant_under_scaling_and_translation(ball, e, tx, ty):
    r = 10.0**e
    moved = ball.scaled(r).translated(Vec2(tx * 1e4 * r, ty * 1e4 * r))
    assert pi_ball(moved) == pytest.approx(pi_ball(ball), rel=1e-9, abs=0.0)


# Shifted by (1e7, 1e7), this ball's sample at offset 2.68822 lies 1.8e-5 from
# a vertex height; a chord floor taken from the absolute coordinates (2e-5
# there) counted that vertex as on the chord, and the width moved by 5e-5 of
# the extent.
PINNED_WIDTH_BALL = Ball(
    ConvexPolygon.from_pairs(
        [
            (-1.8938353736607385, 0.6615305238991325),
            (-1.4036751272715717, -1.2073757510050274),
            (-0.6888504765253552, -1.3760646986727947),
            (0.6888504765253552, -1.3760646986727947),
            (1.4036751272715717, -1.2073757510050274),
            (1.8938353736607385, 0.6615305238991325),
            (0.5000926134245641, 1.8966955850405198),
            (0.0, 1.9973538662647154),
            (-0.5000926134245641, 1.8966955850405198),
        ]
    ),
    Vec2(0.0, 1.4808240119470795),
)


@PROPERTY
@given(ball=mirror_balls(), e=exponents, tx=units, ty=units)
@example(ball=PINNED_WIDTH_BALL, e=0.0, tx=1.0, ty=1.0)
def test_width_profile_is_invariant_under_scaling_and_translation(ball, e, tx, ty):
    # translations up to 1e7 times the ball's size move every sample offset
    # and width by less than 1e-7 of the extent
    r = 10.0**e
    moved = ball.scaled(r).translated(Vec2(tx * 1e7 * r, ty * 1e7 * r))
    tol = 1e-7 * _extent(ball._rel)
    for (y0, w0), (y1, w1) in zip(width_profile(ball, 21).samples, width_profile(moved, 21).samples):
        assert abs(y1 / r - y0) <= tol and abs(w1 / r - w0) <= tol


# A chord-offset solve that recomputes the width at the solved offset reads
# 3.0098 at scale 1 and 3.0552 at scale 10 here; the width there must be c.
PINNED_CHORD_BALL = Ball(
    ConvexPolygon.from_pairs(
        [
            (-1.0, 0.0),
            (-0.25881904510252074, -0.9659258262890683),
            (0.25881904510252074, -0.9659258262890683),
            (1.0, 0.0),
            (0.7071067811865476, 0.7071067811865475),
            (-0.7071067811865476, 0.7071067811865475),
        ]
    ),
    Vec2(0.0, 0.125),
)


@PROPERTY
@given(ball=mirror_balls(), e=st.floats(min_value=-9.0, max_value=8.0))
@example(ball=PINNED_CHORD_BALL, e=1.0)
def test_certificate_is_invariant_under_scaling(ball, e):
    """The hexagon certificate keeps its value, its four unit sides and its
    bracket [3, pi_ball] when the ball is scaled about the origin.

    Translation is left out. The axis is oriented by the geometry, but the
    unit-chain fallback is not translation-safe: moving a ball changes its
    center-relative coordinates by rounding (about 1e-12 of its size), and
    the fallback's grid search can then return another valid chain with
    another value (3.03 against 3.44 on one ball).
    """
    moved = ball.scaled(10.0**e)
    base, bound = inscribed_hexagon_bound(ball), inscribed_hexagon_bound(moved)
    assert bound.half_perimeter == pytest.approx(base.half_perimeter, rel=1e-9, abs=0.0)
    assert base.unit_side_count >= 4 and bound.unit_side_count >= 4
    assert 3.0 - 1e-9 <= bound.half_perimeter <= pi_ball(moved) + 1e-9


@PROPERTY
@given(
    half_n=st.integers(min_value=2, max_value=15),
    e=exponents,
    t1=st.floats(min_value=0.0, max_value=math.pi),
    t2=st.floats(min_value=0.0, max_value=math.pi),
    stretch=st.floats(min_value=-1.0, max_value=1.0),
)
def test_radon_answer_survives_linear_maps(half_n, e, t1, t2, stretch):
    # r * R(t1) diag(10^stretch, 10^-stretch) R(t2) has positive determinant;
    # linear maps preserve Birkhoff orthogonality, so a regular n-gon stays
    # Radon exactly when n = 2 mod 4
    n = 2 * half_n
    r, s = 10.0**e, 10.0**stretch
    c1, d1, c2, d2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    m = ((s * c1 * c2 - d1 * d2 / s, -s * c1 * d2 - d1 * c2 / s),
         (s * d1 * c2 + c1 * d2 / s, -s * d1 * d2 + c1 * c2 / s))
    pts = regular_polygon(n, 1.0, 0.0).vertices
    shape = ConvexPolygon(
        [Vec2(r * (m[0][0] * p.x + m[0][1] * p.y), r * (m[1][0] * p.x + m[1][1] * p.y)) for p in pts]
    )
    assert is_radon(Ball(shape, Vec2(0.0, 0.0))) == (n % 4 == 2)
