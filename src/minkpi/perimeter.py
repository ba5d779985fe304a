"""Perimeter measures under an asymmetric gauge, and the half-perimeter lower bound.

A polygon measured under an asymmetric ball has up to four natural perimeter
values (counterclockwise, clockwise, per-edge minimum, per-edge maximum).
When ball and polygon share a mirror axis the two directed sums coincide and
the self-measured half-perimeter is well defined. This module also rectifies
convex curves by inscribed-polygon refinement, samples the Euclidean width
profile along the axis, and builds the inscribed hexagon that pins the
half-perimeter of any admissible ball to at least 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    DegenerateChord,
    DegenerateInput,
    InvalidParameter,
    NoConvergence,
    NoSharedAxis,
    NotConvex,
)
from .gauge import Ball, _gauge_xy, gauge
from .geom2d import (
    ALG_TOL,
    GEOM_TOL,
    Axis,
    ConvexPolygon,
    Vec2,
    _extent,
    _mirror_directions,
    is_mirror_axis,
)


@dataclass(frozen=True)
class PerimeterReport:
    """The four perimeter values of one polygon under one ball, in gauge units."""

    ccw: float
    cw: float
    min_sum: float
    max_sum: float

    def to_dict(self) -> dict:
        return {"ccw": self.ccw, "cw": self.cw, "min": self.min_sum, "max": self.max_sum}


@dataclass(frozen=True)
class WidthProfile:
    """Euclidean chord widths perpendicular to an axis, sampled along it."""

    samples: tuple[tuple[float, float], ...]  # (offset along axis, width)

    def offsets(self) -> list[float]:
        return [s[0] for s in self.samples]

    def widths(self) -> list[float]:
        return [s[1] for s in self.samples]


@dataclass(frozen=True)
class HexBound:
    """Inscribed hexagon certificate: its gauge half-perimeter is >= 3."""

    hexagon: ConvexPolygon
    half_perimeter: float
    unit_side_count: int
    route: str  # "chord" (the chord hexagon) or "unit-chain" (the fallback search)


def measure_perimeters(ball: Ball, poly: ConvexPolygon) -> PerimeterReport:
    """Sum the directed gauges of every edge of ``poly`` in both orientations."""
    ccw = cw = lo = hi = 0.0
    for a, b in poly.edges():
        gf = _gauge_xy(ball, b.x - a.x, b.y - a.y)
        gb = _gauge_xy(ball, a.x - b.x, a.y - b.y)
        ccw += gf
        cw += gb
        lo += gf if gf < gb else gb
        hi += gf if gf > gb else gb
    return PerimeterReport(ccw=ccw, cw=cw, min_sum=lo, max_sum=hi)


def shared_axis(ball: Ball, poly: ConvexPolygon) -> Optional[Axis]:
    """A mirror axis through the ball center shared by ball shape and polygon.

    Returns ``None`` when no such axis exists. The returned ``Axis.point`` is
    the ball center. Candidates are the mirror axes of the ball shape through
    the center, each checked against ``poly``; symmetry is judged at
    ``GEOM_TOL`` relative to the extent of each shape about the center.
    """
    for dx, dy in _mirror_directions(ball._rel, GEOM_TOL):
        axis = Axis(ball.center, Vec2(dx, dy))
        if is_mirror_axis(poly, axis):
            return axis
    return None


def pi_ball(ball: Ball) -> float:
    """Self-measured half-perimeter of the ball.

    Well defined only when the shape has a mirror axis through the center
    (then the two directed sums agree); otherwise ``NoSharedAxis`` is raised
    rather than picking one of the ambiguous directed values.
    """
    _ball_axis(ball)  # raises NoSharedAxis
    return measure_perimeters(ball, ball.shape).ccw / 2.0


def _ball_axis(ball: Ball) -> tuple[Vec2, float, float]:
    """The ball's first mirror axis through its center, as (d, lo, hi).

    lo and hi are the least and largest vertex height (w - center) . d; d
    points along the longer arm, or keeps d.x > 0 or d = (0, 1) when the arms
    agree within 1e-9 of the extent. Raises ``NoSharedAxis`` without an axis.
    """
    rel = ball._rel
    for dx, dy in _mirror_directions(rel, GEOM_TOL):
        heights = [x * dx + y * dy for x, y in rel]
        lo, hi = min(heights), max(heights)
        if -lo - hi > GEOM_TOL * _extent(rel):  # the arm along -d is longer
            return Vec2(-dx, -dy), -hi, -lo  # negation is exact
        return Vec2(dx, dy), lo, hi
    raise NoSharedAxis("ball has no mirror axis through its center")


def _inscribed_length(ball: Ball, curve: Callable[[float], Vec2], segments: int) -> float:
    total = 0.0
    prev = curve(0.0)
    for i in range(1, segments + 1):
        cur = curve(i / segments)
        total += _gauge_xy(ball, cur.x - prev.x, cur.y - prev.y)
        prev = cur
    return total


def rectify(
    ball: Ball,
    curve: Callable[[float], Vec2],
    refine_tol: float = 1e-7,
    start: int = 16,
    max_doublings: int = 20,
) -> float:
    """Gauge length of a closed convex curve by dyadic inscribed-polygon refinement.

    ``curve`` maps [0, 1] to points with curve(0) == curve(1) and should be a
    closed convex loop sharing the ball's mirror axis, so its two directed
    lengths coincide. Refinement starts at ``start`` segments and doubles
    until two successive values differ by less than ``refine_tol``; the
    result approaches the true length monotonically from below. Raises
    ``NoConvergence`` after ``max_doublings`` doublings.
    """
    if refine_tol <= 0.0:
        raise InvalidParameter("refine_tol must be positive")
    if start < 1:
        raise InvalidParameter("start must be at least 1 segment")
    segments = start
    prev = _inscribed_length(ball, curve, segments)
    for _ in range(max_doublings):
        segments *= 2
        cur = _inscribed_length(ball, curve, segments)
        if abs(cur - prev) < refine_tol:
            return cur
        prev = cur
    raise NoConvergence(f"no convergence after {max_doublings} doublings")


def polygon_boundary(poly: ConvexPolygon) -> Callable[[float], Vec2]:
    """Closed parametrization of a polygon boundary, corners at multiples of 1/n."""
    vs = poly.vertices
    n = len(vs)

    def curve(t: float) -> Vec2:
        s = (t % 1.0) * n
        i = min(int(s), n - 1)
        f = s - i
        a, b = vs[i], vs[(i + 1) % n]
        return a + (b - a) * f

    return curve


def circle_curve(center: Vec2, radius: float) -> Callable[[float], Vec2]:
    """Closed parametrization of a Euclidean circle."""

    def curve(t: float) -> Vec2:
        ang = 2.0 * math.pi * t
        return Vec2(center.x + radius * math.cos(ang), center.y + radius * math.sin(ang))

    return curve


def _chord_span(ball: Ball, offset: float, d: Vec2, u: Vec2) -> Optional[tuple[float, float]]:
    # span of the shape on the line center + offset*d + s*u, as (s_min, s_max)
    base = ball.center + d * offset
    eps = ALG_TOL * max(abs(x) + abs(y) for x, y in ball._rel)  # relative: translation-safe
    ss: list[float] = []
    for a, b in ball.shape.edges():
        fa = (a - base).dot(d)
        fb = (b - base).dot(d)
        if abs(fa) <= eps and abs(fb) <= eps:
            ss.append((a - base).dot(u))
            ss.append((b - base).dot(u))
        elif abs(fa) <= eps:
            ss.append((a - base).dot(u))
        elif (fa > 0.0) != (fb > 0.0) and abs(fb) > eps:
            t = fa / (fa - fb)
            p = a + (b - a) * t
            ss.append((p - base).dot(u))
    if not ss:
        return None
    return (min(ss), max(ss))


def width_profile(ball: Ball, samples: int) -> WidthProfile:
    """Euclidean width perpendicular to the axis at evenly spaced offsets.

    Offsets are measured from the ball center along the axis direction and
    cover the full extent of the shape. Convexity makes the profile unimodal.
    The axis is the ball's own, oriented as in ``inscribed_hexagon_bound``.
    """
    if samples < 3:
        raise InvalidParameter("need at least 3 samples")
    d, lo, hi = _ball_axis(ball)
    u = d.perp()
    ys = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    return WidthProfile(tuple((y, _width_at(ball, y, d, u)) for y in ys))


def _width_at(ball: Ball, y: float, d: Vec2, u: Vec2) -> float:
    span = _chord_span(ball, y, d, u)
    return 0.0 if span is None else span[1] - span[0]


def _chord_offset(ball: Ball, c: float, d: Vec2, u: Vec2, end: float) -> tuple[float, float]:
    # (offset, width) at the largest |offset| toward `end` where the width is
    # still >= c. The width is concave in the offset, 2c at 0, and linear
    # between vertex heights, so the walk over those heights stops at the
    # first one where the width drops below c and solves that linear piece
    # for width = c. The end face gets a whisker of slack so that a face whose
    # length equals c up to trigonometric noise is recognized as the face case.
    w_end = _width_at(ball, end, d, u)
    if w_end >= c - 1e-11 * c:
        return end, w_end
    knots = {h for h in (x * d.x + y * d.y for x, y in ball._rel) if 0.0 < h / end < 1.0}
    h0, w0 = 0.0, 2.0 * c
    for h in sorted(knots, key=abs):
        w = _width_at(ball, h, d, u)
        if w < c:
            break
        h0, w0 = h, w
    else:
        h, w = end, w_end
    return h0 + (h - h0) * (w0 - c) / (w0 - w), c


def inscribed_hexagon_bound(ball: Ball) -> HexBound:
    """Inscribe the hexagon whose gauge half-perimeter certifies pi_ball >= 3.

    The chord through the center perpendicular to the axis has half-length c
    and endpoints q+ and q-. Toward each axis end a parallel chord of
    Euclidean length exactly c is placed with both endpoints on the boundary.
    Four of the six directed sides then have gauge 1: the two center-chord
    directions and the two slanted sides that are parallel transports of
    boundary radii. The remaining two sides are reversed boundary radii;
    placing the chords so that the upper chord's far endpoint, the center,
    and the lower chord's far endpoint are collinear makes those two gauges
    exact reciprocals, so they contribute at least 2 and the half-perimeter
    at least 3. When an end face leaves slack, the chord position closest to
    the centered one among the collinear placements is chosen. For the rare
    balls whose pinned chords cannot reach a collinear placement at all, a
    unit-step chain hexagon is searched instead; it keeps four unit sides
    and still certifies the bound. The axis is the ball's mirror axis
    through its center, its direction along the longer arm (``_ball_axis``),
    so a quarter or half turn of the ball leaves the certificate unchanged.
    """
    d, lo, hi = _ball_axis(ball)
    u = Vec2(d.y, -d.x)  # (u, d) is a right-handed frame, so the loop below is ccw
    span0 = _chord_span(ball, 0.0, d, u)
    if span0 is None or span0[1] - span0[0] <= ALG_TOL * _extent(ball._rel):
        raise DegenerateChord("chord through the center has zero length")
    c = 0.5 * (span0[1] - span0[0])

    y_up, w_up = _chord_offset(ball, c, d, u, hi)
    y_dn, w_dn = _chord_offset(ball, c, d, u, lo)
    # lateral freedom for the right end of the upper chord and the left end
    # of the lower chord (mirror symmetry centers each face on the axis)
    a_lo, a_hi = c - 0.5 * w_up, 0.5 * w_up
    b_lo, b_hi = -0.5 * w_dn, 0.5 * w_dn - c
    beta = y_dn / y_up  # negative: maps upper-chord abscissas to the lower line
    j_lo, j_hi = max(a_lo, b_hi / beta), min(a_hi, b_lo / beta)
    if j_lo <= j_hi:
        t_a = min(max(0.5 * c, j_lo), j_hi)
    else:
        t_a = a_lo if abs(a_lo - b_hi / beta) < abs(a_hi - b_lo / beta) else a_hi
    t_b = min(max(beta * t_a, b_lo), b_hi)

    center = ball.center
    q_plus = center + u * c
    q_minus = center - u * c
    a2 = center + d * y_up + u * t_a
    a1 = center + d * y_up + u * (t_a - c)
    b1 = center + d * y_dn + u * t_b
    b2 = center + d * y_dn + u * (t_b + c)
    best = _hex_bound_of(ball, [q_plus, a2, a1, q_minus, b1, b2], "chord")
    if best.half_perimeter >= 3.0 - 1e-9:
        return best

    # The chord placements are pinned (forced crossings, short faces) and the
    # collinear position is unreachable, so the chord hexagon cannot certify
    # the bound for this ball. Fall back to a direct search over unit-step
    # chains: walk the boundary counterclockwise taking sides of gauge
    # exactly 1 (two steps, one free side, two steps, one free side). Any
    # closing chain with total measure at least 6 is a valid certificate with
    # four unit sides.
    chain = _unit_chain_bound(ball)
    if chain is not None and chain.half_perimeter > best.half_perimeter:
        return chain
    return best


def _hex_bound_of(ball: Ball, vertices: list[Vec2], route: str) -> HexBound:
    hexagon = ConvexPolygon(vertices)
    report = measure_perimeters(ball, hexagon)
    units = sum(1 for a, b in hexagon.edges() if abs(gauge(ball, b - a) - 1.0) <= 1e-9)
    return HexBound(hexagon=hexagon, half_perimeter=report.ccw / 2.0, unit_side_count=units, route=route)


def _unit_chain_bound(ball: Ball) -> Optional[HexBound]:
    """Search for an inscribed hexagon with four unit-gauge sides and measure >= 6.

    A boundary position s is edge floor(s) of ``ball._rel`` (mod n) at
    fraction s - floor(s). A chain starts at s1 = n*i/12, takes two unit
    steps, jumps a fraction of what is left of the turn, and takes two more,
    all before s1 + n. A unit step is exact: along edge (a, b) the gauge from
    p is the largest facet term f_j . (a - p) + t * f_j . (b - a), so it first
    reaches 1 at the least root of the growing terms. Returns the first chain
    of the 12 x 8 grid reaching 3 + 1e-6, else the largest with four unit
    sides, or None.
    """
    rel, facets = ball._rel, ball._facets
    n = len(rel)
    cx, cy = ball.center.x, ball.center.y

    def point(s: float) -> tuple[float, float]:
        k = math.floor(s)
        t = s - k
        ax, ay = rel[k % n]
        bx, by = rel[(k + 1) % n]
        return ax + t * (bx - ax), ay + t * (by - ay)

    def step(s: float, limit: float) -> Optional[float]:
        # the first position after s whose point is at gauge 1 from point(s)
        px, py = point(s)
        k = math.floor(s)
        t0 = s - k
        while k < limit:
            ax, ay = rel[k % n]
            bx, by = rel[(k + 1) % n]
            ex, ey, qx, qy = bx - ax, by - ay, ax - px, ay - py
            hit = math.inf
            for fx, fy in facets:
                beta = fx * ex + fy * ey
                if beta > 0.0:
                    t = (1.0 - fx * qx - fy * qy) / beta
                    hit = t if t < hit else hit
            if hit <= 1.0:
                s_hit = k + max(hit, t0)
                return s_hit if s_hit < limit else None
            k, t0 = k + 1, 0.0
        return None

    def chain(s1: float, frac: float) -> Optional[HexBound]:
        wrap = s1 + n
        s2 = step(s1, wrap)
        s3 = None if s2 is None else step(s2, wrap)
        if s3 is None:
            return None
        s4 = s3 + (wrap - s3) * frac
        s5 = step(s4, wrap)
        s6 = None if s5 is None else step(s5, wrap - 1e-9)
        if s6 is None:
            return None
        vertices = [Vec2(cx + x, cy + y) for x, y in map(point, (s1, s2, s3, s4, s5, s6))]
        try:
            return _hex_bound_of(ball, vertices, "unit-chain")
        except (DegenerateInput, NotConvex):
            return None

    best: Optional[HexBound] = None
    for i in range(12):
        for j in range(8):
            cand = chain(n * i / 12.0, 0.15 + 0.7 * j / 7.0)
            # a chain whose vertices fall collinear collapses to fewer unit
            # sides and certifies nothing, however long it is
            if cand is None or cand.unit_side_count < 4:
                continue
            if best is None or cand.half_perimeter > best.half_perimeter:
                best = cand
            if best.half_perimeter >= 3.0 + 1e-6:
                return best
    return best
