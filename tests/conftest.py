"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms or its arithmetic: one
gauge oracle works by bisection on point containment, the other takes the
largest facet functional in exact rational arithmetic, and the hull oracle
works by exhaustive support tests, so they can arbitrate the fast
implementations. The line-minimum oracle evaluates the gauge at every
breakpoint of t -> gauge(x + t*y), where the library uses the
support-function identity; the Radon oracle uses it on a dense boundary
sweep in place of the library's finite pair scan. The mirror oracle reflects
the whole polygon and matches the two vertex sets in any order, where the
library walks the vertex loop in lock-step. The offset oracle bisects each
monotone branch of a closed form, where the library solves the quadratic or
cubic exactly. The chord-offset oracle bisects on the width of the chord at
each offset, where the library walks the vertex heights and solves one linear
piece. The chord-width oracle cuts the polygon with the line in exact
rational arithmetic, with no tolerance, where the library works in floats and
counts vertices within a small band of the line as on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from minkpi import offset_shapes
from minkpi.gauge import gauge
from minkpi.geom2d import Axis, ConvexPolygon, Vec2, reflect, vertex_sets_equal
from minkpi.perimeter import _width_at


def gauge_by_bisection(ball, v: Vec2, iters: int = 200) -> float:
    """Gauge via binary search on 'center + s*v still inside the shape'."""
    if v.is_zero():
        return 0.0
    inside = ball.shape.contains
    lo, hi = 0.0, 1.0
    while inside(ball.center + v * hi, 0.0) and hi < 1e12:
        lo, hi = hi, hi * 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if inside(ball.center + v * mid, 0.0):
            lo = mid
        else:
            hi = mid
    return 1.0 / (0.5 * (lo + hi))


def gauge_exact(ball, v: Vec2) -> float:
    """Gauge as the largest facet functional, computed in ``Fraction`` from the
    float coordinates and rounded once: edge (a, b) maps v to
    cross(v, b - a) / cross(a - center, b - a)."""
    cx, cy = Fraction(ball.center.x), Fraction(ball.center.y)
    vx, vy = Fraction(v.x), Fraction(v.y)
    vs = ball.shape.vertices
    best = Fraction(0)
    for a, b in zip(vs, vs[1:] + vs[:1]):
        ax, ay = Fraction(a.x), Fraction(a.y)
        ex, ey = Fraction(b.x) - ax, Fraction(b.y) - ay
        best = max(best, (vx * ey - vy * ex) / ((ax - cx) * ey - (ay - cy) * ex))
    return float(best)


def chord_offset_by_bisection(ball, c: float, d: Vec2, u: Vec2, end: float) -> float:
    """Largest |offset| toward ``end`` where the chord perpendicular to ``d``
    is still at least ``c`` long, by bisection on that predicate; the width is
    unimodal along the axis, so the predicate holds on [0, that offset]. An end
    face within 1e-11 * c of ``c`` counts as long enough."""
    if _width_at(ball, end, d, u) >= c - 1e-11 * c:
        return end
    lo, hi = 0.0, end
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _width_at(ball, mid, d, u) >= c:
            lo = mid
        else:
            hi = mid
    return lo


def chord_width_exact(ball, d: Vec2, y: float) -> float:
    """Width of the polygon ``ball._rel`` on the line h = y, computed in
    ``Fraction`` and rounded once: each vertex r has height h = r . d and
    abscissa s = r . u with u = d.perp(), and the chord runs between the least
    and largest s over the vertices on the line and the exact crossings of the
    edges that strictly cross it. 0 when the line misses the polygon."""
    dx, dy, y = Fraction(d.x), Fraction(d.y), Fraction(y)
    pts = []  # (height above the line, abscissa) per vertex
    for rx, ry in ball._rel:
        x, z = Fraction(rx), Fraction(ry)
        pts.append((x * dx + z * dy - y, z * dx - x * dy))
    ss = []
    for (fa, sa), (fb, sb) in zip(pts, pts[1:] + pts[:1]):
        if fa == 0:
            ss.append(sa)
        elif fa * fb < 0:
            ss.append(sa + (sb - sa) * fa / (fa - fb))
    return float(max(ss) - min(ss)) if ss else 0.0


def line_min_by_breakpoints(ball, x: Vec2, y: Vec2) -> float:
    """min_t gauge(x + t*y), taken over x and the points where the line meets
    a vertex direction: the breakpoints of the convex piecewise-linear map."""
    best = gauge(ball, x)
    for w in ball.shape.vertices:
        wx, wy = w.x - ball.center.x, w.y - ball.center.y
        denom = y.x * wy - y.y * wx
        if denom == 0.0:
            continue
        t = -(x.x * wy - x.y * wx) / denom
        best = min(best, gauge(ball, x + y * t))
    return best


def radon_by_sweep(ball, per_edge: int = 8):
    """First (x, y) with y supporting the ball at x but x not orthogonal to y.

    Samples ``per_edge`` points on each edge, vertices included, and tries the
    edge direction at edge points and the two extreme rays and the bisector of
    the supporting cone at vertices. x counts as orthogonal to y when the
    breakpoint line minimum is at least (1 - 1e-9) * gauge(y), the library's
    default relative tolerance. ``None`` means no violation was found.
    """
    rel = [v - ball.center for v in ball.shape.vertices]
    n = len(rel)
    for i in range(n):
        a, b = rel[i], rel[(i + 1) % n]
        e_here = (b - a).normalized()
        e_prev = (a - rel[i - 1]).normalized()
        probes = [(a, [e_prev, e_here, (e_prev + e_here).normalized()])]
        probes += [(a + (b - a) * (j / per_edge), [e_here]) for j in range(1, per_edge)]
        for x, ys in probes:
            for y in ys:
                if line_min_by_breakpoints(ball, y, x) < (1.0 - 1e-9) * gauge(ball, y):
                    return x, y
    return None


def mirror_by_reflection(poly: ConvexPolygon, axis: Axis, tol: float) -> bool:
    """Reflect ``poly`` across ``axis`` and match the images to the vertices (O(n^2))."""
    return vertex_sets_equal(reflect(poly, axis).vertices, poly.vertices, tol)


def axes_by_reflection(poly: ConvexPolygon, point: Vec2, tol: float) -> list[Vec2]:
    """Mirror axes of ``poly`` through ``point``, one direction per distinct line.

    Candidates run from ``point`` to every vertex and edge midpoint; lines
    closer than 1e-6 rad in angle count as one.
    """
    vs = poly.vertices
    targets = list(vs) + [(a + b) * 0.5 for a, b in zip(vs, vs[1:] + vs[:1])]
    found: list[Vec2] = []
    for t in targets:
        d = (t - point).normalized()
        if any(abs(d.cross(e)) <= 1e-6 for e in found):
            continue
        if mirror_by_reflection(poly, Axis(point, d), tol):
            found.append(d)
    return found


# every (shape, axis config) pair of the offset closed forms, and each shape's minimum
OFFSET_CASES = [
    (offset_shapes.ShapeKind.TRIANGLE, offset_shapes.AxisConfig.A),
    (offset_shapes.ShapeKind.SQUARE, offset_shapes.AxisConfig.A),
    (offset_shapes.ShapeKind.SQUARE, offset_shapes.AxisConfig.B),
    (offset_shapes.ShapeKind.HEXAGON, offset_shapes.AxisConfig.A),
    (offset_shapes.ShapeKind.HEXAGON, offset_shapes.AxisConfig.B),
]
OFFSET_MINIMUM = {
    offset_shapes.ShapeKind.TRIANGLE: 4.5,
    offset_shapes.ShapeKind.SQUARE: 4.0,
    offset_shapes.ShapeKind.HEXAGON: 3.0,
}


def offset_roots_by_bisection(shape, config, target: float, size: float) -> list[float]:
    """Offsets where the closed form equals ``target``, by bisecting each
    monotone branch of the closed form on either side of its minimum.

    Each branch is first located by halving the distance from the minimum to
    the divergent end until the closed form exceeds the target; roots closer
    than 1e-9 * max(1, size) count as one.
    """
    f = offset_shapes._closed_form(shape, config, size)
    if shape is offset_shapes.ShapeKind.TRIANGLE:
        min_off, span = 2.0 * size / 3.0, (0.0, size)
    elif shape is offset_shapes.ShapeKind.SQUARE:
        min_off = offset_shapes.square_minimum(size, config)[0]
        span = (0.0, size if config is offset_shapes.AxisConfig.A else size * math.sqrt(2.0))
    else:
        min_off = offset_shapes.hexagon_minimum(size, config)[0]
        span = (0.0, min_off)

    def bisect(lo, hi, decreasing):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(mid) > target) == decreasing:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)

    def shrink_toward(end):
        x = min_off
        for _ in range(200):
            x = 0.5 * (x + end)
            if f(x) > target:
                return x
        return None

    roots = []
    lo_anchor = shrink_toward(span[0])
    if lo_anchor is not None:
        roots.append(bisect(lo_anchor, min_off, True))
    if span[1] > min_off:
        hi_anchor = shrink_toward(span[1])
        if hi_anchor is not None:
            roots.append(bisect(min_off, hi_anchor, False))
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or abs(r - deduped[-1]) > 1e-9 * max(1.0, size):
            deduped.append(r)
    return deduped


def brute_force_hull(points: list[Vec2]) -> list[Vec2]:
    """Hull by gift wrapping (counterclockwise), independent of the library."""
    start = min(points, key=lambda p: (p.y, p.x))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = None
        for p in points:
            if (p - cur).norm() < 1e-12:
                continue
            if cand is None:
                cand = p
                continue
            turn = (cand - cur).cross(p - cur)
            if turn < -1e-12 or (abs(turn) <= 1e-12 and (p - cur).norm() > (cand - cur).norm()):
                cand = p
        if (cand - start).norm() < 1e-12:
            return hull
        hull.append(cand)
        if len(hull) > len(points) + 1:
            raise RuntimeError("gift wrapping failed to close")


def vertex_set(poly: ConvexPolygon) -> set[tuple[float, float]]:
    return {(round(v.x, 9), round(v.y, 9)) for v in poly.vertices}


@pytest.fixture
def equilateral():
    s = math.sqrt(3.0) / 2.0
    return ConvexPolygon([Vec2(0.0, 1.0), Vec2(-s, -0.5), Vec2(s, -0.5)])
