"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: the gauge oracle works
by bisection on point containment, and the hull oracle by exhaustive support
tests, so they can arbitrate the fast implementations. The Radon oracle keeps
the library's exact orthogonality check but replaces the pair scan's finite
candidate set with a dense boundary sweep. The mirror oracle reflects the
whole polygon and matches the two vertex sets in any order, where the library
walks the vertex loop in lock-step.
"""

from __future__ import annotations

import math

import pytest

from minkpi.birkhoff import birkhoff_orthogonal
from minkpi.geom2d import Axis, ConvexPolygon, Vec2, reflect, vertex_sets_equal


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


def radon_by_sweep(ball, per_edge: int = 8):
    """First (x, y) with y supporting the ball at x but x not orthogonal to y.

    Samples ``per_edge`` points on each edge, vertices included, and tries the
    edge direction at edge points and the two extreme rays and the bisector of
    the supporting cone at vertices. ``None`` means no violation was found.
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
                if not birkhoff_orthogonal(ball, y, x):
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
