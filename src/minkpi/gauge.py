"""The offset gauge: measure vectors against a convex polygon from an interior center.

A ``Ball`` is a convex polygon together with a chosen interior point. The
gauge of a vector v is 1/s, where s is the largest scalar such that
center + s*v still lies in the polygon. With an off-center choice the gauge
of v and of -v differ, which is the whole point: the resulting function is
positively homogeneous and subadditive but not symmetric.

For a polygon the gauge is the largest of its facet functionals: edge j, from
w_j to w_{j+1} relative to the center, lies on the line f_j . x = 1, and
gauge(v) = max_j f_j . v (Schneider, *Convex Bodies*, section 1.7). Each
``Ball`` computes the f_j once, and every gauge evaluation reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CenterNotInterior
from .geom2d import (
    ALG_TOL,
    ConvexPolygon,
    Vec2,
    _extent,
    _relative,
    convex_hull,
    intersect_convex,
    negate,
)


@dataclass(frozen=True)
class Ball:
    """Unit ball of one asymmetric gauge: a convex shape plus an interior center.

    Construction fails with ``CenterNotInterior`` unless the center keeps a
    positive distance from every edge line, at least 1e-12 times the shape's
    extent (its largest vertex distance from the center). ``_rel`` holds the
    vertices relative to the center as (x, y) floats, and ``_facets[j]`` the
    functional (f_x, f_y) of edge j, from ``_rel[j]`` to ``_rel[j + 1]``, that
    is 1 on that edge's line. Instances are immutable and safe to share
    between threads.
    """

    shape: ConvexPolygon
    center: Vec2

    def __post_init__(self) -> None:
        c = self.center
        rel = tuple(_relative(self.shape.vertices, c))
        floor = ALG_TOL * _extent(rel)
        facets = []
        for (ax, ay), (bx, by) in zip(rel, rel[1:] + rel[:1]):
            # h = cross(w_j, w_{j+1}) is the center-to-edge distance times |e_j|
            ex, ey = bx - ax, by - ay
            h = ax * by - ay * bx
            if h < floor * math.hypot(ex, ey):
                raise CenterNotInterior(
                    f"center ({c.x}, {c.y}) is not strictly inside the shape"
                )
            facets.append((ey / h, -ex / h))
        object.__setattr__(self, "_rel", rel)
        object.__setattr__(self, "_facets", tuple(facets))

    def translated(self, v: Vec2) -> "Ball":
        return Ball(self.shape.translated(v), self.center + v)

    def scaled(self, s: float) -> "Ball":
        """Scale shape and center together about the origin."""
        return Ball(self.shape.scaled(s), self.center * s)

    def to_dict(self) -> dict:
        """JSON fixture form: {"vertices": [[x, y], ...], "center": [x, y]}."""
        return {"vertices": self.shape.to_pairs(), "center": [self.center.x, self.center.y]}

    @staticmethod
    def from_dict(data: dict) -> "Ball":
        shape = ConvexPolygon.from_pairs(data["vertices"])
        cx, cy = data["center"]
        return Ball(shape, Vec2(float(cx), float(cy)))


def _gauge_xy(ball: Ball, vx: float, vy: float) -> float:
    # the largest facet functional; the zero vector gives 0
    g = 0.0
    for fx, fy in ball._facets:
        s = fx * vx + fy * vy
        g = s if s > g else g
    return g


def gauge(ball: Ball, v: Vec2) -> float:
    """Gauge of ``v`` for ``ball``: 0 for the zero vector, else 1/s with s the
    largest scalar keeping center + s*v inside the shape."""
    return _gauge_xy(ball, v.x, v.y)


def boundary_point(ball: Ball, v: Vec2) -> Vec2:
    """Point where the ray from the center along ``v`` leaves the shape."""
    g = gauge(ball, v)
    return ball.center + v * (1.0 / g)


def symmetrize_intersection(ball: Ball) -> Ball:
    """Ball of the symmetric norm with unit ball B intersected with -B (about the center).

    The result is the largest centrally symmetric ball inside the original, so
    its gauge dominates both directed gauges of the original.
    """
    rel = ConvexPolygon([v - ball.center for v in ball.shape.vertices])
    core = intersect_convex(rel, negate(rel))
    return Ball(core.translated(ball.center), ball.center)


def symmetrize_hull(ball: Ball) -> Ball:
    """Ball of the symmetric norm with unit ball conv(B union -B) about the center."""
    rel = [v - ball.center for v in ball.shape.vertices]
    hull = convex_hull(rel + [-v for v in rel])
    return Ball(hull.translated(ball.center), ball.center)


def is_centrally_symmetric(ball: Ball, tol: float = 1e-9) -> bool:
    """True when the shape equals its point reflection about the center.

    The point reflection keeps the counterclockwise order, so it must map
    vertex i onto vertex i + n/2. ``tol`` is relative to the shape's extent
    (its largest vertex distance from the center).
    """
    rel = ball._rel
    h, odd = divmod(len(rel), 2)
    if odd:
        return False
    scale = tol * _extent(rel)
    return all(
        math.hypot(ax + bx, ay + by) <= scale for (ax, ay), (bx, by) in zip(rel[:h], rel[h:])
    )
