"""Birkhoff orthogonality and the Radon test for centrally symmetric polygonal norms.

y is Birkhoff orthogonal to x when the whole line x + t*y stays outside the
open ball of radius gauge(x), i.e. the line supports that ball at x. For a
polygonal gauge the map t -> gauge(x + t*y) is piecewise linear and convex
with breakpoints where x + t*y crosses a vertex direction, so the minimum is
found exactly. A norm is Radon when the relation is symmetric. For a
polygon the relation is a staircase of edge directions against vertex
directions, so testing the reverse relation on the 2n pairs (edge endpoint,
edge direction) decides symmetry exactly, with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotSymmetricBall, ZeroVector
from .gauge import Ball, _gauge_xy, gauge, is_centrally_symmetric
from .geom2d import Vec2


@dataclass(frozen=True)
class OrthoPair:
    """One tested pair: forward means y orthogonal to x, backward the reverse."""

    x: Vec2
    y: Vec2
    forward: bool
    backward: bool


def _require_norm(ball: Ball, tol: float) -> None:
    if not is_centrally_symmetric(ball, max(tol, 1e-9)):
        raise NotSymmetricBall(
            "Birkhoff orthogonality needs a norm: the ball must be centrally symmetric"
        )


def _line_min_gauge(ball: Ball, x: Vec2, y: Vec2) -> float:
    # exact minimum of the convex piecewise-linear t -> gauge(x + t*y):
    # it is attained where x + t*y is parallel to some vertex direction
    best = gauge(ball, x)
    for wx, wy in ball._rel:
        denom = y.x * wy - y.y * wx
        if denom == 0.0:
            continue
        t = -(x.x * wy - x.y * wx) / denom
        g = _gauge_xy(ball, x.x + t * y.x, x.y + t * y.y)
        if g < best:
            best = g
    return best


def birkhoff_orthogonal(ball: Ball, x: Vec2, y: Vec2, tol: float = 1e-9) -> bool:
    """True when gauge(x + t*y) >= gauge(x) for every real t (within ``tol``)."""
    _require_norm(ball, tol)
    if x.is_zero() or y.is_zero():
        raise ZeroVector("Birkhoff orthogonality needs nonzero vectors")
    return _line_min_gauge(ball, x, y) >= gauge(ball, x) - tol


def radon_witness(ball: Ball, tol: float = 1e-9) -> Optional[OrthoPair]:
    """The worst pair violating symmetry of the orthogonality relation, if any.

    The direction y of an edge is orthogonal to both endpoints x of that
    edge, because the edge line x + t*y supports the ball at x. The scan
    tests the reverse relation on all 2n such pairs and returns the one whose
    line y + t*x dips furthest below gauge(y), if that exceeds ``tol``. These
    pairs are the corners of the orthogonality relation's staircase, so they
    decide symmetry exactly. ``None`` means the norm is Radon.
    """
    _require_norm(ball, tol)
    rel = [Vec2(x, y) for x, y in ball._rel]
    worst, witness = tol, None
    for i, a in enumerate(rel):
        b = rel[(i + 1) % len(rel)]
        y = (b - a).normalized()
        floor = gauge(ball, y)
        for x in (a, b):
            violation = floor - _line_min_gauge(ball, y, x)
            if violation > worst:
                worst, witness = violation, OrthoPair(x=x, y=y, forward=True, backward=False)
    return witness


def is_radon(ball: Ball, tol: float = 1e-9) -> bool:
    """True when Birkhoff orthogonality is symmetric, decided by the exact
    vertex-edge pair scan of ``radon_witness``."""
    return radon_witness(ball, tol) is None
