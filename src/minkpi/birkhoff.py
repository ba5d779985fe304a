"""Birkhoff orthogonality and the Radon test for centrally symmetric polygonal norms.

y is Birkhoff orthogonal to x when the whole line x + t*y stays outside the
open ball of radius gauge(x), i.e. the line supports that ball at x. For a
norm the least gauge on that line has a closed form: the line is
{p : det(y, p) = det(y, x)}, and the support function of the ball in the
direction perpendicular to y gives min_t gauge(x + t*y) = |det(y, x)| /
max_i |det(y, w_i)| over the vertices w_i. A norm is Radon when the relation
is symmetric. For a polygon the relation is a staircase of edge directions
against vertex directions, so testing the reverse relation on the 2n pairs
(edge endpoint, edge vector) decides symmetry exactly, with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParameter, NotSymmetricBall, ZeroVector
from .gauge import Ball, gauge, is_centrally_symmetric
from .geom2d import Vec2


@dataclass(frozen=True)
class OrthoPair:
    """One tested pair: forward means y orthogonal to x, backward the reverse."""

    x: Vec2
    y: Vec2
    forward: bool
    backward: bool


def _require_norm(ball: Ball, tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise InvalidParameter(f"tol must satisfy 0 < tol < 1, got {tol}")
    if not is_centrally_symmetric(ball, max(tol, 1e-9)):
        raise NotSymmetricBall(
            "Birkhoff orthogonality needs a norm: the ball must be centrally symmetric"
        )


def _line_min_gauge(ball: Ball, x: Vec2, y: Vec2) -> float:
    # min_t gauge(x + t*y) for a norm: the support function identity above
    reach = max(abs(y.x * wy - y.y * wx) for wx, wy in ball._rel)
    return abs(y.x * x.y - y.y * x.x) / reach


def birkhoff_orthogonal(ball: Ball, x: Vec2, y: Vec2, tol: float = 1e-9) -> bool:
    """True when gauge(x + t*y) >= gauge(x) for every real t.

    ``tol`` is relative: the least gauge on the line may fall short of
    gauge(x) by at most ``tol * gauge(x)``, so the answer does not change when
    x, y or the ball is scaled; raises ``InvalidParameter`` unless 0 < tol < 1.
    """
    _require_norm(ball, tol)
    if x.is_zero() or y.is_zero():
        raise ZeroVector("Birkhoff orthogonality needs nonzero vectors")
    return _line_min_gauge(ball, x, y) >= (1.0 - tol) * gauge(ball, x)


def radon_witness(ball: Ball, tol: float = 1e-9) -> Optional[OrthoPair]:
    """The worst pair violating symmetry of the orthogonality relation, if any.

    The edge vector y = b - a of an edge [a, b] is orthogonal to both
    endpoints x of that edge, because the edge line x + t*y supports the ball
    at x. The scan tests the reverse relation on all 2n such pairs and
    returns the one whose line y + t*x dips furthest below gauge(y),
    measured as the share 1 - min_t gauge(y + t*x) / gauge(y), if that
    exceeds ``tol`` (``InvalidParameter`` unless 0 < tol < 1). These pairs
    are the corners of the orthogonality relation's staircase, so they decide
    symmetry exactly; the scan is O(n^2). ``None`` means the norm is Radon.
    """
    _require_norm(ball, tol)
    rel = [Vec2(x, y) for x, y in ball._rel]
    worst, witness = tol, None
    for a, b in zip(rel, rel[1:] + rel[:1]):
        y = b - a
        floor = gauge(ball, y)
        for x in (a, b):
            violation = 1.0 - _line_min_gauge(ball, y, x) / floor
            if violation > worst:
                worst, witness = violation, OrthoPair(x=x, y=y, forward=True, backward=False)
    return witness


def is_radon(ball: Ball, tol: float = 1e-9) -> bool:
    """True when Birkhoff orthogonality is symmetric, decided by the exact
    vertex-edge pair scan of ``radon_witness``."""
    return radon_witness(ball, tol) is None
