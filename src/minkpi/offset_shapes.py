r"""Closed-form half-perimeters for triangles, squares, and hexagons with offset centers.

Each shape is self-measured with the gauge centered at a point displaced
along a mirror axis. Conventions, fixed here once and used by both the closed
forms and ``build_offset_ball``:

Isosceles triangle (single axis class), apex up::

        apex                 offset = distance from the apex down to the
         /\                  center, along the axis; valid on (0, h) where
        /  \   h             h = sqrt(a^2 - b^2/4) is the height
       /_ __\
          b

Square, side a. Config A axis joins two edge midpoints, offset = height of
the center above the bottom edge, valid on (0, a). Config B axis joins two
opposite vertices, offset = distance from the bottom vertex, valid on
(0, a*sqrt(2))::

        A:  _____          B:   /\
           |  |  |              \/  axis through the corners
           |__|__|  axis vertical through edge midpoints

Regular hexagon, side a. Config A axis joins two opposite edge midpoints
(flat bottom), offset = height above the bottom edge, valid on
(0, a*sqrt(3)/2]. Config B axis joins two opposite vertices (pointy bottom),
offset = distance from the bottom vertex, valid on (0, a]. For both, the
right endpoint is the hexagon center, where the value reaches its minimum 3.

Reported per-side gauges follow the counterclockwise traversal of the
polygon that ``build_offset_ball`` constructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidOffset, InvalidParameter, Unreachable
from .gauge import Ball
from .geom2d import ConvexPolygon, Vec2, regular_polygon

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class ShapeKind(Enum):
    TRIANGLE = "triangle"
    SQUARE = "square"
    HEXAGON = "hexagon"


class AxisConfig(Enum):
    A = "A"  # axis through edge midpoints
    B = "B"  # axis through opposite vertices


@dataclass(frozen=True)
class OffsetPiResult:
    """Half-perimeter plus the directed gauge of every side (ccw order)."""

    pi: float
    side_gauges: tuple[float, ...]


@dataclass(frozen=True)
class OffsetShapeSpec:
    """Geometry request: which shape, which axis class, size and center offset."""

    shape: ShapeKind
    config: AxisConfig
    size: float
    offset: float
    base: Optional[float] = None  # triangle only

    def __post_init__(self) -> None:
        if self.size <= 0.0:
            raise InvalidParameter("size must be positive")
        if self.shape is ShapeKind.TRIANGLE:
            if self.config is not AxisConfig.A:  # its only axis class
                raise InvalidParameter("the triangle has one axis class: use config A")
            if self.base is None or not (0.0 < self.base < 2.0 * self.size):
                raise InvalidParameter("triangle base must satisfy 0 < b < 2a")
            h = math.sqrt(self.size**2 - self.base**2 / 4.0)
            if not (0.0 < self.offset < h):
                raise InvalidOffset("triangle offset must lie strictly between apex and base")
        else:
            lo, hi, closed = _offset_interval(self.shape, self.config, self.size)
            ok = lo < self.offset and (self.offset <= hi if closed else self.offset < hi)
            if not ok:
                raise InvalidOffset(
                    f"offset {self.offset} outside the valid interval for "
                    f"{self.shape.value} config {self.config.value}"
                )


def _offset_interval(shape: ShapeKind, config: AxisConfig, size: float) -> tuple[float, float, bool]:
    # (low, high, high_end_included)
    if shape is ShapeKind.SQUARE:
        return (0.0, size, False) if config is AxisConfig.A else (0.0, size * SQRT2, False)
    if shape is ShapeKind.HEXAGON:
        return (0.0, size * SQRT3 / 2.0, True) if config is AxisConfig.A else (0.0, size, True)
    raise InvalidParameter("interval lookup is for square and hexagon")


def pi_isosceles(height: float, apex_offset: float) -> OffsetPiResult:
    """Isosceles triangle measured from a center ``apex_offset`` below the apex.

    The value (2h/d + h/(h-d) + 2h/d)/2 depends only on the height h and the
    offset d, not on the side lengths. Gauges in ccw build order: descending
    slant, base, ascending slant.
    """
    if height <= 0.0:
        raise InvalidParameter("height must be positive")
    if not (0.0 < apex_offset < height):
        raise InvalidOffset("offset must satisfy 0 < offset < height")
    toward_apex = 2.0 * height / apex_offset
    toward_base = height / (height - apex_offset)
    gauges = (toward_base, toward_apex, toward_apex)
    return OffsetPiResult(pi=sum(gauges) / 2.0, side_gauges=gauges)


def isosceles_minimum() -> tuple[float, float]:
    """(offset/height, value) at the triangle minimum: (2/3, 9/2)."""
    return (2.0 / 3.0, 4.5)


def pi_square(side: float, offset: float, config: AxisConfig) -> OffsetPiResult:
    """Square measured from an offset center on one of its two axis classes."""
    if side <= 0.0:
        raise InvalidParameter("side must be positive")
    lo, hi, _ = _offset_interval(ShapeKind.SQUARE, config, side)
    if not (lo < offset < hi):
        raise InvalidOffset(f"offset must satisfy {lo} < offset < {hi}")
    if config is AxisConfig.A:
        across = 2.0
        up = side / (side - offset)
        down = side / offset
        gauges = (across, up, across, down)
    else:
        up = side / (side - offset / SQRT2)
        down = side * SQRT2 / offset
        gauges = (up, up, down, down)
    return OffsetPiResult(pi=sum(gauges) / 2.0, side_gauges=gauges)


def square_minimum(side: float, config: AxisConfig) -> tuple[float, float]:
    """(offset, value) at the square minimum: a/2 or a/sqrt(2), both giving 4."""
    return (side / 2.0 if config is AxisConfig.A else side / SQRT2, 4.0)


def pi_hexagon(side: float, offset: float, config: AxisConfig) -> OffsetPiResult:
    """Regular hexagon measured from an offset center on one of its two axis classes.

    Config A (offset h above the bottom edge): the two descending slant sides
    measure a*sqrt(3)/(2h), the two horizontal sides 2a/(a + 2h/sqrt(3)), and
    the two ascending slants 2a/(3a - 2h/sqrt(3)). Config B (offset h from
    the bottom vertex): the three sides seen descending measure a/h, the two
    cross sides measure exactly 1, and the ascending vertical side
    a/(2a - h). Both reach the minimum 3 when the center reaches the hexagon
    center (h = a*sqrt(3)/2 and h = a).
    """
    if side <= 0.0:
        raise InvalidParameter("side must be positive")
    a = side
    lo, hi, closed = _offset_interval(ShapeKind.HEXAGON, config, side)
    if not (lo < offset and (offset <= hi if closed else offset < hi)):
        raise InvalidOffset(f"offset must lie in ({lo}, {hi}]")
    h = offset
    if config is AxisConfig.A:
        up = 2.0 * a / (3.0 * a - 2.0 * h / SQRT3)
        across = 2.0 * a / (a + 2.0 * h / SQRT3)
        down = a * SQRT3 / (2.0 * h)
        gauges = (up, across, down, down, across, up)
    else:
        down = a / h
        up = a / (2.0 * a - h)
        gauges = (down, down, down, 1.0, up, 1.0)
    return OffsetPiResult(pi=sum(gauges) / 2.0, side_gauges=gauges)


def hexagon_minimum(side: float, config: AxisConfig) -> tuple[float, float]:
    """(offset, value) at the hexagon minimum: a*sqrt(3)/2 or a, both giving 3."""
    return (side * SQRT3 / 2.0 if config is AxisConfig.A else side, 3.0)


def _closed_form(shape: ShapeKind, config: AxisConfig, size: float):
    if shape is ShapeKind.TRIANGLE:
        return lambda d: pi_isosceles(size, d).pi
    if shape is ShapeKind.SQUARE:
        return lambda d: pi_square(size, d, config).pi
    return lambda d: pi_hexagon(size, d, config).pi


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    # (smaller, larger) root of a*z^2 + b*z + c = 0 for a, c > 0 > b; each
    # root is formed without cancellation, and a discriminant that rounding
    # pushed below zero at a double root is read as zero
    q = 0.5 * (math.sqrt(max(0.0, b * b - 4.0 * a * c)) - b)
    return c / q, q / a


def _hexagon_a_root(t: float) -> float:
    # x = 2h/(sqrt(3)*a) solves t*x^3 - (2t+1)*x^2 + (10-3t)*x + 3 = 0. The
    # cubic is 3 > 0 at x = 0 and 12 - 4t <= 0 at x = 1, and it has three real
    # roots for every t >= 3, so the one in (0, 1] is the middle one. The
    # trigonometric form gives the outer two; the middle root, near 1/t for
    # large t, comes from the product of the roots, -3/t, without cancellation.
    b, c, d = -(2.0 * t + 1.0) / t, (10.0 - 3.0 * t) / t, 3.0 / t
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
    largest = r * math.cos(phi / 3.0) - b / 3.0
    smallest = r * math.cos((phi - 4.0 * math.pi) / 3.0) - b / 3.0
    return -d / (largest * smallest)


def solve_offset_for_pi(
    shape: ShapeKind,
    config: AxisConfig,
    target_pi: float,
    size: float = 1.0,
) -> list[float]:
    """All offsets whose closed-form half-perimeter equals ``target_pi``.

    For the triangle ``size`` is the height h; for square and hexagon it is
    the side. The roots are exact: each closed form is rational in the
    offset, giving a quadratic, or a cubic for hexagon config A. The triangle
    and the square yield two roots in increasing order (one at the exact
    minimum) and each hexagon config yields one. Raises ``Unreachable`` below
    the shape minimum and ``InvalidParameter`` unless ``size`` is positive and
    finite and ``target_pi`` is finite, or for the triangle with config B.
    """
    if not (0.0 < size < math.inf and math.isfinite(target_pi)):
        raise InvalidParameter(f"need a positive finite size and a finite target, got {size}, {target_pi}")
    if shape is ShapeKind.TRIANGLE:
        if config is not AxisConfig.A:
            raise InvalidParameter("the triangle has one axis class: use config A")
        min_off, min_pi = 2.0 * size / 3.0, 4.5
    else:
        minimum = square_minimum if shape is ShapeKind.SQUARE else hexagon_minimum
        min_off, min_pi = minimum(size, config)
    if target_pi < min_pi - 1e-12:
        raise Unreachable(f"target {target_pi} is below the minimum {min_pi}")
    if target_pi <= min_pi + 1e-12:
        return [min_off]

    t = target_pi
    if shape is ShapeKind.TRIANGLE:
        return list(_quadratic_roots(2.0 * t, -(3.0 + 2.0 * t) * size, 4.0 * size * size))
    if shape is ShapeKind.SQUARE:
        k = 2.0 * t - 4.0 if config is AxisConfig.A else t
        span = size if config is AxisConfig.A else size * SQRT2
        return list(_quadratic_roots(k, -k * span, span * span))
    if config is AxisConfig.B:
        return list(_quadratic_roots(2.0 * t - 2.0, (2.0 - 4.0 * t) * size, 6.0 * size * size))[:1]
    return [_hexagon_a_root(t) * SQRT3 * size / 2.0]


def build_offset_ball(spec: OffsetShapeSpec) -> Ball:
    """The literal polygon with its gauge center at the requested offset."""
    a, h = spec.size, spec.offset
    if spec.shape is ShapeKind.TRIANGLE:
        b = spec.base
        height = math.sqrt(a**2 - b**2 / 4.0)
        shape = ConvexPolygon(
            [Vec2(0.0, height), Vec2(-b / 2.0, 0.0), Vec2(b / 2.0, 0.0)]
        )
        return Ball(shape, Vec2(0.0, height - h))
    if spec.shape is ShapeKind.SQUARE:
        if spec.config is AxisConfig.A:
            shape = ConvexPolygon(
                [Vec2(-a / 2, 0.0), Vec2(a / 2, 0.0), Vec2(a / 2, a), Vec2(-a / 2, a)]
            )
            return Ball(shape, Vec2(0.0, h))
        d = a * SQRT2
        shape = ConvexPolygon(
            [Vec2(0.0, 0.0), Vec2(d / 2, d / 2), Vec2(0.0, d), Vec2(-d / 2, d / 2)]
        )
        return Ball(shape, Vec2(0.0, h))
    if spec.config is AxisConfig.A:
        shape = regular_polygon(6, a, 0.0)  # flat bottom, axis through edge midpoints
        return Ball(shape, Vec2(0.0, h - a * SQRT3 / 2.0))
    shape = regular_polygon(6, a, math.pi / 2.0)  # pointy bottom, axis through vertices
    return Ball(shape, Vec2(0.0, h - a))


def closed_form_pi(spec: OffsetShapeSpec) -> OffsetPiResult:
    """Closed-form result matching ``build_offset_ball(spec)``."""
    if spec.shape is ShapeKind.TRIANGLE:
        height = math.sqrt(spec.size**2 - spec.base**2 / 4.0)
        return pi_isosceles(height, spec.offset)
    if spec.shape is ShapeKind.SQUARE:
        return pi_square(spec.size, spec.offset, spec.config)
    return pi_hexagon(spec.size, spec.offset, spec.config)
