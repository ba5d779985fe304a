"""Planar primitives: vectors, convex polygons, hulls, clipping, mirror axes.

Everything works in plain double precision with two package-wide tolerances,
1e-9 for geometric comparisons and 1e-12 for algebraic ones. The mirror-axis
tests and the duplicate-vertex merge scale theirs by the shape's extent, so
they keep their meaning under translation and scaling. All operations are
pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateInput, EmptyIntersection, InvalidParameter, NotConvex

GEOM_TOL = 1e-9
ALG_TOL = 1e-12


@dataclass(frozen=True)
class Vec2:
    """Immutable plane vector with finite components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameter(f"non-finite vector component: ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0 or not math.isfinite(n):
            raise InvalidParameter("cannot normalize a zero or overflowing vector")
        return Vec2(self.x / n, self.y / n)

    def perp(self) -> "Vec2":
        # counterclockwise quarter turn
        return Vec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0


@dataclass(frozen=True)
class Axis:
    """A line given by a point on it and a unit direction."""

    point: Vec2
    direction: Vec2

    def __post_init__(self) -> None:
        if abs(self.direction.norm() - 1.0) > ALG_TOL:
            raise InvalidParameter("axis direction must have unit Euclidean length")

    def reflect_point(self, p: Vec2) -> Vec2:
        w = p - self.point
        along = self.direction * w.dot(self.direction)
        return self.point + along * 2.0 - w


def _dedupe_adjacent(points: list[Vec2], tol: float) -> list[Vec2]:
    out: list[Vec2] = []
    for p in points:
        if not out or (p - out[-1]).norm() > tol:
            out.append(p)
    while len(out) > 1 and (out[0] - out[-1]).norm() <= tol:
        out.pop()
    return out


def _drop_collinear(points: list[Vec2]) -> list[Vec2]:
    # removes middle vertices whose turn is zero relative to edge lengths
    changed = True
    pts = points
    while changed and len(pts) >= 3:
        changed = False
        kept: list[Vec2] = []
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            u, v = b - a, c - b
            if abs(u.cross(v)) <= ALG_TOL * u.norm() * v.norm():
                changed = True
                continue
            kept.append(b)
        pts = kept
    return pts


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex counterclockwise vertex loop.

    The constructor normalizes its input: adjacent duplicates (within 1e-12
    of the largest distance from the first vertex) and collinear middle
    vertices are dropped, then the loop must be strictly counterclockwise or
    ``NotConvex`` is raised; an overflowing area raises ``InvalidParameter``.
    """

    vertices: tuple[Vec2, ...]

    def __init__(self, vertices: Iterable[Vec2 | Sequence[float]]) -> None:
        pts = [v if isinstance(v, Vec2) else Vec2(float(v[0]), float(v[1])) for v in vertices]
        # the duplicate and the collinearity floors are measured from pts[0],
        # so both tests are invariant under translation and scaling
        extent = max((math.hypot(p.x - pts[0].x, p.y - pts[0].y) for p in pts), default=0.0)
        pts = _dedupe_adjacent(pts, ALG_TOL * extent)
        if len(pts) < 3:
            raise DegenerateInput("a polygon needs at least 3 distinct vertices")
        area = _signed_area(pts)
        if not math.isfinite(area):
            raise InvalidParameter("coordinates too large: the polygon's area overflows")
        if abs(area) <= ALG_TOL * extent * extent:
            raise DegenerateInput("vertices are collinear")
        if area < 0.0:
            raise NotConvex("vertex loop is clockwise")
        pts = _drop_collinear(pts)
        if len(pts) < 3:
            raise DegenerateInput("vertices are collinear")
        n = len(pts)
        for i in range(n):
            u = pts[i] - pts[i - 1]
            v = pts[(i + 1) % n] - pts[i]
            if u.cross(v) <= 0.0:
                raise NotConvex("vertex loop is not strictly convex counterclockwise")
        object.__setattr__(self, "vertices", tuple(pts))

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def edge_vectors(self) -> list[Vec2]:
        return [b - a for a, b in self.edges()]

    def signed_area(self) -> float:
        return _signed_area(list(self.vertices))

    def centroid(self) -> Vec2:
        # area centroid, accumulated over the triangle fan from vertices[0] so
        # that far-translated polygons keep their relative precision
        o = self.vertices[0]
        rel = _relative(self.vertices, o)
        a2 = cx = cy = 0.0
        for (px, py), (qx, qy) in zip(rel[1:], rel[2:]):
            w = px * qy - py * qx
            a2 += w
            cx += (px + qx) * w
            cy += (py + qy) * w
        return Vec2(o.x + cx / (3.0 * a2), o.y + cy / (3.0 * a2))

    def contains(self, p: Vec2, tol: float = GEOM_TOL) -> bool:
        """True when ``p`` is inside or within ``tol`` of the boundary."""
        for a, b in self.edges():
            e = b - a
            if e.cross(p - a) < -tol * e.norm():
                return False
        return True

    def translated(self, v: Vec2) -> "ConvexPolygon":
        return ConvexPolygon([p + v for p in self.vertices])

    def scaled(self, s: float) -> "ConvexPolygon":
        if s <= 0.0:
            raise InvalidParameter("scale factor must be positive")
        return ConvexPolygon([p * s for p in self.vertices])

    def edge_length_multiset(self) -> list[float]:
        return sorted(e.norm() for e in self.edge_vectors())

    def to_pairs(self) -> list[list[float]]:
        """The JSON literal form: counterclockwise list of [x, y] pairs."""
        return [[v.x, v.y] for v in self.vertices]

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence[float]]) -> "ConvexPolygon":
        return ConvexPolygon([Vec2(float(p[0]), float(p[1])) for p in pairs])


def _signed_area(pts: list[Vec2]) -> float:
    # shoelace over the fan from pts[0]: no cancellation between large terms
    ox, oy = pts[0].x, pts[0].y
    total = 0.0
    for p, q in zip(pts[1:], pts[2:]):
        total += (p.x - ox) * (q.y - oy) - (p.y - oy) * (q.x - ox)
    return 0.5 * total


def convex_hull(points: Iterable[Vec2 | Sequence[float]]) -> ConvexPolygon:
    """Minimal counterclockwise convex polygon containing all input points.

    Monotone-chain with strict turns, so collinear boundary points are not
    kept as vertices. Raises ``DegenerateInput`` when the points are
    collinear.
    """
    pts = [p if isinstance(p, Vec2) else Vec2(float(p[0]), float(p[1])) for p in points]
    uniq = sorted(set((p.x, p.y) for p in pts))
    if len(uniq) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    def build(seq):
        chain: list[tuple[float, float]] = []
        for q in seq:
            while len(chain) >= 2:
                ux, uy = chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]
                vx, vy = q[0] - chain[-1][0], q[1] - chain[-1][1]
                turn = ux * vy - uy * vx
                if turn <= ALG_TOL * math.hypot(ux, uy) * math.hypot(vx, vy):
                    chain.pop()
                else:
                    break
            chain.append(q)
        return chain

    lower = build(uniq)
    upper = build(reversed(uniq))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points are collinear")
    return ConvexPolygon([Vec2(x, y) for x, y in hull])


def intersect_convex(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Set intersection of two convex polygons by half-plane clipping.

    ``q`` is clipped successively against every directed edge of ``p``. A
    vertex within 1e-12 of an edge line, relative to the largest distance of
    any vertex of ``p`` or ``q`` from ``p``'s first vertex, counts as inside.
    Raises ``EmptyIntersection`` when the interiors are disjoint.
    """
    o = p.vertices[0]
    tol = ALG_TOL * max(math.hypot(v.x - o.x, v.y - o.y) for v in p.vertices + q.vertices)
    out = list(q.vertices)
    for a, b in p.edges():
        if not out:
            break
        e = b - a
        elen = e.norm()
        dist = [e.cross(v - a) / elen for v in out]
        kept: list[Vec2] = []
        m = len(out)
        for i in range(m):
            s, t = out[i], out[(i + 1) % m]
            ds, dt = dist[i], dist[(i + 1) % m]
            s_in = ds >= -tol
            t_in = dt >= -tol
            if s_in:
                kept.append(s)
            if s_in != t_in:
                f = ds / (ds - dt)
                kept.append(s + (t - s) * f)
        out = kept
    try:
        return ConvexPolygon(out)
    except (DegenerateInput, NotConvex) as exc:
        raise EmptyIntersection("polygons have no common interior") from exc


def negate(p: ConvexPolygon) -> ConvexPolygon:
    """Point reflection through the origin (orientation is preserved)."""
    return ConvexPolygon([-v for v in p.vertices])


def reflect(p: ConvexPolygon, axis: Axis) -> ConvexPolygon:
    """Mirror image across ``axis``, re-ordered counterclockwise."""
    return ConvexPolygon([axis.reflect_point(v) for v in reversed(p.vertices)])


def vertex_sets_equal(a: Sequence[Vec2], b: Sequence[Vec2], tol: float) -> bool:
    """Tolerant equality of two vertex multisets."""
    if len(a) != len(b):
        return False
    unmatched = list(b)
    for p in a:
        for i, q in enumerate(unmatched):
            if (p - q).norm() <= tol:
                unmatched.pop(i)
                break
        else:
            return False
    return True


_Loop = Sequence[tuple[float, float]]  # vertex loop as (x, y) pairs relative to a point


def _mirror_walk(rel: _Loop, p: int, dx: float, dy: float, tol: float) -> bool:
    # Half-step 2i is vertex i and half-step 2i + 1 the midpoint of edge i. A
    # mirror axis fixes half-steps p and p + n and pairs p - j with p + j, so
    # reflecting one vertex of each pair across (dx, dy) must land on the other.
    n = len(rel)
    for j in range(p % 2, n + 1, 2):
        ax, ay = rel[(p - j) // 2 % n]
        bx, by = rel[(p + j) // 2 % n]
        s = 2.0 * (ax * dx + ay * dy)
        if math.hypot(s * dx - ax - bx, s * dy - ay - by) > tol:
            return False
    return True


def _extent(rel: _Loop) -> float:
    return max(math.hypot(x, y) for x, y in rel)


def _relative(vertices: Sequence[Vec2], o: Vec2) -> list[tuple[float, float]]:
    return [(v.x - o.x, v.y - o.y) for v in vertices]


def _mirror_directions(rel: _Loop, tol: float) -> Iterator[tuple[float, float]]:
    """Unit directions of the mirror axes through the origin of a vertex loop.

    ``rel`` is a counterclockwise loop of (x, y) pairs relative to the point
    the axes must pass through, and ``tol`` is relative to the loop's extent
    (its largest vertex distance from that point). Each axis is yielded once,
    oriented with d.x > 0 or d = (0, 1), in the order of the half-step
    0..n-1 where it meets the boundary. Each candidate is one walk of at most
    n/2 + 1 vertex pairs that stops at its first mismatch.
    """
    n = len(rel)
    scale = tol * _extent(rel)
    for p in range(n):
        x, y = rel[p // 2]
        if p % 2:
            qx, qy = rel[(p // 2 + 1) % n]
            x, y = 0.5 * (x + qx), 0.5 * (y + qy)
        r = math.hypot(x, y)  # positive: the origin is interior
        dx, dy = x / r, y / r
        if _mirror_walk(rel, p, dx, dy, scale):
            yield (-dx, -dy) if dx < 0.0 or (dx == 0.0 and dy < 0.0) else (dx, dy)


def is_mirror_axis(p: ConvexPolygon, axis: Axis) -> bool:
    """True when reflecting across ``axis`` maps the vertex loop onto itself.

    Vertices must match within ``GEOM_TOL`` of the polygon's extent about
    ``axis.point``. The walk is anchored at the vertex furthest along the
    axis direction, or at one of its two edges when that edge is
    perpendicular to the axis.
    """
    rel = _relative(p.vertices, axis.point)
    dx, dy = axis.direction.x, axis.direction.y
    i = max(range(len(rel)), key=lambda k: rel[k][0] * dx + rel[k][1] * dy)
    scale = GEOM_TOL * _extent(rel)
    return any(_mirror_walk(rel, h, dx, dy, scale) for h in (2 * i, 2 * i - 1, 2 * i + 1))


def symmetry_axes(p: ConvexPolygon) -> list[Axis]:
    """All mirror axes of ``p``, each once (empty list when there are none).

    Every axis runs through the area centroid, which is the returned
    ``Axis.point``, and is oriented with d.x > 0 or d = (0, 1); vertices must
    match within ``GEOM_TOL`` of the largest vertex distance from it.
    """
    c = p.centroid()
    rel = _relative(p.vertices, c)
    return [Axis(c, Vec2(dx, dy)) for dx, dy in _mirror_directions(rel, GEOM_TOL)]


def regular_polygon(n: int, circumradius: float, phase: float = 0.0) -> ConvexPolygon:
    """Regular n-gon with vertices at angles phase + 2*pi*k/n."""
    if n < 3:
        raise InvalidParameter("a polygon needs n >= 3 sides")
    if circumradius <= 0.0:
        raise InvalidParameter("circumradius must be positive")
    step = 2.0 * math.pi / n
    return ConvexPolygon(
        [
            Vec2(circumradius * math.cos(phase + step * k), circumradius * math.sin(phase + step * k))
            for k in range(n)
        ]
    )
