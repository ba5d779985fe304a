"""Seeded inputs for every workload, as plain float coordinate lists.

Nothing here imports minkpi: the inputs are built from the seed alone, so a
change to the library cannot change what the benchmark feeds it. Each
generator returns JSON-serializable data, and ``digest`` hashes it so that two
runs can be shown to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("cli", "certify", "gauge-large", "radon")

# certify: enough balls that at least 10 lie beyond p99 in a single pass
CERTIFY_BALLS = 1000
# gauge-large: off-center balls per vertex count, half regular and half
# random, plus one centered regular n-gon per size; pi_ball runs on the
# centered ones up to PI_BALL_MAX_N (its mirror test is quadratic). The
# counts put the median op among the n = 512 batches and p90 among the
# n = 4096 batches, each well inside its cluster.
GAUGE_SIZES = (8, 64, 512, 4096)
OFF_CENTER_BALLS = {8: 20, 64: 20, 512: 48, 4096: 12}
CENTERED_SIZES = (8, 64, 512, 1024, 4096)
PI_BALL_MAX_N = 1024
GAUGE_QUERIES = 128
MGON_SIDES = 64
# radon: every small even n, a coarser ladder up to 62, and n = 126, so that
# each pass has many cheap norms and a few expensive ones
RADON_SIZES = tuple(range(4, 31, 2)) + (34, 38, 42, 46, 50, 54, 58, 62, 126)

# the README's fixtures: a regular triangle of circumradius 1 about the origin
TRIANGLE = [[0.0, 1.0], [-0.8660254037844386, -0.5], [0.8660254037844386, -0.5]]
# `minkpi verify` without --seed or MINKPI_SEED runs at seed 0
VERIFY_SEED = 0
# the worked example of criterion 7: offset ratio 0.8 down an equilateral triangle
WORKED_OFFSET = 0.8 * math.sqrt(0.75)


def digest(data) -> str:
    """SHA-256 of the canonical JSON form (floats written with full precision)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _diameter(pts: list[list[float]]) -> float:
    return max(math.hypot(p[0] - q[0], p[1] - q[1]) for i, p in enumerate(pts) for q in pts[i + 1 :])


def _hull(points: list[tuple[float, float]]) -> list[list[float]]:
    """Counterclockwise convex hull by monotone chain, strict turns only."""
    pts = sorted(set(points))

    def chain(seq):
        out: list[tuple[float, float]] = []
        for q in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (q[1] - by) - (by - ay) * (q[0] - bx) > 0.0:
                    break
                out.pop()
            out.append(q)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return [list(p) for p in lower[:-1] + upper[:-1]]


def symmetric_ball(rng: random.Random) -> dict:
    """Mirror-symmetric convex ball with 8..42 vertices, as criterion 9 sweeps them.

    Random points in the right half plane (and, each with probability 1/2, a
    point on the axis above and below) are mirrored across x = 0 and hulled.
    The center sits at a random point of the axis chord. The diameter is then
    log-uniform in [1e-2, 1e2] and the ball is translated by at most 5
    diameters.
    """
    while True:
        pts = [(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(rng.randint(4, 20))]
        if rng.random() < 0.5:
            pts.append((0.0, rng.uniform(0.2, 2.5)))
        if rng.random() < 0.5:
            pts.append((0.0, -rng.uniform(0.2, 2.5)))
        loop = _hull(pts + [(-x, y) for x, y in pts])
        if 8 <= len(loop) <= 42:
            break
    # the axis chord: where the loop crosses x = 0
    ys = []
    for (ax, ay), (bx, by) in zip(loop, loop[1:] + loop[:1]):
        if ax == 0.0:
            ys.append(ay)
        elif bx != 0.0 and (ax > 0.0) != (bx > 0.0):
            ys.append(ay + ax / (ax - bx) * (by - ay))
    cy = min(ys) + rng.uniform(0.08, 0.92) * (max(ys) - min(ys))

    scale = 10.0 ** rng.uniform(-2.0, 2.0) / _diameter(loop)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    shift = rng.uniform(0.0, 5.0) * _diameter(loop) * scale
    dx, dy = shift * math.cos(ang), shift * math.sin(ang)
    return {
        "vertices": [[x * scale + dx, y * scale + dy] for x, y in loop],
        "center": [dx, cy * scale + dy],
    }


def ellipse_polygon(rng: random.Random, n: int) -> list[list[float]]:
    """Random convex n-gon: stratified random points on a random ellipse."""
    a = rng.uniform(0.5, 2.0)
    b = a * rng.uniform(0.3, 1.0)
    rot = rng.uniform(0.0, math.pi)
    cr, sr = math.cos(rot), math.sin(rot)
    pts = []
    for k in range(n):
        t = 2.0 * math.pi * (k + 0.05 + 0.9 * rng.random()) / n
        x, y = a * math.cos(t), b * math.sin(t)
        pts.append([cr * x - sr * y, cr * y + sr * x])
    return pts


def regular_coords(n: int, radius: float, phase: float) -> list[list[float]]:
    step = 2.0 * math.pi / n
    return [[radius * math.cos(phase + step * k), radius * math.sin(phase + step * k)] for k in range(n)]


def _shifted(pts, dx, dy):
    return [[x + dx, y + dy] for x, y in pts]


def gauge_case(rng: random.Random, kind: str, n: int) -> dict:
    """One gauge-large ball with its query batch and its measured m-gon.

    ``kind`` is "regular" (off-center regular n-gon), "random" (off-center
    ellipse n-gon) or "centered" (regular n-gon about its own center).
    """
    radius = rng.uniform(0.5, 2.0)
    dx, dy = rng.uniform(-2.0, 2.0) * radius, rng.uniform(-2.0, 2.0) * radius
    if kind == "random":
        pts = ellipse_polygon(rng, n)
        mx = sum(p[0] for p in pts) / n
        my = sum(p[1] for p in pts) / n
        vx, vy = pts[rng.randrange(n)]
        lam = rng.uniform(0.1, 0.6)
        cx, cy = (1 - lam) * mx + lam * vx, (1 - lam) * my + lam * vy
    else:
        pts = regular_coords(n, radius, rng.uniform(0.0, 2.0 * math.pi))
        cx = cy = 0.0
        if kind == "regular":
            rho = rng.uniform(0.1, 0.6) * radius * math.cos(math.pi / n)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            cx, cy = rho * math.cos(alpha), rho * math.sin(alpha)
    queries = []
    for _ in range(GAUGE_QUERIES):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        mag = 10.0 ** rng.uniform(-1.0, 1.0)
        queries.append([mag * math.cos(ang), mag * math.sin(ang)])
    return {
        "kind": kind,
        "n": n,
        "vertices": _shifted(pts, dx, dy),
        "center": [cx + dx, cy + dy],
        "queries": queries,
        "mgon": ellipse_polygon(rng, MGON_SIDES),
        "pi_ball": kind == "centered" and n <= PI_BALL_MAX_N,
    }


def radon_case(rng: random.Random, n: int, affine: bool) -> dict:
    """Regular n-gon about the origin, or a seeded affine image of one.

    Linear maps preserve Birkhoff orthogonality, so the answer is n % 4 == 2
    for both.
    """
    pts = regular_coords(n, 1.0, rng.uniform(0.0, 2.0 * math.pi) if affine else 0.0)
    center = [0.0, 0.0]
    if affine:
        t1, t2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        s1, s2 = 10.0 ** rng.uniform(-0.4, 0.4), 10.0 ** rng.uniform(-0.4, 0.4)
        c1, d1, c2, d2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
        # R(t1) diag(s1, s2) R(t2): determinant s1 * s2 > 0 keeps the loop ccw
        m = [
            [s1 * c1 * c2 - s2 * d1 * d2, -s1 * c1 * d2 - s2 * d1 * c2],
            [s1 * d1 * c2 + s2 * c1 * d2, -s1 * d1 * d2 + s2 * c1 * c2],
        ]
        bx, by = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        pts = [[m[0][0] * x + m[0][1] * y + bx, m[1][0] * x + m[1][1] * y + by] for x, y in pts]
        center = [bx, by]
    return {"n": n, "affine": affine, "vertices": pts, "center": center}


def cli_commands(rng: random.Random) -> list[list[str]]:
    """README examples of every subcommand, the worked triangle and one seeded
    gauge query.

    ``verify`` runs at its default seed, the command the README gives for
    reproducing the paper. File arguments are the placeholders {ball} and
    {poly}; the runner writes the fixtures and substitutes their paths.
    """
    ang = rng.uniform(0.0, 2.0 * math.pi)
    mag = 10.0 ** rng.uniform(-1.0, 1.0)
    return [
        ["--seed", str(VERIFY_SEED), "verify"],
        ["table", "--which", "1"],
        ["pi-regular", "--n-min", "3", "--n-max", "100", "--form", "piecewise", "--format", "csv"],
        ["pi-offset", "--shape", "triangle", "--size", "1", "--base", "1", "--offset", "0.5773502691896258"],
        ["pi-offset", "--shape", "triangle", "--size", "1", "--base", "1", "--offset", repr(WORKED_OFFSET)],
        ["gauge", "--ball", "{ball}", "--vector", "0", "-1"],
        ["gauge", "--ball", "{ball}", "--vector", repr(mag * math.cos(ang)), repr(mag * math.sin(ang))],
        ["perimeter", "--ball", "{ball}", "--poly", "{poly}", "--format", "json"],
        ["radon", "--n", "10"],
        ["radon", "--n", "8"],
    ]


def make_inputs(workload: str, seed: int, quick: bool = False) -> dict:
    """All inputs of one workload pass. ``quick`` shrinks the pass for tests."""
    rng = _rng(seed, workload)
    if workload == "cli":
        return {
            "commands": cli_commands(rng),
            "ball": {"vertices": TRIANGLE, "center": [0.0, 0.0]},
            "poly": TRIANGLE,
        }
    if workload == "certify":
        return {"balls": [symmetric_ball(rng) for _ in range(40 if quick else CERTIFY_BALLS)]}
    if workload == "gauge-large":
        cases = []
        for n, count in OFF_CENTER_BALLS.items():
            for k in range(count):
                cases.append(gauge_case(rng, ("regular", "random")[k % 2], n))
        for n in CENTERED_SIZES:
            cases.append(gauge_case(rng, "centered", n))
        return {"cases": cases}
    if workload == "radon":
        sizes = (4, 6, 8, 10) if quick else RADON_SIZES
        return {"norms": [radon_case(rng, n, affine) for n in sizes for affine in (False, True)]}
    raise ValueError(f"unknown workload {workload!r}")
