"""Self-verification: acceptance checks and randomized invariant suites.

Each check returns a ``CheckResult`` so the command line front end can print
one pass/fail line per check and exit nonzero on any failure. The same
functions back the pytest acceptance module. All randomized checks are
seeded and deterministic; each builds its own ``random.Random`` from the
seed, so ``run_all`` can run them in separate worker processes.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from . import birkhoff as bk
from . import geom2d as g2
from . import offset_shapes as ofs
from . import perimeter as pm
from . import regular_pi as rp
from .errors import NotSymmetricBall
from .gauge import Ball, gauge, symmetrize_hull, symmetrize_intersection
from .geom2d import Vec2
from .sampling import random_ball, random_symmetric_ball, random_symmetric_polygon


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by run_all
    # sample counts and margins, by name; left out of the hash, which a dict has not
    counts: dict = field(default_factory=dict, hash=False)


def _check(name: str, failures: list[str], detail_ok: str, counts: dict | None = None) -> CheckResult:
    detail = "; ".join(failures[:4]) if failures else detail_ok
    return CheckResult(name, not failures, detail, counts=counts or {})


# the reference half-perimeter table for n = 3..10 (numeric column)
TABLE1 = {
    3: 4.5,
    4: 4.0,
    5: 3.454915028125262879488532914085904706,
    6: 3.0,
    7: 3.286503763716470257372386327536920665,
    8: 3.313708498984760390413509793677584628,
    9: 3.225966377139231493977618069073666967,
    10: 3.090169943749474241022934171828190589,
}

# Beraha constants for n = 1..10 (algebraic values)
TABLE3 = {
    1: 4.0,
    2: 0.0,
    3: 1.0,
    4: 2.0,
    5: (1.0 + math.sqrt(5.0)) / 2.0 + 1.0,
    6: 3.0,
    7: 2.0 + 2.0 * math.cos(2.0 * math.pi / 7.0),
    8: 2.0 + math.sqrt(2.0),
    9: 2.0 + 2.0 * math.cos(2.0 * math.pi / 9.0),
    10: (1.0 + math.sqrt(5.0)) / 2.0 + 2.0,
}


def criterion_table1() -> CheckResult:
    """1: closed form reproduces the n=3..10 reference values to 1e-12 relative."""
    bad = []
    for n, want in TABLE1.items():
        got = rp.pi_n_closed(n)
        if abs(got - want) > 1e-12 * abs(want):
            bad.append(f"n={n}: {got!r} vs {want!r}")
    return _check("table-1 reproduction", bad, "n=3..10 match to 1e-12 relative")


def criterion_form_equivalence() -> CheckResult:
    """2: all six closed forms agree pairwise within 1e-11 for n = 3..200."""
    bad = []
    for n in range(3, 201):
        vals = [
            rp.pi_n_max_form(n),
            rp.pi_n_closed(n),
            rp.pi_n_piecewise(n),
            rp.pi_n_beraha(n),
            rp.pi_n_circle(n)[1],
            rp.pi_n_side_relation(n),
        ]
        if max(vals) - min(vals) > 1e-11:
            bad.append(f"n={n}: spread {max(vals) - min(vals):.2e}")
    return _check("form equivalence", bad, "six forms agree within 1e-11 for n=3..200")


def criterion_geometry_algebra() -> CheckResult:
    """3: geometric self-measurement matches the closed form within 1e-9 for n=3..60."""
    bad = []
    residual = 0.0  # the worst |pi_ball - closed form|
    for n in range(3, 61):
        ball = Ball(g2.regular_polygon(n, 1.0, math.pi / (2 * n)), Vec2(0.0, 0.0))
        geom = pm.pi_ball(ball)
        alg = rp.pi_n_closed(n)
        err = abs(geom - alg)
        residual = max(residual, err)
        if err > 1e-9:
            bad.append(f"n={n}: |{geom}-{alg}|")
    counts = {"max_residual": residual}
    return _check("geometry vs algebra", bad, "pi_ball = closed form within 1e-9 for n=3..60", counts)


def criterion_family_ranges() -> CheckResult:
    """4: range membership plus monotone convergence of the three subsequences."""
    bad = []
    vals = {n: rp.pi_n_piecewise(n) for n in range(3, 205)}
    for n in range(3, 201):
        fam = rp.classify_family(n)
        if not fam.contains(vals[n], tol=1e-12):
            bad.append(f"n={n} outside {fam.kind.value} range")
        if not (3.0 - 1e-12 <= vals[n] <= 4.5 + 1e-12):
            bad.append(f"n={n} outside [3, 4.5]")
    for n in range(4, 197, 4):  # quarter-turn: decreasing, above pi
        if not (vals[n] > vals[n + 4] > math.pi):
            bad.append(f"4m not decreasing at n={n}")
    for n in range(3, 199, 2):  # odd: decreasing, above pi
        if not (vals[n] > vals[n + 2] > math.pi):
            bad.append(f"odd not decreasing at n={n}")
    for n in range(6, 195, 4):  # Radon family: increasing, below pi
        if not (vals[n] < vals[n + 4] < math.pi):
            bad.append(f"4m+2 not increasing at n={n}")
    return _check("family ranges and limits", bad, "ranges hold, subsequences monotone toward pi")


def criterion_viete() -> CheckResult:
    """5: nested radical agrees with the piecewise form to 1e-12, limit hits pi."""
    bad = []
    for m in range(2, 21):
        diff = abs(rp.viete_pi(m) - rp.pi_n_piecewise(2**m))
        if diff > 1e-12:
            bad.append(f"m={m}: {diff:.2e}")
    tail = abs(rp.viete_pi(20) - math.pi)
    if tail > 1e-10:
        bad.append(f"|viete(20)-pi|={tail:.2e}")
    return _check("viete formula", bad, f"m=2..20 agree; |viete(20)-pi|={tail:.1e}")


def _geometric_slope_sign_change(build: Callable[[float], Ball], at: float, delta: float) -> bool:
    # half-perimeter slope measured geometrically on both sides of a minimum
    left = pm.pi_ball(build(at - delta))
    mid = pm.pi_ball(build(at))
    right = pm.pi_ball(build(at + delta))
    return left > mid and right > mid


def criterion_offset_minima() -> CheckResult:
    """6: triangle, square, hexagon minima by closed form, derivative sign, geometry."""
    bad = []
    h = 1.0
    d0, v0 = ofs.isosceles_minimum()
    if abs(ofs.pi_isosceles(h, d0 * h).pi - v0) > 1e-12 or v0 != 4.5 or d0 != 2.0 / 3.0:
        bad.append("triangle closed-form minimum")
    fprime = lambda d: h / (2.0 * (h - d) ** 2) - 2.0 * h / d**2
    if not (fprime(d0 - 0.01) < 0.0 < fprime(d0 + 0.01)) or abs(fprime(d0)) > 1e-12:
        bad.append("triangle derivative sign change")
    tri = lambda d: ofs.build_offset_ball(
        ofs.OffsetShapeSpec(ofs.ShapeKind.TRIANGLE, ofs.AxisConfig.A, 1.0, d, base=1.0)
    )
    troot = math.sqrt(1.0 - 0.25)  # height of the (a=1, b=1) triangle
    if abs(pm.pi_ball(tri(2.0 * troot / 3.0)) - 4.5) > 1e-9:
        bad.append("triangle geometric minimum")
    if not _geometric_slope_sign_change(tri, 2.0 * troot / 3.0, 0.02):
        bad.append("triangle geometric sign change")

    for config, expect_off in ((ofs.AxisConfig.A, 0.5), (ofs.AxisConfig.B, 1.0 / math.sqrt(2.0))):
        off, val = ofs.square_minimum(1.0, config)
        if abs(off - expect_off) > 1e-15 or val != 4.0:
            bad.append(f"square {config.value} minimum location")
        if abs(ofs.pi_square(1.0, off, config).pi - 4.0) > 1e-12:
            bad.append(f"square {config.value} closed-form value")
        sq = lambda d, c=config: ofs.build_offset_ball(
            ofs.OffsetShapeSpec(ofs.ShapeKind.SQUARE, c, 1.0, d)
        )
        if abs(pm.pi_ball(sq(off)) - 4.0) > 1e-9:
            bad.append(f"square {config.value} geometric value")
        if not _geometric_slope_sign_change(sq, off, 0.02):
            bad.append(f"square {config.value} geometric sign change")
        step = 0.01
        dnum = lambda d, c=config: (
            ofs.pi_square(1.0, d + step, c).pi - ofs.pi_square(1.0, d - step, c).pi
        ) / (2 * step)
        if not (dnum(off - 0.05) < 0.0 < dnum(off + 0.05)):
            bad.append(f"square {config.value} closed-form sign change")

    hex_builders = {
        ofs.AxisConfig.A: lambda d: Ball(
            g2.regular_polygon(6, 1.0, 0.0), Vec2(0.0, d - math.sqrt(3.0) / 2.0)
        ),
        ofs.AxisConfig.B: lambda d: Ball(
            g2.regular_polygon(6, 1.0, math.pi / 2.0), Vec2(0.0, d - 1.0)
        ),
    }
    for config in (ofs.AxisConfig.A, ofs.AxisConfig.B):
        off, val = ofs.hexagon_minimum(1.0, config)
        if abs(ofs.pi_hexagon(1.0, off, config).pi - 3.0) > 1e-12 or val != 3.0:
            bad.append(f"hexagon {config.value} closed-form value")
        # the closed form decreases all the way to its endpoint minimum
        step = 1e-4
        left = (
            ofs.pi_hexagon(1.0, off - step, config).pi - ofs.pi_hexagon(1.0, off - 3 * step, config).pi
        )
        if not left < 0.0:
            bad.append(f"hexagon {config.value} closed form not decreasing at endpoint")
        # past the hexagon center the configuration mirrors, so the geometric
        # half-perimeter shows a genuine sign change across the minimum
        hx = hex_builders[config]
        if abs(pm.pi_ball(hx(off)) - 3.0) > 1e-9:
            bad.append(f"hexagon {config.value} geometric value")
        if not _geometric_slope_sign_change(hx, off, 0.02):
            bad.append(f"hexagon {config.value} geometric sign change")
    return _check("offset minima", bad, "all five minima confirmed three ways")


def criterion_offset_worked_example() -> CheckResult:
    """7: triangle with the center 4h/5 below the apex, closed form and geometric."""
    bad = []
    res = ofs.pi_isosceles(1.0, 0.8)
    if abs(res.pi - 5.0) > 1e-12:
        bad.append(f"closed-form pi {res.pi}")
    if any(
        abs(g - w) > 1e-12 for g, w in zip(sorted(res.side_gauges), (2.5, 2.5, 5.0))
    ):
        bad.append(f"side gauges {res.side_gauges}")
    spec = ofs.OffsetShapeSpec(ofs.ShapeKind.TRIANGLE, ofs.AxisConfig.A, 1.0, 0.8 * math.sqrt(0.75), base=1.0)
    ball = ofs.build_offset_ball(spec)
    rep = pm.measure_perimeters(ball, ball.shape)
    for got, want, label in (
        (rep.ccw, 10.0, "ccw"),
        (rep.cw, 10.0, "cw"),
        (rep.max_sum, 12.5, "max"),
        (rep.min_sum, 7.5, "min"),
        (pm.pi_ball(ball), 5.0, "pi"),
    ):
        if abs(got - want) > 1e-9:
            bad.append(f"geometric {label}: {got}")
    gauges = sorted(gauge(ball, b - a) for a, b in ball.shape.edges())
    if any(abs(g - w) > 1e-9 for g, w in zip(gauges, (2.5, 2.5, 5.0))):
        bad.append(f"geometric gauges {gauges}")
    return _check("worked offset example", bad, "perimeters 10/12.5/7.5, gauges {5/2, 5, 5/2}")


def criterion_radon_classification() -> CheckResult:
    """8: among regular n-gons (n=4..30) exactly the 4m+2 ones are Radon."""
    bad = []
    for n in range(4, 31):
        ball = Ball(g2.regular_polygon(n, 1.0, 0.0), Vec2(0.0, 0.0))
        if n % 2 == 1:
            try:
                bk.is_radon(ball)
                bad.append(f"n={n}: asymmetric ball accepted")
            except NotSymmetricBall:
                pass  # odd polygons induce no norm at all
            continue
        witness = bk.radon_witness(ball)
        if n % 4 == 2:
            if witness is not None:
                bad.append(f"n={n}: unexpected witness")
        else:
            if witness is None:
                bad.append(f"n={n}: no witness")
            else:
                fwd = bk.birkhoff_orthogonal(ball, witness.x, witness.y)
                bwd = bk.birkhoff_orthogonal(ball, witness.y, witness.x)
                if not (fwd and not bwd):
                    bad.append(f"n={n}: witness does not certify")
    return _check("radon classification", bad, "is_radon iff n = 4m+2, witnesses certified")


def criterion_lower_bound(seed: int = 0, count: int = 500) -> CheckResult:
    """9: seeded random axis-symmetric balls all have pi_ball >= 3, hexagon certifies."""
    rng = random.Random(seed)
    pi_bad = bracket_bad = unit_bad = unit_chain = 0
    worst = margin = float("inf")
    for i in range(count):
        ball = random_symmetric_ball(rng)
        p = pm.pi_ball(ball)
        worst = min(worst, p)
        if p < 3.0 - 1e-9:
            pi_bad += 1
            continue
        bound = pm.inscribed_hexagon_bound(ball)
        margin = min(margin, bound.half_perimeter - 3.0)
        unit_chain += bound.route == "unit-chain"
        if not (3.0 - 1e-9 <= bound.half_perimeter <= p + 1e-9):
            bracket_bad += 1
        if bound.unit_side_count < 4:
            unit_bad += 1
    detail = (
        f"{count} balls: min pi_ball={worst:.6f}, pi>=3 violations {pi_bad}, "
        f"bracket violations {bracket_bad}, balls with <4 unit sides {unit_bad}"
    )
    passed = pi_bad == 0 and bracket_bad == 0 and unit_bad == 0
    counts = {"balls": count, "unit_chain": unit_chain, "min_pi_ball": worst, "min_margin": margin}
    return CheckResult("general lower bound", passed, detail, counts=counts)


def criterion_unboundedness() -> CheckResult:
    """10: the triangle half-perimeter exceeds any bound as the center nears the apex."""
    val = ofs.pi_isosceles(1.0, 1e-6).pi
    ok = val > 1e6
    return CheckResult("unboundedness witness", ok, f"pi at offset 1e-6 is {val:.3e}")


def criterion_perimeter_chain(seed: int = 0, count: int = 200) -> CheckResult:
    """11: hull <= min <= ccw/cw <= max = intersection, and ccw = cw, on random pairs."""
    rng = random.Random(seed + 1)
    bad = []
    tol = 1e-9
    residual = 0.0  # the worst excess over the chain's inequalities and equalities
    for i in range(count):
        ball = random_symmetric_ball(rng)
        poly = random_symmetric_polygon(rng, 6, 40)
        rep = pm.measure_perimeters(ball, poly)
        mu_hull = pm.measure_perimeters(symmetrize_hull(ball), poly).ccw
        mu_int = pm.measure_perimeters(symmetrize_intersection(ball), poly).ccw
        residual = max(
            residual,
            mu_hull - rep.min_sum,
            rep.min_sum - min(rep.ccw, rep.cw),
            max(rep.ccw, rep.cw) - rep.max_sum,
            abs(rep.max_sum - mu_int),
            abs(rep.ccw - rep.cw),
        )
        chain = (
            mu_hull <= rep.min_sum + tol
            and rep.min_sum <= min(rep.ccw, rep.cw) + tol
            and max(rep.ccw, rep.cw) <= rep.max_sum + tol
            and abs(rep.max_sum - mu_int) <= tol
        )
        if not chain:
            bad.append(f"pair {i}: chain broken")
        if abs(rep.ccw - rep.cw) > tol:
            bad.append(f"pair {i}: ccw != cw")
    counts = {"pairs": count, "max_residual": residual}
    return _check("perimeter chain", bad, f"{count} pairs satisfy the sandwich inequalities", counts)


def criterion_golab_range() -> CheckResult:
    """12: centered regular polygons with even n stay inside [3, 4]."""
    bad = []
    for n in range(4, 201, 2):
        v = rp.pi_n_piecewise(n)
        if not (3.0 - 1e-12 <= v <= 4.0 + 1e-12):
            bad.append(f"n={n}: {v}")
    return _check("golab sanity", bad, "even n in 4..200 give values in [3, 4]")


# ---------------------------------------------------------------------------
# module invariant suites


def suite_geom2d(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 2)
    bad = []
    for i in range(50):
        pts = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(3, 25))]
        try:
            hull = g2.convex_hull(pts)
        except g2.DegenerateInput:
            continue
        again = g2.convex_hull(list(hull.vertices))
        if not g2.vertex_sets_equal(hull.vertices, again.vertices, 1e-12):
            bad.append(f"hull idempotence {i}")
        if not all(hull.contains(p, 1e-12) for p in pts):
            bad.append(f"hull containment {i}")
    for i in range(30):
        p = random_symmetric_polygon(rng, 4, 20)
        q = random_symmetric_polygon(rng, 4, 20)
        try:
            pq = g2.intersect_convex(p, q)
            qp = g2.intersect_convex(q, p)
        except g2.EmptyIntersection:
            continue
        if not g2.vertex_sets_equal(pq.vertices, qp.vertices, 1e-10):
            bad.append(f"intersection commutativity {i}")
        lengths = p.edge_length_multiset()
        for img in (g2.negate(p), g2.reflect(p, g2.Axis(Vec2(0, 0), Vec2(0, 1)))):
            if any(abs(u - v) > 1e-12 for u, v in zip(lengths, img.edge_length_multiset())):
                bad.append(f"isometry edge lengths {i}")
    for n in range(3, 13):
        if len(g2.symmetry_axes(g2.regular_polygon(n, 1.0, 0.3))) != n:
            bad.append(f"axes count n={n}")
    return _check("geom2d invariants", bad, "hulls, clipping, isometries, axes")


def suite_gauge(seed: int = 0, triangle_count: int = 10_000) -> CheckResult:
    rng = random.Random(seed + 3)
    bad = []
    balls = [random_ball(rng) for _ in range(40)]
    for i in range(triangle_count):
        ball = balls[i % len(balls)]
        u = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if gauge(ball, u + v) > gauge(ball, u) + gauge(ball, v) + 1e-9:
            bad.append(f"triangle inequality case {i}")
            break
    for i in range(500):
        ball = balls[i % len(balls)]
        v = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if v.is_zero():
            continue
        alpha = rng.uniform(1e-3, 50.0)
        if abs(gauge(ball, v * alpha) - alpha * gauge(ball, v)) > 1e-12 * max(
            1.0, alpha * gauge(ball, v)
        ):
            bad.append(f"homogeneity case {i}")
            break
    for ball in balls[:20]:
        for a, b in ball.shape.edges():
            mid = a + (b - a) * 0.5
            for p in (a, mid):
                if abs(gauge(ball, p - ball.center) - 1.0) > 1e-10:
                    bad.append("boundary normalization")
    for i in range(200):
        ball = balls[i % len(balls)]
        inner = symmetrize_intersection(ball)
        outer = symmetrize_hull(ball)
        v = Vec2(math.cos(i * 0.1), math.sin(i * 0.1))
        gi, go = gauge(inner, v), gauge(outer, v)
        gf, gb = gauge(ball, v), gauge(ball, -v)
        slack = 1e-10 * max(1.0, gi)  # clipping a thin ball rounds relative to its gauge
        if go > min(gf, gb) + slack or abs(gi - max(gf, gb)) > slack:
            bad.append(f"symmetric sandwich case {i}")
            break
        if go > gf + slack or gf > gi + slack:  # containment monotonicity
            bad.append(f"containment monotonicity case {i}")
            break
    return _check("gauge invariants", bad, "subadditive, homogeneous, sandwiched")


def suite_perimeter(seed: int = 0, width_count: int = 1000) -> CheckResult:
    rng = random.Random(seed + 4)
    bad = []
    samples = 21
    thinnest = float("inf")  # the smallest interior width over the ball's extent
    for i in range(width_count):
        ball = random_symmetric_ball(rng, 6, 40)
        prof = pm.width_profile(ball, samples)
        widths = prof.widths()
        thinnest = min(thinnest, min(widths[1:-1]) / g2._extent(ball._rel))
        if widths[0] < -1e-12 or any(w <= 0.0 for w in widths[1:-1]):
            bad.append(f"width positivity {i}")
        rising = True
        for a, b in zip(widths, widths[1:]):
            if b > a + 1e-9 and not rising:
                bad.append(f"width unimodality {i}")
                break
            if b < a - 1e-9:
                rising = False
    for i in range(50):
        ball = random_symmetric_ball(rng)
        poly = random_symmetric_polygon(rng, 6, 30)
        if pm.shared_axis(ball, poly) is None:
            bad.append(f"shared axis missing {i}")
            continue
        rep = pm.measure_perimeters(ball, poly)
        if abs(rep.ccw - rep.cw) > 1e-9:
            bad.append(f"axis equality {i}")
        sym = symmetrize_intersection(ball)
        rep_sym = pm.measure_perimeters(sym, poly)
        if abs(rep_sym.min_sum - rep_sym.max_sum) > 1e-9:
            bad.append(f"symmetric min=max {i}")
        scale = rng.uniform(0.3, 4.0)
        pi = pm.pi_ball(ball)
        if abs(pm.pi_ball(ball.scaled(scale)) - pi) > 1e-10 * max(1.0, pi):
            bad.append(f"scale invariance {i}")
    for i in range(30):  # inscription monotonicity on shrunken copies
        ball = random_symmetric_ball(rng)
        outer = random_symmetric_polygon(rng, 6, 30)
        c = outer.centroid()
        inner = g2.ConvexPolygon([c + (v - c) * 0.6 for v in outer.vertices])
        if (
            pm.measure_perimeters(ball, inner).ccw
            > pm.measure_perimeters(ball, outer).ccw + 1e-9
        ):
            bad.append(f"inscription monotonicity {i}")
    counts = {"profiles": width_count, "samples": samples, "min_interior_width": thinnest}
    return _check("perimeter invariants", bad, "widths unimodal, axis equality, inscription", counts)


def suite_regular_pi() -> CheckResult:
    bad = []
    for n, want in TABLE3.items():  # Beraha constants against their algebraic forms
        if abs(rp.beraha(n) - want) > 1e-14:
            bad.append(f"beraha({n})")
    for n in range(3, 201):
        a, b, c = rp.pi_n_max_form(n), rp.pi_n_closed(n), rp.pi_n_piecewise(n)
        if abs(a - b) > 1e-12 or abs(b - c) > 1e-12:
            bad.append(f"triple agreement n={n}")
        argmax = rp.max_form_argmax(n)
        if min(argmax) != rp.subtended_sides(n):
            bad.append(f"argmax family n={n}")
    for n in range(11, 201):
        # the 4m branch approaches pi like (pi^3/3)/n^2 with pi^3/3 = 10.335,
        # so its constant must sit above 10; the other branches fit under 10
        limit = 10.7 if n % 4 == 0 else 10.0
        if abs(rp.pi_n_piecewise(n) - math.pi) >= limit / n**2:
            bad.append(f"limit rate n={n}")
    for n in range(8, 200):
        here = rp.pi_n_piecewise(n)
        local_min = here < rp.pi_n_piecewise(n - 1) and here < rp.pi_n_piecewise(n + 1)
        if local_min != (n % 4 == 2):
            bad.append(f"oscillation n={n}")
    return _check("regular-pi invariants", bad, "triple agreement, limit rate, period-4 dips")


def suite_offset(seed: int = 0, per_shape: int = 200) -> CheckResult:
    rng = random.Random(seed + 5)
    bad = []
    cases = [
        (ofs.ShapeKind.TRIANGLE, ofs.AxisConfig.A),
        (ofs.ShapeKind.SQUARE, ofs.AxisConfig.A),
        (ofs.ShapeKind.SQUARE, ofs.AxisConfig.B),
        (ofs.ShapeKind.HEXAGON, ofs.AxisConfig.A),
        (ofs.ShapeKind.HEXAGON, ofs.AxisConfig.B),
    ]
    for shape, config in cases:
        for i in range(per_shape):
            size = rng.uniform(0.5, 3.0)
            if shape is ofs.ShapeKind.TRIANGLE:
                base = rng.uniform(0.2, 1.9) * size
                height = math.sqrt(size**2 - base**2 / 4.0)
                offset = rng.uniform(0.05, 0.95) * height
                spec = ofs.OffsetShapeSpec(shape, config, size, offset, base=base)
            else:
                lo, hi, _ = ofs._offset_interval(shape, config, size)
                offset = lo + rng.uniform(0.05, 0.95) * (hi - lo)
                spec = ofs.OffsetShapeSpec(shape, config, size, offset)
            closed = ofs.closed_form_pi(spec).pi
            geom = pm.pi_ball(ofs.build_offset_ball(spec))
            if abs(closed - geom) > 1e-9:
                bad.append(f"{shape.value}/{config.value} case {i}: {closed} vs {geom}")
                break
    floors = [
        (4.5, 1.0, lambda d: ofs.pi_isosceles(1.0, d).pi),
        (4.0, 1.0, lambda d: ofs.pi_square(1.0, d, ofs.AxisConfig.A).pi),
        (4.0, math.sqrt(2.0), lambda d: ofs.pi_square(1.0, d, ofs.AxisConfig.B).pi),
        (3.0, math.sqrt(3.0) / 2.0, lambda d: ofs.pi_hexagon(1.0, d, ofs.AxisConfig.A).pi),
        (3.0, 1.0, lambda d: ofs.pi_hexagon(1.0, d, ofs.AxisConfig.B).pi),
    ]
    for floor, span, f in floors:  # dense sweeps of the valid offset interval
        if any(f(span * i / 400) < floor - 1e-12 for i in range(1, 400)):
            bad.append(f"floor {floor} violated")
    grid = [i / 300 for i in range(1, 300)]
    for a, b in zip(grid, grid[1:]):  # triangle decreases before 2/3, increases after
        fa, fb = ofs.pi_isosceles(1.0, a).pi, ofs.pi_isosceles(1.0, b).pi
        if b <= 2.0 / 3.0 and not fb < fa:
            bad.append(f"triangle not decreasing at {b}")
        if a >= 2.0 / 3.0 and not fb > fa:
            bad.append(f"triangle not increasing at {a}")
    for d in (0.3, 0.5, 0.55, 0.9):
        spec = ofs.OffsetShapeSpec(ofs.ShapeKind.TRIANGLE, ofs.AxisConfig.A, 1.0, d * math.sqrt(0.75), base=1.0)
        ball = ofs.build_offset_ball(spec)
        rep = pm.measure_perimeters(ball, ball.shape)
        split = rep.max_sum - rep.min_sum
        if abs(d - 2 / 3) > 0.02 and split <= 1e-9:
            bad.append(f"min/max did not split at offset ratio {d}")
    spec0 = ofs.OffsetShapeSpec(
        ofs.ShapeKind.TRIANGLE, ofs.AxisConfig.A, 1.0, (2 / 3) * math.sqrt(0.75), base=1.0
    )
    rep0 = pm.measure_perimeters(ofs.build_offset_ball(spec0), ofs.build_offset_ball(spec0).shape)
    if abs(rep0.max_sum - rep0.min_sum) > 1e-9:
        bad.append("min/max split at the minimum")
    for shape, config in cases:
        for target in (3.3, 4.1, 4.6, 5.5, 9.0):
            minimum = {"triangle": 4.5, "square": 4.0, "hexagon": 3.0}[shape.value]
            if target < minimum:
                continue
            f = ofs._closed_form(shape, config, 1.0)
            for root in ofs.solve_offset_for_pi(shape, config, target, 1.0):
                if abs(f(root) - target) > 1e-9:
                    bad.append(f"solver roundtrip {shape.value}/{config.value} at {target}")
    return _check("offset invariants", bad, "closed = geometric, floors, branches, solver")


def suite_birkhoff(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 6)
    bad = []
    for n in (6, 10, 14):  # wedge angles at the vertices of Radon polygons
        poly = g2.regular_polygon(n, 1.0, 0.0)
        ball = Ball(poly, Vec2(0.0, 0.0))
        vs = poly.vertices
        for i in range(n):
            e_prev = (vs[i] - vs[i - 1]).normalized()
            e_next = (vs[(i + 1) % n] - vs[i]).normalized()
            wedge = math.acos(max(-1.0, min(1.0, e_prev.dot(e_next))))
            if abs(wedge - 2.0 * math.pi / n) > 1e-9:
                bad.append(f"wedge angle n={n}")
            inside = bk.birkhoff_orthogonal(ball, vs[i], (e_prev + e_next).normalized())
            if not inside:
                bad.append(f"cone interior direction rejected n={n} vertex {i}")
    square = Ball(g2.regular_polygon(4, math.sqrt(2.0), math.pi / 4.0), Vec2(0.0, 0.0))
    for i in range(100):  # scaling invariance
        x = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if x.is_zero() or y.is_zero():
            continue
        base = bk.birkhoff_orthogonal(square, x, y)
        scaled = bk.birkhoff_orthogonal(square, x * rng.uniform(0.1, 9.0), y * rng.uniform(0.1, 9.0))
        if base != scaled:
            bad.append(f"homogeneity case {i}")
            break
    disc = Ball(g2.regular_polygon(64, 1.0, 0.0), Vec2(0.0, 0.0))
    step = 2.0 * math.pi / 64.0
    for k in range(16):  # near-disc: orthogonality tracks the Euclidean one
        ang = 0.13 + k * 0.39
        x = Vec2(math.cos(ang), math.sin(ang))
        perp = x.perp()
        if not bk.birkhoff_orthogonal(disc, x, perp, tol=2e-3):
            bad.append(f"euclidean sanity perp k={k}")
        skew = Vec2(
            math.cos(ang + math.pi / 2 + 2.5 * step), math.sin(ang + math.pi / 2 + 2.5 * step)
        )
        if bk.birkhoff_orthogonal(disc, x, skew, tol=1e-4):
            bad.append(f"euclidean sanity skew k={k}")
    return _check("birkhoff invariants", bad, "wedges, homogeneity, euclidean limit")


CRITERIA: list[tuple[str, Callable[..., CheckResult]]] = [
    ("1", criterion_table1),
    ("2", criterion_form_equivalence),
    ("3", criterion_geometry_algebra),
    ("4", criterion_family_ranges),
    ("5", criterion_viete),
    ("6", criterion_offset_minima),
    ("7", criterion_offset_worked_example),
    ("8", criterion_radon_classification),
    ("9", criterion_lower_bound),
    ("10", criterion_unboundedness),
    ("11", criterion_perimeter_chain),
    ("12", criterion_golab_range),
]

SUITES: list[Callable[..., CheckResult]] = [
    suite_geom2d,
    suite_gauge,
    suite_perimeter,
    suite_regular_pi,
    suite_offset,
    suite_birkhoff,
]


# the checks that take the seed; every other check takes no argument
SEEDED = {
    criterion_lower_bound,
    criterion_perimeter_chain,
    suite_geom2d,
    suite_gauge,
    suite_perimeter,
    suite_offset,
    suite_birkhoff,
}


def _checks() -> list[tuple[str, Callable[..., CheckResult]]]:
    """(name prefix, check) for every criterion, then every suite: the ledger order."""
    return [(f"criterion {label}: ", fn) for label, fn in CRITERIA] + [("", fn) for fn in SUITES]


def worker_count() -> int:
    """Worker processes ``run_all`` uses: one per usable core, at most one per check."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(len(_checks()), cores)


# the slowest checks, submitted to the pool first so that none of them starts
# last; the other checks follow in ledger order
SLOWEST_FIRST = (suite_perimeter, criterion_lower_bound, criterion_perimeter_chain)


def _submission_order() -> list[int]:
    """Ledger indices in the order ``run_all`` submits them to its pool."""
    fns = [fn for _, fn in _checks()]
    first = [fns.index(fn) for fn in SLOWEST_FIRST if fn in fns]
    return first + [i for i in range(len(fns)) if i not in first]


def _run_check(index: int, seed: int) -> tuple[str, bool, str, float, dict]:
    """Run and time check ``index`` of the ledger in a worker process; the
    result goes back to ``run_all`` as plain data."""
    prefix, fn = _checks()[index]
    t0 = perf_counter()
    res = fn(seed) if fn in SEEDED else fn()
    return prefix + res.name, res.passed, res.detail, perf_counter() - t0, res.counts


def run_all(seed: int = 0) -> list[CheckResult]:
    """Every acceptance criterion followed by every module invariant suite.

    The checks run in ``worker_count()`` worker processes, all of which have
    exited when this returns or raises. The ``SLOWEST_FIRST`` checks are
    submitted first; the results come back in ledger order. Each result's
    ``seconds`` is its check's own wall time in its worker, so with more than
    one worker the checks' seconds add up to more than the wall time of the
    call. A check that raises makes this raise the same exception.
    """
    # imported here, not at module level: the pool machinery adds about 1.3 MB
    # to every process that imports this module, as every minkpi command does
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked workers skip a fresh import of minkpi and see this process's
    # modules as they are; the executor forks them before it starts a thread
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(worker_count(), mp_context=multiprocessing.get_context(method)) as pool:
        futures = {i: pool.submit(_run_check, i, seed) for i in _submission_order()}
        return [CheckResult(*futures[i].result()) for i in range(len(futures))]
