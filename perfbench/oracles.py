"""Independent answers for every timed result, computed from the raw inputs.

Nothing here imports minkpi. The gauge comes from the support-function form
g(v) = max_i nu_i.v / nu_i.(a_i - c) over the edges of the input coordinates;
perimeters, half-perimeters and Birkhoff line minima are sums and minima of
that gauge. Tolerances are those of the acceptance suite or tighter.
"""

from __future__ import annotations

import json
import math

GAUGE_TOL = 1e-10  # suite_gauge boundary normalization
PI_TOL = 1e-9  # criteria 3, 7, 9 and 11
TABLE_REL_TOL = 1e-12  # criterion 1
WIDTH_REL_TOL = 1e-10  # widths, relative to the ball's diameter
BIRKHOFF_TOL = 1e-9  # the library's own orthogonality tolerance


class Gauge:
    """Support-function gauge of a convex ccw polygon about an interior center."""

    def __init__(self, vertices, center):
        cx, cy = center
        n = len(vertices)
        self.center = (cx, cy)
        self.directions = [(x - cx, y - cy) for x, y in vertices]
        rows = []
        for i in range(n):
            ax, ay = vertices[i]
            bx, by = vertices[(i + 1) % n]
            nx, ny = by - ay, ax - bx  # outward normal of a ccw edge
            h = nx * (ax - cx) + ny * (ay - cy)
            if not h > 0.0:
                raise ValueError("center is not strictly inside the polygon")
            rows.append((nx / h, ny / h))
        self.rows = rows

    def __call__(self, vx: float, vy: float) -> float:
        return max(px * vx + py * vy for px, py in self.rows)

    def perimeters(self, loop) -> dict:
        ccw = cw = lo = hi = 0.0
        for (ax, ay), (bx, by) in zip(loop, loop[1:] + loop[:1]):
            f, b = self(bx - ax, by - ay), self(ax - bx, ay - by)
            ccw, cw, lo, hi = ccw + f, cw + b, lo + min(f, b), hi + max(f, b)
        return {"ccw": ccw, "cw": cw, "min": lo, "max": hi}

    def self_pi(self, loop) -> float:
        """Half the counterclockwise gauge length of a closed vertex loop."""
        loop = list(loop)
        return sum(self(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(loop, loop[1:] + loop[:1])) / 2.0

    def line_min(self, x, y) -> float:
        """Exact minimum over t of g(x + t*y): the convex piecewise-linear
        function has its breaks where x + t*y is parallel to a vertex direction."""
        best = self(*x)
        for wx, wy in self.directions:
            den = y[0] * wy - y[1] * wx
            if den != 0.0:
                t = -(x[0] * wy - x[1] * wx) / den
                best = min(best, self(x[0] + t * y[0], x[1] + t * y[1]))
        return best


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def regular_loop(n: int, radius: float = 1.0, phase: float = 0.0):
    step = 2.0 * math.pi / n
    return [(radius * math.cos(phase + step * k), radius * math.sin(phase + step * k)) for k in range(n)]


def regular_pi(n: int) -> float:
    """Self-measured half-perimeter of a centered regular n-gon, by geometry."""
    loop = regular_loop(n)
    return Gauge(loop, (0.0, 0.0)).self_pi(loop)


def triangle_pi(offset_ratio: float) -> float:
    """Half-perimeter of an isosceles triangle measured from a center at
    ``offset_ratio`` of the height below the apex (independent of the base)."""
    loop = [(0.0, 1.0), (-0.5, 0.0), (0.5, 0.0)]
    return Gauge(loop, (0.0, 1.0 - offset_ratio)).self_pi(loop)


def square_pi(offset_ratio: float) -> float:
    """Unit square, center on the edge-midpoint axis at this height."""
    loop = [(-0.5, 0.0), (0.5, 0.0), (0.5, 1.0), (-0.5, 1.0)]
    return Gauge(loop, (0.0, offset_ratio)).self_pi(loop)


def family_of(n: int) -> tuple[str, float, float]:
    """Family label and value range of n by residue mod 4 (the paper's three families)."""
    if n % 4 == 0:
        return "quarter-turn", math.pi, 4.0
    if n % 2:
        return "odd-asymmetric", math.pi, 4.5
    return "radon-even", 3.0, math.pi


def chord_width(vertices, height: float) -> float:
    """Euclidean length of the horizontal chord of a convex loop at this height."""
    xs = []
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        if ay == height:
            xs.append(ax)
        if (ay - height) * (by - height) < 0.0:
            xs.append(ax + (height - ay) / (by - ay) * (bx - ax))
    return max(xs) - min(xs) if xs else 0.0


def diameter(vertices) -> float:
    return max(math.hypot(p[0] - q[0], p[1] - q[1]) for p in vertices for q in vertices)


# ---------------------------------------------------------------------------
# checkers: each takes the raw input and a plain result, and returns None when
# the result is right or a one-line reason when it is not


def check_certify(ball: dict, res: dict):
    g = Gauge(ball["vertices"], ball["center"])
    want = g.self_pi(ball["vertices"])
    if not close(res["pi"], want, PI_TOL):
        return f"pi_ball {res['pi']!r} != oracle {want!r}"
    hp = res["half_perimeter"]
    if not (3.0 - PI_TOL <= hp <= res["pi"] + PI_TOL):
        return f"certificate {hp!r} outside [3, pi_ball={res['pi']!r}]"
    hexagon = res["hexagon"]
    if not close(g.self_pi(hexagon), hp, PI_TOL):
        return f"certificate {hp!r} != oracle hexagon measure {g.self_pi(hexagon)!r}"
    sides = [g(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(hexagon, hexagon[1:] + hexagon[:1])]
    units = sum(1 for s in sides if close(s, 1.0, PI_TOL))
    if units < 4 or res["unit_side_count"] < 4:
        return f"{units} oracle unit sides, {res['unit_side_count']} reported (need 4)"
    cx, cy = ball["center"]
    for x, y in hexagon:
        if not close(g(x - cx, y - cy), 1.0, PI_TOL):
            return f"hexagon vertex ({x!r}, {y!r}) is off the boundary"
    widths = res["widths"]
    if len(widths) != 21 or widths[0] < 0.0 or widths[-1] < 0.0 or min(widths[1:-1]) <= 0.0:
        return "width profile is not positive"
    tol = WIDTH_REL_TOL * diameter(ball["vertices"])
    falling = False
    for a, b in zip(widths, widths[1:]):
        if b < a - tol:
            falling = True
        elif b > a + tol and falling:
            return "width profile is not unimodal"
    ys = [y for _, y in ball["vertices"]]
    lo, hi = min(ys), max(ys)
    want_w = [chord_width(ball["vertices"], lo + (hi - lo) * i / 20) for i in range(1, 20)]
    # the library may orient the axis either way, which reverses the profile
    for cand in (want_w, want_w[::-1]):
        if all(close(w, v, tol) for w, v in zip(widths[1:-1], cand)):
            return None
    return "width profile differs from the oracle chord widths"


def check_gauge_case(case: dict, res: dict, pi_closed=None):
    g = Gauge(case["vertices"], case["center"])
    for (vx, vy), got in zip(case["queries"], res["gauges"]):
        want = g(vx, vy)
        if not close(got, want, GAUGE_TOL):
            return f"gauge({vx!r}, {vy!r}) = {got!r}, oracle {want!r}"
    want = g.perimeters(case["mgon"])
    for key, value in want.items():
        if not close(res["perimeters"][key], value, PI_TOL):
            return f"perimeter {key} {res['perimeters'][key]!r} != oracle {value!r}"
    if case["pi_ball"]:
        geo = g.self_pi(case["vertices"])
        if not (close(res["pi"], geo, PI_TOL) and close(res["pi"], pi_closed, PI_TOL)):
            return f"pi_ball {res['pi']!r}: oracle {geo!r}, closed form {pi_closed!r}"
    return None


def check_radon(norm: dict, res: dict):
    want = norm["n"] % 4 == 2
    if res["radon"] != want:
        return f"n={norm['n']}: radon={res['radon']}, expected {want}"
    if want:
        return None
    g = Gauge(norm["vertices"], norm["center"])
    x, y = res["x"], res["y"]
    forward = g.line_min(x, y) >= g(*x) - BIRKHOFF_TOL
    backward = g.line_min(y, x) >= g(*y) - BIRKHOFF_TOL
    if not forward or backward:
        return f"n={norm['n']}: witness does not certify (forward {forward}, backward {backward})"
    return None


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def subcommand(argv: list[str]) -> str:
    return argv[2] if argv[0] == "--seed" else argv[0]


def check_cli(argv: list[str], code: int, text: str, inputs: dict):
    """Check one command's exit code and output against the paper's answers."""
    if code != 0:
        return f"exit code {code}"
    sub = subcommand(argv)
    if sub == "verify":
        return None if "OK: 18/18 checks passed" in text else "verify did not pass 18/18"
    if sub in ("table", "pi-regular"):
        rows = _csv(text)
        span = range(3, 11) if sub == "table" else range(3, 101)
        if [int(r[0]) for r in rows] != list(span):
            return f"{sub}: wrong rows"
        for r in rows:
            n, value, label = int(r[0]), float(r[1]), r[2]
            want = regular_pi(n)
            tol = TABLE_REL_TOL * want if sub == "table" else PI_TOL
            fam, low, high = family_of(n)
            if not close(value, want, tol) or label != fam or not (low - 1e-12 <= value <= high + 1e-12):
                return f"{sub}: n={n} gives {value!r} {label}, oracle {want!r} {fam}"
        return None
    if sub == "pi-offset":
        offset = float(argv[argv.index("--offset") + 1])
        ratio = offset / math.sqrt(0.75)
        paper = 4.5 if abs(ratio - 2.0 / 3.0) < 1e-12 else 5.0
        want = triangle_pi(ratio)
        row = _csv(text)[0]
        pi, geo = float(row[4]), float(row[5])
        if not (close(want, paper, PI_TOL) and close(pi, want, PI_TOL) and close(geo, want, PI_TOL)):
            return f"pi-offset: pi {pi!r}, geometric {geo!r}, oracle {want!r}, paper {paper}"
        return None
    if sub == "gauge":
        ball = inputs["ball"]
        k = argv.index("--vector")
        vx, vy = float(argv[k + 1]), float(argv[k + 2])
        want = Gauge(ball["vertices"], ball["center"])(vx, vy)
        if (vx, vy) == (0.0, -1.0) and not close(want, 2.0, GAUGE_TOL):  # the README's answer
            return f"oracle gauge of (0, -1) is {want!r}, README says 2"
        got = float(text)
        return None if close(got, want, GAUGE_TOL) else f"gauge printed {got!r}, oracle {want!r}"
    if sub == "perimeter":
        got = json.loads(text)
        ball = inputs["ball"]
        want = Gauge(ball["vertices"], ball["center"]).perimeters(inputs["poly"])
        bad = [k for k in want if not close(got[k], want[k], PI_TOL)]
        return f"perimeter {bad} differ from the oracle" if bad else None
    if sub == "radon":
        n = int(argv[argv.index("--n") + 1])
        got = json.loads(text)
        res = {"radon": got["radon"]}
        if got["witness"] is not None:
            res.update(x=got["witness"]["x"], y=got["witness"]["y"])
        elif not got["radon"]:
            return "radon: non-Radon answer without a witness"
        loop = regular_loop(n)
        return check_radon({"n": n, "vertices": loop, "center": (0.0, 0.0)}, res)
    return f"no checker for {sub}"
