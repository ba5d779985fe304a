"""The four workloads: set-up that turns inputs into minkpi objects, the ops of
one pass, and the conversion of each op's result into plain data for the
oracles. Also the direct calls of the traced run's layer probe.

Every call into minkpi goes through ``Tracer.wrap``, which returns the
function itself when tracing is off, so untraced runs time the library alone.
"""

from __future__ import annotations

import json
import math
import os

import oracles
from inputs import GAUGE_SIZES, VERIFY_SEED

# the 18 checks of `minkpi verify`, called directly in the layer probe
VERIFY_FUNCS = (
    "criterion_table1",
    "criterion_form_equivalence",
    "criterion_geometry_algebra",
    "criterion_family_ranges",
    "criterion_viete",
    "criterion_offset_minima",
    "criterion_offset_worked_example",
    "criterion_radon_classification",
    "criterion_lower_bound",
    "criterion_unboundedness",
    "criterion_perimeter_chain",
    "criterion_golab_range",
    "suite_geom2d",
    "suite_gauge",
    "suite_perimeter",
    "suite_regular_pi",
    "suite_offset",
    "suite_birkhoff",
)
# checks that take a seed; the probe passes verify's default seed, as the cli
# workload's `verify` command does
SEEDED = {"criterion_lower_bound", "criterion_perimeter_chain"} | {
    f for f in VERIFY_FUNCS if f.startswith("suite_") and f != "suite_regular_pi"
}
# smaller sample counts for the benchmark's own tests
QUICK_COUNTS = {
    "criterion_lower_bound": {"count": 20},
    "criterion_perimeter_chain": {"count": 20},
    "suite_gauge": {"triangle_count": 200},
    "suite_perimeter": {"width_count": 20},
    "suite_offset": {"per_shape": 5},
}
CLI_SUBCOMMANDS = ("table", "pi-regular", "pi-offset", "gauge", "perimeter", "radon", "verify")
# cli: each cycle runs `verify` once and every other command this many times,
# about a fifth of the cycle, so that the millisecond commands are timed over
# a stretch of each cycle rather than in one short burst
CLI_ROUNDS = 60
# radon: each cycle runs the norms up to n = RADON_LIGHT_N (the median op
# among them) in RADON_ROUNDS rounds and the larger ones once, spread over
# the rounds; the n = 126 norms take about half a cycle, and the cheap ops
# would otherwise get as few runs as they do
RADON_LIGHT_N, RADON_ROUNDS = 30, 4


class Workload:
    """The ops of a workload and the order the timed loop cycles through them."""

    _ops: list

    def ops(self):
        return self._ops

    def schedule(self) -> list[int]:
        """Op indices of one cycle of the timed loop: by default every op once."""
        return list(range(len(self._ops)))


class Certify(Workload):
    """One op builds a Ball, then runs pi_ball, the hexagon bound and a 21-sample width profile."""

    def __init__(self, inputs, mk, tr, workdir):
        self.items = inputs["balls"]
        self._ops = [self._op(mk, tr, b) for b in self.items]

    @staticmethod
    def _op(mk, tr, b):
        n = len(b["vertices"])
        polygon = tr.wrap("geom2d.ConvexPolygon", mk.ConvexPolygon, n=n)
        make_ball = tr.wrap("gauge.Ball", mk.Ball, n=n)
        pi_ball = tr.wrap("perimeter.pi_ball", mk.pi_ball, kind="certify", n=n)
        hexagon = tr.wrap("perimeter.inscribed_hexagon_bound", mk.inscribed_hexagon_bound, n=n)
        profile = tr.wrap("perimeter.width_profile", mk.width_profile, n=n)
        pairs, center, vec = b["vertices"], b["center"], mk.Vec2

        def op():
            ball = make_ball(polygon(pairs), vec(center[0], center[1]))
            return pi_ball(ball), hexagon(ball), profile(ball, 21)

        return op

    @staticmethod
    def plain(result):
        pi, hb, wp = result
        return {
            "pi": pi,
            "half_perimeter": hb.half_perimeter,
            "unit_side_count": hb.unit_side_count,
            "hexagon": [(v.x, v.y) for v in hb.hexagon.vertices],
            "widths": wp.widths(),
        }

    def check(self, i, res):
        return oracles.check_certify(self.items[i], res)


class GaugeLarge(Workload):
    """Balls built in set-up; one op is a query batch, one measure_perimeters and,
    for centered regular n-gons up to n = 1024, one pi_ball."""

    def __init__(self, inputs, mk, tr, workdir):
        self.items = inputs["cases"]
        self.mk = mk
        self._ops = []
        for case in self.items:
            n = case["n"]
            poly = tr.wrap("geom2d.ConvexPolygon", mk.ConvexPolygon, n=n)(case["vertices"])
            ball = tr.wrap("gauge.Ball", mk.Ball, n=n)(poly, mk.Vec2(*case["center"]))
            mgon = tr.wrap("geom2d.ConvexPolygon", mk.ConvexPolygon, n=len(case["mgon"]))(case["mgon"])
            queries = [mk.Vec2(x, y) for x, y in case["queries"]]
            self._ops.append(self._op(mk, tr, case, ball, mgon, queries))

    @staticmethod
    def _op(mk, tr, case, ball, mgon, queries):
        n = case["n"]
        gauge = tr.wrap("gauge.gauge", mk.gauge, n=n)
        measure = tr.wrap("perimeter.measure_perimeters", mk.measure_perimeters, n=n)
        pi_ball = tr.wrap("perimeter.pi_ball", mk.pi_ball, kind="centered", n=n) if case["pi_ball"] else None

        def op():
            values = [gauge(ball, q) for q in queries]
            report = measure(ball, mgon)
            return values, report, pi_ball(ball) if pi_ball else None

        return op

    @staticmethod
    def plain(result):
        values, report, pi = result
        return {"gauges": values, "perimeters": report.to_dict(), "pi": pi}

    def check(self, i, res):
        case = self.items[i]
        closed = self.mk.pi_n_closed(case["n"]) if case["pi_ball"] else None
        return oracles.check_gauge_case(case, res, closed)


class Radon(Workload):
    """One op is one radon_witness call on a norm built in set-up."""

    def __init__(self, inputs, mk, tr, workdir):
        self.items = inputs["norms"]
        self._ops = []
        for norm in self.items:
            n = norm["n"]
            poly = tr.wrap("geom2d.ConvexPolygon", mk.ConvexPolygon, n=n)(norm["vertices"])
            ball = tr.wrap("gauge.Ball", mk.Ball, n=n)(poly, mk.Vec2(*norm["center"]))
            witness = tr.wrap("birkhoff.radon_witness", mk.radon_witness, n=n)
            self._ops.append(lambda w=witness, b=ball: w(b))

    def schedule(self):
        light = [i for i, norm in enumerate(self.items) if norm["n"] <= RADON_LIGHT_N]
        heavy = [i for i, norm in enumerate(self.items) if norm["n"] > RADON_LIGHT_N]
        return [i for r in range(RADON_ROUNDS) for i in light + heavy[r::RADON_ROUNDS]]

    @staticmethod
    def plain(w):
        if w is None:
            return {"radon": True}
        return {"radon": False, "x": (w.x.x, w.x.y), "y": (w.y.x, w.y.y)}

    def check(self, i, res):
        return oracles.check_radon(self.items[i], res)


class Cli(Workload):
    """One op is one `minkpi` command through ``minkpi.cli.main``, output to a file."""

    def __init__(self, inputs, mk, tr, workdir):
        self.inputs = inputs
        paths = {}
        for key in ("ball", "poly"):
            paths["{" + key + "}"] = os.path.join(workdir, f"{key}.json")
            with open(paths["{" + key + "}"], "w", encoding="utf-8") as fh:
                json.dump(inputs[key], fh)
        self.items = [[paths.get(a, a) for a in argv] for argv in inputs["commands"]]
        self._ops = []
        for k, argv in enumerate(self.items):
            out = os.path.join(workdir, f"out{k}.txt")
            main = tr.wrap("cli.main", mk.cli.main, sub=oracles.subcommand(argv))
            self._ops.append(self._op(main, argv + ["--output", out], out))

    @staticmethod
    def _op(main, argv, out):
        def op():
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            with open(out, encoding="utf-8") as fh:
                return code, fh.read()

        return op

    def schedule(self):
        slow = [i for i, argv in enumerate(self.items) if oracles.subcommand(argv) == "verify"]
        fast = [i for i in range(len(self._ops)) if i not in slow]
        return slow + fast * CLI_ROUNDS

    @staticmethod
    def plain(result):
        return {"code": result[0], "text": result[1]}

    def check(self, i, res):
        return oracles.check_cli(self.items[i], res["code"], res["text"], self.inputs)


WORKLOADS = {"cli": Cli, "certify": Certify, "gauge-large": GaugeLarge, "radon": Radon}


def probe_inputs(name: str, inputs: dict, quick: bool) -> dict:
    """The reduced pass of a workload that the layer probe runs."""
    if name == "certify":
        return {"balls": inputs["balls"][: 20 if quick else 200]}
    if name == "radon":
        return {"norms": [x for x in inputs["norms"] if x["n"] in (10, 30, 62, 126)]}
    return inputs


def direct_calls(mk, tr, quick: bool):
    """(op, check) pairs that time public functions of verify, regular_pi,
    offset_shapes and geom2d directly. ``check`` maps the result to None or
    a reason."""
    calls = []
    for name in VERIFY_FUNCS:
        fn = tr.wrap(f"verify.{name}", getattr(mk.verify, name))
        args = (VERIFY_SEED,) if name in SEEDED else ()
        kwargs = QUICK_COUNTS.get(name, {}) if quick else {}
        calls.append(
            (lambda fn=fn, a=args, k=kwargs: fn(*a, **k), lambda r, name=name: None if r.passed else f"{name}: {r.detail}")
        )
    closed = tr.wrap("regular_pi.pi_n_closed", mk.pi_n_closed)
    for n in range(3, 65):
        want = oracles.regular_pi(n)
        calls.append((lambda n=n: closed(n), lambda r, n=n, w=want: None if oracles.close(r, w, oracles.PI_TOL) else f"pi_n_closed({n}) = {r!r}, oracle {w!r}"))
    tri = tr.wrap("offset_shapes.pi_isosceles", mk.pi_isosceles)
    for ratio in (0.3, 0.5, 2.0 / 3.0, 0.8, 0.95):
        want = oracles.triangle_pi(ratio)
        calls.append((lambda r=ratio: tri(1.0, r).pi, lambda got, w=want: None if oracles.close(got, w, oracles.PI_TOL) else f"pi_isosceles {got!r}, oracle {w!r}"))
    sq = tr.wrap("offset_shapes.pi_square", mk.pi_square)
    for height in (0.2, 0.5, 0.8):
        want = oracles.square_pi(height)
        calls.append((lambda h=height: sq(1.0, h, mk.AxisConfig.A).pi, lambda got, w=want: None if oracles.close(got, w, oracles.PI_TOL) else f"pi_square {got!r}, oracle {w!r}"))
    regular = tr.wrap("geom2d.regular_polygon", mk.regular_polygon)
    for k in range(20):
        phase = 2.0 * math.pi * k / 20
        want = oracles.regular_loop(64, 1.0, phase)

        def check(poly, want=want):
            got = [(v.x, v.y) for v in poly.vertices]
            ok = len(got) == 64 and all(math.hypot(a - c, b - d) <= 1e-12 for (a, b), (c, d) in zip(got, want))
            return None if ok else "regular_polygon(64) differs from the oracle loop"

        calls.append((lambda p=phase: regular(64, 1.0, p), check))
    return calls


def layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run's spans, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for layer, (calls, busy) in tr.layer_totals().items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.busy_s"] = (busy, "s")
    for n in GAUGE_SIZES:
        out[f"gauge.gauge_us.n{n}"] = (tr.median("gauge.gauge", n=n) * 1e6, "us")
        out[f"gauge.ball_build_us.n{n}"] = (tr.median("gauge.Ball", n=n) * 1e6, "us")
        out[f"geom2d.polygon_build_us.n{n}"] = (tr.median("geom2d.ConvexPolygon", n=n) * 1e6, "us")
        out[f"perimeter.measure_perimeters_us.n{n}"] = (tr.median("perimeter.measure_perimeters", n=n) * 1e6, "us")
    out["geom2d.regular_polygon_us"] = (tr.median("geom2d.regular_polygon") * 1e6, "us")
    out["perimeter.pi_ball_us"] = (tr.median("perimeter.pi_ball", kind="certify") * 1e6, "us")
    for n in (64, 512, 1024):
        out[f"perimeter.pi_ball_us.n{n}"] = (tr.median("perimeter.pi_ball", kind="centered", n=n) * 1e6, "us")
    hexes = sorted(tr.durations("perimeter.inscribed_hexagon_bound"))
    out["perimeter.hexbound_us.p50"] = (percentile(hexes, 50) * 1e6, "us")
    out["perimeter.hexbound_us.p99"] = (percentile(hexes, 99) * 1e6, "us")
    out["perimeter.width_profile_us"] = (tr.median("perimeter.width_profile") * 1e6, "us")
    for n in (10, 30, 62, 126):
        out[f"birkhoff.radon_witness_ms.n{n}"] = (tr.median("birkhoff.radon_witness", n=n) * 1e3, "ms")
    for name in VERIFY_FUNCS:
        out[f"verify.{name}_s"] = (tr.median(f"verify.{name}"), "s")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = (tr.median("cli.main", sub=sub) * 1e3, "ms")
    return out


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise LookupError("no samples")
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]
