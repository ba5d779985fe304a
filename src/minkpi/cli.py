"""Command line front end: tables, sweeps, gauge queries, and the verify ledger.

Exit codes: 0 on success, 1 when verification fails, 2 on usage errors,
including unreadable or malformed fixtures and a non-integer MINKPI_SEED;
those print one ``error: ...`` line on stderr.
CSV output carries a header row and 15 significant digits. The seed for
randomized suites defaults to 0, can be set by the MINKPI_SEED environment
variable, and is overridden by an explicit --seed flag.

``main`` parses with one parser per process, built on its first call, so
repeated in-process calls skip the argparse build; ``build_parser()`` still
returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

from . import verify as vf
from .errors import MinkpiError
from .gauge import Ball, gauge
from .geom2d import ConvexPolygon, Vec2, regular_polygon
from .offset_shapes import (
    AxisConfig,
    OffsetShapeSpec,
    ShapeKind,
    build_offset_ball,
    closed_form_pi,
    solve_offset_for_pi,
)
from .perimeter import measure_perimeters, pi_ball
from .birkhoff import radon_witness
from .regular_pi import (
    beraha,
    classify_family,
    pi_n_beraha,
    pi_n_circle,
    pi_n_closed,
    pi_n_max_form,
    pi_n_piecewise,
    pi_n_side_relation,
    subtended_sides,
)

FORMS = {
    "closed": pi_n_closed,
    "piecewise": pi_n_piecewise,
    "max": pi_n_max_form,
    "beraha": pi_n_beraha,
    "circle": lambda n: pi_n_circle(n)[1],
    "side": pi_n_side_relation,
}


@dataclass
class RunConfig:
    command: str
    output_format: str = "csv"
    output_path: Optional[str] = None
    seed: int = 0


def _num(x: float) -> str:
    return format(x, ".15g")


def _emit(config: RunConfig, header: list[str], rows: list[list]) -> None:
    if config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_num(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True) + "\n"
    _write(config, text)


def _write(config: RunConfig, text: str) -> None:
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MinkpiError(f"cannot write {config.output_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _load_json(path: str, build, expected: str):
    # every I/O or format fault in an input file becomes a one-line usage error
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MinkpiError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise MinkpiError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return build(data)
    except (LookupError, TypeError, ValueError) as exc:
        raise MinkpiError(f"{path}: expected {expected}") from exc


def _load_ball(path: str) -> Ball:
    return _load_json(path, Ball.from_dict, 'a ball fixture {"vertices": [[x, y], ...], "center": [x, y]}')


def _load_polygon(path: str) -> ConvexPolygon:
    return _load_json(path, ConvexPolygon.from_pairs, "a JSON array of [x, y] pairs")


def _resolve_seed(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get("MINKPI_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise MinkpiError(f"MINKPI_SEED must be an integer, got {raw!r}") from None


def _cmd_pi_regular(config: RunConfig, args) -> int:
    if args.n_min > args.n_max:
        raise MinkpiError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    form = FORMS[args.form]
    rows = [
        [n, float(form(n)), classify_family(n).kind.value]
        for n in range(args.n_min, args.n_max + 1)
    ]
    _emit(config, ["n", "value", "family"], rows)
    return 0


def _cmd_table(config: RunConfig, args) -> int:
    if args.which == 1:
        rows = [[n, pi_n_closed(n), classify_family(n).kind.value] for n in range(3, 11)]
        _emit(config, ["n", "pi_n", "family"], rows)
    elif args.which == 2:
        rows = []
        for n in range(3, 19):
            k = subtended_sides(n) - 1
            rows.append([n, 2 * k - 1, 2 * k + 1, pi_n_closed(n)])
        _emit(config, ["n", "cos_low_multiple", "cos_high_multiple", "pi_n"], rows)
    else:
        rows = [[n, beraha(n)] for n in range(1, 11)]
        _emit(config, ["n", "beraha"], rows)
    return 0


def _cmd_pi_offset(config: RunConfig, args) -> int:
    shape = ShapeKind(args.shape)
    axis_config = AxisConfig(args.config)
    if shape is ShapeKind.TRIANGLE and args.base is None:
        raise MinkpiError("--base is required for the triangle")
    if args.solve is not None:
        size = args.size
        if shape is ShapeKind.TRIANGLE:
            if not (0.0 < args.base < 2.0 * args.size):
                raise MinkpiError("triangle base must satisfy 0 < b < 2a")
            size = math.sqrt(args.size**2 - args.base**2 / 4.0)  # solver runs on the height
        roots = solve_offset_for_pi(shape, axis_config, args.solve, size)
        rows = [[shape.value, axis_config.value, args.size, args.solve, r] for r in roots]
        _emit(config, ["shape", "config", "size", "target", "offset"], rows)
        return 0
    if args.offset is None:
        raise MinkpiError("either --offset or --solve is required")
    spec = OffsetShapeSpec(shape, axis_config, args.size, args.offset, base=args.base)
    res = closed_form_pi(spec)
    geom = pi_ball(build_offset_ball(spec))
    if config.output_format == "json":
        payload = {
            "shape": shape.value,
            "config": axis_config.value,
            "size": args.size,
            "offset": args.offset,
            "pi": res.pi,
            "pi_geometric": geom,
            "side_gauges": list(res.side_gauges),
        }
        _write(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(
            config,
            ["shape", "config", "size", "offset", "pi", "pi_geometric"],
            [[shape.value, axis_config.value, args.size, args.offset, res.pi, geom]],
        )
    return 0


def _cmd_gauge(config: RunConfig, args) -> int:
    ball = _load_ball(args.ball)
    value = gauge(ball, Vec2(args.vector[0], args.vector[1]))
    _write(config, _num(value) + "\n")
    return 0


def _cmd_perimeter(config: RunConfig, args) -> int:
    ball = _load_ball(args.ball)
    poly = _load_polygon(args.poly)
    report = measure_perimeters(ball, poly)
    if config.output_format == "json":
        _write(config, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        d = report.to_dict()
        _emit(config, ["ccw", "cw", "min", "max"], [[d["ccw"], d["cw"], d["min"], d["max"]]])
    return 0


def _cmd_radon(config: RunConfig, args) -> int:
    if args.n is not None:
        ball = Ball(regular_polygon(args.n, 1.0, 0.0), Vec2(0.0, 0.0))
    elif args.ball:
        ball = _load_ball(args.ball)
    else:
        raise MinkpiError("either --ball or --n is required")
    witness = radon_witness(ball, tol=args.tol)
    payload = {
        "radon": witness is None,
        "witness": None
        if witness is None
        else {"x": [witness.x.x, witness.x.y], "y": [witness.y.x, witness.y.y]},
    }
    _write(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_verify(config: RunConfig, args) -> int:
    t0 = perf_counter()
    results = vf.run_all(config.seed)
    seconds = perf_counter() - t0
    ok = all(r.passed for r in results)
    if config.output_format == "json":
        payload = {
            "seed": config.seed,
            "ok": ok,
            "seconds": seconds,
            "workers": vf.worker_count(),
            "checks": [asdict(r) for r in results],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = []
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            lines.append(f"{status}  {res.name}: {res.detail}")
        lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed (seed {config.seed})")
        text = "\n".join(lines)
    _write(config, text + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkpi",
        description="Half-perimeters of convex polygonal unit balls under their own asymmetric gauge.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi-regular", help="half-perimeter sweep over regular polygons")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--form", choices=sorted(FORMS), default="closed")
    _io_flags(p)

    p = sub.add_parser("pi-offset", help="offset-center closed forms and inverse solving")
    p.add_argument("--shape", choices=[s.value for s in ShapeKind], required=True)
    p.add_argument("--config", choices=[c.value for c in AxisConfig], default="A")
    p.add_argument("--size", type=float, default=1.0, help="side length (triangle: the equal sides)")
    p.add_argument("--base", type=float, default=None, help="triangle base length")
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--solve", type=float, default=None, help="find offsets reaching this value")
    _io_flags(p)

    p = sub.add_parser("gauge", help="evaluate one gauge value from a ball fixture")
    p.add_argument("--ball", required=True, help="JSON fixture with vertices and center")
    p.add_argument("--vector", type=float, nargs=2, required=True, metavar=("X", "Y"))
    _io_flags(p)

    p = sub.add_parser("perimeter", help="the four perimeter measures of a polygon")
    p.add_argument("--ball", required=True)
    p.add_argument("--poly", required=True, help="JSON array of [x, y] pairs, counterclockwise")
    _io_flags(p)

    p = sub.add_parser("radon", help="test whether a symmetric ball induces a Radon norm")
    p.add_argument("--ball", default=None)
    p.add_argument("--n", type=int, default=None, help="use a regular n-gon instead of a fixture")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance, 0 < tol < 1 (default 1e-9)")
    _io_flags(p, default_format="json")

    p = sub.add_parser("table", help="print a built-in reference table")
    p.add_argument("--which", type=int, choices=(1, 2, 3), default=1)
    _io_flags(p)

    p = sub.add_parser("verify", help="run every acceptance check and invariant suite")
    _io_flags(p)

    return parser


def _io_flags(p: argparse.ArgumentParser, default_format: str = "csv") -> None:
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--output", default=None, help="write to this path instead of stdout")


COMMANDS = {
    "pi-regular": _cmd_pi_regular,
    "pi-offset": _cmd_pi_offset,
    "gauge": _cmd_gauge,
    "perimeter": _cmd_perimeter,
    "radon": _cmd_radon,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged and fills a fresh Namespace, so
    # one parser serves every call in the process
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one ``minkpi`` command and return its exit code.

    The parser is built on the first call and reused by later calls in the
    same process; usage errors raise ``SystemExit`` with code 2.
    """
    args = _parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            output_format=getattr(args, "format", "csv"),
            output_path=getattr(args, "output", None),
            seed=_resolve_seed(args.seed),
        )
        return COMMANDS[args.command](config, args)
    except MinkpiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
