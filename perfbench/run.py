"""minkpi benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout the script sits in.
With ``--trace 0`` the script sets the library up several times, then cycles
through the workload's ops for ``--seconds`` seconds, checks every result
against the oracles outside the timed ops and prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass plus the layer
probe, and prints the per-layer metrics. The last line of standard output is
one JSON object; a run record with the input digest, the metrics and any
failures goes to ``.perfbench/`` in the checkout. The exit code is 0 only
when every op passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import inputs as inp
import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up repeats: at least 3, then more until 2 s are spent, at most 41
SETUP_MIN_REPS, SETUP_BUDGET_S, SETUP_MAX_REPS = 3, 2.0, 41
MAX_REPORTED_FAILURES = 20


def load_minkpi():
    """Import minkpi afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "minkpi" or m.startswith("minkpi.")]:
        del sys.modules[name]
    mk = importlib.import_module("minkpi")
    importlib.import_module("minkpi.cli")
    importlib.import_module("minkpi.verify")
    if Path(mk.__file__).resolve().parent != (SRC / "minkpi").resolve():
        raise ImportError(f"minkpi was imported from {mk.__file__}, not from {SRC}")
    return mk


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minkpi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Outcome:
    """Op results and failures of one run, checked after the timed region."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def record(self, label: str, work, i: int, result, error, first: dict) -> bool:
        """Count one run of op ``i``. The first result of each op is kept in
        ``first`` as plain data for ``judge``; every later one must equal it
        (the library is deterministic). Returns whether the run awaits the
        oracle's verdict on the first result, that is, it raised nothing and
        matched."""
        self.attempted += 1
        if error is not None:
            self.fail(f"{label} op {i}: {error}")
            return False
        try:
            plain = work.plain(result)
        except Exception as exc:  # a malformed result is a failed op, not a crash
            self.fail(f"{label} op {i}: plain() raised {type(exc).__name__}: {exc}")
            return False
        if i not in first:
            first[i] = plain
            return True
        if plain != first[i]:
            self.fail(f"{label} op {i}: result differs from its first run")
            return False
        return True

    def judge(self, label: str, work, first: dict, same) -> None:
        """Check each op's first result against its oracle; a wrong answer
        fails every run of the op that returned it."""
        for i, plain in first.items():
            try:
                reason = work.check(i, plain)
            except Exception as exc:  # a checker that raises fails the op
                reason = f"checker raised {type(exc).__name__}: {exc}"
            if reason is not None:
                for _ in range(same[i]):
                    self.fail(f"{label} op {i}: {reason}")

    def check_pass(self, label: str, work, results) -> None:
        """Check the results of one pass, op by op."""
        first: dict = {}
        same = [int(self.record(label, work, i, r, e, first)) for i, (r, e) in enumerate(results)]
        self.judge(label, work, first, same)


def run_pass(ops, tracer: Tracer):
    """Run each op once; returns ([(result, error)], [latency s], wall s)."""
    results, latencies = [], []
    start = perf_counter()
    for op in ops:
        with tracer.span("bench.op"):
            t0 = perf_counter()
            try:
                result, error = op(), None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
        results.append((result, error))
    return results, latencies, perf_counter() - start


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest of p99, p90, p75 with at least 10 ops beyond it; with fewer than
    40 ops no percentile has that many, and the slowest op stands in."""
    n = len(latencies)
    p = next((p for p in (99, 90, 75) if n * (100 - p) >= 1000), 100)
    return p, wl.percentile(sorted(latencies), p)


def timed_loop(name: str, work, seconds: float, out: Outcome):
    """Cycle through the workload's schedule for ``seconds``, finishing at
    least one whole cycle; returns the latencies of each op's runs and the
    wall time of each whole cycle. After the first cycle the loop stops at
    the first op whose fastest run would end past the deadline, so the run
    neither overruns by a slow op nor idles until a cycle's end.

    Each result is turned into plain data between ops and compared with the
    op's first result; the first results go to the oracles after the loop."""
    ops, schedule = work.ops(), work.schedule()
    times: list[list[float]] = [[] for _ in ops]
    first: dict = {}
    same = [0] * len(ops)
    cycle_walls = []
    deadline = perf_counter() + seconds
    while True:
        cycle_start = perf_counter()
        for i in schedule:
            if cycle_walls and perf_counter() + min(times[i]) > deadline:
                break
            t0 = perf_counter()
            try:
                result, error = ops[i](), None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            times[i].append(perf_counter() - t0)
            if out.record(name, work, i, result, error, first):
                same[i] += 1
            del result
        else:
            cycle_walls.append(perf_counter() - cycle_start)
            continue
        break
    out.judge(name, work, first, same)
    return times, cycle_walls


def timed_run(name: str, data: dict, seconds: float, workdir: str, out: Outcome):
    off = Tracer(False)
    load_minkpi()  # compiles bytecode once; users pay that only on first install
    setups = []
    while len(setups) < SETUP_MIN_REPS or (len(setups) < SETUP_MAX_REPS and sum(setups) < SETUP_BUDGET_S):
        t0 = perf_counter()
        mk = load_minkpi()
        work = wl.WORKLOADS[name](data, mk, off, workdir)
        setups.append(perf_counter() - t0)
    times, cycle_walls = timed_loop(name, work, seconds, out)
    # Each op's latency is the median of its runs. The shared host swings
    # between a fast state and one about 1.7x slower for seconds to tens of
    # seconds at a time; whether a run meets a fast stretch at all is luck, so
    # the fastest run of an op varies more from run to run than its median.
    lat = [statistics.median(t) for t in times]
    runs = [len(t) for t in times]
    p, tail_s = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "cycles": len(cycle_walls),
        "cycle_walls_s": cycle_walls,
        "ops": len(lat),
        "op_tail_percentile": p,
        "setups_s": setups,
        "op_runs": runs,
        "op_times_ms": [[round(x * 1e3, 4) for x in t] for t in times],
    }
    return metrics, notes, None


def traced_run(name: str, data: dict, seed: int, quick: bool, workdir: str, out: Outcome):
    mk = load_minkpi()
    work = wl.WORKLOADS[name](data, mk, Tracer(False), workdir)
    results, _, untraced = run_pass(work.ops(), Tracer(False))
    out.check_pass(f"{name} untraced", work, results)

    tr = Tracer(True)
    with tr.span("bench.setup"):
        work = wl.WORKLOADS[name](data, mk, tr, workdir)
    with tr.span("bench.pass"):
        results, _, traced = run_pass(work.ops(), tr)
    out.check_pass(f"{name} traced", work, results)

    # the layer probe: a reduced pass of every workload, then direct calls,
    # so that every per-layer metric has spans whichever workload this is
    for other, cls in wl.WORKLOADS.items():
        with tr.span("bench.probe", workload=other):
            probe = cls(wl.probe_inputs(other, inp.make_inputs(other, seed), quick), mk, tr, workdir)
            results, _, _ = run_pass(probe.ops(), tr)
        out.check_pass(f"probe {other}", probe, results)
    for i, (call, check) in enumerate(wl.direct_calls(mk, tr, quick)):
        out.attempted += 1
        try:
            with tr.span("bench.probe", workload="direct"):
                reason = check(call())
        except Exception as exc:  # a probe call that raises is a failed op
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            out.fail(f"probe direct {i}: {reason}")

    try:
        metrics = wl.layer_metrics(tr)
    except LookupError as exc:
        out.fail(f"per-layer metric missing: {exc}")
        metrics = {}
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    notes = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(tr.spans)}
    return metrics, notes, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inp.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "minkpi" / "__init__.py").is_file():
        print(f"error: no minkpi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    data = inp.make_inputs(args.workload, args.seed, args.quick)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "input_sha256": inp.digest(data),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    out = Outcome()
    rundir = ROOT / ".perfbench"
    rundir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=rundir) as workdir:
        try:
            if args.trace:
                metrics, notes, tr = traced_run(args.workload, data, args.seed, args.quick, workdir, out)
            else:
                metrics, notes, tr = timed_run(args.workload, data, args.seconds, workdir, out)
        except ImportError:
            traceback.print_exc()
            return 2
    if tr is not None:
        tr.write(rundir / f"{stem}-spans.jsonl")

    fail_frac = out.failed / max(1, out.attempted)
    record.update(notes=notes, fail_frac=fail_frac, failures=out.failures)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (rundir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("# run " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "notes", "failures")}))
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    if "op_tail_percentile" in notes:
        lo, hi = min(notes["op_runs"]), max(notes["op_runs"])
        print(f"# op_tail_ms is p{notes['op_tail_percentile']} of {notes['ops']} ops, each the median of its {lo} to {hi} runs ({notes['cycles']} whole cycles)")
    print(f"# fail_frac = {fail_frac:.6g} ({out.failed} of {out.attempted} ops)")
    for message in out.failures:
        print(f"# FAILED {message}")
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
