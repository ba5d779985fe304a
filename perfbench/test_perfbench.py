"""Tests of the benchmark itself: inputs, oracles and the output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs as inp  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OFF = Tracer(False)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", inp.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first = inp.digest(inp.make_inputs(workload, 7))
    assert inp.digest(inp.make_inputs(workload, 7)) == first
    assert inp.digest(inp.make_inputs(workload, 8)) != first


@pytest.mark.parametrize("workload", inp.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric_without_failures(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "# fail_frac = 0 " in proc.stdout


def test_untraced_run_passes_on_another_seed():
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout[-3000:]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "radon", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each checker accepts the library's real answer and flags it when one number
# is off by one part in a million


def perturbed(value: float) -> float:
    return value * (1.0 + 1e-6)


@pytest.fixture(scope="module")
def mk():
    import minkpi
    import minkpi.cli  # noqa: F401

    return minkpi


def first_result(work):
    return work.plain(work.ops()[0]())


def test_certify_checker_flags_perturbed_results(mk, tmp_path):
    work = wl.Certify({"balls": inp.make_inputs("certify", 0, quick=True)["balls"][:1]}, mk, OFF, str(tmp_path))
    res = first_result(work)
    assert work.check(0, res) is None
    for key in ("pi", "half_perimeter"):
        assert work.check(0, dict(res, **{key: perturbed(res[key])})) is not None
    widths = list(res["widths"])
    widths[10] = perturbed(widths[10])
    assert work.check(0, dict(res, widths=widths)) is not None
    hexagon = list(res["hexagon"])
    hexagon[0] = (perturbed(hexagon[0][0]), hexagon[0][1])
    assert work.check(0, dict(res, hexagon=hexagon)) is not None


def test_gauge_checker_flags_perturbed_results(mk, tmp_path):
    cases = [c for c in inp.make_inputs("gauge-large", 0)["cases"] if c["n"] == 64 and c["pi_ball"]]
    work = wl.GaugeLarge({"cases": cases}, mk, OFF, str(tmp_path))
    res = first_result(work)
    assert work.check(0, res) is None
    gauges = list(res["gauges"])
    gauges[3] = perturbed(gauges[3])
    assert work.check(0, dict(res, gauges=gauges)) is not None
    for key in ("ccw", "cw", "min", "max"):
        assert work.check(0, dict(res, perimeters=dict(res["perimeters"], **{key: perturbed(res["perimeters"][key])}))) is not None
    assert work.check(0, dict(res, pi=perturbed(res["pi"]))) is not None


def test_radon_checker_flags_wrong_answers(mk, tmp_path):
    norms = [x for x in inp.make_inputs("radon", 0, quick=True)["norms"] if x["affine"]]
    work = wl.Radon({"norms": norms}, mk, OFF, str(tmp_path))
    for i, op in enumerate(work.ops()):
        res = work.plain(op())
        assert work.check(i, res) is None
        if not res["radon"]:
            assert work.check(i, {"radon": True}) is not None
            swapped = {"radon": False, "x": res["y"], "y": res["x"]}
            assert work.check(i, swapped) is not None
        else:
            assert work.check(i, {"radon": False, "x": (1.0, 0.0), "y": (0.0, 1.0)}) is not None


def perturb_csv(text: str, first_cell: str, col: int) -> str:
    lines = text.splitlines()
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == first_cell:
            cells[col] = format(perturbed(float(cells[col])), ".15g")
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_cli_checker_flags_perturbed_outputs(mk, tmp_path):
    data = inp.make_inputs("cli", 0)
    data["commands"] = [c for c in data["commands"] if c[0] in ("table", "gauge", "pi-offset")]
    work = wl.Cli(data, mk, OFF, str(tmp_path))
    for i, op in enumerate(work.ops()):
        res = work.plain(op())
        assert work.check(i, res) is None
        sub, text = work.items[i][0], res["text"]
        if sub == "table":
            bad = perturb_csv(text, "5", 1)
        elif sub == "pi-offset":
            bad = perturb_csv(text, "triangle", 4)
        else:
            bad = format(perturbed(float(text)), ".15g") + "\n"
        assert bad != text
        assert work.check(i, dict(res, text=bad)) is not None


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    import run

    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (75, 30.0)
    assert run.tail([float(i) for i in range(1, 11)]) == (100, 10.0)


def test_oracle_gauge_matches_known_values():
    tri = oracles.Gauge(inp.TRIANGLE, (0.0, 0.0))
    assert oracles.close(tri(0.0, -1.0), 2.0, 1e-15)
    assert oracles.close(oracles.regular_pi(6), 3.0, 1e-12)
    assert oracles.close(oracles.regular_pi(4), 4.0, 1e-12)
    assert oracles.close(oracles.triangle_pi(0.8), 5.0, 1e-12)


class FakeWork:
    """Three ops returning fixed numbers; op 1 raises once, op 2 is wrong."""

    def __init__(self):
        self.calls = 0
        self._ops = [lambda: 1.0, self._flaky, lambda: 3.0]

    def _flaky(self):
        self.calls += 1
        if self.calls == 2:
            raise ValueError("boom")
        return 2.0

    def ops(self):
        return self._ops

    def schedule(self):
        return [0, 1, 2, 0]

    @staticmethod
    def plain(result):
        return result

    @staticmethod
    def check(i, res):
        return None if res == [1.0, 2.0, 2.0][i] else f"op {i} returned {res}"


def test_timed_loop_counts_every_run_and_fails_wrong_and_raising_ones():
    import run

    out = run.Outcome()
    times, cycle_walls = run.timed_loop("fake", FakeWork(), 0.05, out)
    runs = [len(t) for t in times]
    cycles = len(cycle_walls)
    assert cycles >= 2
    # whole cycles plus the part of one the deadline cut
    assert 2 * cycles <= runs[0] <= 2 * cycles + 1
    assert cycles <= runs[2] <= runs[1] <= cycles + 1
    assert all(t > 0.0 for ts in times for t in ts)
    assert out.attempted == sum(runs)
    # op 1 raised once; op 2 is wrong on every run
    assert out.failed == 1 + runs[2]
