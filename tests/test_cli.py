"""Command line surface: tables, sweeps, fixtures, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minkpi import cli
from minkpi.verify import CheckResult

S3 = math.sqrt(3.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def triangle_fixture(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [[0.0, 1.0], [-S3 / 2, -0.5], [S3 / 2, -0.5]],
                "center": [0.0, 0.0],
            }
        )
    )
    return str(path)


def test_table_one_rows(capsys):
    code, out = run_cli(capsys, ["table", "--which", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,pi_n,family"
    assert len(lines) == 9
    assert lines[1] == "3,4.5,odd-asymmetric"
    assert lines[4].startswith("6,3,")


def test_table_three_beraha(capsys):
    code, out = run_cli(capsys, ["table", "--which", "3"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 11
    assert lines[1] == "1,4"
    assert lines[6] == "6,3"


def test_table_two_piecewise_brackets(capsys):
    code, out = run_cli(capsys, ["table", "--which", "2"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 17
    assert lines[1].startswith("3,1,3,")
    assert lines[5].startswith("7,3,5,")


def test_pi_regular_sweep_and_determinism(capsys):
    argv = ["pi-regular", "--n-min", "3", "--n-max", "100", "--form", "piecewise"]
    code, out1 = run_cli(capsys, argv)
    assert code == 0
    lines = out1.strip().splitlines()
    assert len(lines) == 99
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert 3.0 - 1e-12 <= value <= 4.5 + 1e-12
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


def test_pi_regular_json(capsys):
    code, out = run_cli(capsys, ["pi-regular", "--n-max", "6", "--format", "json"])
    rows = json.loads(out)
    assert code == 0
    assert rows[0]["n"] == 3
    assert rows[0]["family"] == "odd-asymmetric"
    assert rows[0]["value"] == pytest.approx(4.5, rel=1e-12)
    assert rows[-1]["n"] == 6


def test_gauge_command(capsys, triangle_fixture):
    code, out = run_cli(capsys, ["gauge", "--ball", triangle_fixture, "--vector", "0", "-1"])
    assert code == 0
    assert float(out) == pytest.approx(2.0, abs=1e-12)


def test_perimeter_command(capsys, tmp_path, triangle_fixture):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([[0.0, 1.0], [-S3 / 2, -0.5], [S3 / 2, -0.5]]))
    code, out = run_cli(
        capsys, ["perimeter", "--ball", triangle_fixture, "--poly", str(poly), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"ccw", "cw", "min", "max"}
    assert report["ccw"] == pytest.approx(9.0, abs=1e-12)


def test_radon_command(capsys):
    code, out = run_cli(capsys, ["radon", "--n", "6"])
    assert code == 0 and json.loads(out) == {"radon": True, "witness": None}
    code, out = run_cli(capsys, ["radon", "--n", "4"])
    payload = json.loads(out)
    assert code == 0 and payload["radon"] is False
    assert len(payload["witness"]["x"]) == 2 and len(payload["witness"]["y"]) == 2


def test_pi_offset_evaluate(capsys):
    offset = (2.0 / 3.0) * math.sqrt(0.75)
    code, out = run_cli(
        capsys,
        [
            "pi-offset", "--shape", "triangle", "--size", "1", "--base", "1",
            "--offset", f"{offset!r}", "--format", "json",
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["pi"] == pytest.approx(4.5, abs=1e-12)
    assert payload["pi_geometric"] == pytest.approx(4.5, abs=1e-9)
    assert sorted(payload["side_gauges"]) == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)


def test_pi_offset_solve(capsys):
    code, out = run_cli(
        capsys,
        ["pi-offset", "--shape", "hexagon", "--config", "B", "--size", "1", "--solve", "3.5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    offset = float(lines[1].split(",")[-1])
    from minkpi.offset_shapes import AxisConfig, pi_hexagon

    assert pi_hexagon(1.0, offset, AxisConfig.B).pi == pytest.approx(3.5, abs=1e-9)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out = run_cli(capsys, ["table", "--which", "1", "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "n,pi_n,family"


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["pi-regular", "--form", "nonsense"])
    assert err.value.code == 2
    code = cli.main(["pi-offset", "--shape", "square"])  # neither --offset nor --solve
    capsys.readouterr()
    assert code == 2


def run_cli_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 2 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    line = run_cli_error(capsys, ["table", "--output", str(tmp_path / "missing" / "x.csv")])
    assert "cannot write" in line


def test_missing_fixture_is_a_usage_error(capsys, tmp_path):
    run_cli_error(capsys, ["gauge", "--ball", str(tmp_path / "absent.json"), "--vector", "1", "0"])


def test_malformed_json_is_a_usage_error(capsys, tmp_path, triangle_fixture):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0, 1], ')
    run_cli_error(capsys, ["gauge", "--ball", str(bad), "--vector", "1", "0"])
    run_cli_error(capsys, ["perimeter", "--ball", triangle_fixture, "--poly", str(bad)])


def test_fixture_without_center_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "nocenter.json"
    path.write_text(json.dumps({"vertices": [[0.0, 1.0], [-S3 / 2, -0.5], [S3 / 2, -0.5]]}))
    line = run_cli_error(capsys, ["gauge", "--ball", str(path), "--vector", "1", "0"])
    assert '"center"' in line


def test_non_integer_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("MINKPI_SEED", "abc")
    line = run_cli_error(capsys, ["verify"])
    assert "MINKPI_SEED" in line


def test_empty_pi_regular_range_is_a_usage_error(capsys):
    run_cli_error(capsys, ["pi-regular", "--n-min", "10", "--n-max", "5"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", "square", "--config", "A", "--size", "0", "--solve", "5"],
        ["--shape", "hexagon", "--config", "B", "--size", "0", "--solve", "5"],
        ["--shape", "square", "--config", "B", "--size", "-1", "--solve", "5"],
        ["--shape", "triangle", "--size", "1", "--base", "2", "--solve", "5"],
        ["--shape", "triangle", "--size", "1", "--base", "3", "--solve", "5"],
        ["--shape", "square", "--solve", "nan"],
    ],
    ids=["square-size-0", "hexagon-size-0", "square-size-negative", "triangle-flat", "triangle-base-too-long", "nan-target"],
)
def test_bad_solve_request_is_a_usage_error(capsys, argv):
    run_cli_error(capsys, ["pi-offset", *argv])


@pytest.mark.parametrize("tol", ["-1", "0", "1", "2", "nan"])
def test_radon_tolerance_out_of_range_is_a_usage_error(capsys, tol):
    line = run_cli_error(capsys, ["radon", "--n", "6", "--tol", tol])
    assert "0 < tol < 1" in line


def test_triangle_config_b_is_a_usage_error(capsys):
    for tail in (["--offset", "0.5"], ["--solve", "5"]):
        line = run_cli_error(
            capsys, ["pi-offset", "--shape", "triangle", "--config", "B", "--size", "1", "--base", "1", *tail]
        )
        assert "one axis class" in line


def test_overflowing_coordinates_are_a_usage_error(capsys, tmp_path):
    line = run_cli_error(capsys, ["pi-offset", "--shape", "square", "--size", "1e160", "--offset", "1e159"])
    assert "overflows" in line
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": [[0.0, 1e200], [-1e200, -1e200], [1e200, -1e200]], "center": [0.0, 0.0]}))
    line = run_cli_error(capsys, ["gauge", "--ball", str(path), "--vector", "1", "0"])
    assert "overflows" in line


def readme_commands() -> list[list[str]]:
    # the `minkpi ...` lines of the README's "Command line" block, comments cut
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words[1:] for words in lines if words[:1] == ["minkpi"] and words[1] != "verify"]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_run(monkeypatch, capsys, argv):
    monkeypatch.chdir(SRC.parent)  # the fixture paths are relative to the repository root
    code, out = run_cli(capsys, argv)
    assert code == 0 and out


def test_radon_has_no_directions_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["radon", "--n", "10", "--directions", "8"])
    assert err.value.code == 2
    capsys.readouterr()


def test_seed_resolution(monkeypatch, capsys):
    seen = {}

    def fake_run_all(seed):
        seen["seed"] = seed
        return [CheckResult("stub", True, "ok")]

    monkeypatch.setattr(cli.vf, "run_all", fake_run_all)
    monkeypatch.setenv("MINKPI_SEED", "7")
    assert cli.main(["verify"]) == 0
    assert seen["seed"] == 7
    assert cli.main(["--seed", "11", "verify"]) == 0
    assert seen["seed"] == 11
    monkeypatch.delenv("MINKPI_SEED")
    assert cli.main(["verify"]) == 0
    assert seen["seed"] == 0
    capsys.readouterr()


def test_verify_passes_and_exit_code_tracks_results(capsys):
    code, out = run_cli(capsys, ["verify"])
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS  ", "FAIL  "))]
    assert len(lines) == 18  # 12 criteria + 6 invariant suites
    all_pass = all(l.startswith("PASS") for l in lines)
    assert code == (0 if all_pass else 1)
    assert all_pass, [l for l in lines if l.startswith("FAIL")]


def test_verify_json_through_python_m():
    # runs without installing: the package's __main__ with src on the path
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MINKPI_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "minkpi", "verify", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"seed", "ok", "seconds", "workers", "checks"}
    assert payload["seed"] == 0 and payload["ok"] is True
    assert payload["seconds"] > 0.0 and payload["workers"] == cli.vf.worker_count()
    assert len(payload["checks"]) == 18
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "detail", "seconds", "counts"}
        assert check["passed"] is True and check["seconds"] >= 0.0
    counts = {c["name"]: c["counts"] for c in payload["checks"] if c["counts"]}
    assert list(counts) == [
        "criterion 3: geometry vs algebra",
        "criterion 9: general lower bound",
        "criterion 11: perimeter chain",
        "perimeter invariants",
    ]
    geometry = counts["criterion 3: geometry vs algebra"]
    assert set(geometry) == {"max_residual"} and 0.0 <= geometry["max_residual"] <= 1e-9
    sweep = counts["criterion 9: general lower bound"]
    assert set(sweep) == {"balls", "unit_chain", "min_pi_ball", "min_margin"}
    assert sweep["balls"] == 500 and 0 <= sweep["unit_chain"] <= 500
    assert sweep["min_pi_ball"] >= 3.0 and sweep["min_margin"] >= -1e-9
    chain = counts["criterion 11: perimeter chain"]
    assert set(chain) == {"pairs", "max_residual"}
    assert chain["pairs"] == 200 and 0.0 <= chain["max_residual"] <= 1e-9
    widths = counts["perimeter invariants"]
    assert set(widths) == {"profiles", "samples", "min_interior_width"}
    assert widths["profiles"] == 1000 and widths["samples"] == 21
    assert 0.0 < widths["min_interior_width"] <= 2.0  # a width is at most twice the extent


def test_verify_json_tracks_failures(monkeypatch, capsys):
    results = [CheckResult("good", True, "ok", 0.25), CheckResult("bad", False, "off by one")]
    monkeypatch.setattr(cli.vf, "run_all", lambda seed: results)
    code, out = run_cli(capsys, ["--seed", "4", "verify", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload.pop("seconds") >= 0.0  # the wall time of run_all
    assert payload == {
        "seed": 4,
        "ok": False,
        "workers": cli.vf.worker_count(),
        "checks": [
            {"name": "good", "passed": True, "detail": "ok", "seconds": 0.25, "counts": {}},
            {"name": "bad", "passed": False, "detail": "off by one", "seconds": 0.0, "counts": {}},
        ],
    }
    code, out = run_cli(capsys, ["--seed", "4", "verify"])
    assert code == 1
    assert out == "PASS  good: ok\nFAIL  bad: off by one\nFAILED: 1/2 checks passed (seed 4)\n"


@pytest.fixture
def parser_builds(monkeypatch):
    """Count build_parser calls made by main, starting from an empty cache."""
    calls = []
    real, cached = cli.build_parser, cli._parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cached.cache_clear()
    yield calls
    cached.cache_clear()


def test_main_builds_the_parser_once(parser_builds, capsys):
    for which in ("1", "2", "3") * 6 + ("1", "2"):
        assert cli.main(["table", "--which", which]) == 0
    capsys.readouterr()
    assert len(parser_builds) == 1


def run_sequence(capsys, fixture):
    argvs = [
        ["table", "--which", "2"],
        ["gauge", "--ball", fixture, "--vector", "0", "-1"],
        ["pi-regular", "--form", "nonsense"],
        ["radon", "--n", "8"],
        ["pi-offset", "--shape", "hexagon", "--config", "B", "--offset", "0.25", "--format", "json"],
        ["table", "--which", "1", "--format", "json"],
    ]
    seen = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    return seen


def test_reused_parser_matches_fresh_parsers(monkeypatch, capsys, parser_builds, triangle_fixture):
    reused = run_sequence(capsys, triangle_fixture)
    assert len(parser_builds) == 1
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = run_sequence(capsys, triangle_fixture)
    assert len(parser_builds) == 7
    assert reused == fresh


def test_seed_environment_is_read_on_every_call(monkeypatch, capsys, parser_builds):
    seen = []
    monkeypatch.setattr(cli.vf, "run_all", lambda seed: seen.append(seed) or [CheckResult("stub", True, "ok")])
    for raw in ("3", "5"):
        monkeypatch.setenv("MINKPI_SEED", raw)
        assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert seen == [3, 5] and len(parser_builds) == 1
