"""run_all: the checks run in worker processes and come back in ledger order."""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import minkpi.verify as vf
from minkpi import cli
from minkpi.errors import InvalidParameter
from minkpi.verify import CheckResult


def stub(name, passed=True, delay=0.0):
    def check():
        time.sleep(delay)
        return CheckResult(name, passed, f"{name} detail", counts={"runs": 1})

    return check


def seeded_stub(seed):
    return CheckResult("seeded", True, f"seed {seed}")


def raising_stub():
    raise InvalidParameter("stub check rejected its input")


@pytest.fixture
def checks(monkeypatch):
    """Replace the 18 checks by stubs; worker processes fork from this process,
    so they see the replacements."""

    def install(criteria, suites=()):
        monkeypatch.setattr(vf, "CRITERIA", list(criteria))
        monkeypatch.setattr(vf, "SUITES", list(suites))
        monkeypatch.setattr(vf, "SEEDED", {seeded_stub})

    return install


@pytest.fixture
def submitted(monkeypatch):
    """The ledger indices run_all submits to its pool, in submission order."""
    indices, submit = [], ProcessPoolExecutor.submit

    def recording(self, fn, *args, **kwargs):
        indices.append(args[0])
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    return indices


def test_results_come_back_in_ledger_order_with_labels(checks, submitted):
    # the first check finishes last, so completion order differs from ledger order
    checks(
        [("1", stub("slow", delay=0.3)), ("2", stub("fast")), ("10", seeded_stub)],
        [stub("suite a"), stub("suite b")],
    )
    results = vf.run_all(7)
    assert submitted == [0, 1, 2, 3, 4]  # no stub is among the slowest checks
    assert [r.name for r in results] == [
        "criterion 1: slow",
        "criterion 2: fast",
        "criterion 10: seeded",
        "suite a",
        "suite b",
    ]
    assert results[2].detail == "seed 7"
    assert results[0].counts == {"runs": 1} and results[2].counts == {}
    assert results[0].seconds >= 0.3 > results[1].seconds
    assert len(set(results)) == 5  # results stay hashable with a counts dict
    assert multiprocessing.active_children() == []


def test_slowest_checks_are_submitted_first():
    order = vf._submission_order()
    fns = [fn for _, fn in vf._checks()]
    assert sorted(order) == list(range(18))
    assert fns[order[0]] is vf.suite_perimeter
    assert [fns[i] for i in order[:3]] == list(vf.SLOWEST_FIRST)
    assert order[3:] == sorted(order[3:])  # the rest in ledger order


def test_slow_check_submitted_first_still_reports_in_ledger_order(checks, submitted, monkeypatch):
    slow = stub("slow", delay=0.3)
    checks([("1", stub("a")), ("2", stub("b"))], [slow])
    monkeypatch.setattr(vf, "SLOWEST_FIRST", (slow,))
    results = vf.run_all(0)
    assert submitted == [2, 0, 1]
    assert [r.name for r in results] == ["criterion 1: a", "criterion 2: b", "slow"]
    assert multiprocessing.active_children() == []


def test_failing_check_fails_the_ledger(checks, capsys):
    checks([("1", stub("good")), ("2", stub("bad", passed=False))], [stub("suite")])
    assert [r.passed for r in vf.run_all(0)] == [True, False, True]
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  criterion 2: bad: bad detail\n" in out
    assert out.endswith("FAILED: 2/3 checks passed (seed 0)\n")


def test_raising_check_is_a_usage_error_and_leaves_no_worker(checks, capsys):
    checks([("1", stub("good", delay=0.2)), ("2", raising_stub)], [stub("suite")])
    with pytest.raises(InvalidParameter, match="stub check rejected its input"):
        vf.run_all(0)
    assert multiprocessing.active_children() == []
    assert cli.main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stub check rejected its input\n"
    assert multiprocessing.active_children() == []


def test_successive_runs_agree():
    first, second = vf.run_all(0), vf.run_all(0)
    assert len(first) == 18 and all(r.passed for r in first)
    assert [replace(r, seconds=0.0) for r in first] == [replace(r, seconds=0.0) for r in second]
    assert multiprocessing.active_children() == []
