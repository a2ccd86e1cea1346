"""End-to-end acceptance gate.

One test per registered criterion, so ``pytest -v`` prints one line per
criterion. Each test echoes the line that the CLI ``verify`` subcommand
prints for it and follows its status: PASS passes, XFAIL is an expected
failure, and FAIL or XPASS fails the test.
"""

import itertools

import pytest

from rismf import acceptance
from rismf.acceptance import CRITERIA, Criterion


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda criterion: criterion.name)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line)
    if result.status == "XFAIL":
        pytest.xfail(result.unattainable)
    assert result.status == "PASS", result.line


def test_expected_failures_are_registered_once():
    # select_criteria keys the registry by name, so a duplicate name would
    # shadow its namesake, declared reason and all
    names = [criterion.name for criterion in CRITERIA]
    assert len(set(names)) == len(names)
    declared = [criterion for criterion in CRITERIA if criterion.unattainable is not None]
    assert declared
    for criterion in declared:
        assert criterion.unattainable.strip()
        assert acceptance.select_criteria([criterion.name]) == [criterion]


def test_verdict_ignores_wall_time(monkeypatch):
    # a criterion that passes stays PASS however long the machine took
    clock = itertools.count(0.0, 1e6)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    result = Criterion("instant", lambda: (True, "ok")).run()
    assert result.status == "PASS" and result.detail == "ok" and result.elapsed_s == 1e6
    assert result.line == "PASS instant (1000000.0s): ok"
