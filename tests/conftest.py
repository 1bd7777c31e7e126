"""Shared fixtures: CDCL solver discovery, reusable layer partitions, a
fresh trial clock for each test, and a check that the session leaves no
child process behind."""

import os
import shutil
import sys
from pathlib import Path

import pytest

from redblue import search
from redblue.cube import LayerPartition, layer_partition

_SOLVER_CANDIDATES = (
    "varisat",
    "/opt/cargo/bin/varisat",
    "cadical",
    "kissat",
    "minisat",
    # the in-repo solver comes last, so an installed external one wins
    str(Path(__file__).resolve().parent.parent / "bin" / "redblue-cdcl"),
    "redblue-cdcl",
)


def find_solver() -> str | None:
    """Path of a runnable CDCL solver, or None.

    REDBLUE_SOLVER wins when set.  Otherwise the first installed external
    solver is used, and failing that the in-repo `redblue-cdcl` (the
    checkout's `bin/` launcher, then the console script), whose UNSAT
    verdicts are checked along their logged hints (`check_hints`) before
    it prints them.
    """
    env = os.environ.get("REDBLUE_SOLVER")
    if env:
        return shutil.which(env)
    for candidate in _SOLVER_CANDIDATES:
        found = shutil.which(candidate)
        if found:
            return found
    return None


@pytest.fixture(scope="session")
def solver() -> str:
    """CDCL solver path from `find_solver`; unit tests skip when none can run."""
    path = find_solver()
    if path is None:
        pytest.skip("no CDCL solver found (set REDBLUE_SOLVER)")
    return path


@pytest.fixture(scope="session")
def part1() -> LayerPartition:
    return layer_partition(1)


@pytest.fixture(scope="session")
def part2() -> LayerPartition:
    return layer_partition(2)


@pytest.fixture(scope="session")
def part3() -> LayerPartition:
    return layer_partition(3)


@pytest.fixture(scope="session")
def part4() -> LayerPartition:
    return layer_partition(4)


@pytest.fixture(scope="session")
def part5() -> LayerPartition:
    return layer_partition(5)


def child_alive() -> bool:
    """Whether a child process of this one is still running; reaps those
    that have ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:  # no child left
        return False
    return True  # waitpid found children, none of them ended


@pytest.fixture(autouse=True)
def trials_start_alone(monkeypatch):
    """Each test's searches start as a fresh process's would, running
    their first `START_AFTER_S` of trials alone, whatever tests ran before."""
    monkeypatch.setattr(search, "_spent", 0.0)


@pytest.fixture(scope="session", autouse=True)
def no_process_left():
    """Stop the trial workers at the session's end, then fail if any child
    process is still alive: a run that leaves one behind is a fault."""
    yield
    workers = sys.modules.get("redblue.workers")
    if workers is not None:
        workers.shutdown()
    assert not child_alive(), "a child process outlived the test session"
